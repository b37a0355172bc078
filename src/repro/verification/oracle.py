"""Coherence oracle.

The simulator does not move byte payloads; every write is stamped with a
globally unique, monotonically increasing *version* from this oracle, and
every read reports the version it returned.  The oracle enforces the
paper's definition of coherence — "a read access to any block always
returns the most recently written value of that block" — as:

  a read issued at time t must return a version at least as new as the
  last version committed to that block strictly before t, and the version
  must be one actually written to that block.

Writes *commit* at their linearization point: the cycle the writing cache
sets its line (after any invalidations were granted), or the cycle memory
is updated for write-through/uncached schemes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


class CoherenceViolation(AssertionError):
    """A read observably returned stale data.

    Carries the violation as structured fields so tooling (the model
    checker's counterexamples, the differential harness) can consume it
    without parsing the message:

    Attributes:
        block: block address that was read.
        pid: processor that issued the read.
        issue_time: cycle the read was issued.
        observed: version the read returned.
        required: minimum version the commit history demanded.
        known: whether ``observed`` was ever actually written.
    """

    def __init__(
        self,
        message: str,
        *,
        block: Optional[int] = None,
        pid: Optional[int] = None,
        issue_time: Optional[int] = None,
        observed: Optional[int] = None,
        required: Optional[int] = None,
        known: bool = True,
    ) -> None:
        super().__init__(message)
        self.block = block
        self.pid = pid
        self.issue_time = issue_time
        self.observed = observed
        self.required = required
        self.known = known


@dataclass
class _BlockHistory:
    """Committed versions of one block, in commit order."""

    times: List[int] = field(default_factory=list)
    versions: List[int] = field(default_factory=list)
    known: set = field(default_factory=lambda: {0})

    def commit(self, time: int, version: int) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("commits must be time-ordered")
        self.times.append(time)
        self.versions.append(version)
        self.known.add(version)

    def latest_before(self, time: int) -> int:
        """Version committed most recently strictly before ``time``."""
        idx = bisect.bisect_left(self.times, time)
        if idx == 0:
            return 0
        return self.versions[idx - 1]


class CoherenceOracle:
    """Issues versions, records commits, checks reads."""

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self._counter = 0
        self._history: Dict[int, _BlockHistory] = {}
        self.reads_checked = 0
        self.writes_committed = 0
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def new_version(self) -> int:
        """Allocate the next global version number."""
        self._counter += 1
        return self._counter

    def commit_write(self, block: int, version: int, time: int, pid: int) -> None:
        """Record that ``version`` became the value of ``block`` at ``time``."""
        self._history.setdefault(block, _BlockHistory()).commit(time, version)
        self.writes_committed += 1

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def check_read(
        self, block: int, version: int, issue_time: int, pid: int
    ) -> None:
        """Validate a completed read against the commit history."""
        self.reads_checked += 1
        history = self._history.get(block)
        floor = history.latest_before(issue_time) if history else 0
        known = version == 0 or (history is not None and version in history.known)
        if version < floor or not known:
            detail = (
                f"P{pid} read block {block} -> v{version} "
                f"(issued t={issue_time}, requires >= v{floor}"
                f"{'' if known else ', version never written'})"
            )
            self.violations.append(detail)
            if self.strict:
                raise CoherenceViolation(
                    detail,
                    block=block,
                    pid=pid,
                    issue_time=issue_time,
                    observed=version,
                    required=floor,
                    known=known,
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latest_version(self, block: int) -> int:
        """Most recent committed version of ``block`` (0 if never written)."""
        history = self._history.get(block)
        return history.versions[-1] if history and history.versions else 0

    def written_blocks(self) -> Iterator[int]:
        """Blocks with at least one committed write."""
        return iter(self._history)

    def latest_committer_time(self, block: int) -> Optional[int]:
        history = self._history.get(block)
        return history.times[-1] if history and history.times else None

    @property
    def ok(self) -> bool:
        return not self.violations
