"""Sweep execution with result caching.

A *sweep* is a list of independent simulation points — (function,
kwargs) pairs, typically one per cell of a results table.  Points run
inline or across supervised worker processes, scheduled by one
:class:`~repro.runner.scheduler.Scheduler`; results land in an on-disk
:class:`~repro.runner.cache.ResultCache`, so re-running a bench after an
unrelated change is effectively free, and editing any ``repro`` source
invalidates everything (see ``cache.code_version``).

Determinism: each point carries its own explicit seed (pin one in the
kwargs, or derive one with :func:`~repro.runner.seeds.derive_seed`), so
results are identical regardless of worker count, execution order, or
whether a value came from the cache.

Point functions must be module-level (picklable by reference), their
kwargs must have stable ``repr`` (builtins and the config dataclasses
qualify), and their results must pickle (the cache and the worker
transports both pickle them); all three are exercised by the unit tests.

Progress streaming: pass ``progress_out=`` (a path, file-like, or
:class:`~repro.obs.progress.ProgressStream`) and the sweep emits a
schema-stamped JSONL lifecycle stream — manifest, per-point
queued/running/done/failed events, and a terminal summary — written
supervisor-side so it is complete even when workers die (see
:mod:`repro.obs.progress`).  Cache hits replay their stored telemetry
into the stream as ``point-metrics`` events, so a warm-cache sweep
produces the same rollup-ready stream as a cold one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.runner.cache import ResultCache, default_cache_dir


class SweepError(RuntimeError):
    """A sweep point raised; carries which point failed."""


class DuplicatePointLabelError(ValueError):
    """Two sweep outcomes share one label; a keyed view would drop data.

    :attr:`SweepReport.by_key` and :attr:`SweepReport.metrics_by_key`
    build dicts keyed by point label.  Silently collapsing colliding
    labels would discard outcomes without a trace, so the collision is
    an error carrying the label and the indices of the points involved.
    """

    def __init__(self, label: Hashable, indices: List[int]) -> None:
        super().__init__(
            f"duplicate sweep point label {label!r} at point indices "
            f"{indices}: a by-key view would silently drop outcomes; "
            f"give the colliding points distinct key= values (or read "
            f".outcomes, which keeps every point)"
        )
        self.label = label
        self.indices = indices


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: call ``fn(**kwargs)``.

    ``key`` labels the point in reports and in
    :attr:`SweepReport.by_key`; it defaults to the kwargs tuple.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    key: Optional[Hashable] = None

    @property
    def label(self) -> Hashable:
        if self.key is not None:
            return self.key
        return tuple(sorted(self.kwargs.items()))


@dataclass(frozen=True)
class WithMetrics:
    """Return this from a point function to attach a telemetry payload.

    The sweep unwraps it: :attr:`PointOutcome.result` is ``value`` and
    :attr:`PointOutcome.metrics` is ``metrics`` (typically
    :func:`repro.obs.machine_metrics`).  The wrapped pair is what gets
    cached, so metrics survive cache hits.
    """

    value: Any
    metrics: Dict[str, Any]


def _unwrap(value: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    if isinstance(value, WithMetrics):
        return value.value, value.metrics
    return value, None


@dataclass
class PointOutcome:
    """Result of one point, with provenance."""

    point: SweepPoint
    result: Any
    cached: bool
    #: Wall-clock seconds until the result was available (0 on a hit).
    elapsed: float
    #: Telemetry attached via :class:`WithMetrics`, or None.
    metrics: Optional[Dict[str, Any]] = None


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, in point order."""

    label: str
    outcomes: List[PointOutcome]
    workers: int
    elapsed: float
    cache_dir: Optional[str]
    #: Worker-death/stall retries performed (worker pools only).
    retries: int = 0

    @property
    def results(self) -> List[Any]:
        return [o.result for o in self.outcomes]

    def _keyed(
        self, entries: Iterable[Tuple[int, Hashable, Any]]
    ) -> Dict[Hashable, Any]:
        """label -> value, raising on collisions instead of dropping."""
        out: Dict[Hashable, Any] = {}
        first: Dict[Hashable, int] = {}
        for index, label, value in entries:
            if label in first:
                raise DuplicatePointLabelError(label, [first[label], index])
            first[label] = index
            out[label] = value
        return out

    @property
    def by_key(self) -> Dict[Hashable, Any]:
        """Results keyed by point label.

        Raises :class:`DuplicatePointLabelError` when two points share a
        label — a dict would silently keep only the last outcome.
        """
        return self._keyed(
            (i, o.point.label, o.result) for i, o in enumerate(self.outcomes)
        )

    @property
    def metrics_by_key(self) -> Dict[Hashable, Dict[str, Any]]:
        """Telemetry payloads for points that returned :class:`WithMetrics`.

        Raises :class:`DuplicatePointLabelError` on label collisions,
        exactly as :attr:`by_key` does.
        """
        return self._keyed(
            (i, o.point.label, o.metrics)
            for i, o in enumerate(self.outcomes)
            if o.metrics is not None
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        return len(self.outcomes) - self.cache_hits

    def summary(self) -> str:
        cache = self.cache_dir if self.cache_dir else "off"
        retries = f", {self.retries} retries" if self.retries else ""
        return (
            f"[sweep {self.label}] {len(self.outcomes)} points: "
            f"{self.cache_hits} cached, {self.executed} executed "
            f"({self.workers} workers, {self.elapsed:.2f}s, "
            f"cache={cache}{retries})"
        )


def _label_str(point: SweepPoint) -> str:
    """Human/JSON-friendly form of a point's label for progress events."""
    label = point.label
    # The emptiness guard matters: all() over an empty tuple is
    # vacuously true, and the join would render the label as "" —
    # progress events and reports must never carry a blank point label.
    if (
        isinstance(label, tuple)
        and label
        and all(
            isinstance(item, tuple) and len(item) == 2 for item in label
        )
    ):
        return ", ".join(f"{k}={v}" for k, v in label)
    return repr(label)


def _execute(
    fn: Callable[..., Any], kwargs: Dict[str, Any]
) -> Tuple[Any, float]:
    # Every transport runs points through here.  Timing lives here, in
    # the worker, so a parallel point's elapsed reflects its own run
    # time rather than how long the supervisor took to collect it.
    t0 = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - t0


def run_sweep(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    cache_dir: Optional[Any] = None,
    use_cache: bool = True,
    label: str = "sweep",
    verbose: bool = False,
    progress_out: Optional[Any] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    max_retries: int = 2,
    stall_timeout: Optional[float] = None,
) -> SweepReport:
    """Run every point, consulting/filling the result cache.

    Args:
        points: the sweep cells; order is preserved in the report.
        workers: process count; ``None`` / ``1`` runs inline, in this
            process.  More run on a supervised pool of worker processes
            (:mod:`repro.runner.elastic`): dead or stalled workers are
            replaced and their shards retried.
        cache_dir: result cache directory; ``None`` uses
            :func:`~repro.runner.cache.default_cache_dir`.
        use_cache: set False to force re-execution (cache is not read
            *or* written).
        label: sweep name for the summary line.
        verbose: print a progress line per point.
        progress_out: path, file-like, or ProgressStream for the JSONL
            lifecycle event stream (None = off); see
            :mod:`repro.obs.progress`.
        checkpoint_every: cycle interval for per-shard machine
            checkpoints (0 = off), applied to point functions that
            accept ``checkpoint_every``/``checkpoint_path`` kwargs; a
            retried shard resumes from its last checkpoint.
        checkpoint_dir: where shard checkpoints live; a temporary
            directory when omitted.
        max_retries: how many times one shard may be retried after a
            worker death or stall before the sweep fails.
        stall_timeout: seconds a shard may hold a worker before it is
            presumed hung and its worker killed (None = no stall check).

    Raises:
        SweepError: a point raised (the original exception chains on
            inline runs), or a shard exhausted its retries.
    """
    n_workers = 1 if workers is None else max(1, int(workers))
    return _run(
        points,
        n_workers,
        n_workers > 1,
        cache_dir=cache_dir,
        use_cache=use_cache,
        label=label,
        verbose=verbose,
        progress_out=progress_out,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        max_retries=max_retries,
        stall_timeout=stall_timeout,
    )


def _run(
    points: Sequence[SweepPoint],
    workers: int,
    pooled: bool,
    cache_dir: Optional[Any] = None,
    use_cache: bool = True,
    label: str = "sweep",
    verbose: bool = False,
    progress_out: Optional[Any] = None,
    checkpoint_every: int = 0,
    checkpoint_dir: Optional[str] = None,
    max_retries: int = 2,
    stall_timeout: Optional[float] = None,
) -> SweepReport:
    """One local sweep: the scheduler core plus the inline transport, or
    plus the pipe pool when ``pooled``."""
    from repro.runner.elastic import run_pool
    from repro.runner.scheduler import Scheduler

    cache = (
        ResultCache(cache_dir if cache_dir is not None else default_cache_dir())
        if use_cache
        else None
    )
    core = Scheduler(
        points,
        label=label,
        cache=cache,
        progress_out=progress_out,
        workers=workers,
        pooled=pooled,
        max_retries=max_retries,
        stall_timeout=stall_timeout,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        verbose=verbose,
    )
    try:
        if pooled:
            run_pool(core, workers)
        else:
            _run_inline(core)
    except BaseException as exc:
        core.abort(str(exc))
        raise
    if core.status == "failed":
        raise SweepError(core.error)
    if verbose:
        print(core.report.summary())
    return core.report


def _run_inline(core) -> None:
    """The inline transport: one pseudo-worker, this process."""
    core.join(None)
    index = core.assign(None)
    while index is not None:
        fn, kwargs = core.tasks[index]
        try:
            value, elapsed = _execute(fn, kwargs)
        except Exception as exc:
            core.point_error(None, index, str(exc))
            raise SweepError(core.error) from exc
        core.result(None, index, value, elapsed)
        index = core.assign(None)
