"""Memory reference stream primitives."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Op(Enum):
    """A processor memory operation (the paper's LOAD/STORE)."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, text: str) -> "Op":
        text = text.strip().upper()
        for op in cls:
            if text in (op.value, op.name):
                return op
        raise ValueError(f"cannot parse operation {text!r}")


@dataclass(frozen=True)
class MemRef:
    """One memory reference issued by processor ``pid``.

    Coherence operates at block granularity, so the address is the block
    number; the within-block displacement ``d`` of the paper is immaterial
    and not carried.
    """

    pid: int
    op: Op
    block: int
    #: True when the generator classifies this as a writeable-shared block
    #: reference (the paper's ``q``-stream); used by measurement, and by
    #: the static scheme, which never caches shared-writeable data.
    shared: bool = False

    def __post_init__(self) -> None:
        # ``is_write`` is consulted several times per reference on the
        # simulator hot path; resolve it once instead of per access.  Not
        # a dataclass field, so equality/repr are unaffected.
        object.__setattr__(self, "is_write", self.op is Op.WRITE)

    def __str__(self) -> str:
        tag = "s" if self.shared else "p"
        return f"{self.pid} {self.op.value} {self.block} {tag}"

    @classmethod
    def parse(cls, line: str) -> "MemRef":
        """Inverse of :meth:`__str__` (trace file line format).

        The canonical ``R``/``W`` spellings resolve through a dict; any
        other spelling :meth:`Op.parse` accepts (``w``, ``write``) still
        parses, just through the slower enum walk.
        """
        parts = line.split()
        n = len(parts)
        if n != 3 and n != 4:
            raise ValueError(f"malformed trace line: {line!r}")
        op = _TRACE_OPS.get(parts[1]) or Op.parse(parts[1])
        return cls(int(parts[0]), op, int(parts[2]), n == 4 and parts[3] == "s")


#: The spellings :meth:`MemRef.__str__` writes.
_TRACE_OPS = {op.value: op for op in Op}
