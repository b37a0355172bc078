"""Copy-holder index: which caches (may) hold a copy of a block.

The two-bit directory knows *whether* copies exist, never *whom* — that
is the point of the paper.  But delivering every BROADINV/BROADQUERY as
one event per cache costs O(n) event scheduling per round even when
almost no cache holds the block, which caps the machine at small n.
This index is *simulator-side bookkeeping*, not protocol state: per
homed block, the memory side keeps the set of caches that may hold a
valid copy, updated from the grant/invalidate/eject transitions it
already processes.  Broadcasts deliver real copies only to index
members; every other cache is charged its useless snoop without an
event of its own (see ``docs/performance.md#scaling-to-large-n``).

Invariant (audited): at every transaction boundary the member set is a
*superset* of the caches actually holding a valid line, an in-flight
write-back-buffer entry, or an in-flight fill for the block.  Stale
extra members cost one real (useless) delivery — exactly what the
per-copy path does — so over-approximation never changes behaviour.

Each entry is an int bitmask of pids (bit ``p`` = cache ``p``), the
``sharers`` idiom of a full-map directory entry.  Blocks with no holders
own no entry at all, so an n=1024 machine allocates nothing per
(cache, block) pair, and the index pickles as a dict of ints.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator


def mask_pids(mask: int) -> Iterator[int]:
    """The pids whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CopyHolderIndex:
    """Block -> bitmask of cache pids with a (possible) copy.

    Entries are created on first add and deleted when they empty, so
    ``len(index)`` is the number of blocks with at least one holder and
    memory stays proportional to live sharing, not to n x blocks.
    """

    __slots__ = ("_masks",)

    def __init__(self) -> None:
        self._masks: Dict[int, int] = {}

    # -- mutation ------------------------------------------------------
    def add(self, block: int, pid: int) -> None:
        """``pid`` gains (or may gain) a copy of ``block``."""
        masks = self._masks
        masks[block] = masks.get(block, 0) | (1 << pid)

    def discard(self, block: int, pid: int) -> None:
        """``pid`` no longer holds ``block`` (no-op if absent)."""
        masks = self._masks
        mask = masks.get(block, 0) & ~(1 << pid)
        if mask:
            masks[block] = mask
        else:
            masks.pop(block, None)

    def set_only(self, block: int, pid: int) -> None:
        """``pid`` becomes the sole (possible) holder of ``block``."""
        self._masks[block] = 1 << pid

    def replace(self, block: int, pids: Iterable[int]) -> None:
        """The holder set becomes exactly ``pids`` (empty clears)."""
        mask = 0
        for pid in pids:
            mask |= 1 << pid
        if mask:
            self._masks[block] = mask
        else:
            self._masks.pop(block, None)

    def clear(self, block: int) -> None:
        """No cache holds ``block`` any more."""
        self._masks.pop(block, None)

    # -- queries -------------------------------------------------------
    def mask(self, block: int) -> int:
        """Bitmask of the (possible) holder pids of ``block``."""
        return self._masks.get(block, 0)

    def blocks(self) -> Iterator[int]:
        """Blocks that currently have at least one holder."""
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def total_members(self) -> int:
        """Sum of holder-set sizes (footprint regression metric)."""
        return sum(mask.bit_count() for mask in self._masks.values())
