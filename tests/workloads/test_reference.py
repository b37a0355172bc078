"""MemRef and Op parsing / formatting."""

import pytest

from repro.workloads.reference import MemRef, Op


def test_op_parse_accepts_letters_and_names():
    assert Op.parse("R") is Op.READ
    assert Op.parse("w") is Op.WRITE
    assert Op.parse("READ") is Op.READ
    assert Op.parse(" write ") is Op.WRITE


def test_op_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Op.parse("X")


def test_memref_roundtrip():
    ref = MemRef(pid=3, op=Op.WRITE, block=17, shared=True)
    assert MemRef.parse(str(ref)) == ref


def test_memref_roundtrip_private():
    ref = MemRef(pid=0, op=Op.READ, block=2, shared=False)
    assert MemRef.parse(str(ref)) == ref


def test_memref_parse_three_fields_defaults_private():
    ref = MemRef.parse("1 R 5")
    assert ref == MemRef(pid=1, op=Op.READ, block=5, shared=False)


@pytest.mark.parametrize(
    "spelling,op",
    [("R", Op.READ), ("W", Op.WRITE), ("r", Op.READ), ("w", Op.WRITE),
     ("read", Op.READ), ("WRITE", Op.WRITE), ("Write", Op.WRITE)],
)
def test_memref_parse_accepts_every_op_spelling(spelling, op):
    # The canonical letters take a dict fast path; every other spelling
    # Op.parse accepts must still parse to the same MemRef.
    ref = MemRef.parse(f"2 {spelling} 9 s")
    assert ref == MemRef(pid=2, op=op, block=9, shared=True)
    assert ref.is_write is (op is Op.WRITE)


def test_memref_parse_malformed():
    with pytest.raises(ValueError):
        MemRef.parse("1 R")
    with pytest.raises(ValueError):
        MemRef.parse("1 R 5 s extra")
    with pytest.raises(ValueError):
        MemRef.parse("1 X 5")
    with pytest.raises(ValueError):
        MemRef.parse("one R 5")


def test_is_write():
    assert MemRef(0, Op.WRITE, 0).is_write
    assert not MemRef(0, Op.READ, 0).is_write


def test_memref_hashable_and_frozen():
    ref = MemRef(0, Op.READ, 1)
    assert ref in {ref}
    with pytest.raises(AttributeError):
        ref.block = 2  # type: ignore[misc]
