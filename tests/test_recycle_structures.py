"""Tests for the written-bit array, MDB, and recycle streams."""

from hypothesis import given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.recycle.mdb import MemoryDisambiguationBuffer
from repro.recycle.stream import RecycleStream, StreamKind, TraceEntry
from repro.recycle.written_bits import WrittenBitArray


class TestWrittenBits:
    def test_initially_unchanged(self):
        w = WrittenBitArray()
        assert w.unchanged_for(5, ctx=3)

    def test_primary_define_marks_spares(self):
        w = WrittenBitArray()
        w.primary_defined(5, spare_mask=0b0110)
        assert not w.unchanged_for(5, 1)
        assert not w.unchanged_for(5, 2)
        assert w.unchanged_for(5, 0)  # primary's own column untouched
        assert w.unchanged_for(5, 3)

    def test_start_path_clears_column(self):
        w = WrittenBitArray()
        w.primary_defined(5, spare_mask=0b0110)
        w.primary_defined(9, spare_mask=0b0110)
        w.start_path(1)
        assert w.unchanged_for(5, 1)
        assert w.unchanged_for(9, 1)
        assert not w.unchanged_for(5, 2)  # other columns untouched

    def test_sources_unchanged(self):
        w = WrittenBitArray()
        w.primary_defined(3, spare_mask=0b10)
        assert not w.sources_unchanged((3, 4), ctx=1)
        assert w.sources_unchanged((4, 5), ctx=1)
        assert w.sources_unchanged((3, 4), ctx=2)

    @given(
        writes=st.lists(st.integers(0, 63), max_size=30),
        ctx=st.integers(0, 7),
    )
    @settings(max_examples=40)
    def test_start_path_resets_everything_for_ctx(self, writes, ctx):
        w = WrittenBitArray()
        for logical in writes:
            w.primary_defined(logical, spare_mask=0xFF)
        w.start_path(ctx)
        assert all(w.unchanged_for(logical, ctx) for logical in range(64))


class TestMdb:
    def test_load_then_reuse(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0x8000)
        assert mdb.can_reuse(0x1000, 0x8000)

    def test_different_address_blocks_reuse(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0x8000)
        assert not mdb.can_reuse(0x1000, 0x8008)

    def test_store_invalidates_matching_loads(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0x8000)
        mdb.record_load(0x1004, 0x8000)
        mdb.record_load(0x1008, 0x9000)
        mdb.record_store(0x8000)
        assert not mdb.can_reuse(0x1000, 0x8000)
        assert not mdb.can_reuse(0x1004, 0x8000)
        assert mdb.can_reuse(0x1008, 0x9000)

    def test_store_to_other_address_harmless(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0x8000)
        mdb.record_store(0x9000)
        assert mdb.can_reuse(0x1000, 0x8000)

    def test_reexecuted_load_updates_address(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0x8000)
        mdb.record_load(0x1000, 0x8008)
        assert not mdb.can_reuse(0x1000, 0x8000)
        assert mdb.can_reuse(0x1000, 0x8008)

    def test_capacity_fifo_eviction(self):
        mdb = MemoryDisambiguationBuffer(entries=2)
        mdb.record_load(0x1000, 0xA)
        mdb.record_load(0x1004, 0xB)
        mdb.record_load(0x1008, 0xC)
        assert not mdb.can_reuse(0x1000, 0xA)  # evicted
        assert mdb.can_reuse(0x1008, 0xC)

    def test_stats(self):
        mdb = MemoryDisambiguationBuffer()
        mdb.record_load(0x1000, 0xA)
        mdb.can_reuse(0x1000, 0xA)
        mdb.can_reuse(0x1000, 0xB)
        assert mdb.reuse_hits == 1 and mdb.reuse_misses == 1


def entries(*pcs):
    out = []
    for i, pc in enumerate(pcs):
        out.append(TraceEntry(Instruction(Op.NOP), pc, pc + 4, src_pos=i))
    return out


class TestStream:
    def test_drain_order(self):
        s = RecycleStream(StreamKind.ALTERNATE, 0, 1, entries(0x10, 0x14, 0x18))
        assert s.peek().pc == 0x10
        s.advance()
        assert s.peek().pc == 0x14
        assert s.remaining == 2

    def test_resume_pc_after_partial_drain(self):
        s = RecycleStream(StreamKind.BACK, 0, 0, entries(0x10, 0x14, 0x18))
        s.advance()
        s.advance()
        assert s.resume_pc() == 0x18  # successor of the last delivered entry

    def test_resume_pc_fresh_stream(self):
        s = RecycleStream(StreamKind.BACK, 0, 0, entries(0x10, 0x14))
        assert s.resume_pc() == 0x10

    def test_stop_sets_reason(self):
        s = RecycleStream(StreamKind.ALTERNATE, 0, 1, entries(0x10))
        s.stop("branch_mismatch")
        assert s.ended and s.end_reason == "branch_mismatch"
        assert s.remaining == 0

    def test_exhausted(self):
        s = RecycleStream(StreamKind.RESPAWN, 0, None, entries(0x10))
        assert not s.exhausted()
        s.advance()
        assert s.exhausted()
