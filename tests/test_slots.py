"""Allocation-shape tests: hot-path objects carry no ``__dict__``.

The scheduler rework made object allocation itself a measurable cost:
events, trace entries and per-fetch records are created tens of
thousands of times per run.  All of them are declared with
``dataclass(slots=True)``; ``Uop`` declares ``__slots__`` manually.
"""

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.pipeline import Core
from repro.pipeline.context import FetchedInstr, MergePoint
from repro.pipeline.events import ALL_EVENT_TYPES, Event
from repro.pipeline.uop import Uop
from repro.recycle.stream import RecycleStream, StreamKind, TraceEntry
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite


def _nop():
    return Instruction(Op.NOP)


class TestSlotsDataclasses:
    def test_trace_entry_has_no_dict(self):
        entry = TraceEntry(_nop(), 0x1000, 0x1004, src_pos=0)
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.bogus = 1

    def test_recycle_stream_has_no_dict(self):
        stream = RecycleStream(
            kind=StreamKind.BACK,
            dst_ctx=0,
            src_ctx=0,
            entries=[TraceEntry(_nop(), 0x1000, 0x1004, src_pos=0)],
            reuse_allowed=False,
        )
        assert not hasattr(stream, "__dict__")

    def test_fetched_instr_and_merge_point_have_no_dict(self):
        fi = FetchedInstr(0x1004, None, 0)
        mp = MergePoint(0x1000, 0)
        assert not hasattr(fi, "__dict__")
        assert not hasattr(mp, "__dict__")

    def test_every_published_event_has_no_dict(self):
        """Real events from full-feature runs are all slot-only.

        No single kernel publishes the whole catalogue (compress never
        store-forwards at this target), so the coverage is the union
        over two kernels.
        """
        captured = {}
        for kernel in ("compress", "li"):
            spec = RunSpec(workload=(kernel,), features="REC/RS/RU", commit_target=800)
            core = Core(spec.build_config())
            core.load(WorkloadSuite().mix(spec.workload), commit_target=800)
            unsubscribers = core.bus.subscribe_many({
                etype: (lambda ev, etype=etype: captured.setdefault(etype, ev))
                for etype in ALL_EVENT_TYPES
            })
            core.run(max_cycles=spec.max_cycles)
            for unsubscribe in unsubscribers:
                unsubscribe()
        assert set(captured) == set(ALL_EVENT_TYPES)
        for etype, ev in captured.items():
            assert not hasattr(ev, "__dict__"), f"{etype.__name__} grew a __dict__"


class TestUopSlots:
    def test_uop_has_no_dict(self):
        uop = Uop(_nop(), 0x1000, 0, None)
        assert not hasattr(uop, "__dict__")
        with pytest.raises(AttributeError):
            uop.bogus = 1


class TestConstructionCounterSurvivesSlots:
    def test_event_constructed_counter_still_counts(self):
        """``Event.constructed`` is a class attribute, not a slot — the
        slots conversion must not have broken the bookkeeping hook."""
        before = Event.constructed
        Event(0)
        assert Event.constructed == before + 1

    def test_non_events_do_not_touch_the_counter(self):
        before = Event.constructed
        TraceEntry(_nop(), 0x1000, 0x1004, src_pos=0)
        FetchedInstr(0x1004, None, 0)
        assert Event.constructed == before
