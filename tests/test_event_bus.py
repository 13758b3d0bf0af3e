"""Tests for the typed pipeline event bus (repro.pipeline.events).

Four guarantees are pinned here:

* subscription/delivery order is deterministic (handlers fire in
  subscription order, ``subscribe_many`` follows its dict),
* the bus is for observers only: a bare core subscribes nothing and
  costs **zero event allocations** during a full simulation
  (``Event.constructed`` does not move), and subscribers change no
  ``SimStats`` field,
* the events carry the paper's control-flow counts: a subscriber
  rebuilds them exactly, and
* the workload suite actually exercises the whole event catalogue —
  every type in ``ALL_EVENT_TYPES`` is published by a REC/RS/RU run.
"""

import dataclasses

import pytest

from repro.analysis.checker import CrossChecker
from repro.debug import CoreTracer
from repro.pipeline import Core
from repro.pipeline.events import (
    ALL_EVENT_TYPES,
    Event,
    EventBus,
    FetchBlock,
    Forked,
    PrimarySwapped,
    Respawned,
    Retired,
    StreamOpened,
)
from repro.recycle.stream import StreamKind
from repro.sim.runner import RunSpec
from repro.workloads.suite import WorkloadSuite


class TestEventBusUnit:
    def test_wants_reflects_subscriptions(self):
        bus = EventBus()
        assert not bus.wants(FetchBlock)
        unsubscribe = bus.subscribe(FetchBlock, lambda ev: None)
        assert bus.wants(FetchBlock)
        assert not bus.wants(Retired)
        unsubscribe()
        assert not bus.wants(FetchBlock)

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        order = []
        for tag in ("first", "second", "third"):
            bus.subscribe(Retired, lambda ev, tag=tag: order.append(tag))
        bus.publish(Retired(cycle=0, uop=None, instance=None))
        assert order == ["first", "second", "third"]

    def test_subscribe_many_follows_mapping_order(self):
        bus = EventBus()
        order = []
        unsubscribers = bus.subscribe_many({
            FetchBlock: lambda ev: order.append("fetch"),
            Retired: lambda ev: order.append("retire"),
        })
        assert len(unsubscribers) == 2
        bus.publish(Retired(cycle=0, uop=None, instance=None))
        bus.publish(FetchBlock(cycle=0, ctx=None, count=1, next_pc=0))
        assert order == ["retire", "fetch"]
        for unsubscribe in unsubscribers:
            unsubscribe()
        assert not bus.wants(FetchBlock) and not bus.wants(Retired)

    def test_unsubscribe_is_idempotent_and_restores_fast_path(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(Retired, lambda ev: None)
        unsubscribe()
        unsubscribe()  # second call is a no-op, not an error
        assert not bus.wants(Retired)

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda ev: None)
        with pytest.raises(TypeError):
            bus.subscribe("Retired", lambda ev: None)

    def test_published_counts_per_type(self):
        bus = EventBus()
        bus.subscribe(Retired, lambda ev: None)
        for _ in range(3):
            bus.publish(Retired(cycle=0, uop=None, instance=None))
        assert bus.published == {Retired: 3}


def _run_spec(kernel, features, commit_target=800):
    spec = RunSpec(
        workload=(kernel,), features=features, commit_target=commit_target
    )
    core = Core(spec.build_config())
    core.load(WorkloadSuite().mix(spec.workload), commit_target=commit_target)
    return core, spec


class TestZeroOverheadWhenUnsubscribed:
    def test_detached_bus_constructs_no_events(self):
        """A bare core subscribes nothing, so it builds and publishes no
        event, and still counts every control-flow statistic."""
        core, spec = _run_spec("compress", "REC/RS/RU")
        assert core.bus.active == {}
        before = Event.constructed
        stats = core.run(max_cycles=spec.max_cycles)
        assert stats.committed >= 800  # the run really happened
        assert stats.forks and stats.merges and stats.back_merges
        assert Event.constructed == before  # not one event allocated
        assert core.bus.published == {}  # ...and none published

    def test_detaching_does_not_change_results(self):
        """Every event type subscribed (a CrossChecker with the memory
        rules, a CoreTracer, and a no-op handler for what those two
        leave out) leaves every ``SimStats`` field as a bare run's."""
        for kernel in ("compress", "go"):
            bare_core, spec = _run_spec(kernel, "REC/RS/RU")
            bare = bare_core.run(max_cycles=spec.max_cycles)
            core, _ = _run_spec(kernel, "REC/RS/RU")
            CrossChecker(core, memory=True)
            CoreTracer(core)
            for etype in ALL_EVENT_TYPES:
                if etype not in core.bus.active:
                    core.bus.subscribe(etype, lambda ev: None)
            observed = core.run(max_cycles=spec.max_cycles)
            assert core.bus.published  # the observers really saw events
            assert dataclasses.asdict(observed) == dataclasses.asdict(bare), kernel


class ControlFlowCounts:
    """Rebuilds the six control-flow ``SimStats`` counters from the bus
    alone: the events carry the paper's fork, swap, merge and re-spawn
    counts."""

    FIELDS = ("forks", "forks_used_tme", "respawns", "respawn_streams",
              "merges", "back_merges")

    def __init__(self, bus: EventBus):
        self.counts = dict.fromkeys(self.FIELDS, 0)
        bus.subscribe_many({
            Forked: lambda ev: self._add("forks"),
            PrimarySwapped: lambda ev: self._add("forks_used_tme"),
            StreamOpened: lambda ev: self._add(
                "back_merges" if ev.kind is StreamKind.BACK else "merges"),
            Respawned: lambda ev: self._add("respawns", "respawn_streams"),
        })

    def _add(self, *names: str) -> None:
        for name in names:
            self.counts[name] += 1


class TestEventsCarryTheCounts:
    @pytest.mark.parametrize("kernel", ["compress", "li"])
    def test_rebuilt_counters_equal_simstats(self, kernel):
        core, spec = _run_spec(kernel, "REC/RS/RU")
        rebuilt = ControlFlowCounts(core.bus)
        stats = core.run(max_cycles=spec.max_cycles)
        assert rebuilt.counts == {name: getattr(stats, name)
                                  for name in ControlFlowCounts.FIELDS}
        assert all(rebuilt.counts.values())  # each counter is exercised


class TestEventCatalogueCoverage:
    def test_full_feature_runs_publish_every_event_type(self):
        # The catalogue is covered by the union of two kernels: no
        # single kernel exercises everything (compress, for one, never
        # hits store-to-load forwarding at this commit target).
        seen = set()
        for kernel in ("compress", "li"):
            core, spec = _run_spec(kernel, "REC/RS/RU")
            unsubscribers = core.bus.subscribe_many({
                etype: (lambda ev, etype=etype: seen.add(etype))
                for etype in ALL_EVENT_TYPES
            })
            core.run(max_cycles=spec.max_cycles)
            # publish counts agree with what the handlers observed
            assert set(core.bus.published) <= seen
            for unsubscribe in unsubscribers:
                unsubscribe()
        missing = [t.__name__ for t in ALL_EVENT_TYPES if t not in seen]
        assert not missing, f"never published: {missing}"
