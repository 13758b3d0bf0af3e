"""The three workloads, each a closed loop with one client.

A workload runs in *passes*.  A pass is one seed-permuted round over
the workload's fixed operation pool, so every pass commits the same
simulated work: simulated totals (``ipc``, the exact per-layer counts)
are therefore identical however many passes fit in a run.  Each pass
is timed on its own; what happens between passes (checking digests,
emptying the result cache, booting the next server) is untimed.

* ``kernels`` — all eight kernels, single program, ``big.2.16`` with
  REC/RS/RU, one in-process ``run_spec`` call per operation.
* ``fig4-campaign`` — the specs ``repro.sim.experiments.figure4``
  builds, through ``Executor.run`` with lockstep batches and a fresh
  result cache per pass; an operation is one point.
* ``service`` — an in-process ``CampaignServer`` on loopback, driven by
  a seed-picked script of growing sweep grids, each adding one new point
  to stored ones; an operation is one campaign.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from benchmath import digest_mismatches, document_digest, self_times, stats_digest
from tracing import (
    Tracer,
    clock,
    counting_python_calls,
    patched,
    pipeline_hooks,
    read_worker_spans,
    worker_hooks,
)

MACHINE = "big.2.16"
FEATURES = "REC/RS/RU"

#: Result counters summed over a pass (from ``SimStats`` or a service
#: result document).
COUNTERS = (
    "committed", "cycles", "renamed", "renamed_recycled", "renamed_reused",
    "forks", "mispredicts", "mispredicts_covered",
    "uop_cache_hits", "uop_cache_misses", "decodes",
)


def worker_count() -> int:
    """At most two workers, and never more than the CPUs we may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def stats_counts(stats) -> Dict[str, int]:
    return {
        "committed": stats.committed,
        "cycles": stats.cycles,
        "renamed": stats.renamed,
        "renamed_recycled": stats.renamed_recycled,
        "renamed_reused": stats.renamed_reused,
        "forks": stats.forks,
        "mispredicts": stats.mispredicts,
        "mispredicts_covered": stats.mispredicts_covered,
        "uop_cache_hits": stats.uop_cache_hits,
        "uop_cache_misses": stats.uop_cache_misses,
        "decodes": sum(stats.decode_counts.values()),
    }


def document_counts(stats: Dict) -> Dict[str, int]:
    """The same counters from a service result's ``stats`` document."""
    return {
        "committed": stats["committed"],
        "cycles": stats["cycles"],
        "renamed": stats["renamed"],
        "renamed_recycled": stats["recycled"]["renamed_recycled"],
        "renamed_reused": stats["recycled"]["renamed_reused"],
        "forks": stats["forks"]["total"],
        "mispredicts": stats["branches"]["mispredicts"],
        "mispredicts_covered": stats["branches"]["mispredicts_covered"],
        "uop_cache_hits": stats["uop_cache"]["hits"],
        "uop_cache_misses": stats["uop_cache"]["misses"],
        "decodes": sum(stats["uop_cache"]["decode_counts"].values()),
    }


@dataclass
class PassResult:
    """What one pass measured."""

    #: When the pass's first operation started, and how long it ran.
    start: float
    wall: float
    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: (operation key, digest) of every operation that returned a result.
    digests: List[Tuple[str, str]] = field(default_factory=list)
    totals: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    #: Workload-specific exact counts for this pass.
    exact: Dict[str, float] = field(default_factory=dict)
    #: Traced passes only: per-layer self seconds, and other layer figures.
    layers: Dict[str, float] = field(default_factory=dict)

    def add_counts(self, counts: Dict[str, int]) -> None:
        for name in COUNTERS:
            self.totals[name] += counts[name]

    def check(self, key: str, digest: str, expected: Dict[str, str]) -> bool:
        """Record one result's digest; False (with the problem noted)
        when it differs from the committed one."""
        self.digests.append((key, digest))
        problems = digest_mismatches(expected, [(key, digest)])
        self.problems += problems
        return not problems


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Layers whose self times partition a traced pass, highest
    #: priority first (see ``benchmath.self_times``).
    layers: Tuple[str, ...] = ()
    unattributed = ""

    def __init__(self, seed: int, scratch: Path, expected: Dict[str, str]):
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.expected = expected

    def setup(self) -> None: ...

    def warm_up(self) -> None: ...

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult: ...

    def reference_digests(self) -> Dict[str, str]: ...

    def count_calls(self) -> float:
        """Python calls per renamed uop, from a counting pass; only the
        in-process ``kernels`` workload counts them."""
        return 0.0

    def close(self) -> None: ...

    def _partition(self, spans, result: PassResult) -> None:
        """Add a traced pass's self times; ``spans`` holds one root (depth
        0) span, the pass, and every span is clipped to it."""
        _, root_start, root_end, _ = next(span for span in spans if span[3] == 0)
        clipped = [(layer, max(start, root_start), min(end, root_end), depth)
                   for layer, start, end, depth in spans]
        seconds = self_times(clipped, self.layers, unattributed=self.unattributed)
        for layer in self.layers + (self.unattributed,):
            result.layers[layer] = result.layers.get(layer, 0.0) + seconds.get(layer, 0.0)


# ======================================================================
# kernels
# ======================================================================
class Kernels(Workload):
    name = "kernels"
    layers = (
        "emulator.golden", "events.publish", "pipeline.fetch", "pipeline.rename",
        "pipeline.issue", "pipeline.complete", "pipeline.commit", "pipeline.loop",
    )
    unattributed = "pipeline.unattributed"
    COMMIT_TARGET = 800

    def setup(self) -> None:
        from repro.sim.runner import RunSpec, run_spec
        from repro.workloads.suite import WorkloadSuite

        self.run_spec = run_spec
        self.suite = WorkloadSuite()
        self.specs = {
            name: RunSpec((name,), machine=MACHINE, features=FEATURES,
                          commit_target=self.COMMIT_TARGET)
            for name in self.suite.names
        }
        for spec in self.specs.values():
            self.suite.mix(spec.workload)

    def warm_up(self) -> None:
        for spec in self.specs.values():
            self.run_spec(spec, self.suite)

    def reference_digests(self) -> Dict[str, str]:
        from repro.exec.jobs import stats_to_payload

        return {name: stats_digest(stats_to_payload(self.run_spec(spec, self.suite).stats))
                for name, spec in self.specs.items()}

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        order = self.rng.sample(sorted(self.specs), len(self.specs))
        outcomes = []
        published: List[int] = []
        first_span = len(tracer.spans) if tracer else 0
        with (pipeline_hooks(tracer, published) if tracer is not None
              else contextlib.nullcontext()):
            pass_start = clock()
            for name in order:
                started = clock()
                try:
                    result = self.run_spec(self.specs[name], self.suite)
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    result = exc
                ended = clock()
                outcomes.append((name, result, ended - started))
                if tracer is not None:
                    tracer.op(name, started, ended)
            pass_end = clock()
        return self._settle(outcomes, pass_start, pass_end, tracer, first_span, published)

    def count_calls(self) -> float:
        """Python function calls per renamed uop over one pass of the
        eight kernels, counted under ``sys.setprofile``."""
        calls, renamed = [0], 0
        for name in sorted(self.specs):
            with counting_python_calls(calls):
                result = self.run_spec(self.specs[name], self.suite)
            renamed += result.stats.renamed
        return calls[0] / renamed

    def _settle(self, outcomes, pass_start, pass_end, tracer, first_span, published):
        from repro.exec.jobs import stats_to_payload

        out = PassResult(start=pass_start, wall=pass_end - pass_start)
        for name, result, latency in outcomes:
            out.attempted += 1
            if isinstance(result, Exception):
                out.failed += 1
                out.problems.append(f"{name}: {type(result).__name__}: {result}")
                continue
            out.latencies.append(latency)
            out.add_counts(stats_counts(result.stats))
            if not out.check(name, stats_digest(stats_to_payload(result.stats)), self.expected):
                out.failed += 1
        if tracer is not None:
            tracer.add(None, pass_start, pass_end, 0)
            spans = [(layer, start, end, depth)
                     for layer, start, end, depth, _ in tracer.spans[first_span:]]
            self._partition(spans, out)
            # Whole Core.run calls, children included: the base of
            # pipeline.us_per_uop.
            out.layers["pipeline.core_run"] = sum(
                end - start for layer, start, end, _ in spans if layer == "pipeline.loop")
            out.exact["events.published"] = sum(published)
        return out


# ======================================================================
# fig4-campaign
# ======================================================================
class _SpecRecorder:
    """Stands in for an ``Executor`` so ``figure4`` hands over the specs
    it builds; ``results`` replays ipcs for its averaging."""

    def __init__(self, results=None):
        self.specs: List = []
        self.results = results

    def map(self, specs, suite=None):
        self.specs = list(specs)
        if self.results is None:
            return [SimpleNamespace(ipc=0.0)] * len(self.specs)
        return [SimpleNamespace(ipc=self.results[spec]) for spec in self.specs]


class Fig4Campaign(Workload):
    name = "fig4-campaign"
    layers = ("batch.simulate", "exec.spawn", "exec.collect", "exec.cache_put")
    unattributed = "exec.unattributed"
    COMMIT_TARGET = 300
    NUM_MIXES = 2
    #: One lockstep batch per (width, mix): the six variants of a mix
    #: share its programs and decode store.
    BATCH_SIZE = 6

    def setup(self) -> None:
        from repro.exec.cache import ResultCache
        from repro.exec.pool import Executor
        from repro.exec.progress import ProgressReporter
        from repro.sim.experiments import figure4
        from repro.workloads.suite import WorkloadSuite

        self.Executor, self.ResultCache = Executor, ResultCache
        self.ProgressReporter = ProgressReporter
        self.figure4 = figure4
        self.suite = WorkloadSuite()
        recorder = _SpecRecorder()
        figure4(commit_target=self.COMMIT_TARGET, num_mixes=self.NUM_MIXES,
                suite=self.suite, executor=recorder)
        self.specs = recorder.specs
        groups: Dict[Tuple[str, ...], List] = {}
        for spec in self.specs:
            groups.setdefault(spec.workload, []).append(spec)
        self.groups = list(groups.values())
        self.workers = worker_count()

    def _run(self, specs, cache_dir: Path, progress=None):
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = self.ResultCache(cache_dir)
        executor = self.Executor(jobs=self.workers, cache=cache,
                                 batch_size=self.BATCH_SIZE, progress=progress)
        return executor, cache

    def warm_up(self) -> None:
        # One point per variant, cycling through the 1-, 2- and 4-program
        # mixes, so every config and width has run once; the cache is
        # emptied afterwards.
        picks = [self.groups[i % len(self.groups)][i % self.BATCH_SIZE]
                 for i in range(self.BATCH_SIZE)]
        cache_dir = self.scratch / "fig4-warmup-cache"
        executor, _ = self._run(picks, cache_dir)
        executor.run(picks, suite=self.suite)
        shutil.rmtree(cache_dir, ignore_errors=True)

    def reference_digests(self) -> Dict[str, str]:
        from repro.exec.jobs import stats_to_payload
        from repro.sim.runner import run_spec

        return {spec.label(): stats_digest(stats_to_payload(run_spec(spec, self.suite).stats))
                for spec in self.specs}

    def rec_gains(self, ipcs: Dict) -> Dict[int, float]:
        """REC/RS/RU over TME average IPC − 1, per width, by ``figure4``'s
        own averaging."""
        data = self.figure4(commit_target=self.COMMIT_TARGET, num_mixes=self.NUM_MIXES,
                            suite=self.suite, executor=_SpecRecorder(ipcs))
        return {width: row["REC/RS/RU"] / row["TME"] - 1.0 for width, row in data.items()}

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        from repro.exec.jobs import stats_to_payload

        groups = [list(group) for group in self.groups]
        self.rng.shuffle(groups)
        for group in groups:
            self.rng.shuffle(group)
        specs = [spec for group in groups for spec in group]
        cache_dir = self.scratch / "fig4-cache"
        span_dir = self.scratch / "fig4-worker-spans"
        puts: Dict[str, Tuple[float, float]] = {}
        callbacks: Dict[str, float] = {}
        progress = None
        if tracer is not None:
            progress = self.ProgressReporter(
                callback=lambda event: callbacks.__setitem__(event.label, clock()))
        executor, cache = self._run(specs, cache_dir, progress)
        if tracer is not None:
            original_put = cache.put

            def traced_put(key, payload, job=None):
                started = clock()
                try:
                    return original_put(key, payload, job=job)
                finally:
                    puts[job.label()] = (started, clock())

            cache.put = traced_put
            with worker_hooks(span_dir):
                started = clock()
                outcomes = executor.run(specs, suite=self.suite)
                ended = clock()
        else:
            started = clock()
            outcomes = executor.run(specs, suite=self.suite)
            ended = clock()
        out = PassResult(start=started, wall=ended - started)
        out.exact["exec.retries"] = sum(max(0, outcome.attempts - 1) for outcome in outcomes)
        ipcs = {}
        for outcome in outcomes:
            out.attempted += 1
            label = outcome.job.spec.label()
            if not outcome.ok:
                out.failed += 1
                out.problems.append(f"{label}: {outcome.failure}")
                continue
            out.latencies.append(outcome.elapsed)
            stats = outcome.result.stats
            ipcs[outcome.job.spec] = stats.ipc
            out.add_counts(stats_counts(stats))
            if not out.check(label, stats_digest(stats_to_payload(stats)), self.expected):
                out.failed += 1
        if len(ipcs) == len(self.specs):
            gains = self.rec_gains(ipcs)
            out.exact["model.rec_gain_1p"] = gains[1]
            out.exact["model.rec_gain_4p"] = gains[4]
        if tracer is not None:
            self._trace_pass(tracer, outcomes, puts, callbacks, read_worker_spans(span_dir),
                             started, ended, out)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return out

    def _trace_pass(self, tracer, outcomes, puts, callbacks, workers, started, ended, out):
        elapsed = {outcome.job.label(): outcome.elapsed for outcome in outcomes}
        launches = {label: puts[label][0] - elapsed[label] for label in elapsed if label in puts}
        spans = [(None, started, ended, 0)]
        busy = 0.0
        for record in workers:
            # A point that failed in this attempt has no cache put.
            labels = [label for label in record["labels"] if label in launches]
            if not labels:
                continue
            launch = min(launches[label] for label in labels)
            first_put = min(puts[label][0] for label in labels)
            track = tracer.track(f"worker pid {record['pid']}")
            for layer, start, end in (("exec.spawn", launch, record["entry"]),
                                      ("batch.simulate", record["entry"], record["exit"]),
                                      ("exec.collect", record["exit"], first_put)):
                spans.append((layer, start, end, 1))
                tracer.add(layer, start, end, 1, track)
            busy += record["exit"] - launch
        for label, (start, end) in puts.items():
            spans.append(("exec.cache_put", start, end, 1))
            tracer.add("exec.cache_put", start, end, 1)
            tracer.ops.append((label, launches[label], callbacks.get(label, end)))
        tracer.add(None, started, ended, 0)
        self._partition(spans, out)
        waits = [launches[label] - started for label in launches]
        out.layers["exec.queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
        out.layers["exec.busy_s"] = busy
        out.exact["exec.attempts"] = len(workers)


# ======================================================================
# service
# ======================================================================
class Service(Workload):
    name = "service"
    layers = ("service.run", "service.store_write", "service.queue_wait",
              "service.notify", "service.submit", "service.fetch")
    unattributed = "service.unattributed"
    COMMIT_TARGET = 2000
    #: The fixed point pool: every kernel at four active-list sizes.
    SIZES = (32, 64, 128, 256)
    #: Whole-campaign resubmits per pass, served from the store alone.
    RESUBMITS = 8
    #: Local workers: every campaign brings at most one new point, so
    #: the closed loop never keeps a second one busy.
    workers = 1

    def setup(self) -> None:
        from repro.service import CampaignServer, ServiceClient, sweep_spec
        from repro.workloads.suite import WorkloadSuite

        import repro.service.worker as worker

        self.CampaignServer, self.ServiceClient = CampaignServer, ServiceClient
        self.worker_module = worker
        self.sweep_spec = sweep_spec
        self.kernels = WorkloadSuite().names
        self.script = self.make_script(self.rng)
        self.server = self._boot("service-warmup")

    def _spec(self, kernels, sizes) -> Dict:
        return self.sweep_spec([[k] for k in kernels], grid={"active_list_size": list(sizes)},
                               machine=MACHINE, features=FEATURES,
                               commit_target=self.COMMIT_TARGET,
                               label=f"{'+'.join(kernels)}@{','.join(map(str, sizes))}")

    def make_script(self, rng: random.Random) -> List[Dict]:
        """A pass's campaigns.  Each kernel's four sizes come in a seeded
        order, and its i-th campaign is the grid of its first i sizes:
        one new point (lease → simulate → store write) overlapping the
        i − 1 points already stored.  The seed interleaves the kernels'
        campaigns and adds ``RESUBMITS`` repeats of earlier campaigns,
        served from the store alone."""
        orders = {kernel: rng.sample(self.SIZES, len(self.SIZES)) for kernel in self.kernels}
        slots = [kernel for kernel in self.kernels for _ in self.SIZES]
        rng.shuffle(slots)
        grown = dict.fromkeys(self.kernels, 0)
        script: List[Dict] = []
        for kernel in slots:
            grown[kernel] += 1
            script.append(self._spec([kernel], sorted(orders[kernel][:grown[kernel]])))
        for position in sorted(rng.sample(range(1, len(script)), self.RESUBMITS),
                               reverse=True):
            script.insert(position, rng.choice(script[:position]))
        return script

    def _boot(self, tag: str):
        root = self.scratch / tag
        shutil.rmtree(root, ignore_errors=True)
        server = self.CampaignServer(root, host="127.0.0.1", port=0,
                                     local_workers=self.workers, resume=False)
        server.start()
        server.bench_root = root
        return server

    def _stop(self, server) -> None:
        server.stop()
        shutil.rmtree(server.bench_root, ignore_errors=True)

    def close(self) -> None:
        if self.server is not None:
            self._stop(self.server)
            self.server = None

    def warm_up(self) -> None:
        # One cold campaign per kernel, then its warm resubmit.
        client = self.ServiceClient(self.server.url)
        for kernel in self.kernels:
            spec = self._spec([kernel], [self.SIZES[0]])
            for _ in range(2):
                self._campaign(client, spec)
        self.close()

    def reference_digests(self) -> Dict[str, str]:
        from repro.exec.jobs import Job, run_job
        from repro.service.spec import parse_campaign
        from repro.stats.export import stats_to_dict
        from repro.workloads.suite import WorkloadSuite

        suite = WorkloadSuite()
        jobs: List[Job] = parse_campaign(self._spec(self.kernels, self.SIZES)).jobs
        return {job.label(): document_digest(stats_to_dict(run_job(job, suite).stats))
                for job in jobs}

    def _campaign(self, client, spec):
        """One operation: submit, wait for the terminal event on the
        NDJSON stream, fetch every result.  Returns the timestamps and
        the status and result documents."""
        started = clock()
        status = client.submit(spec)
        submitted = clock()
        terminal = notified = None
        for event in client.events(status["id"]):
            if event.get("type") == "campaign":
                terminal = event
                notified = clock()
        documents = [client.result(job["id"]) for job in status["jobs"]]
        ended = clock()
        return (started, submitted, notified, ended), status, terminal, documents

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        server = self._boot("service-store")
        client = self.ServiceClient(server.url)
        leases: Dict[str, Tuple[float, int]] = {}
        completes: Dict[str, float] = {}
        admitted: Dict[str, float] = {}
        first_span = len(tracer.spans) if tracer else 0
        if tracer is not None:
            self._install(tracer, server, leases, completes, admitted)
        records = []
        try:
            with (patched(self.worker_module, "execute_task", self._traced_execute(tracer))
                  if tracer is not None else contextlib.nullcontext()):
                pass_start = clock()
                for spec in self.script:
                    try:
                        records.append(self._campaign(client, spec))
                    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                        records.append(exc)
                pass_end = clock()
        finally:
            self._stop(server)
        return self._settle(records, pass_start, pass_end, tracer, first_span,
                            leases, completes, admitted)

    # -- tracing ---------------------------------------------------------
    @staticmethod
    def _thread_span(tracer: Tracer, layer: str, started: float) -> None:
        """Record a span that ends now, on the calling thread's row."""
        tracer.add(layer, started, clock(), 2, tracer.track(threading.current_thread().name))

    def _traced_execute(self, tracer: Tracer):
        original = self.worker_module.execute_task

        def traced(task):
            started = clock()
            try:
                return original(task)
            finally:
                self._thread_span(tracer, "service.run", started)

        return traced

    def _install(self, tracer, server, leases, completes, admitted) -> None:
        """Wrap the server's entry points: when each campaign's tasks
        were queued (``Scheduler.submit`` returns), leased and completed,
        and every store write."""
        scheduler, store = server.scheduler, server.store
        original_submit, original_lease = scheduler.submit, scheduler.lease
        original_complete, original_record = scheduler.complete, store.record

        def submit(*args, **kwargs):
            status = original_submit(*args, **kwargs)
            admitted[status["id"]] = clock()
            return status

        def lease(*args, **kwargs):
            tasks = original_lease(*args, **kwargs)
            now = clock()
            for task in tasks:
                leases[task["key"]] = (now, task["attempt"])
            return tasks

        def complete(key, *args, **kwargs):
            try:
                return original_complete(key, *args, **kwargs)
            finally:
                completes[key] = clock()

        def record(*args, **kwargs):
            started = clock()
            try:
                return original_record(*args, **kwargs)
            finally:
                self._thread_span(tracer, "service.store_write", started)

        scheduler.submit, scheduler.lease = submit, lease
        scheduler.complete, store.record = complete, record

    # -- settling --------------------------------------------------------
    def _settle(self, records, pass_start, pass_end, tracer, first_span, leases, completes,
                admitted):
        out = PassResult(start=pass_start, wall=pass_end - pass_start)
        jobs = stored = 0
        spans = []
        for spec, record in zip(self.script, records):
            out.attempted += 1
            if isinstance(record, Exception):
                out.failed += 1
                out.problems.append(f"campaign {spec}: {type(record).__name__}: {record}")
                continue
            (started, submitted, notified, ended), status, terminal, documents = record
            if terminal is None or terminal["state"] != "done":
                out.failed += 1
                out.problems.append(f"campaign {status['id']} ended {terminal}")
                continue
            matched = [out.check(document["label"], document_digest(document["stats"]),
                                 self.expected)
                       for document in documents]
            for document in documents:
                # Only simulated results count as simulated work: each
                # pool point once per pass, whatever the script.
                if document["resolution"] == "run":
                    out.add_counts(document_counts(document["stats"]))
            if not all(matched):
                out.failed += 1
                continue
            out.latencies.append(ended - started)
            jobs += len(status["jobs"])
            stored += sum(1 for job in status["jobs"] if job["resolution"] == "store")
            if tracer is not None:
                ran = [job["key"] for job in status["jobs"] if job["resolution"] == "run"]
                tracer.op(status["label"], started, ended)
                spans.append((None, started, ended, 1))
                last = max([completes.get(key, submitted) for key in ran] + [submitted])
                for layer, start, end in (("service.submit", started, submitted),
                                          ("service.notify", last, notified),
                                          ("service.fetch", notified, ended)):
                    spans.append((layer, start, end, 2))
                    tracer.add(layer, start, end, 2)
                queued = admitted.get(status["id"], submitted)
                for key in ran:
                    leased = leases.get(key, (queued, 1))[0]
                    if leased > queued:
                        spans.append(("service.queue_wait", queued, leased, 2))
                        tracer.add("service.queue_wait", queued, leased, 2)
        out.exact["service.store_hit_ratio"] = stored / jobs if jobs else 0.0
        if tracer is not None:
            spans += [(layer, start, end, depth)
                      for layer, start, end, depth, _ in tracer.spans[first_span:]
                      if layer in ("service.run", "service.store_write")]
            spans.append((None, pass_start, pass_end, 0))
            tracer.add(None, pass_start, pass_end, 0)
            self._partition(spans, out)
            out.exact["service.retries"] = sum(attempt - 1 for _, attempt in leases.values())
        return out


WORKLOADS = {cls.name: cls for cls in (Kernels, Fig4Campaign, Service)}
