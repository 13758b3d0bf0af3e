"""Spans recorded from outside the program, and their export.

The benchmark never edits the simulator to trace it.  It wraps the
public entry points each layer is entered through, for the duration of
a traced pass only:

* pipeline stages — the ``Core.set_profiler`` stage hook;
* golden co-simulation — each program instance's ``golden.step``;
* event bus — each core's ``bus.publish``;
* executor and lockstep batch — ``repro.exec.pool.execute_payload_batch``
  (the executor forks its workers, so a wrapper installed before the
  pool starts is what the workers run), ``ResultCache.put`` and the
  progress callback;
* campaign service — the client calls, ``Scheduler.submit``,
  ``Scheduler.lease``, ``Scheduler.complete``, ``ArtifactStore.record``
  and ``repro.service.worker.execute_task``.

Spans are kept in memory as ``(layer, start, end, depth, track)`` tuples
(one ``list.append`` each, so worker threads can record without a lock)
and written out at the end as Chrome trace-event JSON.  Every clock is
``time.perf_counter``, which on Linux reads the same monotonic clock in
every process, so worker-process spans line up with the parent's.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Pipeline stage names in the order ``Core.step`` calls them.
STAGES = ("commit", "complete", "issue", "rename", "fetch")


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[Optional[str], float, float, int, int]] = []
        #: (label, start, end) of every operation, for the exported trace.
        self.ops: List[Tuple[str, float, float]] = []
        self.track_names: Dict[int, str] = {0: "benchmark"}
        self._tracks_lock = threading.Lock()
        #: Nesting depth of the innermost open span on the benchmark's
        #: thread; nested spans start below the pass (0) and operation
        #: (1) levels.
        self._depth = 1

    def add(self, layer: Optional[str], start: float, end: float,
            depth: int, track: int = 0) -> None:
        self.spans.append((layer, start, end, depth, track))

    def track(self, name: str) -> int:
        """The trace row (``tid``) named ``name``, added on first use."""
        with self._tracks_lock:
            for track, known in self.track_names.items():
                if known == name:
                    return track
            track = len(self.track_names)
            self.track_names[track] = name
            return track

    def op(self, label: str, start: float, end: float) -> None:
        self.ops.append((label, start, end))
        self.add(None, start, end, 1)

    def nested(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records a span one level below the
        innermost open ``nested`` span (single-threaded code only)."""
        spans = self.spans

        def wrapper(*args, **kwargs):
            self._depth += 1
            depth = self._depth
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, clock(), depth, 0))
                self._depth -= 1

        return wrapper

    # ------------------------------------------------------------------
    def write_chrome(self, path: Path, metadata: Dict) -> int:
        """Write every span as Chrome trace-event JSON (``ph: "X"``
        complete events, microseconds); returns the event count.  The
        file opens in Perfetto and ``chrome://tracing``."""
        origin = min((span[1] for span in self.spans), default=0.0)
        count = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write('{"displayTimeUnit": "ms", "otherData": ')
            handle.write(json.dumps(metadata, sort_keys=True))
            handle.write(', "traceEvents": [\n')
            first = True
            for track, name in sorted(self.track_names.items()):
                event = {"name": "thread_name", "ph": "M", "pid": 1, "tid": track,
                         "args": {"name": name}}
                handle.write(("" if first else ",\n") + json.dumps(event))
                first = False
            for label, start, end in self.ops:
                event = {"name": label, "cat": "op", "ph": "X", "pid": 1, "tid": 0,
                         "ts": round((start - origin) * 1e6, 3),
                         "dur": round((end - start) * 1e6, 3)}
                handle.write(",\n" + json.dumps(event))
                count += 1
            for layer, start, end, depth, track in self.spans:
                if layer is None:
                    continue
                event = {"name": layer, "cat": layer.split(".")[0], "ph": "X",
                         "pid": 1, "tid": track,
                         "ts": round((start - origin) * 1e6, 3),
                         "dur": round((end - start) * 1e6, 3)}
                handle.write(",\n" + json.dumps(event))
                count += 1
            handle.write("\n]}\n")
        return count


class StageTimer:
    """The ``Core.set_profiler`` hook: one span per stage call."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._append = tracer.spans.append
        self._layers = {name: "pipeline." + name for name in STAGES}

    def timed(self, name: str, fn: Callable[[], None]) -> None:
        tracer = self._tracer
        depth = tracer._depth = tracer._depth + 1
        start = clock()
        try:
            fn()
        finally:
            self._append((self._layers[name], start, clock(), depth, 0))
            tracer._depth = depth - 1


@contextlib.contextmanager
def patched(owner, name: str, replacement) -> Iterator[None]:
    """Temporarily replace ``owner.name`` (a module global or attribute)."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def pipeline_hooks(tracer: Tracer, published: List[int]) -> Iterator[None]:
    """Trace every ``Core.run`` started inside the block: the run loop,
    its stages, golden steps and bus publishes.  Appends each run's
    publish count to ``published``."""
    from repro.pipeline.core import Core

    original_run = Core.run
    stage_timer = StageTimer(tracer)

    def traced_run(core, *args, **kwargs):
        core.set_profiler(stage_timer)
        for instance in core.instances:
            instance.golden.step = tracer.nested("emulator.golden", instance.golden.step)
        bus = core.state.bus
        bus.publish = tracer.nested("events.publish", bus.publish)
        try:
            return tracer.nested("pipeline.loop", original_run)(core, *args, **kwargs)
        finally:
            published.append(sum(bus.published.values()))
            core.set_profiler(None)

    with patched(Core, "run", traced_run):
        yield


@contextlib.contextmanager
def worker_hooks(span_dir: Path) -> Iterator[None]:
    """Make every executor worker started inside the block record its
    batch (entry, exit) into ``span_dir``, one JSON file per attempt."""
    import repro.exec.pool as pool

    span_dir.mkdir(parents=True, exist_ok=True)
    original_batch = pool.execute_payload_batch
    original_single = pool.execute_payload

    def record(labels: Sequence[str], started: float, ended: float) -> None:
        path = span_dir / f"{os.getpid()}-{started:.9f}.json"
        path.write_text(json.dumps(
            {"pid": os.getpid(), "entry": started, "exit": ended, "labels": list(labels)}
        ))

    def labels_of(payloads) -> List[str]:
        from repro.exec.jobs import job_from_payload

        return [job_from_payload(payload).label() for payload in payloads]

    def traced_batch(payloads, suite_args):
        started = clock()
        try:
            return original_batch(payloads, suite_args)
        finally:
            record(labels_of(payloads), started, clock())

    def traced_single(payload, suite_args):
        started = clock()
        try:
            return original_single(payload, suite_args)
        finally:
            record(labels_of([payload]), started, clock())

    with patched(pool, "execute_payload_batch", traced_batch), \
            patched(pool, "execute_payload", traced_single):
        yield


def read_worker_spans(span_dir: Path) -> List[Dict]:
    """Collect and delete the worker span files of one pass."""
    records = []
    for path in sorted(span_dir.glob("*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    return records


# ----------------------------------------------------------------------
# Counting pass
# ----------------------------------------------------------------------
@contextlib.contextmanager
def counting_python_calls(counter: List[int]) -> Iterator[None]:
    """Count Python-level function calls (``sys.setprofile`` ``call``
    events) made inside the block into ``counter[0]``.  Host speed does
    not move the count, so it compares exactly across runs."""

    def profile(frame, event, arg):
        if event == "call":
            counter[0] += 1

    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
