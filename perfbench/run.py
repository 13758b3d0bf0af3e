"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes, splits the traced
ones into layers (and, on ``kernels``, adds a pass counting Python
calls), writes the spans as Chrome trace-event JSON and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

import time

#: Set-up time is measured from here, before anything is imported.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run leaves behind: records, traces, scratch stores.
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
#: Traced passes whose spans go into the exported trace; later traced
#: passes still count towards the per-layer figures.
EXPORTED_PASSES = 3

from benchmath import min_samples, reconcile, tail_percentile  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute the committed digests of every operation")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    return repro


def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources: determinism
    records are kept per version of both."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def simulated_metrics(totals) -> dict:
    """Exact figures derived from the summed result counters."""

    def ratio(num, den, scale=1.0):
        return scale * totals[num] / totals[den] if totals[den] else 0.0

    lookups = totals["uop_cache_hits"] + totals["uop_cache_misses"]
    return {
        "ipc": ratio("committed", "cycles"),
        "pipeline.useful_ratio": ratio("committed", "renamed"),
        "model.pct_recycled": ratio("renamed_recycled", "renamed", 100.0),
        "model.pct_reused": ratio("renamed_reused", "renamed", 100.0),
        "model.forks_per_kcommit": ratio("forks", "committed", 1000.0),
        "model.branch_miss_coverage": ratio("mispredicts_covered", "mispredicts", 100.0),
        "uopcache.hit_rate": totals["uop_cache_hits"] / lookups if lookups else 0.0,
        "uopcache.decodes": totals["decodes"],
    }


def exact_per_pass(passes, problems) -> dict:
    """Exact figures of one pass, after checking every pass agrees."""
    seen: dict = {}
    for index, result in enumerate(passes):
        for name, value in {**simulated_metrics(result.totals), **result.exact}.items():
            if name in seen and seen[name] != value:
                problems.append(f"nondeterminism: {name} is {seen[name]!r} in an earlier "
                                f"pass but {value!r} in pass {index + 1}")
            seen.setdefault(name, value)
    return seen


def end_to_end(passes, setup_s, peak_rss_mb, problems):
    latencies = [latency for result in passes for latency in result.latencies]
    wall = sum(result.wall for result in passes)
    committed = sum(result.totals["committed"] for result in passes)
    cycles = sum(result.totals["cycles"] for result in passes)
    metrics, samples = {}, {}
    metrics["sim_ips"] = committed / wall
    samples["sim_ips"] = len(passes)
    for name, q in (("latency_p50_s", 50), ("latency_p90_s", 90)):
        try:
            metrics[name], samples[name] = tail_percentile(latencies, q)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            metrics[name], samples[name] = max(latencies, default=0.0), len(latencies)
    metrics["ipc"] = committed / cycles if cycles else 0.0
    samples["ipc"] = len(passes)
    metrics["setup_s"], samples["setup_s"] = setup_s
    metrics["peak_rss_mb"], samples["peak_rss_mb"] = peak_rss_mb, 1
    return metrics, samples


def per_layer(workload, untraced, traced, exact) -> dict:
    """Every per-layer metric; layers this workload bypasses read 0."""
    count = len(traced)
    layers = {}
    for result in traced:
        for name, value in result.layers.items():
            layers[name] = layers.get(name, 0.0) + value
    traced_wall = sum(result.wall for result in traced)
    untraced_wall = sum(result.wall for result in untraced)
    renamed = sum(result.totals["renamed"] for result in traced)
    attempted = sum(result.attempted for result in traced)
    metrics = {}
    for name in ("pipeline.fetch", "pipeline.rename", "pipeline.issue", "pipeline.complete",
                 "pipeline.commit", "pipeline.loop", "pipeline.unattributed",
                 "emulator.golden", "events.publish",
                 "exec.spawn", "batch.simulate", "exec.collect", "exec.cache_put",
                 "exec.unattributed",
                 "service.submit", "service.queue_wait", "service.run", "service.store_write",
                 "service.notify", "service.fetch", "service.unattributed"):
        metrics[name + "_s"] = layers.get(name, 0.0) / count
    metrics["exec.queue_wait_s"] = layers.get("exec.queue_wait_s", 0.0) / count
    metrics["pipeline.us_per_uop"] = (
        1e6 * layers["pipeline.core_run"] / renamed if "pipeline.core_run" in layers else 0.0)
    for name in ("pipeline.useful_ratio", "pipeline.py_calls_per_uop",
                 "uopcache.hit_rate", "uopcache.decodes",
                 "model.pct_recycled", "model.pct_reused", "model.forks_per_kcommit",
                 "model.branch_miss_coverage", "model.rec_gain_1p", "model.rec_gain_4p",
                 "events.published", "exec.retries", "service.store_hit_ratio",
                 "service.retries"):
        metrics[name] = exact.get(name, 0.0)
    attempts = exact.get("exec.attempts")
    metrics["exec.points_per_attempt"] = attempted / count / attempts if attempts else 0.0
    metrics["exec.busy_ratio"] = (
        layers.get("exec.busy_s", 0.0) / (workload.workers * traced_wall)
        if "exec.busy_s" in layers else 0.0)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    metrics["trace.wall_s"] = traced_wall / count
    return metrics


# ----------------------------------------------------------------------
# Determinism records
# ----------------------------------------------------------------------
def check_determinism(workload_name, seed, values, digests, problems) -> None:
    """Within runs of one program version and seed, simulated figures
    and digests must repeat bit-for-bit."""
    path = OUT / "determinism" / f"{workload_name}-seed{seed}-{source_fingerprint()}.json"
    record = {"values": {}, "digests": {}}
    if path.exists():
        record = json.loads(path.read_text())
    for kind, fresh in (("values", values), ("digests", digests)):
        known = record[kind]
        for name, value in sorted(fresh.items()):
            if name in known and known[name] != value:
                problems.append(f"nondeterminism: {name} was {known[name]} in an earlier "
                                f"run with seed {seed}, now {value}")
            known.setdefault(name, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
    os.replace(tmp, path)


# ----------------------------------------------------------------------
def setup_probe_times(args) -> list:
    """Set-up time of fresh processes, each from its own first line."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def peak_rss_mb(workload_name) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload_name == "fig4-campaign":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def print_summary(args, benchmark, metrics, samples, attempted, failed, problems) -> None:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for name, value in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<28s} {value:>16.6g} {units[name]}{note}")
    if metrics.get("model.rec_gain_1p"):
        print(f"  REC/RS/RU over TME: {100 * metrics['model.rec_gain_1p']:+.1f}% at 1 program, "
              f"{100 * metrics['model.rec_gain_4p']:+.1f}% at 4 (paper: +7%, +12%)")
    for problem in problems[:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    from tracing import Tracer, clock

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_all = json.loads((HERE / "expected_digests.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    scratch = OUT / "scratch" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scratch, expected_all.get(args.workload, {}))
    try:
        workload.setup()
        if args.write_digests:
            expected_all[args.workload] = workload.reference_digests()
            (HERE / "expected_digests.json").write_text(
                json.dumps(expected_all, sort_keys=True, indent=1) + "\n")
            return 0
        workload.warm_up()
        if args.setup_probe:
            print(json.dumps({"setup_s": clock() - STARTED}))
            return 0
        problems = []
        begin = clock()
        needed = min_samples(90)
        untraced, traced = [], []
        tracer = Tracer() if args.trace else None
        while True:
            untraced.append(workload.run_pass())
            if tracer is not None:
                kept = (len(tracer.spans), len(tracer.ops))
                traced.append(workload.run_pass(tracer))
                if len(traced) > EXPORTED_PASSES:
                    del tracer.spans[kept[0]:], tracer.ops[kept[1]:]
            done = sum(result.attempted for result in untraced)
            if clock() - begin >= args.seconds and (tracer is not None or done >= needed):
                break
        passes = untraced + traced
        attempted = sum(result.attempted for result in passes)
        failed = sum(result.failed for result in passes)
        for result in passes:
            problems += result.problems
        exact = exact_per_pass(passes, problems)
        if args.trace == 0:
            rss = peak_rss_mb(args.workload)
            setups = [untraced[0].start - STARTED] + setup_probe_times(args)
            setup = (statistics.median(setups), len(setups))
            metrics, samples = end_to_end(untraced, setup, rss, problems)
        else:
            exact["pipeline.py_calls_per_uop"] = workload.count_calls()
            metrics = per_layer(workload, untraced, traced, exact)
            samples = {}
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.trace.json"
            report_layers(workload, metrics, problems)
            events = tracer.write_chrome(trace_path, {"workload": args.workload,
                                                      "seed": args.seed})
            check_trace_file(trace_path, events, problems)
        digests = dict(sorted({key: digest for result in passes
                               for key, digest in result.digests}.items()))
        check_determinism(args.workload, args.seed,
                          {name: repr(value) for name, value in exact.items()},
                          digests, problems)
        correct = failed == 0 and not problems
        print_summary(args, benchmark, metrics, samples, attempted, failed, problems)
        write_record(args, metrics, samples, attempted, failed, correct, problems)
        wanted = benchmark["end_to_end" if args.trace == 0 else "per_layer"]
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }))
        return 0 if correct else 1
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def report_layers(workload, metrics, problems) -> None:
    """Print where a traced pass's wall time went and check the layers
    add up to it."""
    names = [name + "_s" for name in workload.layers + (workload.unattributed,)]
    wall = metrics["trace.wall_s"]
    print(f"where the wall time of one traced {workload.name} pass went:")
    for name in names:
        share = metrics[name] / wall if wall else 0.0
        print(f"  {name:<28s} {metrics[name]:12.6f} s  {100 * share:6.2f}%")
    print(f"  {'sum':<28s} {sum(metrics[name] for name in names):12.6f} s")
    print(f"  {'trace.wall_s':<28s} {wall:12.6f} s")
    print(f"  {'trace.overhead':<28s} {metrics['trace.overhead']:12.4f}")
    try:
        reconcile({name: metrics[name] for name in names}, wall)
    except ValueError as exc:
        problems.append(f"reconciliation: {exc}")


def check_trace_file(path: Path, events: int, problems) -> None:
    """The exported trace must load as trace-event JSON."""
    try:
        document = json.loads(path.read_text())
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        if len(complete) != events or not all(
                {"name", "ts", "dur", "pid", "tid"} <= set(e) for e in complete):
            problems.append(f"trace {path}: malformed events")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"trace {path}: {exc}")


def write_record(args, metrics, samples, attempted, failed, correct, problems) -> None:
    """Keep the full result of this run for ``perfbench/compare.py``."""
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct, "attempted": attempted,
        "failed": failed, "metrics": metrics, "samples": samples,
        "problems": problems[:50],
    }
    path = OUT / "runs" / f"{args.workload}-trace{args.trace}-seed{args.seed}-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True, indent=1))


if __name__ == "__main__":
    sys.exit(main())
