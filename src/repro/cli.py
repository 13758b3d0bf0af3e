"""Command-line interface.

Examples::

    repro-sim list
    repro-sim run --workload compress --features REC/RS/RU
    repro-sim run --workload gcc go li perl --machine big.2.16
    repro-sim campaign fig3 --commit-target 2000
    repro-sim campaign table1 --jobs 4 --cache-dir .repro-cache
    repro-sim campaign paper --jobs 8 > results.md
    repro-sim serve --store .repro-service --port 8752
    repro-sim serve --worker http://head:8752
    repro-sim submit --workload compress go --grid active_list_size=32,64
    repro-sim status c000001 --follow
    repro-sim fetch c000001
    repro-sim analyze --workload compress --check
    repro-sim asm path/to/program.s --run
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from typing import List, Optional

from .emulator import Emulator
from .exec import ExecutionError, Executor, ProgressReporter, format_line, sim_fingerprint
from .isa.assembler import assemble
from .sim.experiments import CAMPAIGNS, EXPERIMENTS, MACHINES, POLICIES, VARIANTS
from .sim.runner import RunSpec, run_spec
from .stats import run_result_to_dict
from .workloads.suite import WorkloadSuite


class _ProgressLine:
    """Renders engine progress as a single ``\\r``-refreshed stderr line."""

    def __init__(self, stream=None):
        self.stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def __call__(self, event) -> None:
        self.stream.write("\r" + format_line(event) + " ")
        self.stream.flush()
        self._dirty = True

    def clear(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


def _known_kernels(names) -> bool:
    """True when every name is a kernel of the suite; otherwise print the
    known kernels to stderr, and the caller exits 2."""
    known = WorkloadSuite().names
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown workload(s) {unknown}; know {known}", file=sys.stderr)
    return not unknown


def _cmd_list(_args) -> int:
    suite = WorkloadSuite()
    print("kernels:   ", ", ".join(suite.names))
    print("variants:  ", ", ".join(VARIANTS))
    print("machines:  ", ", ".join(MACHINES))
    print("policies:  ", ", ".join(POLICIES))
    print("experiments:", ", ".join(EXPERIMENTS))
    print("campaigns: ", ", ".join(CAMPAIGNS))
    return 0


def _cmd_run(args) -> int:
    if not _known_kernels(args.workload):
        return 2
    spec = RunSpec(
        workload=tuple(args.workload),
        machine=args.machine,
        features=args.features,
        policy=args.policy,
        commit_target=args.commit_target,
        max_cycles=args.max_cycles,
        confidence_threshold=args.confidence_threshold,
    )
    cache_dir = None if args.no_cache else args.cache_dir
    started = time.time()
    cached = False
    if cache_dir is None:
        result = run_spec(spec)
    else:
        outcome = Executor(cache=cache_dir).run([spec])[0]
        if not outcome.ok:
            print(
                f"run failed: {outcome.failure.kind} after {outcome.failure.attempts} "
                f"attempt(s): {outcome.failure.message}",
                file=sys.stderr,
            )
            return 1
        result, cached = outcome.result, outcome.cached
    elapsed = time.time() - started
    if args.json:
        payload = run_result_to_dict(result)
        payload["wall_seconds"] = elapsed
        payload["cached"] = cached
        payload["sim_fingerprint"] = sim_fingerprint()
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary_line() + ("  [cached]" if cached else ""))
    for name, ipc in result.per_program_ipc.items():
        print(f"  {name:<12s} per-program IPC = {ipc:.3f}")
    print(result.stats.summary())
    print(f"[{elapsed:.1f}s wall, {result.stats.cycles / max(elapsed, 1e-9):,.0f} cycles/s]")
    return 0


def _cmd_campaign(args) -> int:
    """Run experiments or named sets through one shared executor, and
    print each experiment's markdown section to stdout as it finishes;
    progress and the closing summary go to stderr."""
    names: List[str] = []
    for name in args.names or ["paper"]:
        if name in CAMPAIGNS:
            names.extend(n for n in CAMPAIGNS[name] if n not in names)
        elif name in EXPERIMENTS:
            if name not in names:
                names.append(name)
        else:
            known = sorted(set(EXPERIMENTS) | set(CAMPAIGNS))
            print(f"unknown experiment/set {name!r}; know {known}", file=sys.stderr)
            return 2
    line = _ProgressLine()
    progress = ProgressReporter(callback=line)
    try:
        executor = Executor(
            jobs=args.jobs,
            cache=None if args.no_cache else args.cache_dir,
            timeout=args.timeout,
            progress=progress,
            batch_size=args.batch_size,
        )
    except ValueError as exc:  # --timeout with --jobs 1
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    started = time.time()
    for name in names:
        runner, formatter = EXPERIMENTS[name]
        kwargs = {}
        if args.commit_target is not None:
            kwargs["commit_target"] = args.commit_target
        if args.num_mixes is not None and "num_mixes" in inspect.signature(runner).parameters:
            kwargs["num_mixes"] = args.num_mixes
        try:
            data = runner(executor=executor, **kwargs)
        except ExecutionError as exc:
            line.clear()
            print(f"campaign failed in {name}: {exc}", file=sys.stderr)
            return 1
        line.clear()
        print(formatter(data))
        print()
    event = progress.event()
    cache_note = f", {event.cache_hits} cached" if event.cache_hits else ""
    print(
        f"[campaign: {event.done} jobs{cache_note}, "
        f"{time.time() - started:.1f}s wall, jobs={executor.jobs}]",
        file=sys.stderr,
    )
    return 0


#: Default head URL the client subcommands talk to.
_DEFAULT_SERVER = "http://127.0.0.1:8752"


def _cmd_serve(args) -> int:
    """Run the campaign server — or, with ``--worker URL``, a remote
    worker leasing job shards from that head."""
    if args.worker:
        from .service.worker import run_worker

        worker_id = args.worker_id or f"{os.uname().nodename}-{os.getpid()}"
        print(f"worker {worker_id} leasing from {args.worker}", file=sys.stderr)
        executed = run_worker(
            args.worker,
            worker_id=worker_id,
            lease_size=args.lease_size,
            poll=args.poll,
            max_idle=args.max_idle,
        )
        print(f"worker {worker_id} exiting after {executed} task(s)", file=sys.stderr)
        return 0

    from .service.server import CampaignServer

    server = CampaignServer(
        args.store,
        host=args.host,
        port=args.port,
        local_workers=args.local_workers,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        resume=not args.no_resume,
        verbose=args.verbose,
    )
    print(
        f"campaign server on {server.url} "
        f"(store {args.store}, {server.pool.workers} local worker(s))",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _grid_from_args(pairs) -> dict:
    """Parse repeated ``field=v1,v2,...`` flags into a sweep grid."""
    def coerce(text: str):
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                continue
        if text in ("true", "false"):
            return text == "true"
        return text

    grid = {}
    for pair in pairs or []:
        name, _, values = pair.partition("=")
        if not values:
            raise SystemExit(f"--grid wants field=v1,v2,...; got {pair!r}")
        grid[name] = [coerce(v) for v in values.split(",")]
    return grid


def _follow_events(client, campaign_id: str) -> None:
    from .exec.progress import ProgressEvent

    for event in client.events(campaign_id):
        if event.get("type") == "campaign":
            print(f"campaign {campaign_id}: {event['state']} "
                  f"in {event['wall_seconds']:.1f}s")
        else:
            fields = {f: event[f] for f in
                      ("done", "total", "cache_hits", "failures", "elapsed", "eta", "label")}
            print(format_line(ProgressEvent(**fields)))


def _cmd_submit(args) -> int:
    from .service.client import ServiceClient, ServiceError
    from .service.spec import sweep_spec

    if args.spec:
        handle = sys.stdin if args.spec == "-" else open(args.spec)
        with handle:
            spec = json.load(handle)
    else:
        if not args.workload:
            print("submit wants a spec file or --workload", file=sys.stderr)
            return 2
        spec = sweep_spec(
            workloads=[[w] for w in args.workload],
            grid=_grid_from_args(args.grid),
            machine=args.machine,
            features=args.features,
            commit_target=args.commit_target,
            max_cycles=args.max_cycles,
            label=args.label,
        )
    client = ServiceClient(args.server)
    try:
        status = client.submit(spec)
    except ServiceError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(f"campaign {status['id']}: {len(status['jobs'])} job(s) "
              f"[{status['state']}]")
        for job in status["jobs"]:
            print(f"  {job['id']}  {job['state']:<8s} {job['label']}")
    if args.follow:
        _follow_events(client, status["id"])
    return 0


def _cmd_status(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.campaign is None:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            return 0
        if args.follow:
            _follow_events(client, args.campaign)
        status = client.status(args.campaign)
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        progress = status["progress"]
        print(f"campaign {status['id']} [{status['state']}] "
              f"{progress['done']}/{progress['total']} jobs, "
              f"wall {status['wall_seconds']:.1f}s")
        for job in status["jobs"]:
            note = f"  ({job['error']})" if job.get("error") else ""
            print(f"  {job['id']}  {job['state']:<9s} {job['resolution']:<6s} "
                  f"{job['label']}{note}")
    return 1 if status["state"] == "failed" else 0


def _cmd_fetch(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if "." in args.id:  # job ids are campaign-scoped: c000001.0003
            documents = [client.result(args.id)]
        else:
            documents = client.fetch_results(args.id)
    except ServiceError as exc:
        print(f"fetch failed: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(documents, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output} ({len(documents)} result(s))")
    else:
        print(text)
    return 0


def _cmd_analyze(args) -> int:
    """Static analysis report, optionally cross-checked against a run."""
    from .analysis.program import ProgramAnalysis

    suite = WorkloadSuite()
    names = args.workload or list(suite.names)
    if not _known_kernels(names):
        return 2

    analyses = {
        name: ProgramAnalysis(suite.program(name), name=name) for name in names
    }
    reports = {}
    results = {}
    if args.check:
        from .analysis.checker import check_spec

        for name in names:
            spec = RunSpec(
                workload=(name,),
                features=args.features,
                commit_target=args.commit_target,
            )
            results[name], reports[name] = check_spec(
                spec, suite, memory=args.memory
            )

    total_violations = sum(len(r.violations) for r in reports.values())

    if args.json:
        payload = {}
        for name in names:
            summary = analyses[name].summary(window=args.window)
            entry = {
                "static": {
                    "instructions": summary.instructions,
                    "blocks": summary.blocks,
                    "edges": summary.edges,
                    "loops": summary.loops,
                    "branch_sites": summary.branch_sites,
                    "cond_sites": summary.cond_sites,
                    "classes": {
                        cls.value: n for cls, n in summary.class_counts.items()
                    },
                    "merge_coverage_pct": round(summary.merge_coverage_pct, 2),
                    "avg_kill_set_size": round(summary.avg_kill_set_size, 2),
                    "reuse_ceiling_pct": round(summary.reuse_ceiling_pct, 2),
                    "reuse_window": summary.reuse_window,
                },
            }
            if args.memory:
                mem = analyses[name].memory_summary()
                entry["memory"] = {
                    "loads": mem.loads,
                    "stores": mem.stores,
                    "known_address_pct": round(mem.known_address_pct, 2),
                    "alias_pairs": mem.alias_pairs,
                    "no_alias_pairs": mem.no_alias_pairs,
                    "must_alias_pairs": mem.must_alias_pairs,
                    "loops_with_carried_deps": mem.loops_with_carried_deps,
                    "loop_carried_deps": mem.loop_carried_deps,
                    "reusable_load_sites": mem.reusable_load_sites,
                    "always_clean_load_sites": mem.always_clean_load_sites,
                    "unknown_address_load_sites": mem.unknown_address_load_sites,
                }
            if name in reports:
                entry["check"] = reports[name].to_dict()
            payload[name] = entry
        print(json.dumps(payload, indent=2))
        return 1 if total_violations else 0

    for name in names:
        pa = analyses[name]
        summary = pa.summary(window=args.window)
        classes = ", ".join(
            f"{cls.value}={n}" for cls, n in summary.class_counts.items() if n
        )
        print(
            f"{name:<10s} blocks={summary.blocks:<3d} loops={summary.loops:<2d} "
            f"cond={summary.cond_sites:<2d} merge-cov={summary.merge_coverage_pct:5.1f}% "
            f"reuse-ceiling={summary.reuse_ceiling_pct:5.1f}% "
            f"kill-size={summary.avg_kill_set_size:4.1f}  [{classes}]"
        )
        if args.memory:
            mem = pa.memory_summary()
            print(
                f"           memory: loads={mem.loads} stores={mem.stores} "
                f"known-addr={mem.known_address_pct:5.1f}% "
                f"no-alias={mem.no_alias_pairs}/{mem.alias_pairs} "
                f"loop-deps={mem.loop_carried_deps} "
                f"reuse-sites={mem.reusable_load_sites} "
                f"(clean={mem.always_clean_load_sites} "
                f"unknown={mem.unknown_address_load_sites})"
            )
        if args.detail:
            print(pa.describe())
        if name in reports:
            report = reports[name]
            result = results[name]
            mem_note = (
                f"fwd={report.forwards_checked} "
                f"reuse-loads={report.reuse_loads_checked} "
                if args.memory else ""
            )
            print(
                f"           check: merges={report.merges_checked} "
                f"agree={report.merge_agreement_pct:.1f}% "
                f"reuses={report.reuses_checked} {mem_note}"
                f"dyn-rec={result.stats.pct_recycled:.1f}% "
                f"dyn-reuse={result.stats.pct_reused:.2f}% "
                f"{'OK' if report.ok else 'VIOLATIONS'}"
            )
            for violation in report.violations:
                print(f"           {violation}")
    if args.check:
        print(
            f"cross-check: {total_violations} violation(s) across "
            f"{len(names)} workload(s)"
        )
    return 1 if total_violations else 0


def _explain_rules(query: str) -> int:
    """Print one rule (or a family) with its suppression marker."""
    from .analysis.lint import all_rules, suppression_marker

    want = query.upper()
    matched = [
        r for r in all_rules() if r.code == want or (
            len(want) < 6 and r.code.startswith(want)
        )
    ]
    if want in ("ALL", "*"):
        matched = all_rules()
    if not matched:
        known = ", ".join(r.code for r in all_rules())
        print(f"lint: unknown rule {query!r}; know {known}", file=sys.stderr)
        return 2
    for rule in matched:
        marker = suppression_marker(rule.code)
        suppression = f"# {marker} <reason>" if marker else "(none)"
        print(f"{rule.code}: {rule.summary}")
        print(f"  suppression: {suppression}")
    return 0


def _cmd_lint(args) -> int:
    """Whole-repo lint over the pluggable rule engine."""
    from .analysis.lint import (
        DEFAULT_PROFILE,
        LintTarget,
        render_text,
        restrict,
        run_lint,
        to_json,
        write_sarif,
    )

    if args.explain:
        return _explain_rules(args.explain)

    codes = tuple(code for code in (args.rules or "").split(",") if code) or None
    try:
        if args.paths:
            targets = [LintTarget(paths=tuple(args.paths), codes=codes)]
        elif codes is not None:
            # Each profile target keeps its own paths, narrowed to the
            # requested codes.
            targets = restrict(DEFAULT_PROFILE, codes)
        else:
            targets = list(DEFAULT_PROFILE)
        result = run_lint(targets)
    except (FileNotFoundError, KeyError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        write_sarif(result, args.sarif)
    if args.json:
        print(json.dumps(to_json(result), indent=2))
    else:
        for line in render_text(result):
            print(line)
        if not result.ok:
            print(f"{len(result.findings)} lint violation(s)", file=sys.stderr)
    return result.exit_code


def _cmd_profile_branches(args) -> int:
    from .branch.analysis import profile_branches

    suite = WorkloadSuite()
    names = args.workload or suite.names
    if not _known_kernels(names):
        return 2
    for name in names:
        profile = profile_branches(suite.program(name), args.max_instructions)
        print(profile.summary())
    return 0


def _cmd_trace(args) -> int:
    from .debug import CoreTracer, pipeview
    from .pipeline.core import Core

    if not _known_kernels(args.workload):
        return 2
    spec = RunSpec(
        workload=tuple(args.workload),
        machine=args.machine,
        features=args.features,
        commit_target=args.commit_target,
    )
    suite = WorkloadSuite()
    core = Core(spec.build_config())
    core.load(suite.mix(spec.workload), commit_target=spec.commit_target)
    kinds = set(args.kinds) if args.kinds else None
    tracer = CoreTracer(core, kinds=kinds)
    core.run(max_cycles=spec.max_cycles)
    print(tracer.format(limit=args.events))
    if args.pipeview:
        print()
        print(pipeview(tracer.committed_uops, max_rows=args.pipeview))
    counts = tracer.counts()
    print("\nevent totals:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _cmd_asm(args) -> int:
    with open(args.path) as handle:
        source = handle.read()
    program = assemble(source, name=args.path)
    print(program.listing())
    if args.run:
        emulator = Emulator(program)
        if args.trace:
            for _ in range(min(args.trace, args.limit)):
                if emulator.halted:
                    break
                rec = emulator.step()
                print(f"  {rec.pc:#08x}  {rec.instr}")
        executed = emulator.run_to_halt(limit=args.limit)
        print(f"\nexecuted {executed} instructions")
        for i in range(8):
            print(f"  r{i} = {emulator.state.regs[i]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="SMT/TME instruction-recycling simulator (HPCA 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show kernels, variants, machines, experiments")

    def positive_int(value: str) -> int:
        # A window, cycle budget, mix count, worker count or batch size
        # below 1 dies at parse time, before anything simulates (as the
        # service refuses such windows at submit).
        number = int(value)
        if number < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
        return number

    def positive_float(value: str) -> float:
        # A time budget of zero or less fails or expires every attempt
        # (or, as a poll interval, kills the worker at its first sleep).
        number = float(value)
        if not number > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {number}")
        return number

    def add_cache_flags(p, cache_default: Optional[str] = None):
        p.add_argument(
            "--cache-dir", default=cache_default, metavar="DIR",
            help="content-addressed result cache directory",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="ignore --cache-dir (always simulate)",
        )

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument(
        "--workload", nargs="+", required=True, help="kernel name(s); >1 = multiprogrammed"
    )
    run_parser.add_argument("--machine", default="big.2.16", choices=MACHINES)
    run_parser.add_argument("--features", default="REC/RS/RU", choices=VARIANTS)
    run_parser.add_argument("--policy", default=None, help="e.g. stop-8 / fetch-16 / nostop-32")
    run_parser.add_argument("--commit-target", type=positive_int, default=3000)
    run_parser.add_argument("--max-cycles", type=positive_int, default=2_000_000,
                            help="simulation cycle budget")
    run_parser.add_argument("--confidence-threshold", type=int, default=None,
                            help="fork-gating confidence threshold override")
    run_parser.add_argument("--json", action="store_true", help="machine-readable output")
    add_cache_flags(run_parser)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a named experiment set on the parallel engine (resumable)",
    )
    campaign_parser.add_argument(
        "names", nargs="*",
        help=f"experiment names or sets {sorted(CAMPAIGNS)}; default: paper",
    )
    campaign_parser.add_argument("--commit-target", type=positive_int, default=None)
    campaign_parser.add_argument("--num-mixes", type=positive_int, default=None)
    campaign_parser.add_argument("--jobs", type=positive_int, default=os.cpu_count() or 1,
                                 help="worker processes (1 = serial in-process)")
    campaign_parser.add_argument("--timeout", type=positive_float, default=None,
                                 help="wall-clock budget in seconds for one "
                                      "attempt of one job, from its dispatch; "
                                      "needs --jobs 2 or more, as only a worker "
                                      "process can be stopped")
    campaign_parser.add_argument("--batch-size", type=positive_int, default=1,
                                 metavar="N",
                                 help="jobs one worker process serves, one at "
                                      "a time, before it exits (and per gc "
                                      "epoch); 1 = a fresh process per job")
    add_cache_flags(campaign_parser, cache_default=".repro-cache")

    serve_parser = sub.add_parser(
        "serve",
        help="run the campaign server (or a remote worker with --worker)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8752)
    serve_parser.add_argument("--store", default=".repro-service", metavar="DIR",
                              help="shared artifact-store root")
    serve_parser.add_argument("--local-workers", type=int, default=1,
                              help="head-local worker threads (default: 1, as "
                                   "threads share one interpreter lock; 0 = "
                                   "rely on remote workers)")
    serve_parser.add_argument("--lease-ttl", type=positive_float, default=60.0,
                              help="seconds before an unacknowledged lease "
                                   "expires, a failed attempt")
    serve_parser.add_argument("--max-attempts", type=int, default=3,
                              help="attempts per task (failed or expired "
                                   "leases) before its jobs fail")
    serve_parser.add_argument("--no-resume", action="store_true",
                              help="do not re-admit unfinished campaigns on startup")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="log every HTTP request")
    serve_parser.add_argument("--worker", default=None, metavar="URL",
                              help="worker mode: lease job shards from this head")
    serve_parser.add_argument("--worker-id", default=None,
                              help="worker name reported to the head")
    serve_parser.add_argument("--lease-size", type=int, default=1,
                              help="tasks leased per request and run back to "
                                   "back (worker mode)")
    serve_parser.add_argument("--poll", type=positive_float, default=0.5,
                              help="idle poll interval in seconds (worker mode)")
    serve_parser.add_argument("--max-idle", type=float, default=None,
                              help="exit after this many idle seconds (worker mode)")

    submit_parser = sub.add_parser(
        "submit", help="submit a campaign spec to a running server"
    )
    submit_parser.add_argument("spec", nargs="?", default=None,
                               help="campaign spec JSON file ('-' = stdin); "
                                    "omit to build a sweep from flags")
    submit_parser.add_argument("--server", default=_DEFAULT_SERVER, metavar="URL")
    submit_parser.add_argument("--workload", nargs="+", default=None,
                               help="kernel names (one single-program job each)")
    submit_parser.add_argument("--grid", action="append", default=None,
                               metavar="FIELD=V1,V2",
                               help="sweep grid axis (repeatable)")
    submit_parser.add_argument("--machine", default="big.2.16", choices=MACHINES)
    submit_parser.add_argument("--features", default="REC/RS/RU", choices=VARIANTS)
    submit_parser.add_argument("--commit-target", type=positive_int, default=3000)
    submit_parser.add_argument("--max-cycles", type=positive_int, default=2_000_000)
    submit_parser.add_argument("--label", default="")
    submit_parser.add_argument("--follow", action="store_true",
                               help="stream progress events until done")
    submit_parser.add_argument("--json", action="store_true")

    status_parser = sub.add_parser(
        "status", help="campaign status (or server metrics with no id)"
    )
    status_parser.add_argument("campaign", nargs="?", default=None,
                               help="campaign id; omit for server /metrics")
    status_parser.add_argument("--server", default=_DEFAULT_SERVER, metavar="URL")
    status_parser.add_argument("--follow", action="store_true",
                               help="stream progress events until done")
    status_parser.add_argument("--json", action="store_true")

    fetch_parser = sub.add_parser(
        "fetch", help="fetch result documents for a campaign or one job"
    )
    fetch_parser.add_argument("id", help="campaign id (c000001) or job id (c000001.0003)")
    fetch_parser.add_argument("--server", default=_DEFAULT_SERVER, metavar="URL")
    fetch_parser.add_argument("--output", "-o", default=None,
                              help="write JSON here instead of stdout")

    analyze_parser = sub.add_parser(
        "analyze",
        help="static program analysis (CFG/reconvergence/reuse bounds), "
             "optionally cross-checked against an instrumented run",
    )
    analyze_parser.add_argument("--workload", nargs="*", default=None,
                                help="kernel name(s); default: all")
    analyze_parser.add_argument("--window", type=int, default=16,
                                help="reuse-ceiling lookahead (instructions)")
    analyze_parser.add_argument("--detail", action="store_true",
                                help="dump the per-branch site table")
    analyze_parser.add_argument("--check", action="store_true",
                                help="run the dynamic-invariant cross-checker")
    analyze_parser.add_argument("--memory", action="store_true",
                                help="include the memory-dependence analysis "
                                     "(and the R2/M6 rules under --check)")
    analyze_parser.add_argument("--features", default="REC/RS/RU", choices=VARIANTS,
                                help="feature set for --check runs")
    analyze_parser.add_argument("--commit-target", type=positive_int, default=1500,
                                help="measurement window for --check runs")
    analyze_parser.add_argument("--json", action="store_true",
                                help="machine-readable output")

    pbranch_parser = sub.add_parser(
        "profile-branches", help="offline branch-behaviour profile"
    )
    pbranch_parser.add_argument("--workload", nargs="*", default=None)
    pbranch_parser.add_argument("--max-instructions", type=int, default=25_000)

    trace_parser = sub.add_parser("trace", help="trace a run (events + pipeline view)")
    trace_parser.add_argument("--workload", nargs="+", required=True)
    trace_parser.add_argument("--machine", default="big.2.16", choices=MACHINES)
    trace_parser.add_argument("--features", default="REC/RS/RU", choices=VARIANTS)
    trace_parser.add_argument("--commit-target", type=positive_int, default=600)
    trace_parser.add_argument("--events", type=int, default=40)
    trace_parser.add_argument("--kinds", nargs="*", default=["fork", "swap", "respawn", "stream_open", "stream_end"])
    trace_parser.add_argument("--pipeview", type=int, default=0, help="render N committed uops")

    lint_parser = sub.add_parser(
        "lint",
        help="whole-repo lint (determinism DET001-DET005, sharing SHR005)",
    )
    lint_parser.add_argument("paths", nargs="*", default=None,
                             help="files/dirs to lint (every rule unless "
                                  "--rules); default: the determinism and "
                                  "sharing profile")
    lint_parser.add_argument("--rules", default=None, metavar="CODE[,CODE...]",
                             help="restrict to these comma-separated rule "
                                  "codes; without paths, each profile "
                                  "target runs the requested codes it owns")
    lint_parser.add_argument("--explain", default=None, metavar="RULE",
                             help="explain one rule code, a family prefix "
                                  "or 'all' (summary and suppression "
                                  "marker) and exit")
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable output")
    lint_parser.add_argument("--sarif", default=None, metavar="PATH",
                             help="also write a SARIF 2.1.0 report")

    asm_parser = sub.add_parser("asm", help="assemble (and optionally emulate) a file")
    asm_parser.add_argument("path")
    asm_parser.add_argument("--run", action="store_true")
    asm_parser.add_argument("--limit", type=int, default=1_000_000)
    asm_parser.add_argument("--trace", type=int, default=0, help="print the first N executed instructions")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "analyze": _cmd_analyze,
        "lint": _cmd_lint,
        "profile-branches": _cmd_profile_branches,
        "trace": _cmd_trace,
        "asm": _cmd_asm,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
