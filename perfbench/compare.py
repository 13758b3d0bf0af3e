"""Compare two sets of benchmark runs: the steadiness report.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of run records (or record files), as
``perfbench/run.py`` leaves them in ``.perfbench_out/runs``.  For every
workload and end-to-end metric it prints each set's median and
quartiles, each set's spread (interquartile range over median) against
the metric's bound from ``BENCHMARK.json``, and how much worse set B's
median is than set A's, as a share of that bound.  Runs of one workload
and seed found in both sets must agree exactly on ``ipc``.

Exits 0 when every spread but ``setup_s``'s is within its bound, no
median is worse by more than its bound and ``ipc`` repeats; 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from benchmath import quartiles, relative_spread, worse_by

ROOT = Path(__file__).resolve().parent.parent


def load_set(location: str) -> List[Dict]:
    path = Path(location)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(file.read_text()) for file in files]
    return [record for record in records if record.get("trace") == 0]


def compare(set_a: List[Dict], set_b: List[Dict], benchmark: Dict) -> List[str]:
    """Print the report; return the reasons it fails (empty when it holds)."""
    failures = []
    workloads = sorted({record["workload"] for record in set_a + set_b})
    print(f"{'workload':<14s} {'metric':<14s} {'median A':>11s} {'Q1-Q3 A':>23s} "
          f"{'median B':>11s} {'Q1-Q3 B':>23s} {'B/A':>6s} {'spreadA':>7s} "
          f"{'spreadB':>7s} {'bound':>5s} {'worse/bound':>11s}")
    for workload in workloads:
        runs_a = [r for r in set_a if r["workload"] == workload]
        runs_b = [r for r in set_b if r["workload"] == workload]
        if not runs_a or not runs_b:
            failures.append(f"{workload}: runs in only one set")
            continue
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values_a = [r["metrics"][name] for r in runs_a]
            values_b = [r["metrics"][name] for r in runs_b]
            q1a, med_a, q3a = quartiles(values_a)
            q1b, med_b, q3b = quartiles(values_b)
            spread_a, spread_b = relative_spread(values_a), relative_spread(values_b)
            worse = worse_by(med_a, med_b, metric["better"])
            print(f"{workload:<14s} {name:<14s} {med_a:11.5g} {q1a:11.5g}-{q3a:<11.5g} "
                  f"{med_b:11.5g} {q1b:11.5g}-{q3b:<11.5g} {med_b / med_a:6.3f} "
                  f"{spread_a:7.3f} {spread_b:7.3f} {bound:5.2f} {worse / bound:11.2f}")
            if name != "setup_s" and max(spread_a, spread_b) > bound:
                failures.append(f"{workload}/{name}: spread {max(spread_a, spread_b):.3f} "
                                f"exceeds bound {bound}")
            if worse > bound:
                failures.append(f"{workload}/{name}: median worse by {worse:.3f}, "
                                f"bound {bound}")
        seeds_a = {r["seed"]: r["metrics"]["ipc"] for r in runs_a}
        for run in runs_b:
            if run["seed"] in seeds_a and seeds_a[run["seed"]] != run["metrics"]["ipc"]:
                failures.append(f"{workload}: ipc differs for seed {run['seed']} "
                                f"({seeds_a[run['seed']]!r} vs {run['metrics']['ipc']!r})")
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = compare(load_set(argv[0]), load_set(argv[1]), benchmark)
    for failure in failures:
        print(f"FAIL {failure}")
    print("steady: the two sets agree within every bound" if not failures
          else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
