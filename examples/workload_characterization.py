#!/usr/bin/env python
"""Characterise the workload suite the way the paper characterises SPEC95.

Profiles every kernel's branch behaviour offline (no pipeline): gshare
accuracy, taken rate, branch density, how often the confidence
estimator would fork, and the resulting upper bound on TME's
branch-miss coverage.  This is the evidence that the synthetic kernels
inhabit the same behavioural niches as their SPEC95 namesakes
(tomcatv/vortex predictable, go/compress hard, etc.).

Run:  python examples/workload_characterization.py
"""

from repro.branch.analysis import profile_suite
from repro.workloads import WorkloadSuite


def main() -> None:
    suite = WorkloadSuite(iters=5000)
    profiles = profile_suite(suite, max_instructions=25_000)

    print(
        f"{'kernel':<10s} {'sites':>6s} {'density':>8s} {'accuracy':>9s} "
        f"{'taken':>7s} {'lowconf':>8s} {'cov bound':>10s}"
    )
    for name, p in profiles.items():
        print(
            f"{name:<10s} {len(p.static_sites):>6d} "
            f"{100 * p.branch_density:7.1f}% {100 * p.accuracy:8.1f}% "
            f"{100 * p.taken_rate:6.1f}% {100 * p.low_confidence_rate:7.1f}% "
            f"{100 * p.fork_coverage_bound:9.1f}%"
        )

    ranked = sorted(profiles.values(), key=lambda p: p.accuracy)
    print(
        f"\nhardest branches: {ranked[0].program} "
        f"({100 * ranked[0].accuracy:.1f}%), "
        f"easiest: {ranked[-1].program} ({100 * ranked[-1].accuracy:.1f}%)"
    )
    print(
        "TME forks where the confidence estimator fires; recycling then"
        "\nfeeds on the traces those forks leave behind."
    )


if __name__ == "__main__":
    main()
