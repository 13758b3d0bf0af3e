"""Analysis bench (ours, E9) — the paper's Section-1 bandwidth claims.

The introduction claims recycling increases instruction supply three
ways: raw bandwidth (merging recycled with fetched instructions at
rename), fetch parallelism, and boundary-free trace injection.  This
bench measures the rename-stage slot decomposition for SMT vs
REC/RS/RU across the suite and asserts the directional claims.
"""

from repro.pipeline import Core, Features, MachineConfig

from .conftest import run_once, scaled

KERNELS = ("compress", "gcc", "go", "li", "perl", "su2cor")


def _measure(suite, commit_target):
    out = {}
    for kernel in KERNELS:
        row = {}
        for label, features in (("SMT", Features.smt()), ("REC/RS/RU", Features.rec_rs_ru())):
            core = Core(MachineConfig(features=features))
            core.load(suite.single(kernel), commit_target=commit_target)
            core.run(max_cycles=2_000_000)
            row[label] = {
                "rename_avg": core.util.rename.average,
                "fetch_avg": core.util.fetch.average,
                "recycle_fill": core.util.rename_fill_from_recycling,
                "ipc": core.stats.ipc,
            }
        out[kernel] = row
    return out


def test_bandwidth_decomposition(benchmark, suite):
    data = run_once(benchmark, _measure, suite, scaled(1800))
    print("\n=== Rename-bandwidth decomposition (SMT vs REC/RS/RU) ===")
    print(f"{'kernel':<10s} {'SMT ren/cyc':>12s} {'REC ren/cyc':>12s} {'recycle fill':>13s}")
    for kernel, row in data.items():
        print(
            f"{kernel:<10s} {row['SMT']['rename_avg']:>12.2f} "
            f"{row['REC/RS/RU']['rename_avg']:>12.2f} "
            f"{100 * row['REC/RS/RU']['recycle_fill']:>12.1f}%"
        )
    benchmark.extra_info["data"] = {
        k: {v: {m: round(x, 3) for m, x in inner.items()} for v, inner in row.items()}
        for k, row in data.items()
    }

    ups = 0
    for kernel, row in data.items():
        # Raw instruction supply into rename rises with recycling...
        if row["REC/RS/RU"]["rename_avg"] > row["SMT"]["rename_avg"]:
            ups += 1
        # ...while the recycle datapath carries a real share of it.
        assert row["REC/RS/RU"]["recycle_fill"] > 0.05, kernel
        # And fetch demand per committed instruction drops: recycled
        # instructions never touched the I-cache.
    assert ups >= len(KERNELS) - 1, "rename bandwidth should rise almost everywhere"
