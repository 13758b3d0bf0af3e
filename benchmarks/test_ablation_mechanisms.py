"""Ablation (ours, E8) — design-choice sensitivity of the recycle engine.

Three paper-adjacent design decisions, each swept on the same kernels:

* recycled-branch prediction: the paper's "latter method" (re-predict,
  stop on disagreement) vs the "former method" (adopt the recorded
  direction) — Section 3.4 describes both and picks the latter;
* confidence-estimator variant (Jacobsen et al. family);
* active-list size — the trace store recycling feeds on ("only loops
  smaller than the current active lists benefit").
"""

from repro.pipeline import Core, Features, MachineConfig

from .conftest import run_once, scaled

KERNELS = ("compress", "go", "gcc", "perl")


def _avg_ipc(suite, commit_target, **overrides):
    total = 0.0
    for kernel in KERNELS:
        cfg = MachineConfig(features=Features.rec_rs_ru(), **overrides)
        core = Core(cfg)
        core.load(suite.single(kernel), commit_target=commit_target)
        total += core.run(max_cycles=2_000_000).ipc
    return total / len(KERNELS)


def _sweep(suite, commit_target):
    return {
        "branch_policy": {
            "latter(re-predict)": _avg_ipc(suite, commit_target, recycle_repredict=True),
            "former(recorded)": _avg_ipc(suite, commit_target, recycle_repredict=False),
        },
        "confidence_kind": {
            kind: _avg_ipc(suite, commit_target, confidence_kind=kind)
            for kind in ("resetting", "saturating", "ones")
        },
        "active_list_size": {
            size: _avg_ipc(suite, commit_target, active_list_size=size)
            for size in (16, 32, 64, 128)
        },
        "squash_recovery": {
            f"penalty={p}": _avg_ipc(suite, commit_target, squash_penalty_per_uop=p)
            for p in (0.0, 0.25, 1.0)
        },
    }


def test_ablation_mechanisms(benchmark, suite):
    data = run_once(benchmark, _sweep, suite, scaled(1200))
    print("\n=== Ablation: recycle-engine design choices (avg IPC) ===")
    for section, rows in data.items():
        print(f"[{section}]")
        for label, ipc in rows.items():
            print(f"  {label:<20} {ipc:.3f}")
    benchmark.extra_info["data"] = {
        s: {str(k): round(v, 3) for k, v in rows.items()} for s, rows in data.items()
    }

    # The paper's choices should be competitive.
    policies = data["branch_policy"]
    assert policies["latter(re-predict)"] >= policies["former(recorded)"] * 0.97
    sizes = data["active_list_size"]
    # Bigger trace stores must not hurt, and tiny ones lose merges.
    assert sizes[64] >= sizes[16] * 0.95
    recovery = data["squash_recovery"]
    # Checkpointed recovery (the paper's model) must dominate walk-back.
    assert recovery["penalty=0.0"] >= recovery["penalty=1.0"]
    for rows in data.values():
        assert all(v > 0 for v in rows.values())
