"""Campaign specifications: the JSON documents clients POST to the server.

Two kinds::

    {"kind": "sweep",                       # a Sweep grid (the common case)
     "workloads": [["compress"], ["go"]],
     "grid": {"active_list_size": [32, 64]},
     "machine": "big.2.16",
     "features": "REC/RS/RU",
     "commit_target": 1500,
     "max_cycles": 2000000,
     "label": "alist-ablation"}

    {"kind": "jobs",                        # explicit job list
     "jobs": [{"workload": ["compress"],
               "machine": "big.2.16",
               "features": "REC",
               "overrides": {"active_list_size": 32}}],
     "label": "one-off"}

Both expand to the *same* :class:`~repro.exec.jobs.Job` objects the
in-process engine runs, in the same deterministic order ``Sweep.jobs()``
produces (point-major, workload-minor), against the same suite, the
eight kernels of :class:`~repro.workloads.suite.WorkloadSuite` — which
is what makes server results bit-identical to a serial ``Sweep.run``,
files them under the keys an :class:`~repro.exec.pool.Executor` uses,
and lets concurrent clients dedupe on content-addressed cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..exec.jobs import Job
from ..sim.runner import DEFAULT_COMMIT_TARGET, DEFAULT_MAX_CYCLES, RunSpec
from ..sim.sweep import Sweep
from ..workloads.kernels import KERNELS

_SWEEP_KEYS = {
    "kind", "label", "workloads", "grid", "machine", "features",
    "policy", "commit_target", "max_cycles",
}
_JOBS_KEYS = {"kind", "label", "jobs"}
_JOB_ENTRY_KEYS = {
    "workload", "machine", "features", "policy", "commit_target",
    "max_cycles", "confidence_threshold", "overrides",
}


class SpecError(ValueError):
    """A campaign spec failed validation; ``str(exc)`` is client-facing."""


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: its jobs and label."""

    jobs: Tuple[Job, ...]
    label: str = ""
    raw: Dict = field(default_factory=dict, compare=False)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _reject_unknown(payload: Dict, allowed, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    _require(not unknown, f"unknown {where} field(s): {unknown}")


def _parse_workloads(raw) -> List[Tuple[str, ...]]:
    _require(isinstance(raw, list) and raw, '"workloads" must be a non-empty list')
    out = []
    for entry in raw:
        if isinstance(entry, str):
            entry = [entry]
        _require(
            isinstance(entry, list) and entry and all(isinstance(n, str) for n in entry),
            f"workload entry {entry!r} must be a kernel name or list of names",
        )
        out.append(tuple(entry))
    return out


def _sweep_jobs(payload: Dict) -> List[Job]:
    _reject_unknown(payload, _SWEEP_KEYS, "sweep campaign")
    workloads = _parse_workloads(payload.get("workloads"))
    grid = payload.get("grid", {})
    _require(isinstance(grid, dict), '"grid" must map MachineConfig fields to value lists')
    for name, values in sorted(grid.items()):
        _require(
            isinstance(values, list) and values,
            f'grid field "{name}" must map to a non-empty list of values',
        )
    try:
        sweep = Sweep(
            workloads=workloads,
            grid={name: list(values) for name, values in sorted(grid.items())},
            machine=payload.get("machine", "big.2.16"),
            features=payload.get("features", "REC/RS/RU"),
            commit_target=payload.get("commit_target", DEFAULT_COMMIT_TARGET),
            max_cycles=payload.get("max_cycles", DEFAULT_MAX_CYCLES),
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    jobs = sweep.jobs()
    policy = payload.get("policy")
    if policy is not None:
        jobs = [
            Job(
                spec=RunSpec(
                    workload=job.spec.workload,
                    machine=job.spec.machine,
                    features=job.spec.features,
                    policy=policy,
                    commit_target=job.spec.commit_target,
                    max_cycles=job.spec.max_cycles,
                ),
                overrides=job.overrides,
            )
            for job in jobs
        ]
    return jobs


def _job_entry(entry: Dict, index: int) -> Job:
    _require(isinstance(entry, dict), f"jobs[{index}] must be an object")
    _reject_unknown(entry, _JOB_ENTRY_KEYS, f"jobs[{index}]")
    workload = entry.get("workload")
    _require(
        isinstance(workload, list) and workload and all(isinstance(n, str) for n in workload),
        f'jobs[{index}].workload must be a non-empty list of kernel names',
    )
    overrides = entry.get("overrides", {})
    _require(isinstance(overrides, dict), f"jobs[{index}].overrides must be an object")
    spec = RunSpec(
        workload=tuple(workload),
        machine=entry.get("machine", "big.2.16"),
        features=entry.get("features", "REC/RS/RU"),
        policy=entry.get("policy"),
        commit_target=entry.get("commit_target", DEFAULT_COMMIT_TARGET),
        max_cycles=entry.get("max_cycles", DEFAULT_MAX_CYCLES),
        confidence_threshold=entry.get("confidence_threshold"),
    )
    try:
        return Job(spec=spec, overrides=tuple(sorted(overrides.items())))
    except ValueError as exc:
        raise SpecError(f"jobs[{index}]: {exc}") from exc


def _check_jobs(jobs: List[Job]) -> None:
    """Refuse at submit what could not run, or would run as something
    else: bad windows, unknown kernels, more programs than contexts, and
    every value :class:`~repro.pipeline.config.MachineConfig` refuses."""
    for index, job in enumerate(jobs):
        try:
            for name in ("commit_target", "max_cycles"):
                value = getattr(job.spec, name)
                _require(isinstance(value, int) and not isinstance(value, bool) and value > 0,
                         f'"{name}" must be a positive integer, not {value!r}')
            unknown = sorted(set(job.spec.workload) - set(KERNELS))
            _require(not unknown, f"unknown kernel(s) {unknown}; know {sorted(KERNELS)}")
            contexts = job.resolved_config().num_contexts
            _require(len(job.spec.workload) <= contexts,
                     f"{len(job.spec.workload)} programs do not fit "
                     f"num_contexts={contexts}")
        except (TypeError, ValueError) as exc:
            raise SpecError(f"jobs[{index}]: {exc}") from exc


def parse_campaign(payload: Dict) -> CampaignSpec:
    """Validate a raw JSON campaign document; raises :class:`SpecError`."""
    _require(isinstance(payload, dict), "campaign spec must be a JSON object")
    kind = payload.get("kind", "sweep")
    label = payload.get("label", "")
    _require(isinstance(label, str), '"label" must be a string')
    if kind == "sweep":
        jobs = _sweep_jobs(payload)
    elif kind == "jobs":
        _reject_unknown(payload, _JOBS_KEYS, "jobs campaign")
        entries = payload.get("jobs")
        _require(isinstance(entries, list) and entries, '"jobs" must be a non-empty list')
        jobs = [_job_entry(entry, i) for i, entry in enumerate(entries)]
    else:
        raise SpecError(f'unknown campaign kind {kind!r}; know ["sweep", "jobs"]')
    _check_jobs(jobs)
    return CampaignSpec(jobs=tuple(jobs), label=label, raw=dict(payload))


def sweep_spec(
    workloads,
    grid=None,
    machine: str = "big.2.16",
    features: str = "REC/RS/RU",
    commit_target: int = DEFAULT_COMMIT_TARGET,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    label: str = "",
) -> Dict:
    """Convenience builder for the sweep JSON document (client side)."""
    payload = {
        "kind": "sweep",
        "workloads": [list(w) if not isinstance(w, str) else [w] for w in workloads],
        "machine": machine,
        "features": features,
        "commit_target": commit_target,
        "max_cycles": max_cycles,
    }
    if grid:
        payload["grid"] = {name: list(values) for name, values in sorted(grid.items())}
    if label:
        payload["label"] = label
    return payload
