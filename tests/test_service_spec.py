"""Campaign spec parsing: validation, deterministic expansion, errors."""

import json

import pytest

from repro.service import SpecError, parse_campaign, sweep_spec
from repro.service.spec import _JOB_ENTRY_KEYS, _JOBS_KEYS, _SWEEP_KEYS
from repro.sim.sweep import Sweep


def sweep_payload(**kwargs):
    payload = {
        "kind": "sweep",
        "workloads": [["compress"], ["go"]],
        "grid": {"active_list_size": [32, 64]},
        "commit_target": 250,
    }
    payload.update(kwargs)
    return payload


class TestSweepParsing:
    def test_expands_to_sweep_job_order(self):
        spec = parse_campaign(sweep_payload())
        sweep = Sweep(
            workloads=[("compress",), ("go",)],
            grid={"active_list_size": [32, 64]},
            commit_target=250,
        )
        assert list(spec.jobs) == sweep.jobs()

    def test_grid_key_order_is_irrelevant(self):
        forward = parse_campaign(
            sweep_payload(grid={"active_list_size": [32], "rename_width": [4, 8]})
        )
        backward = parse_campaign(
            sweep_payload(grid={"rename_width": [4, 8], "active_list_size": [32]})
        )
        assert forward.jobs == backward.jobs

    def test_kind_defaults_to_sweep(self):
        payload = sweep_payload()
        del payload["kind"]
        assert len(parse_campaign(payload).jobs) == 4

    def test_bare_workload_strings_accepted(self):
        spec = parse_campaign(sweep_payload(workloads=["compress", "go"]))
        assert [job.spec.workload for job in spec.jobs[:2]] == [
            ("compress",), ("go",)
        ]

    def test_policy_applies_to_every_job(self):
        spec = parse_campaign(sweep_payload(policy="stop-8"))
        assert all(job.spec.policy == "stop-8" for job in spec.jobs)

    def test_label_is_kept(self):
        assert parse_campaign(sweep_payload(label="abl")).label == "abl"


class TestJobsParsing:
    def test_explicit_jobs(self):
        spec = parse_campaign({
            "kind": "jobs",
            "jobs": [
                {"workload": ["compress"], "overrides": {"active_list_size": 32}},
                {"workload": ["go"], "features": "TME"},
            ],
        })
        assert len(spec.jobs) == 2
        assert spec.jobs[0].overrides == (("active_list_size", 32),)
        assert spec.jobs[1].spec.features == "TME"

    def test_override_order_is_canonical(self):
        spec = parse_campaign({
            "kind": "jobs",
            "jobs": [{"workload": ["compress"],
                      "overrides": {"rename_width": 4, "active_list_size": 32}}],
        })
        assert spec.jobs[0].overrides == (
            ("active_list_size", 32), ("rename_width", 4)
        )


class TestRejection:
    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: p.update(kind="mystery"),
            lambda p: p.update(workloads=[]),
            lambda p: p.update(workloads=[[]]),
            lambda p: p.update(workloads=[[7]]),
            lambda p: p.update(grid={"active_list_size": []}),
            lambda p: p.update(grid={"no_such_knob": [1]}),
            lambda p: p.update(grid="not-a-dict"),
            lambda p: p.update(machine="imaginary.9.9"),
            lambda p: p.update(suite={"iters": 0}),
            lambda p: p.update(suite={"iters": "many"}),
            lambda p: p.update(suite={"extended": "yes"}),
            lambda p: p.update(suite={"flavour": "spicy"}),
            lambda p: p.update(label=7),
            lambda p: p.update(typo_field=1),
        ],
    )
    def test_bad_sweep_payloads_raise(self, mangle):
        payload = sweep_payload()
        mangle(payload)
        with pytest.raises(SpecError):
            parse_campaign(payload)

    @pytest.mark.parametrize(
        "jobs",
        [
            [],
            ["not-an-object"],
            [{"workload": []}],
            [{"workload": ["compress"], "overrides": {"no_such_knob": 1}}],
            [{"workload": ["compress"], "surprise": 1}],
            [{"workload": ["compress"], "machine": "imaginary.9.9"}],
        ],
    )
    def test_bad_jobs_payloads_raise(self, jobs):
        with pytest.raises(SpecError):
            parse_campaign({"kind": "jobs", "jobs": jobs})

    @pytest.mark.parametrize("change, named", [
        (dict(workloads=[["no_such_kernel"]]), "no_such_kernel"),
        (dict(workloads=[["compress"] * 9]), "num_contexts"),
        (dict(commit_target=-5), "commit_target"),
        (dict(commit_target=0), "commit_target"),
        (dict(commit_target="many"), "commit_target"),
        (dict(policy=5), "policy"),
        (dict(grid={"policy": ["stop-8"]}), "policy"),
        (dict(grid={"features": ["TME"]}), "features"),
        (dict(grid={"active_list_size": ["big"]}), "active_list_size"),
        (dict(grid={"confidence_kind": ["bogus"]}), "confidence_kind"),
        (dict(features=["REC"]), "features"),
        (dict(features={"a": 1}), "features"),
    ], ids=["unknown-kernel", "nine-programs", "commit-target-negative",
            "commit-target-zero", "commit-target-string", "policy-int",
            "grid-policy", "grid-features", "grid-active-list", "grid-confidence-kind",
            "features-list", "features-object"])
    def test_a_spec_that_cannot_run_is_refused_at_submit(self, change, named):
        """Each of these once ran: to a failure after every attempt, or
        to a wrong result (0 cycles).  A ``features`` list or object once
        dropped the connection."""
        with pytest.raises(SpecError, match=named):
            parse_campaign(sweep_payload(**change))

    @pytest.mark.parametrize("payload", [
        sweep_payload(suite={"iters": 5000}),
        {"kind": "jobs", "jobs": [{"workload": ["compress"]}], "suite": {}},
    ], ids=["sweep", "jobs"])
    def test_a_suite_block_is_an_unknown_field(self, payload):
        """Every engine simulates the eight kernels of ``WorkloadSuite()``;
        a spec cannot pick another suite."""
        with pytest.raises(SpecError, match=r"campaign field\(s\): \['suite'\]"):
            parse_campaign(payload)

    def test_jobs_are_checked_like_sweeps(self):
        with pytest.raises(SpecError, match=r"jobs\[1\]: unknown kernel"):
            parse_campaign({"kind": "jobs", "jobs": [{"workload": ["compress"]},
                                                     {"workload": ["no_such_kernel"]}]})

    def test_non_object_spec_raises(self):
        with pytest.raises(SpecError):
            parse_campaign(["not", "an", "object"])

    def test_error_message_names_the_bad_job(self):
        with pytest.raises(SpecError, match=r"jobs\[1\]"):
            parse_campaign({
                "kind": "jobs",
                "jobs": [{"workload": ["compress"]},
                         {"workload": ["compress"], "machine": "imaginary.9.9"}],
            })


#: One value of every JSON type, the unhashable containers included.
JSON_VALUES = [None, True, 1, 1.5, "x", [], ["x"], {}, {"a": 1}]


def _every_field_with_every_value():
    for field in sorted(_SWEEP_KEYS):
        for value in JSON_VALUES:
            payload = {"kind": "sweep", "workloads": [["compress"]], "commit_target": 250}
            payload[field] = value
            yield pytest.param(payload, id=f"sweep.{field}={json.dumps(value)}")
    for field in sorted(_JOBS_KEYS):
        for value in JSON_VALUES:
            payload = {"kind": "jobs", "jobs": [{"workload": ["compress"]}]}
            payload[field] = value
            yield pytest.param(payload, id=f"jobs.{field}={json.dumps(value)}")
    for field in sorted(_JOB_ENTRY_KEYS):
        for value in JSON_VALUES:
            entry = {"workload": ["compress"], "commit_target": 250}
            entry[field] = value
            yield pytest.param({"kind": "jobs", "jobs": [entry]},
                               id=f"jobs[0].{field}={json.dumps(value)}")


class TestAnyJsonValue:
    @pytest.mark.parametrize("payload", list(_every_field_with_every_value()))
    def test_parses_or_raises_spec_error(self, payload):
        """A client may send any JSON value in any field: the parser
        either accepts it or refuses it with a SpecError (a 400), never
        with another exception (a dropped connection)."""
        try:
            parse_campaign(payload)
        except SpecError:
            pass


class TestSweepSpecBuilder:
    def test_builder_output_parses(self):
        payload = sweep_spec(
            ["compress", ("go",)],
            grid={"active_list_size": [32, 64]},
            commit_target=250,
            label="quick",
        )
        spec = parse_campaign(payload)
        assert len(spec.jobs) == 4
        assert spec.label == "quick"

    def test_builder_sorts_grid(self):
        payload = sweep_spec(
            ["compress"], grid={"rename_width": [4], "active_list_size": [32]}
        )
        assert list(payload["grid"]) == ["active_list_size", "rename_width"]
