"""Content-addressed result cache: keys, hits, misses, invalidation, resume."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.exec import cache as cache_module
from repro.exec import Executor, Job, ResultCache, cache_key, sim_fingerprint
from repro.exec.jobs import result_to_payload, spec_to_payload, stats_to_payload
from repro.pipeline.core import Core
from repro.sim.runner import RunSpec, run_spec
from repro.workloads import WorkloadSuite

SUITE = WorkloadSuite()
FP = SUITE.fingerprint()


def tiny_spec(**kwargs):
    defaults = dict(workload=("compress",), commit_target=250)
    defaults.update(kwargs)
    return RunSpec(**defaults)


class TestCacheKey:
    def test_stable_for_identical_specs(self):
        a = cache_key(Job(spec=tiny_spec()), FP)
        b = cache_key(Job(spec=tiny_spec()), FP)
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            dict(machine="small.1.8"),
            dict(features="TME"),
            dict(policy="stop-8"),
            dict(workload=("vortex",)),
            dict(workload=("compress", "gcc")),
            dict(commit_target=500),
            dict(max_cycles=1_000_000),
            dict(confidence_threshold=4),
        ],
    )
    def test_any_spec_field_changes_key(self, change):
        base = cache_key(Job(spec=tiny_spec()), FP)
        other = cache_key(Job(spec=tiny_spec(**change)), FP)
        assert base != other, change

    def test_overrides_change_key(self):
        base = cache_key(Job(spec=tiny_spec()), FP)
        sized = cache_key(Job(spec=tiny_spec(), overrides=(("active_list_size", 32),)), FP)
        assert base != sized

    def test_suite_fingerprint_changes_key(self):
        base = cache_key(Job(spec=tiny_spec()), FP)
        other = cache_key(Job(spec=tiny_spec()), "other-suite")
        assert base != other

    def test_sim_version_changes_key(self, monkeypatch):
        base = cache_key(Job(spec=tiny_spec()), FP)
        monkeypatch.setattr(cache_module, "sim_fingerprint", lambda: "0" * 16)
        bumped = cache_key(Job(spec=tiny_spec()), FP)
        assert base != bumped

    def test_sim_fingerprint_tracks_the_source(self, tmp_path):
        """The fingerprint is the package's source: a copy of the tree
        computes this process's value, and a comment appended to one
        pipeline module changes it, so every cache key changes too."""
        copy = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def fingerprint_of_copy():
            return subprocess.run(
                [sys.executable, "-c",
                 "from repro.exec import sim_fingerprint; print(sim_fingerprint())"],
                env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                capture_output=True, text=True, check=True).stdout.strip()

        assert fingerprint_of_copy() == sim_fingerprint()
        with open(copy / "pipeline" / "stages" / "fetch.py", "a") as handle:
            handle.write("# an edit\n")
        assert fingerprint_of_copy() != sim_fingerprint()

    def test_chaos_never_in_key(self):
        from repro.exec import Chaos

        plain = cache_key(Job(spec=tiny_spec()), FP)
        chaotic = cache_key(Job(spec=tiny_spec(), chaos=Chaos(fail_first_attempts=9)), FP)
        assert plain == chaotic

    def test_suite_fingerprint_tracks_iters(self):
        assert WorkloadSuite(iters=100).fingerprint() != WorkloadSuite(iters=200).fingerprint()
        assert WorkloadSuite(iters=100).fingerprint() == WorkloadSuite(iters=100).fingerprint()


class TestResultCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        from repro.exec import run_job

        payload = result_to_payload(run_job(Job(spec=tiny_spec()), SUITE))
        cache.put("ab" * 32, payload)
        assert cache.get("ab" * 32) == payload
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for("ef" * 32)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get("ef" * 32) is None


class TestExecutorCaching:
    def test_hit_on_identical_spec(self, tmp_path):
        spec = tiny_spec()
        first = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        second = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        assert not first.cached and second.cached
        assert stats_to_payload(first.result.stats) == stats_to_payload(second.result.stats)

    @pytest.mark.parametrize(
        "change",
        [
            dict(machine="small.1.8"),
            dict(features="TME"),
            dict(commit_target=300),
            dict(workload=("vortex",)),
        ],
    )
    def test_miss_when_spec_changes(self, tmp_path, change):
        Executor(cache=tmp_path).run([tiny_spec()], suite=SUITE)
        outcome = Executor(cache=tmp_path).run([tiny_spec(**change)], suite=SUITE)[0]
        assert not outcome.cached

    def test_invalidated_by_sim_version_bump(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        Executor(cache=tmp_path).run([spec], suite=SUITE)
        warm = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        monkeypatch.setattr(cache_module, "sim_fingerprint", lambda: "0" * 16)
        bumped = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        assert warm.cached and not bumped.cached

    def test_cached_result_matches_fresh_numerically(self, tmp_path):
        spec = tiny_spec(workload=("gcc", "go"))
        fresh = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        cached = Executor(cache=tmp_path).run([spec], suite=SUITE)[0]
        assert cached.result.per_program_ipc == fresh.result.per_program_ipc
        assert dataclasses.asdict(cached.result.stats) == dataclasses.asdict(fresh.result.stats)


class TestCorruptEntryRecovery:
    """A truncated/torn cache entry must never poison its key (satellite:
    crash-safe writes + self-healing reads)."""

    def test_corrupt_entry_is_evicted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text('{"schema": 1, "payload": {"x"')  # killed mid-write
        assert cache.get(key) is None
        assert not path.exists(), "corrupt entry must be deleted, not kept"

    def test_key_recovers_after_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"ipc": 1.0})
        # Simulate a pre-atomic-write simulator truncating the entry.
        cache.path_for(key).write_text('{"schema"')
        assert cache.get(key) is None
        cache.put(key, {"ipc": 1.0})
        assert cache.get(key) == {"ipc": 1.0}

    def test_wrong_schema_entry_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"schema": 999, "payload": {"x": 1}}))
        assert cache.get(key) is None
        assert not path.exists()

    def test_put_leaves_no_tmp_droppings(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("12" * 32, {"x": 1})
        leftovers = [p for p in sorted(tmp_path.rglob("*")) if p.suffix == ".tmp"]
        assert leftovers == []

    def test_executor_reruns_after_corruption(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        executor = Executor(cache=cache)
        first = executor.run([spec], suite=SUITE)[0]
        key = cache_key(Job(spec=spec), FP)
        cache.path_for(key).write_text("garbage")
        again = Executor(cache=ResultCache(tmp_path)).run([spec], suite=SUITE)[0]
        assert not again.cached  # corrupt entry -> a real re-run, not a crash
        assert stats_to_payload(again.result.stats) == stats_to_payload(first.result.stats)



#: Eight points for a campaign killed after its second lands.
KILL_SPECS = [
    tiny_spec(workload=(kernel,), features=features, commit_target=600)
    for kernel in ("compress", "li", "go", "vortex")
    for features in ("TME", "REC/RS/RU")
]

#: Runs KILL_SPECS on a two-worker pool over the cache in argv[1] and
#: prints one line per landed point.  After the second it waits on stdin,
#: so the kill lands mid-campaign however slow the machine is.
_CAMPAIGN_SCRIPT = """
import json, sys
from repro.exec import Executor, ProgressReporter
from repro.exec.jobs import spec_from_payload
specs = [spec_from_payload(payload) for payload in json.loads(sys.argv[2])]
def landed(event):
    print("landed", event.done, flush=True)
    if event.done == 2:
        sys.stdin.readline()
Executor(jobs=2, cache=sys.argv[1], progress=ProgressReporter(callback=landed)).run(specs)
"""


class TestKillResume:
    """The cache is the resume record: a campaign SIGKILLed mid-run
    resumes from its entries alone."""

    def test_rerun_simulates_exactly_the_points_without_an_entry(self, tmp_path, monkeypatch):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        specs = json.dumps([spec_to_payload(spec) for spec in KILL_SPECS])
        campaign = subprocess.Popen(
            [sys.executable, "-c", _CAMPAIGN_SCRIPT, str(tmp_path), specs],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        for line in campaign.stdout:
            if line.split() == ["landed", "2"]:
                break
        campaign.kill()
        campaign.wait(timeout=10)
        campaign.stdin.close()
        campaign.stdout.close()

        cache = ResultCache(tmp_path)
        stored = [cache.path_for(cache_key(Job(spec=spec), FP)).exists()
                  for spec in KILL_SPECS]
        assert 2 <= sum(stored) < len(KILL_SPECS), "the kill must land mid-campaign"

        simulated = []
        real_run = Core.run

        def run(core, *args, **kwargs):
            simulated.append(core)
            return real_run(core, *args, **kwargs)

        monkeypatch.setattr(Core, "run", run)
        outcomes = Executor(jobs=1, cache=cache).run(KILL_SPECS, suite=SUITE)
        assert [outcome.cached for outcome in outcomes] == stored
        assert len(simulated) == stored.count(False)
        monkeypatch.setattr(Core, "run", real_run)
        for spec, outcome in zip(KILL_SPECS, outcomes):
            assert stats_to_payload(outcome.result.stats) == stats_to_payload(
                run_spec(spec, SUITE).stats), spec.label()
