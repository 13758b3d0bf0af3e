"""ArtifactStore: the concurrency-safe layer under the server."""

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.service.store import ArtifactStore

KEY_A = "aa" * 32
KEY_B = "bb" * 32


class TestArtifactStore:
    def test_record_then_get(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(KEY_A) is None
        store.record(KEY_A, {"ipc": 1.5})
        assert store.get(KEY_A) == {"ipc": 1.5}

    def test_record_reaches_the_cache(self, tmp_path):
        ArtifactStore(tmp_path).record(KEY_A, {"ipc": 1.5})
        # One entry under cache/, no second record beside it, and a fresh
        # store (a restarted server) resolves the key from that entry.
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.json")) == [
            ArtifactStore(tmp_path).path_for(KEY_A).relative_to(tmp_path)]
        assert not (tmp_path / "journal.jsonl").exists()
        assert ArtifactStore(tmp_path).get(KEY_A) == {"ipc": 1.5}

    def test_plain_executor_cache_layout(self, tmp_path):
        """An ArtifactStore root's cache/ is a valid ResultCache dir."""
        from repro.exec import ResultCache

        ArtifactStore(tmp_path).record(KEY_A, {"ipc": 1.5})
        assert ResultCache(tmp_path / "cache").get(KEY_A) == {"ipc": 1.5}

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = [f"{i:02d}" * 32 for i in range(16)]

        def write(key):
            store.record(key, {"key": key})

        threads = [threading.Thread(target=write, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every entry parses and every key survives a reload.
        fresh = ArtifactStore(tmp_path)
        assert len(fresh) == 16
        for key in keys:
            assert fresh.get(key) == {"key": key}
        assert fresh.misses == 0
        assert sorted(tmp_path.rglob("*.tmp")) == []


class TestCampaignPersistence:
    def test_ids_are_sequential_and_unique_under_contention(self, tmp_path):
        store = ArtifactStore(tmp_path)
        minted = []
        minted_lock = threading.Lock()

        def mint():
            for _ in range(10):
                campaign_id = store.next_campaign_id()
                with minted_lock:
                    minted.append(campaign_id)

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(minted) == [f"c{i:06d}" for i in range(1, 41)]

    def test_ids_survive_restart(self, tmp_path):
        assert ArtifactStore(tmp_path).next_campaign_id() == "c000001"
        assert ArtifactStore(tmp_path).next_campaign_id() == "c000002"

    def test_save_and_load_campaigns(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save_campaign({"id": "c000002", "state": "running"})
        store.save_campaign({"id": "c000001", "state": "done"})
        store.save_campaign({"id": "c000002", "state": "done"})  # overwrite
        assert store.load_campaigns() == [
            {"id": "c000001", "state": "done"},
            {"id": "c000002", "state": "done"},
        ]

    def test_load_campaigns_empty_store(self, tmp_path):
        assert ArtifactStore(tmp_path).load_campaigns() == []

    def test_two_processes_mint_distinct_ids(self, tmp_path):
        # Each process announces itself, then mints once both are told to
        # go, so the two runs overlap.
        script = ("import sys\n"
                  "from repro.service.store import ArtifactStore\n"
                  "store = ArtifactStore(sys.argv[1])\n"
                  "print('ready', flush=True)\n"
                  "sys.stdin.readline()\n"
                  "print(*(store.next_campaign_id() for _ in range(200)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        minters = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                    text=True, env=env)
                   for _ in range(2)]
        assert [minter.stdout.readline() for minter in minters] == ["ready\n"] * 2
        for minter in minters:
            minter.stdin.write("go\n")
            minter.stdin.flush()
        minted = [minter.communicate(timeout=60)[0].split() for minter in minters]
        assert [minter.returncode for minter in minters] == [0, 0]
        assert len(minted[0]) == len(minted[1]) == 200
        assert len(set(minted[0]) | set(minted[1])) == 400

    def test_a_reserved_record_is_skipped_and_its_id_never_reminted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        saved = store.next_campaign_id()
        store.save_campaign({"id": saved, "state": "done"})
        reserved = store.next_campaign_id()  # the server died before saving it
        assert store.load_campaigns() == [{"id": saved, "state": "done"}]
        assert ArtifactStore(tmp_path).next_campaign_id() not in (saved, reserved)
