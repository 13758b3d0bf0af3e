"""ArtifactStore + FileLock: the concurrency-safe layer under the server."""

import os
import threading

import pytest

from repro.service.store import ArtifactStore, FileLock, LockTimeout

KEY_A = "aa" * 32
KEY_B = "bb" * 32


class TestFileLock:
    def test_mutual_exclusion_across_threads(self, tmp_path):
        # Each FileLock instance carries its own fd, so two instances on
        # one path behave exactly like two processes would.
        lock_path = tmp_path / "x.lock"
        counter = {"value": 0}

        def bump():
            for _ in range(50):
                with FileLock(lock_path, timeout=10.0):
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 200

    def test_timeout_raises(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            with pytest.raises(LockTimeout):
                FileLock(lock_path, timeout=0.05).acquire()
        finally:
            holder.release()

    def test_release_lets_next_waiter_in(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        first = FileLock(lock_path)
        first.acquire()
        first.release()
        with FileLock(lock_path, timeout=0.5):
            pass

    def test_lease_fallback_mutual_exclusion(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.store.fcntl", None)
        lock_path = tmp_path / "x.lock"
        with FileLock(lock_path, timeout=1.0):
            assert lock_path.exists()
            assert lock_path.read_text().strip() == str(os.getpid())
            with pytest.raises(LockTimeout):
                FileLock(lock_path, timeout=0.05).acquire()
        assert not lock_path.exists(), "lease file must vanish on release"

    def test_stale_lease_is_broken(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.service.store.fcntl", None)
        lock_path = tmp_path / "x.lock"
        lock_path.write_text("99999\n")  # owner long dead
        os.utime(lock_path, (0, 0))  # epoch mtime: ancient by any clock
        with FileLock(lock_path, timeout=1.0, stale=60.0):
            assert lock_path.read_text().strip() == str(os.getpid())


class TestFileLockBackoff:
    def test_timeout_names_holder_pid_and_age(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            with pytest.raises(LockTimeout) as excinfo:
                FileLock(lock_path, timeout=0.05).acquire()
        finally:
            holder.release()
        message = str(excinfo.value)
        assert f"held by pid {os.getpid()}" in message
        assert message.rstrip().endswith("s)")  # ... for X.Ys)

    def test_holder_pid_written_on_fcntl_path(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        with FileLock(lock_path):
            assert lock_path.read_text().strip() == str(os.getpid())

    def test_backoff_grows_and_respects_max_poll(self, tmp_path, monkeypatch):
        """Under contention the retry delay doubles (with jitter) up to
        ``max_poll`` — far fewer wakeups than fixed-interval polling."""
        import repro.service.store as store_mod

        fake_now = [0.0]
        sleeps = []

        def fake_clock():
            return fake_now[0]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            fake_now[0] += seconds

        monkeypatch.setattr(store_mod, "_clock", fake_clock)
        monkeypatch.setattr(store_mod.time, "sleep", fake_sleep)

        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        try:
            waiter = FileLock(
                lock_path, timeout=10.0, poll=0.01, max_poll=0.5
            )
            with pytest.raises(LockTimeout):
                waiter.acquire()
        finally:
            holder.release()

        assert sleeps, "a contended acquire must back off, not spin"
        assert all(s <= 0.5 + 1e-9 for s in sleeps)
        assert sum(sleeps) <= 10.0 + 1e-9  # never sleeps past the deadline
        # Exponential backoff: covering 10s takes far fewer than the
        # 1000 wakeups a fixed 10ms poll would need.
        assert len(sleeps) < 500
        assert max(sleeps) > 0.01  # the delay actually grew past `poll`

    def test_jitter_decorrelates_but_stays_in_range(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock", poll=0.01, max_poll=0.5)
        import random

        lock._jitter = random.Random(1234)
        samples = [lock._jitter.uniform(lock.poll, 0.5) for _ in range(100)]
        assert all(0.01 <= s <= 0.5 for s in samples)
        assert len(set(samples)) > 1

    def test_contended_acquire_succeeds_after_release(self, tmp_path):
        lock_path = tmp_path / "x.lock"
        holder = FileLock(lock_path)
        holder.acquire()
        released = threading.Event()

        def let_go():
            released.wait()
            holder.release()

        thread = threading.Thread(target=let_go)
        thread.start()
        released.set()
        with FileLock(lock_path, timeout=5.0):
            pass  # backoff retried until the holder let go
        thread.join()


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
