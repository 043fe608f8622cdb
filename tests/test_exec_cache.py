"""Tests for the content-addressed on-disk result cache."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.exec import ResultCache, SweepJob

JOB = SweepJob.build("bp", ("PVC", "DXTC"), 2_000_000)


@pytest.fixture
def result():
    return JOB.run()


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "sweeps")


class TestRoundTrip:
    def test_put_then_get_returns_equal_result(self, cache, result):
        cache.put(JOB.key(), result)
        loaded = cache.get(JOB.key())
        assert loaded == result
        assert loaded.stp == result.stp
        assert loaded.antt == result.antt
        assert [r.name for r in loaded.runs] == [r.name for r in result.runs]
        assert cache.hits == 1 and cache.misses == 0 and cache.stores == 1

    def test_missing_key_counts_a_miss(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_len_and_clear(self, cache, result):
        cache.put(JOB.key(), result)
        cache.put("f" * 64, result)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_only_system_results_accepted(self, cache):
        with pytest.raises(ConfigError):
            cache.put(JOB.key(), {"not": "a result"})


class TestCorruption:
    def test_truncated_entry_falls_back_to_miss_and_heals(self, cache, result):
        cache.put(JOB.key(), result)
        path = cache.path_for(JOB.key())
        path.write_bytes(path.read_bytes()[:17])
        assert cache.get(JOB.key()) is None
        assert cache.misses == 1
        assert not path.exists()  # poisoned entry removed
        cache.put(JOB.key(), result)  # recompute-and-store heals the slot
        assert cache.get(JOB.key()) == result

    def test_garbage_bytes_entry_is_a_miss(self, cache):
        cache.path_for(JOB.key()).write_bytes(b"not a pickle at all")
        assert cache.get(JOB.key()) is None
        assert cache.misses == 1

    def test_foreign_payload_is_a_miss(self, cache):
        with open(cache.path_for(JOB.key()), "wb") as handle:
            pickle.dump({"version": "0.0.0", "result": 42}, handle)
        assert cache.get(JOB.key()) is None

    def test_wrong_version_payload_is_a_miss(self, cache, result):
        with open(cache.path_for(JOB.key()), "wb") as handle:
            pickle.dump(
                {"version": "0.0.1", "key": JOB.key(), "result": result}, handle
            )
        assert cache.get(JOB.key()) is None
        assert cache.misses == 1


class TestEviction:
    def test_bound_is_enforced_oldest_first(self, tmp_path, result):
        cache = ResultCache(tmp_path, max_entries=2)
        import os
        for index, key in enumerate(("a" * 64, "b" * 64, "c" * 64)):
            cache.put(key, result)
            # Stamp strictly increasing mtimes; some filesystems round.
            os.utime(cache.path_for(key), (index, index))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a" * 64) is None  # oldest was evicted
        assert cache.get("c" * 64) is not None

    def test_bad_bound_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultCache(tmp_path, max_entries=0)


class TestInFlightTempFiles:
    """``Path.glob("*.pkl")`` matches dotfiles, so a ``.tmp-*.pkl`` file
    another process is mid-way through writing must not be counted as an
    entry, cleared, or evicted out from under its ``os.replace``."""

    def _fake_tmp(self, cache):
        tmp = cache.directory / ".tmp-inflight.pkl"
        tmp.write_bytes(b"partial write")
        return tmp

    def test_len_ignores_tmp_files(self, cache, result):
        cache.put(JOB.key(), result)
        self._fake_tmp(cache)
        assert len(cache) == 1

    def test_clear_leaves_tmp_files(self, cache, result):
        cache.put(JOB.key(), result)
        tmp = self._fake_tmp(cache)
        assert cache.clear() == 1
        assert tmp.exists()
        assert len(cache) == 0

    def test_enforce_bound_never_evicts_tmp_files(self, tmp_path, result):
        import os

        cache = ResultCache(tmp_path, max_entries=1)
        tmp = cache.directory / ".tmp-inflight.pkl"
        tmp.write_bytes(b"partial write")
        os.utime(tmp, (0, 0))  # oldest file in the directory
        cache.put("a" * 64, result)
        os.utime(cache.path_for("a" * 64), (1, 1))
        cache.put("b" * 64, result)
        # The bound evicted the oldest *finished* entry, not the tmp file.
        assert tmp.exists()
        assert cache.evictions == 1
        assert cache.get("a" * 64) is None
        assert cache.get("b" * 64) is not None
