"""Tests for the parallel sweep executor and its sweep-layer rewiring."""

import pytest

from repro import BPPolicy, MultitaskSystem
from repro.analysis import PolicySweep, compare_policies
from repro.errors import ConfigError
from repro.exec import ResultCache, SweepExecutor, SweepJob
from repro.exec.registry import bp, ugpu

CYCLES = 2_000_000
MIXES = [("PVC", "DXTC"), ("LBM", "CP"), ("PVC", "CP")]


def jobs_for(policies=("bp", "ugpu")):
    return [SweepJob.build(policy, mix, CYCLES)
            for policy in policies for mix in MIXES]


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            SweepExecutor(jobs=0)

    def test_serial_and_parallel_results_are_identical(self):
        batch = jobs_for()
        serial = SweepExecutor(jobs=1).run(batch)
        parallel = SweepExecutor(jobs=3).run(batch)
        assert serial == parallel  # full SystemResult equality, in job order

    def test_results_come_back_in_job_order(self):
        batch = jobs_for()
        results = SweepExecutor(jobs=2).run(batch)
        assert [r.mix_name for r in results] == [j.mix_name for j in batch]
        assert [r.policy for r in results] == (
            ["BP"] * len(MIXES) + ["UGPU"] * len(MIXES)
        )

    def test_stats_reflect_the_run(self):
        executor = SweepExecutor(jobs=1)
        executor.run(jobs_for())
        stats = executor.last_stats
        assert stats.jobs_total == stats.jobs_run == len(jobs_for())
        assert stats.cache_hits == 0
        assert len(stats.job_seconds) == stats.jobs_run
        assert stats.p95_seconds >= stats.p50_seconds >= 0.0

    def test_empty_job_list(self):
        assert SweepExecutor(jobs=2).run([]) == []


class TestExecutorCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        first = executor.run(jobs_for())
        assert executor.last_stats.jobs_run == len(jobs_for())
        second = executor.run(jobs_for())
        assert second == first
        assert executor.last_stats.jobs_run == 0
        assert executor.last_stats.cache_hits == len(jobs_for())

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = SweepExecutor(jobs=1, cache=cache).run(jobs_for())
        parallel_exec = SweepExecutor(jobs=2, cache=cache)
        parallel = parallel_exec.run(jobs_for())
        assert parallel == serial
        assert parallel_exec.last_stats.cache_hits == len(jobs_for())

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        first = executor.run(jobs_for())
        cache.path_for(jobs_for()[0].key()).write_bytes(b"\x80garbage")
        again = executor.run(jobs_for())
        assert again == first
        assert executor.last_stats.jobs_run == 1  # only the poisoned job
        assert executor.last_stats.cache_hits == len(jobs_for()) - 1


class TestSweepLayer:
    def test_policy_sweep_accepts_registry_names(self):
        by_name = PolicySweep("BP", "bp", total_cycles=CYCLES).run(MIXES)
        by_factory = PolicySweep("BP", bp, total_cycles=CYCLES).run(MIXES)
        assert by_name.stp_values == by_factory.stp_values

    def test_policy_sweep_parallel_matches_serial(self):
        serial = PolicySweep("UGPU", ugpu, total_cycles=CYCLES).run(MIXES)
        parallel = PolicySweep("UGPU", ugpu, total_cycles=CYCLES,
                               jobs=2).run(MIXES)
        assert serial.stp_values == parallel.stp_values
        assert serial.antt_values == parallel.antt_values
        assert serial.min_np_values == parallel.min_np_values

    def test_adhoc_callable_still_works(self):
        summary = PolicySweep(
            "custom",
            lambda apps: MultitaskSystem(apps, policy=BPPolicy()),
            total_cycles=CYCLES,
        ).run(MIXES)
        assert len(summary.stp_values) == len(MIXES)

    def test_compare_policies_parallel_identical_to_serial(self):
        policies = {"BP": bp, "UGPU": ugpu}
        table_s, serial = compare_policies(policies, MIXES, total_cycles=CYCLES)
        table_p, parallel = compare_policies(policies, MIXES,
                                             total_cycles=CYCLES, jobs=2)
        for name in policies:
            assert serial[name].stp_values == parallel[name].stp_values
            assert serial[name].antt_values == parallel[name].antt_values
        assert table_s.rows == table_p.rows

    def test_compare_policies_cached_rerun_is_zero_resimulation(self, tmp_path):
        executor = SweepExecutor(jobs=1, cache=ResultCache(tmp_path))
        policies = {"BP": "bp", "UGPU": "ugpu"}
        _, first = compare_policies(policies, MIXES, total_cycles=CYCLES,
                                    executor=executor)
        jobs_first = executor.stats.jobs_run
        assert jobs_first == len(policies) * len(MIXES)
        _, second = compare_policies(policies, MIXES, total_cycles=CYCLES,
                                     executor=executor)
        assert executor.stats.jobs_run == jobs_first  # nothing re-simulated
        assert executor.last_stats.cache_hits == len(policies) * len(MIXES)
        for name in policies:
            assert second[name].stp_values == first[name].stp_values

    def test_mismatched_gain_message_names_both_sweeps(self):
        a = PolicySweep("UGPU", "ugpu", total_cycles=CYCLES).run(MIXES)
        b = PolicySweep("BP", "bp", total_cycles=CYCLES).run(MIXES[:1])
        with pytest.raises(ConfigError, match=r"'UGPU' has 3 .* 'BP' has 1"):
            a.stp_gain_over(b)
