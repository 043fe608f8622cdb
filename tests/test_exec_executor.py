"""Tests for the parallel sweep executor and its sweep-layer rewiring."""

import pytest

from repro import BPPolicy, MultitaskSystem
from repro.analysis import PolicySweep, compare_policies
from repro.errors import ConfigError
from repro.exec import ExecStats, SweepExecutor, SweepJob
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

    def test_cache_keyword_accepts_only_none(self, tmp_path):
        SweepExecutor(jobs=1, cache=None)
        for cache in (tmp_path, str(tmp_path), False, {}):
            with pytest.raises(ConfigError, match="no result cache"):
                SweepExecutor(jobs=1, cache=cache)

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
        assert stats.jobs_total == len(jobs_for())
        assert len(stats.job_seconds) == stats.jobs_total
        assert stats.p95_seconds >= stats.median_seconds >= 0.0

    def test_every_run_executes_every_job(self):
        executor = SweepExecutor(jobs=1)
        first = executor.run(jobs_for())
        assert executor.run(jobs_for()) == first
        assert executor.last_stats.jobs_total == len(jobs_for())
        assert len(executor.stats.job_seconds) == 2 * len(jobs_for())

    def test_empty_job_list(self):
        assert SweepExecutor(jobs=2).run([]) == []

    def test_job_seconds_are_summed_per_worker(self):
        executor = SweepExecutor(jobs=2)
        executor.run(jobs_for())
        stats = executor.last_stats
        # One entry per pool process that ran a job, not one per job.
        assert 1 <= len(stats.worker_seconds) <= 2
        assert sum(stats.worker_seconds.values()) == pytest.approx(
            stats.job_seconds_total)


class TestExecStats:
    def test_merge_sums_seconds_per_worker(self):
        stats = ExecStats(worker_seconds={"a": 1.0, "b": 2.0})
        stats.merge(ExecStats(worker_seconds={"b": 0.5, "c": 3.0}))
        assert stats.worker_seconds == {"a": 1.0, "b": 2.5, "c": 3.0}
        assert ExecStats.from_dict(stats.to_dict()) == stats

    def test_stats_without_worker_seconds_load_with_an_empty_map(self):
        # ``exec_stats.json`` as bundles wrote it before the per-worker map.
        stats = ExecStats.from_dict({
            "jobs_total": 2, "wall_seconds": 0.5, "workers": 1,
            "job_seconds": [0.1, 0.2], "kernel_backend": "scalar"})
        assert stats.worker_seconds == {}
        assert stats.job_seconds == [0.1, 0.2]


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

    def test_mismatched_gain_message_names_both_sweeps(self):
        a = PolicySweep("UGPU", "ugpu", total_cycles=CYCLES).run(MIXES)
        b = PolicySweep("BP", "bp", total_cycles=CYCLES).run(MIXES[:1])
        with pytest.raises(ConfigError, match=r"'UGPU' has 3 .* 'BP' has 1"):
            a.stp_gain_over(b)
