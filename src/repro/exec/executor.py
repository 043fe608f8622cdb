"""Parallel sweep execution.

:class:`SweepExecutor` turns a list of :class:`~repro.exec.jobs.SweepJob`
specs into an *ordered* list of :class:`~repro.core.system.SystemResult`:

* results come back in job order regardless of completion order, so
  downstream summaries are byte-identical between serial and parallel
  runs;
* ``jobs=1`` executes in-process — no pool, no pickling — keeping unit
  tests deterministic and debuggable;
* ``jobs>1`` fans the jobs out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Every job is executed on every :meth:`run`: a result always comes from
the code that computes it.

The executor keeps two stat records: ``last_stats`` for the most recent
:meth:`run` and ``stats`` accumulated over the executor's lifetime (one
multi-policy comparison issues several runs).

The executor is generic over job types: anything picklable with
``run(obs=...)`` and the display attributes ``policy`` / ``mix_name`` /
``total_cycles`` / ``kwargs`` flows through — a
:class:`~repro.exec.jobs.SweepJob` or a fleet
:class:`~repro.cluster.shard.FleetShardJob`.

By default each ``jobs>1`` :meth:`run` spins up a fresh process pool.
Callers that issue *many* small runs (the fleet simulator executes one
per scheduling round) should use the executor as a context manager::

    with SweepExecutor(jobs=8) as executor:
        for round in rounds:
            executor.run(shards)        # one persistent pool throughout

which keeps a single pool alive until exit — identical results, without
re-spawning worker processes every round.

Every executed job comes back as a
:class:`~repro.exec.envelope.JobEnvelope` (see :func:`repro.obs.run_job`).
When the run's :class:`~repro.obs.Obs` handle is on, each job also runs
under a fresh bounded capture handle *inside the worker*, and its
envelope carries the snapshot.  The executor keeps the envelopes,
job-ordered, in :attr:`last_envelopes` for the handle's owner to fold
back with :meth:`~repro.obs.Obs.absorb`.  The executor emits no event:
its facts are wall seconds, and a trace keeps one clock, GPU cycles.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigError
from repro.exec.envelope import JobEnvelope
from repro.exec.stats import ExecStats
from repro.fastpath import resolve_kernel_backend
from repro.obs import OFF, Obs, run_job

if TYPE_CHECKING:
    from repro.core.system import SystemResult
    from repro.exec.jobs import SweepJob


class SweepExecutor:
    """Run sweep jobs over ``jobs`` worker processes."""

    def __init__(self, jobs: int = 1, cache: None = None,
                 obs: Obs = OFF) -> None:
        """``obs``'s registry counts each run's :class:`ExecStats`
        (:func:`repro.telemetry.fold_exec_stats`: jobs, per-job seconds
        and wall seconds); registries never enter job kwargs, which must
        remain picklable."""
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        # ``cache`` exists only for bench/workloads.py's ``cache=None``.
        if cache is not None:
            raise ConfigError(
                f"SweepExecutor has no result cache; cache must be None, "
                f"got {cache!r}")
        self.jobs = jobs
        self.obs = obs
        self.stats = ExecStats(workers=jobs)
        self.last_stats = ExecStats(workers=jobs)
        #: Per-job envelopes from the most recent run, job-ordered.
        self.last_envelopes: List[JobEnvelope] = []
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Persistent-pool lifecycle (optional; run() works without it)
    # ------------------------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        if self.jobs > 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the persistent pool, if one is open."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, sweep_jobs: Sequence[SweepJob],
            obs: Optional[Obs] = None) -> List[SystemResult]:
        """Execute every job; results are returned in job order.

        ``obs`` is the handle of the run these jobs serve (default: the
        executor's own).  The jobs' observations are captured exactly
        when it is on (:attr:`~repro.obs.Obs.on`); the run's stats are
        still counted in :attr:`obs`.
        """
        run_obs = obs if obs is not None else self.obs
        start = time.perf_counter()
        stats = ExecStats(jobs_total=len(sweep_jobs), workers=self.jobs)
        # Record the backend the jobs resolve to, so timing footers flag
        # cross-backend comparisons; a job kwarg overrides the process
        # default, and disagreeing jobs mark the whole run "mixed".
        default_backend = resolve_kernel_backend()
        backends = {
            str(dict(job.kwargs).get("kernel_backend") or default_backend)
            for job in sweep_jobs
        }
        stats.kernel_backend = (
            backends.pop() if len(backends) == 1 else
            "mixed" if backends else default_backend
        )
        envelopes: List[Optional[JobEnvelope]] = [None] * len(sweep_jobs)
        capture = run_obs.on

        if self.jobs == 1:
            for index, job in enumerate(sweep_jobs):
                envelopes[index] = run_job(job, capture)
                _finished(envelopes[index], stats)
        elif sweep_jobs:
            if self._pool is not None:
                _run_pool(self._pool, sweep_jobs, envelopes, stats, capture)
            else:
                workers = min(self.jobs, len(sweep_jobs))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    _run_pool(pool, sweep_jobs, envelopes, stats, capture)

        stats.wall_seconds = time.perf_counter() - start
        self.last_stats = stats
        self.last_envelopes = envelopes
        self.stats.merge(stats)
        self.obs.fold_exec_stats(stats)
        return [envelope.result for envelope in envelopes]


def _run_pool(pool: ProcessPoolExecutor, sweep_jobs, envelopes,
              stats: ExecStats, capture: bool) -> None:
    """Fan the jobs out over ``pool``; fill ``envelopes`` in place."""
    futures = {
        pool.submit(run_job, job, capture): index
        for index, job in enumerate(sweep_jobs)
    }
    done, _ = wait(futures, return_when=FIRST_EXCEPTION)
    for future in done:
        future.result()  # re-raise worker failures eagerly
    for future, index in futures.items():
        envelopes[index] = future.result()
        _finished(envelopes[index], stats)


def _finished(envelope: JobEnvelope, stats: ExecStats) -> None:
    """Count one executed job: its in-worker seconds, in job order, and
    the same seconds under its worker's token, so post-hoc straggler
    attribution can group job time by the process that ran it."""
    stats.job_seconds.append(envelope.seconds)
    stats.worker_seconds[envelope.worker] = (
        stats.worker_seconds.get(envelope.worker, 0.0) + envelope.seconds)
