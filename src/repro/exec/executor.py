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
When the run's :class:`~repro.obs.Obs` handle captures
(:attr:`~repro.obs.Obs.captures`), each job also runs under a fresh
bounded capture handle *inside the worker*, and its envelope carries
the snapshot.  The executor keeps the envelopes, job-ordered, in
:attr:`last_envelopes` for the handle's owner to fold back with
:meth:`~repro.obs.Obs.absorb`.
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
        """``obs`` receives the executor's own observations: one
        ``job`` span per executed job; the rest of each run's
        :class:`ExecStats` via :func:`repro.telemetry.fold_exec_stats`
        (registries never enter job kwargs, which must remain
        picklable); and one info log summary per :meth:`run`.  The
        events are timed in wall seconds since :meth:`run` began, so
        they reach the handle's registry and logger but never its
        recorder: a trace keeps one clock, GPU cycles."""
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        # ``cache`` exists only for bench/workloads.py's ``cache=None``.
        if cache is not None:
            raise ConfigError(
                f"SweepExecutor has no result cache; cache must be None, "
                f"got {cache!r}")
        self.jobs = jobs
        self.obs = obs
        self._own = Obs(registry=obs.registry, logger=obs.logger)
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
        when it captures (:attr:`~repro.obs.Obs.captures`); the
        executor's own records still go to :attr:`obs`.
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
        own = self._own
        if own.on:
            own.declare("job")

        if self.jobs == 1:
            for index, job in enumerate(sweep_jobs):
                envelopes[index] = run_job(job, run_obs.captures)
                self._finished(index, job, envelopes[index], stats, start)
        elif sweep_jobs:
            if self._pool is not None:
                self._run_pool(self._pool, sweep_jobs, envelopes, stats,
                               start, run_obs)
            else:
                workers = min(self.jobs, len(sweep_jobs))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    self._run_pool(pool, sweep_jobs, envelopes, stats,
                                   start, run_obs)

        stats.wall_seconds = time.perf_counter() - start
        self.last_stats = stats
        self.last_envelopes = envelopes
        self.stats.merge(stats)
        if own.on:
            own.fold_exec_stats(stats)
            own.info(
                "exec.run", jobs=stats.jobs_total, workers=stats.workers,
                wall_seconds=round(stats.wall_seconds, 6),
                backend=stats.kernel_backend or None,
            )
        return [envelope.result for envelope in envelopes]

    def _run_pool(self, pool: ProcessPoolExecutor, sweep_jobs, envelopes,
                  stats: ExecStats, start: float, run_obs: Obs) -> None:
        """Fan the jobs out over ``pool``; fill ``envelopes`` in place."""
        futures = {
            pool.submit(run_job, job, run_obs.captures): index
            for index, job in enumerate(sweep_jobs)
        }
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            future.result()  # re-raise worker failures eagerly
        for future, index in futures.items():
            envelopes[index] = future.result()
            self._finished(index, sweep_jobs[index], envelopes[index], stats,
                           start)

    def _finished(self, index: int, job: SweepJob, envelope: JobEnvelope,
                  stats: ExecStats, start: float) -> None:
        """Count one executed job and emit its ``job`` span.

        The span is end-anchored (completion time is known, in-worker
        start is not) and stamped with the job's position in the run
        (``index``) and the worker identity (``worker_pid`` + ``worker``
        token), so post-hoc straggler attribution can group job spans by
        the process that ran them."""
        stats.job_seconds.append(envelope.seconds)
        if not self._own.on:
            return
        end = time.perf_counter() - start
        self._own.emit(
            "job", f"{job.policy}:{job.mix_name}",
            time=max(0.0, end - envelope.seconds), duration=envelope.seconds,
            index=index, policy=job.policy, mix=job.mix_name,
            cycles=job.total_cycles, worker_pid=envelope.pid,
            worker=envelope.worker,
        )
