"""Sweep execution engine: parallel fan-out plus memoized result cache.

The paper's evaluation is an embarrassingly parallel set of independent
(policy × workload-mix) simulations.  This package supplies the hot-path
machinery every sweep entry point (``repro.analysis.sweep``, the CLI,
the benchmark harness, the examples) now shares:

* :class:`SweepJob` — picklable job specs with
  content-addressed keys, resolved through a policy :mod:`registry
  <repro.exec.registry>`;
* :class:`ResultCache` — on-disk memoization of finished results;
* :class:`SweepExecutor` — ordered, process-pool fan-out with a
  deterministic ``jobs=1`` in-process fast path;
* :class:`ExecStats` — observable jobs/hits/wall-clock/percentiles.
"""

from repro.exec.cache import CACHE_SCHEMA, ResultCache
from repro.exec.envelope import JobEnvelope, ObsSnapshot, worker_token
from repro.exec.executor import SweepExecutor
from repro.exec.jobs import SweepJob, fingerprint
from repro.exec.registry import (
    canonical_policy_name,
    policy_name_of,
    register_policy,
    registered_policies,
    resolve_policy,
)
from repro.exec.stats import ExecStats

__all__ = [
    "CACHE_SCHEMA",
    "ExecStats",
    "JobEnvelope",
    "ObsSnapshot",
    "ResultCache",
    "SweepExecutor",
    "SweepJob",
    "canonical_policy_name",
    "fingerprint",
    "worker_token",
    "policy_name_of",
    "register_policy",
    "registered_policies",
    "resolve_policy",
]
