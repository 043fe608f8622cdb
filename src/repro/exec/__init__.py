"""Sweep execution engine: ordered, parallel fan-out of simulations.

The paper's evaluation is an embarrassingly parallel set of independent
(policy × workload-mix) simulations.  This package supplies the
machinery every sweep entry point (``repro.analysis.sweep``, the CLI,
the benchmark harness, the examples) shares:

* :class:`SweepJob` — picklable job specs, resolved through a policy
  :mod:`registry <repro.exec.registry>`;
* :class:`SweepExecutor` — ordered, process-pool fan-out with a
  deterministic ``jobs=1`` in-process fast path;
* :class:`ExecStats` — observable job counts, wall-clock and per-job
  percentiles.

Every job is simulated by the code that runs it; nothing is replayed
from disk.
"""

from repro import _lazy_exports

_EXPORTS = {
    "repro.exec.stats": ("ExecStats",),
    "repro.exec.envelope": ("JobEnvelope", "ObsSnapshot", "worker_token"),
    "repro.exec.executor": ("SweepExecutor",),
    "repro.exec.jobs": ("SweepJob",),
    "repro.exec.registry": (
        "canonical_policy_name", "policy_name_of", "register_policy",
        "registered_policies", "resolve_policy",
    ),
    "repro.exec.keys": ("fingerprint",),
}

__all__, __getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
