"""The numpy fast path against the scalar golden oracle.

The contract of :mod:`repro.fastpath` is *byte identity*: every float the
vectorized backend produces must equal, bitwise, what the pure-python
scalar code produces.  The Hypothesis property test below drives
:meth:`PerformanceModel.throughput_batch` over randomized kernels and
slice shapes — including the degenerate 0-SM and 0-channel slices — and
compares each field's ``float.hex()`` against a fresh scalar model, so
the vector path (not a memo hit) is what's being checked.

The rest covers the plumbing that keeps the two backends honest: backend
resolution priority, whole-system scalar-vs-numpy agreement on an
open-system run (the path the golden closed-system fixtures don't reach)
and under a custom stateful policy (the uncached fast-path branch no
in-tree policy takes), and the backend the executor and ExecStats record.
"""

import os
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fastpath import (
    numpy_available,
    resolve_kernel_backend,
    set_default_kernel_backend,
)
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.gpu.performance import PerformanceModel
from tests.strategies.gpu import hexed, kernels

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _clear_backend_override():
    """Tests must not leak a process-wide backend override."""
    yield
    set_default_kernel_backend(None)


class TestThroughputBatchProperty:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.lists(
        st.tuples(kernels,
                  st.integers(min_value=0, max_value=80),
                  st.integers(min_value=0, max_value=32)),
        min_size=1, max_size=6,
    ))
    def test_batch_is_bitwise_identical_to_scalar(self, batch):
        ks = [k for k, _, _ in batch]
        sms = [s for _, s, _ in batch]
        chans = [m for _, _, m in batch]
        # Fresh model per draw: an empty memo forces the vector path.
        vectorized = PerformanceModel(GPUConfig()).throughput_batch(
            ks, sms, chans
        )
        oracle = PerformanceModel(GPUConfig())
        for got, (kernel, s, m) in zip(vectorized, batch):
            want = oracle.throughput(kernel, s, m)
            assert hexed(got) == hexed(want)

    def test_zero_sm_and_zero_channel_edges(self):
        memory = Kernel("m", ipc_per_sm=1.0, apki_llc=120.0,
                        llc_hit_rate=0.5, footprint_bytes=1 << 30)
        compute = Kernel("c", ipc_per_sm=2.0, apki_llc=0.0,
                         llc_hit_rate=0.0, footprint_bytes=0)
        ks = [memory, memory, compute, compute]
        sms = [0, 10, 0, 10]
        chans = [4, 0, 0, 0]
        batch = PerformanceModel(GPUConfig()).throughput_batch(ks, sms, chans)
        oracle = PerformanceModel(GPUConfig())
        for got, kernel, s, m in zip(batch, ks, sms, chans):
            assert hexed(got) == hexed(oracle.throughput(kernel, s, m))
        assert batch[0].ipc == 0.0          # no SMs
        assert batch[1].ipc == 0.0          # memory-bound, no channels
        assert batch[2].ipc == 0.0          # no SMs, even compute-bound
        assert batch[3].ipc == 20.0         # compute-bound needs no channels
        assert batch[3].bandwidth_roof == float("inf")

    def test_batch_validates_inputs(self):
        model = PerformanceModel(GPUConfig())
        kernel = Kernel("k", 1.0, 10.0, 0.5, 0)
        with pytest.raises(ConfigError):
            model.throughput_batch([kernel], [1, 2], [1])
        with pytest.raises(ConfigError):
            model.throughput_batch([kernel], [-1], [1])

    def test_batch_hits_memo_on_repeat(self):
        model = PerformanceModel(GPUConfig())
        kernel = Kernel("k", 1.0, 10.0, 0.5, 0)
        first = model.throughput_batch([kernel], [8], [4])[0]
        misses = model.memo_misses
        again = model.throughput_batch([kernel, kernel], [8, 8], [4, 4])
        assert again[0] is first and again[1] is first
        assert model.memo_misses == misses


class TestBackendResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert resolve_kernel_backend("scalar") == "scalar"

    def test_process_default_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        set_default_kernel_backend("scalar")
        assert resolve_kernel_backend() == "scalar"

    def test_environment_beats_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert resolve_kernel_backend() == "numpy"

    def test_default_is_scalar_even_with_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert numpy_available()
        assert resolve_kernel_backend() == "scalar"
        assert resolve_kernel_backend("numpy") == "numpy"

    def test_default_run_never_imports_numpy(self):
        """A default closed run stays on the scalar step, so neither the
        package nor the run loads numpy."""
        code = (
            "import sys\n"
            "import repro\n"
            "from repro import MultitaskSystem, UGPUPolicy, build_mix\n"
            "apps = build_mix(['PVC', 'DXTC']).applications\n"
            "system = MultitaskSystem(apps, policy=UGPUPolicy())\n"
            "result = system.run(25_000_000)\n"
            "assert result.stp > 0 and system.kernel_backend == 'scalar'\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        env.pop("REPRO_KERNEL_BACKEND", None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_kernel_backend("cuda")
        with pytest.raises(ConfigError):
            set_default_kernel_backend("cuda")


class TestSystemBackendAgreement:
    def test_open_system_runs_are_identical(self):
        """Arrivals exercise the boundary/admission path the closed-system
        golden fixtures never reach; both backends must agree exactly."""
        from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
        from repro.policies import UGPUPolicy
        from repro.workloads.arrivals import poisson_arrivals

        def run(backend):
            clear_solo_ipc_cache()
            schedule = poisson_arrivals(
                mean_interarrival_cycles=1_000_000,
                horizon_cycles=8_000_000,
                seed=3,
            )
            system = MultitaskSystem(
                [], policy=UGPUPolicy(), epoch_cycles=500_000,
                arrivals=schedule, kernel_backend=backend,
            )
            return system.run(8_000_000, mix_name="agree")

        a, b = run("scalar"), run("numpy")
        assert (a.arrivals, a.admissions, a.departures, a.repartitions) == \
               (b.arrivals, b.admissions, b.departures, b.repartitions)
        assert len(a.epochs) == len(b.epochs)
        for ea, eb in zip(a.epochs, b.epochs):
            assert (ea.index, ea.start_cycle, ea.end_cycle) == \
                   (eb.index, eb.start_cycle, eb.end_cycle)
            assert ea.instructions == eb.instructions
        assert a.stp.hex() == b.stp.hex()

    def test_undeclared_throughput_override_runs_stateful(self):
        """A policy overriding ``throughput_for`` without declaring its
        ``throughput_dependence`` gets the uncached ``"stateful"`` path,
        which must still match the scalar oracle exactly."""
        from repro.core.slices import ResourceAllocation
        from repro.core.system import MultitaskSystem, clear_solo_ipc_cache
        from repro.policies import PartitionPolicy
        from repro.workloads import build_mix

        class DecayingPolicy(PartitionPolicy):
            policy_name = "decaying"

            def __init__(self):
                self.epochs_seen = 0
                self.throughput_calls = 0

            def throughput_for(self, state):
                # Depends on policy state no cache token covers.
                self.throughput_calls += 1
                base = self.runner.slice_throughput(state)
                return base._replace(ipc=base.ipc / (1 + self.epochs_seen))

            def on_epoch_end(self, epoch_index, span):
                self.epochs_seen += 1
                if epoch_index == 1:
                    runner = self.runner
                    runner.apply_partition({
                        0: ResourceAllocation(32, 16),
                        1: ResourceAllocation(48, 16),
                    })
                    runner.repartitions += 1

        def run(backend):
            clear_solo_ipc_cache()
            system = MultitaskSystem(
                build_mix(["PVC", "DXTC"]).applications,
                policy=DecayingPolicy(), epoch_cycles=1_000_000,
                kernel_backend=backend,
            )
            return system, system.run(6_000_000)

        (scalar, a), (fast, b) = run("scalar"), run("numpy")
        assert fast._fast.dependence == "stateful"
        assert fast.policy.throughput_calls == scalar.policy.throughput_calls
        assert a.repartitions == b.repartitions == 1
        assert [e.instructions for e in a.epochs] == \
               [e.instructions for e in b.epochs]
        assert [e.detail["allocations"] for e in a.epochs] == \
               [e.detail["allocations"] for e in b.epochs]
        assert a.stp.hex() == b.stp.hex()


class TestBackendSurfacing:
    def test_exec_stats_merge_marks_mixed(self):
        from repro.exec.stats import ExecStats

        stats = ExecStats(kernel_backend="numpy")
        stats.merge(ExecStats(kernel_backend="numpy"))
        assert stats.kernel_backend == "numpy"
        stats.merge(ExecStats(kernel_backend="scalar"))
        assert stats.kernel_backend == "mixed"
        assert "backend mixed" in stats.format()
        empty = ExecStats()
        empty.merge(ExecStats(kernel_backend="scalar"))
        assert empty.kernel_backend == "scalar"

    def test_executor_records_backend(self):
        from repro.exec import SweepExecutor, SweepJob

        set_default_kernel_backend("scalar")
        executor = SweepExecutor(jobs=1)
        executor.run([SweepJob.build("bp", ["PVC", "DXTC"], 1_000_000)])
        assert executor.last_stats.kernel_backend == "scalar"
