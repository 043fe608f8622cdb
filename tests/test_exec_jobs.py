"""Tests for sweep-job specs, fingerprints, and the policy registry."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import QoSTarget
from repro.errors import ConfigError
from repro.exec import (
    SweepJob,
    canonical_policy_name,
    fingerprint,
    policy_name_of,
    register_policy,
    registered_policies,
    resolve_policy,
)
from repro.metrics import EnergyModel
from repro.pagemove import MigrationMode
from tests.strategies import DETERMINISM_SETTINGS


class TestRegistry:
    def test_all_policies_registered(self):
        assert registered_policies() == [
            "bp", "bp-bs", "bp-sb", "cd-search", "mps",
            "ugpu", "ugpu-offline", "ugpu-ori", "ugpu-soft",
        ]

    def test_lookup_is_case_insensitive_with_aliases(self):
        from repro.exec import registry

        assert resolve_policy("BP") is registry.bp
        assert resolve_policy("bp") is registry.bp
        assert resolve_policy("CD") is resolve_policy("cd-search")
        assert canonical_policy_name("CD") == "cd-search"
        assert canonical_policy_name("UGPU-offline") == "ugpu-offline"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown policy"):
            resolve_policy("nonsense")

    def test_reverse_lookup(self):
        from repro.exec import registry

        assert policy_name_of(registry.bp) == "bp"
        assert policy_name_of(registry.ugpu) == "ugpu"
        assert policy_name_of(lambda apps: None) is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_policy("bp", lambda apps: None)


class TestJobKeyStability:
    def test_same_spec_same_key(self):
        a = SweepJob.build("bp", ("PVC", "DXTC"), 5_000_000)
        b = SweepJob.build("bp", ("PVC", "DXTC"), 5_000_000)
        assert a == b
        assert a.key() == b.key()

    def test_alias_and_case_share_a_key(self):
        assert (SweepJob.build("BP", ("PVC",)).key()
                == SweepJob.build("bp", ("PVC",)).key())
        assert (SweepJob.build("CD", ("PVC",)).key()
                == SweepJob.build("cd-search", ("PVC",)).key())

    def test_changed_horizon_changes_key(self):
        a = SweepJob.build("bp", ("PVC", "DXTC"), 5_000_000)
        b = SweepJob.build("bp", ("PVC", "DXTC"), 5_000_001)
        assert a.key() != b.key()

    def test_changed_mix_or_policy_changes_key(self):
        base = SweepJob.build("bp", ("PVC", "DXTC"))
        assert base.key() != SweepJob.build("bp", ("DXTC", "PVC")).key()
        assert base.key() != SweepJob.build("ugpu", ("PVC", "DXTC")).key()

    def test_changed_kwargs_changes_key(self):
        plain = SweepJob.build("ugpu", ("PVC", "DXTC"))
        qos = SweepJob.build("ugpu", ("PVC", "DXTC"),
                             kwargs={"qos": QoSTarget(app_id=1, target_np=0.75)})
        qos2 = SweepJob.build("ugpu", ("PVC", "DXTC"),
                              kwargs={"qos": QoSTarget(app_id=1, target_np=0.8)})
        assert len({plain.key(), qos.key(), qos2.key()}) == 3

    def test_kwarg_order_does_not_matter(self):
        a = SweepJob.build("bp", ("PVC",), kwargs={"epoch_cycles": 1_000_000,
                                                   "total_memory_bytes": 1 << 30})
        b = SweepJob.build("bp", ("PVC",), kwargs={"total_memory_bytes": 1 << 30,
                                                   "epoch_cycles": 1_000_000})
        assert a.key() == b.key()

    def test_key_survives_pickling(self):
        job = SweepJob.build("ugpu-soft", ("PVC", "DXTC"), 5_000_000,
                             kwargs={"epoch_cycles": 1_000_000})
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        assert clone.key() == job.key()

    @DETERMINISM_SETTINGS
    @given(
        policy=st.sampled_from(["bp", "BP", "ugpu", "CD", "mps"]),
        mix=st.lists(st.sampled_from(["PVC", "DXTC", "LBM", "CP", "MRI-Q"]),
                     min_size=1, max_size=4),
        cycles=st.integers(min_value=1, max_value=50_000_000),
        epoch=st.integers(min_value=1_000, max_value=10_000_000),
    )
    def test_key_is_a_pure_function_of_the_spec(self, policy, mix, cycles, epoch):
        kwargs = {"epoch_cycles": epoch}
        a = SweepJob.build(policy, mix, cycles, kwargs)
        b = SweepJob.build(policy, list(mix), cycles, dict(kwargs))
        assert a.key() == b.key()
        assert len(a.key()) == 64
        assert " at 0x" not in a.spec()


class TestFingerprint:
    def test_primitives_and_collections(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(1.0) == fingerprint(1.0)
        assert fingerprint([1, 2]) == fingerprint((1, 2))
        assert fingerprint({"b": 2, "a": 1}) == fingerprint({"a": 1, "b": 2})

    def test_enum_and_dataclass(self):
        assert "SOFTWARE" in fingerprint(MigrationMode.SOFTWARE)
        assert (fingerprint(QoSTarget(app_id=1, target_np=0.75))
                == fingerprint(QoSTarget(app_id=1, target_np=0.75)))

    def test_plain_config_object_uses_its_state(self):
        a = fingerprint(EnergyModel(core_static_watts=95.0))
        b = fingerprint(EnergyModel(core_static_watts=95.0))
        c = fingerprint(EnergyModel(core_static_watts=100.0))
        assert a == b != c
        assert " at 0x" not in a

    def test_address_bearing_repr_rejected(self):
        with pytest.raises(ConfigError, match="memory address"):
            fingerprint(object())


class TestJobValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ConfigError):
            SweepJob.build("bp", ())

    def test_nonpositive_cycles_rejected(self):
        with pytest.raises(ConfigError):
            SweepJob.build("bp", ("PVC",), 0)

    def test_execute_job_runs_the_policy(self):
        result = SweepJob.build("bp", ("PVC", "DXTC"), 2_000_000).run()
        assert result.policy == "BP"
        assert result.mix_name == "PVC_DXTC"
        assert result.stp > 0
