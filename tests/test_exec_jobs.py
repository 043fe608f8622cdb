"""Tests for sweep-job specs, fingerprints, and the policy registry."""

import pytest

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
