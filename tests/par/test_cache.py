"""Tests for scenario values, fingerprints and the memo cache (repro.par)."""

import functools
import pickle

import pytest

from repro.chaos.scenarios import selfckpt_scenario
from repro.ckpt.self_ckpt import SelfCheckpoint
from repro.par import (
    MemoCache,
    ReplayOutcome,
    ReplaySpec,
    code_fingerprint,
    replay_fingerprint,
)
from repro.sim.failures import PhaseTrigger, TimeTrigger
from tests.chaos.helpers import SilentCorruptRecover


def _spec(**overrides):
    return selfckpt_scenario(**overrides)


def _local_class():
    class Local(SelfCheckpoint):
        pass

    return Local


class TestScenarioSpec:
    def test_kwargs_are_order_canonical(self):
        a = selfckpt_scenario(n_nodes=2, iters=4)
        b = selfckpt_scenario(iters=4, n_nodes=2)
        assert a == b and hash(a) == hash(b)

    def test_build_round_trips_the_spec(self):
        sc = selfckpt_scenario(n_nodes=2, iters=4, protocol_factory=SilentCorruptRecover)
        rebuilt = pickle.loads(pickle.dumps(sc))
        assert rebuilt == sc and hash(rebuilt) == hash(sc)
        assert rebuilt.params["n_nodes"] == 2

    @pytest.mark.parametrize(
        "factory",
        [
            lambda *a, **k: None,
            _local_class(),
            functools.partial(SelfCheckpoint),
        ],
        ids=["lambda", "local-class", "partial"],
    )
    def test_factory_must_be_module_level(self, factory):
        with pytest.raises(ValueError, match="module-level class or function"):
            selfckpt_scenario(protocol_factory=factory)


class TestFingerprint:
    def test_deterministic(self):
        spec = ReplaySpec(_spec(), (TimeTrigger(node_id=0, at_time=1.5),))
        assert replay_fingerprint(spec) == replay_fingerprint(spec)

    def test_sensitive_to_scenario_params(self):
        t = (TimeTrigger(node_id=0, at_time=1.5),)
        assert replay_fingerprint(
            ReplaySpec(_spec(iters=4), t)
        ) != replay_fingerprint(ReplaySpec(_spec(iters=6), t))

    def test_sensitive_to_triggers(self):
        spec = _spec()
        a = ReplaySpec(spec, (TimeTrigger(node_id=0, at_time=1.5),))
        b = ReplaySpec(
            spec,
            (
                TimeTrigger(node_id=0, at_time=1.5),
                PhaseTrigger(node_id=1, phase="ckpt.encode"),
            ),
        )
        assert replay_fingerprint(a) != replay_fingerprint(b)

    def test_protocol_factory_is_fingerprinted_by_reference(self):
        def fp(factory):
            return replay_fingerprint(ReplaySpec(_spec(protocol_factory=factory), ()))

        assert fp(SilentCorruptRecover) == fp(SilentCorruptRecover)
        assert len({fp(None), fp(SelfCheckpoint), fp(SilentCorruptRecover)}) == 3

    def test_sensitive_to_schema_version(self, monkeypatch):
        import repro.par.cache as cache_mod

        spec = ReplaySpec(_spec(), ())
        before = replay_fingerprint(spec)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 999)
        assert replay_fingerprint(spec) != before

    def test_code_fingerprint_is_a_stable_digest(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestMemoCache:
    def _outcome(self, verdict="survived"):
        return ReplayOutcome(
            verdict=verdict, n_restarts=1, makespan_s=12.5, fired=("kill n0",)
        )

    def test_in_memory_roundtrip(self):
        cache = MemoCache()
        assert cache.get("k") is None
        cache.put("k", self._outcome())
        assert cache.get("k") == self._outcome()
        assert len(cache) == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        MemoCache(str(tmp_path)).put("k", self._outcome())
        assert MemoCache(str(tmp_path)).get("k") == self._outcome()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = MemoCache(str(tmp_path))
        cache.put("k", self._outcome())
        (tmp_path / "k.json").write_text("{not json", encoding="utf-8")
        assert MemoCache(str(tmp_path)).get("k") is None

    def test_outcome_json_roundtrip(self):
        out = self._outcome(verdict="gave-up")
        assert ReplayOutcome.from_json(out.to_json()) == out
