"""Tests for SystemConfig (Table I defaults, validation, serialization)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.config import (
    DEFAULT_SCALE,
    CacheParams,
    NumaParams,
    SchedulerParams,
    SystemConfig,
    cpu_config,
    ndp_config,
)


class TestDefaults:
    def test_table1_cache_defaults(self):
        cfg = SystemConfig()
        assert cfg.l1.size == 32 * 1024
        assert cfg.l1.associativity == 8
        assert cfg.l1.latency == 4
        assert cfg.l2.size == 512 * 1024
        assert cfg.l3_per_core.size == 2 * 1024 * 1024
        assert cfg.l3_per_core.latency == 35

    def test_table1_tlb_defaults(self):
        cfg = SystemConfig()
        assert cfg.tlb.l1_small_entries == 64
        assert cfg.tlb.l2_entries == 1536
        assert cfg.tlb.l2_latency == 12

    def test_table1_memory(self):
        cfg = SystemConfig(scale=1.0)
        assert cfg.physical_bytes == 16 * 1024 ** 3

    def test_default_scale_is_full(self):
        assert DEFAULT_SCALE == 1.0

    def test_phys_scales_with_workloads(self):
        cfg = SystemConfig(scale=0.5)
        assert cfg.physical_bytes == 8 * 1024 ** 3

    def test_explicit_phys_wins(self):
        cfg = SystemConfig(phys_bytes=123 * 1024 ** 2)
        assert cfg.physical_bytes == 123 * 1024 ** 2


class TestValidation:
    def test_bad_system(self):
        with pytest.raises(ValueError):
            SystemConfig(system="gpu")

    def test_bad_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            SystemConfig(scale=0)
        with pytest.raises(ValueError):
            SystemConfig(scale=1.5)

    def test_bad_refs(self):
        with pytest.raises(ValueError):
            SystemConfig(refs_per_core=0)

    def test_bad_mechanism_caught_early(self):
        with pytest.raises(ValueError):
            SystemConfig(mechanism="quantum")


class TestBuilders:
    def test_factories_set_system(self):
        assert ndp_config().system == "ndp"
        assert cpu_config().system == "cpu"

    def test_with_mechanism(self):
        cfg = ndp_config().with_mechanism("ndpage")
        assert cfg.mechanism == "ndpage"
        assert cfg.system == "ndp"

    def test_configs_are_frozen(self):
        cfg = ndp_config()
        with pytest.raises(Exception):
            cfg.num_cores = 4


class TestSerialization:
    """The canonical round-trip the sweep cache and workers rely on."""

    def test_to_dict_is_plain_data(self):
        data = ndp_config(workload="bfs").to_dict()
        assert data["workload"] == "bfs"
        assert data["l1"] == {"size": 32 * 1024, "associativity": 8,
                              "latency": 4}
        assert isinstance(data["tlb"], dict)
        assert isinstance(data["fault_costs"], dict)

    def test_round_trip_exact(self):
        cfg = cpu_config(workload="xs", mechanism="ndpage",
                         num_cores=8, refs_per_core=1234,
                         scale=0.125, seed=9,
                         l1=CacheParams(16 * 1024, 4, 3))
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_validates(self):
        data = ndp_config().to_dict()
        data["mechanism"] = "quantum"
        with pytest.raises(ValueError):
            SystemConfig.from_dict(data)

    def test_canonical_json_deterministic(self):
        a = ndp_config(workload="bfs", seed=3)
        b = ndp_config(workload="bfs", seed=3)
        assert a.canonical_json() == b.canonical_json()
        assert a.canonical_json() != \
            ndp_config(workload="bfs", seed=4).canonical_json()

    def test_pickle_round_trip(self):
        import pickle
        cfg = ndp_config(workload="xs", num_cores=4)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestVersionedFields:
    """Fields added after the cache format shipped (the tenants axis)
    must round-trip — and, while default-valued, must not perturb the
    serialized form or any existing cache key."""

    #: Cache keys of two representative configs, computed at PR 2 (the
    #: release that froze the cache-key scheme).  If adding a config
    #: field moves these, every cached result silently invalidates —
    #: omit the field from to_dict() at its default instead.
    PR2_KEYS = {
        "ndp_default": "793ac0269636cdc2c58136bc269297bee4dc6a2a",
        "cpu_bfs": "afa774d1667a7ad5aa169d1d0e1fef7aee3bc44d",
    }
    #: Cache keys of configs with a non-default nested scheduler or
    #: topology, which serialize every field of that dataclass.  If
    #: adding or removing a SchedulerParams or NumaParams field moves
    #: these, every cached multi-tenant or multi-node result silently
    #: invalidates.
    NESTED_KEYS = {
        "xs_2t_q256": "870e1d93a3c2b1313e8b9bbae3eddf8f4b7c71ec",
        "xs_4t_q1024_asids2": "e826c03a9c5a9368a1a083146843679aba748a1f",
        "rnd_2c_2n_pte_local": "6f8f6e0817e52d4d1c3b81ab0c75ae6fdf77bcc6",
    }
    #: The CODE_VERSION those keys were computed under.  Every version
    #: bump moves every key on purpose, so the keys are checked at this
    #: tag: what they pin is the serialized config.
    KEYS_CODE_VERSION = "sim-v2"

    def test_default_valued_new_fields_keep_pr2_cache_keys(self):
        from functools import partial

        from repro.analysis.cache import config_key as key_for
        config_key = partial(key_for, code_version=self.KEYS_CODE_VERSION)
        assert config_key(ndp_config()) == self.PR2_KEYS["ndp_default"]
        assert config_key(cpu_config(
            workload="bfs", mechanism="ndpage", num_cores=4,
            refs_per_core=3000, scale=1 / 64, seed=7,
        )) == self.PR2_KEYS["cpu_bfs"]

    def test_non_default_nested_configs_keep_their_cache_keys(self):
        from repro.analysis.cache import config_key
        configs = {
            "xs_2t_q256": ndp_config(
                workload="xs", tenants=2,
                scheduler=SchedulerParams(quantum_refs=256)),
            "xs_4t_q1024_asids2": ndp_config(
                workload="xs", tenants=4,
                scheduler=SchedulerParams(quantum_refs=1024,
                                          max_asids=2)),
            "rnd_2c_2n_pte_local": ndp_config(
                workload="rnd", num_cores=2,
                numa=NumaParams(nodes=2, placement="pte-local")),
        }
        keys = {name: config_key(config,
                                 code_version=self.KEYS_CODE_VERSION)
                for name, config in configs.items()}
        assert keys == self.NESTED_KEYS

    def test_default_valued_new_fields_omitted_from_to_dict(self):
        data = ndp_config().to_dict()
        assert "tenants" not in data
        assert "scheduler" not in data
        assert "numa" not in data

    def test_non_default_new_fields_serialized(self):
        cfg = ndp_config(tenants=2,
                         scheduler=SchedulerParams(quantum_refs=512))
        data = cfg.to_dict()
        assert data["tenants"] == 2
        assert data["scheduler"]["quantum_refs"] == 512

    def test_new_scheduler_subfields_omitted_at_defaults(self):
        """A non-default scheduler serializes every SchedulerParams
        field, so its field set must not change: a field added or
        removed there would move the cache key of every
        custom-scheduler config."""
        cfg = ndp_config(tenants=2,
                         scheduler=SchedulerParams(quantum_refs=512))
        data = cfg.to_dict()
        # Exactly the PR 3 field set, nothing more.
        assert sorted(data["scheduler"]) == [
            "context_switch_cycles", "flush_on_switch", "max_asids",
            "quantum_refs", "shootdown_cycles"]

    def test_numa_axis_round_trips_and_keys_differ(self):
        import json
        cfg = ndp_config(numa=NumaParams(nodes=2,
                                         placement="pte-local"))
        data = cfg.to_dict()
        assert data["numa"]["nodes"] == 2
        rebuilt = SystemConfig.from_dict(
            json.loads(json.dumps(data)))
        assert rebuilt == cfg
        assert hash(rebuilt) == hash(cfg)
        assert cfg.canonical_json() != ndp_config().canonical_json()
        assert cfg.canonical_json() != ndp_config(
            numa=NumaParams(nodes=2)).canonical_json()

    def test_new_fields_round_trip_exact(self):
        cfg = ndp_config(tenants=3,
                         scheduler=SchedulerParams(
                             quantum_refs=512, max_asids=2,
                             context_switch_cycles=9000,
                             shootdown_cycles=1111,
                             flush_on_switch=True))
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_new_fields_round_trip_through_json(self):
        import json
        cfg = ndp_config(tenants=2,
                         scheduler=SchedulerParams(quantum_refs=512,
                                                   max_asids=2))
        rebuilt = SystemConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg
        assert hash(rebuilt) == hash(cfg)

    def test_canonical_json_distinguishes_tenant_counts(self):
        base = ndp_config()
        assert base.canonical_json() \
            != ndp_config(tenants=2).canonical_json()

    def test_single_tenant_scheduler_normalizes(self):
        """No scheduler knob moves a lone tenant's run (pinned by
        ``test_single_tenant_config_bypasses_scheduler``, whose three
        settings these are), so at one tenant each normalizes to the
        default cache key, as a lone node's NUMA knobs do; at two
        tenants each keeps its own."""
        settings = (SchedulerParams(quantum_refs=100),
                    SchedulerParams(max_asids=1, flush_on_switch=True),
                    SchedulerParams(shootdown_cycles=9999))

        default = ndp_config().canonical_json()
        for params in settings:
            config = ndp_config(scheduler=params)
            assert config.scheduler == SchedulerParams(), params
            assert config.canonical_json() == default, params
        default = ndp_config(tenants=2).canonical_json()
        for params in settings:
            config = ndp_config(tenants=2, scheduler=params)
            assert config.scheduler == params, params
            assert config.canonical_json() != default, params

    def test_validation(self):
        with pytest.raises(ValueError):
            ndp_config(tenants=0)
        with pytest.raises(ValueError):
            SchedulerParams(quantum_refs=0)
        with pytest.raises(ValueError):
            SchedulerParams(max_asids=0)


class TestCrossProcessHash:
    """Equal configs must hash equal in freshly started interpreters,
    whatever PYTHONHASHSEED does — the on-disk cache depends on it."""

    CHILD = (
        "from repro.sim.config import ndp_config\n"
        "from repro.analysis.cache import config_key\n"
        "cfg = ndp_config(workload='bfs', mechanism='ndpage',\n"
        "                 refs_per_core=1234, seed=9)\n"
        "print(config_key(cfg))\n"
    )

    def _child_key(self, hash_seed: str) -> str:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run(
            [sys.executable, "-c", self.CHILD], env=env,
            capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_equal_configs_hash_equal_across_processes(self):
        from repro.analysis.cache import config_key
        parent = config_key(ndp_config(
            workload="bfs", mechanism="ndpage", refs_per_core=1234,
            seed=9))
        assert self._child_key("0") == parent
        assert self._child_key("424242") == parent
