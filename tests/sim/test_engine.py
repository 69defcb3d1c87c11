"""Tests for the multi-core run-ahead event engine.

The run-ahead driver must be bit-identical to the per-reference heap
engine kept behind ``REPRO_REFERENCE_ENGINE=1`` — pinned here over
core counts, engines and mechanisms — plus the driver's bound protocol
on scripted entities.
"""

import dataclasses
from math import inf, nextafter

import pytest

from repro.sim.config import SchedulerParams, ndp_config
from repro.sim.engine import (
    REFERENCE_ENGINE_ENV,
    SimulationEngine,
    run_ahead,
)
from repro.sim.runner import collect, run_once
from repro.sim.system import System


def result_fields(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("config")
    return fields


class TestEngine:
    def test_needs_cores(self):
        with pytest.raises(ValueError):
            SimulationEngine([], SchedulerParams())

    def test_all_cores_run_to_completion(self):
        system = System(ndp_config(workload="rnd", num_cores=2,
                                   refs_per_core=300, scale=1 / 64))
        system.run()
        for core in system.cores:
            assert core.stats.references == 300
            assert core.finished

    def test_global_cycles_is_slowest_core(self):
        system = System(ndp_config(workload="rnd", num_cores=2,
                                   refs_per_core=300, scale=1 / 64))
        cycles = system.run()
        assert cycles == max(c.stats.cycles for c in system.cores)

    def test_deterministic_across_runs(self):
        results = []
        for _ in range(2):
            system = System(ndp_config(workload="bfs", num_cores=2,
                                       refs_per_core=400, scale=1 / 64,
                                       seed=7))
            results.append(system.run())
        assert results[0] == results[1]

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["run-ahead", "reference"])
    @pytest.mark.parametrize("tenants,cores",
                             [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_second_run_is_a_no_op(self, tenants, cores, reference,
                                   monkeypatch):
        """Every machine shape, under both engines, answers a second
        run with the first run's cycles and leaves its stats alone."""
        if reference:
            monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        system = System(ndp_config(workload="rnd", num_cores=cores,
                                   tenants=tenants, refs_per_core=300,
                                   scale=1 / 64))
        cycles = system.run()
        first = collect(system, cycles)
        again = system.run()
        assert again == cycles
        assert collect(system, again) == first

    def test_cores_interleave_on_shared_dram(self):
        """Two cores must finish later per-core than one core alone
        (bank contention), but sooner than strictly serialized."""
        solo = System(ndp_config(workload="rnd", num_cores=1,
                                 refs_per_core=500, scale=1 / 64))
        solo_cycles = solo.run()
        duo = System(ndp_config(workload="rnd", num_cores=2,
                                refs_per_core=500, scale=1 / 64))
        duo_cycles = duo.run()
        assert duo_cycles > solo_cycles * 0.9
        assert duo_cycles < solo_cycles * 2


class TestRunAheadEquivalence:
    """Run-ahead loops == reference heap engine, bit for bit."""

    @pytest.mark.parametrize("mechanism", ["radix", "ndpage"])
    @pytest.mark.parametrize("cores", [2, 4, 8])
    def test_matches_reference_engine(self, cores, mechanism,
                                      monkeypatch):
        config = ndp_config(workload="bfs", mechanism=mechanism,
                            num_cores=cores, refs_per_core=700,
                            scale=1 / 64, seed=7)
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        diff = {
            key: (fast[key], reference[key])
            for key in fast if fast[key] != reference[key]
        }
        assert not diff, (
            f"run-ahead diverged from the reference engine: {diff}")

    def test_single_core_honors_reference_env(self, monkeypatch):
        """The env var bypasses the chunked fast path even at 1 core,
        so the reference engine is always reachable for debugging."""
        config = ndp_config(workload="bfs", mechanism="radix",
                            num_cores=1, refs_per_core=700,
                            scale=1 / 64, seed=7)
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        assert fast == reference

    def test_heap_runahead_matches_reference(self, monkeypatch):
        """Nine cores: the driver's scan past eight entities."""
        config = ndp_config(workload="rnd", mechanism="radix",
                            num_cores=9,
                            refs_per_core=250, scale=1 / 64, seed=7)
        fast = result_fields(run_once(config))
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = result_fields(run_once(config))
        assert fast == reference

    def test_reference_env_zero_means_off(self, monkeypatch):
        """'0' (and empty) leave the run-ahead engine active."""
        from repro.sim.engine import reference_engine_enabled
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "0")
        assert not reference_engine_enabled()
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "")
        assert not reference_engine_enabled()
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        assert reference_engine_enabled()


def scripted(entity_id, answers, log):
    """A run-ahead entity that logs ``(entity_id, bound)`` for every
    bound it is sent and answers the next of ``answers``."""
    answers = iter(answers)

    def send(bound):
        log.append((entity_id, bound))
        return next(answers)

    return send


class TestRunaheadBound:
    """The id tie-break :func:`run_ahead` folds into the bound it sends
    the min entity when the runner-up's key is 100."""

    def test_winning_tiebreak_is_inclusive(self):
        log = []
        # Entity 0 waits at 50 while entity 1 runs to 100, then 0 is
        # the min and wins any tie at 100 against entity 1.
        run_ahead([scripted(0, [50.0, None], log),
                   scripted(1, [100.0, None], log)])
        entity_id, bound = log[2]
        assert entity_id == 0
        assert bound > 100.0          # may run *at* the deadline
        assert not bound > 100.0 + 1e-9   # but not beyond it

    def test_losing_tiebreak_is_exclusive(self):
        log = []
        # Entity 0 moves to 100, leaving entity 1 the min; 1 loses a
        # tie at 100 against entity 0.
        run_ahead([scripted(0, [100.0, None], log),
                   scripted(1, [None], log)])
        assert log[1] == (1, 100.0)


class TestRunAheadDriver:
    """The bounds :func:`run_ahead` sends to scripted entities."""

    def test_tied_deadline_goes_to_the_lower_id(self):
        log = []
        run_ahead([scripted(0, [10.0, None], log),
                   scripted(1, [10.0, None], log)])
        assert log == [
            (0, nextafter(0.0, inf)),   # wins the tie at 0: may run at 0
            (1, 10.0),                  # loses the tie at 10: stops before
            (0, nextafter(10.0, inf)),  # wins the tie at 10
            (1, inf),                   # last survivor
        ]

    def test_finished_entity_leaves_the_scan(self):
        log = []
        run_ahead([scripted(0, [None], log),
                   scripted(1, [5.0, None], log),
                   scripted(2, [3.0, None], log)])
        assert log == [
            (0, nextafter(0.0, inf)),
            (1, nextafter(0.0, inf)),   # entity 0 parked, not a rival
            (2, 5.0),
            (2, 5.0),
            (1, inf),
        ]

    def test_lone_entity_gets_one_infinite_bound(self):
        log = []
        run_ahead([scripted(0, [None], log)])
        assert log == [(0, inf)]
