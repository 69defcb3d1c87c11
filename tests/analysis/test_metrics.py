"""Tests for derived metrics."""

import pytest

from repro.analysis.metrics import (
    average_speedups,
    mean,
    speedup_table,
)


class FakeResult:
    def __init__(self, cycles):
        self.cycles = cycles

    def speedup_over(self, baseline):
        return baseline.cycles / self.cycles


def raw(table):
    return {
        wl: {m: FakeResult(c) for m, c in row.items()}
        for wl, row in table.items()
    }


class TestMean:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2

    def test_empty(self):
        assert mean([]) == 0.0


class TestSpeedupTable:
    def test_baseline_is_one(self):
        table = speedup_table(raw({"w": {"radix": 100, "ndpage": 50}}))
        assert table["w"]["radix"] == 1.0
        assert table["w"]["ndpage"] == 2.0

    def test_multiple_workloads(self):
        table = speedup_table(raw({
            "a": {"radix": 100, "ndpage": 50},
            "b": {"radix": 100, "ndpage": 100},
        }))
        assert table["a"]["ndpage"] == 2.0
        assert table["b"]["ndpage"] == 1.0


class TestAverages:
    TABLE = {
        "a": {"radix": 1.0, "ndpage": 2.0},
        "b": {"radix": 1.0, "ndpage": 1.0},
    }

    def test_arithmetic(self):
        averages = average_speedups(self.TABLE)
        assert averages["ndpage"] == 1.5

    def test_geometric(self):
        averages = average_speedups(self.TABLE, geo=True)
        assert averages["ndpage"] == pytest.approx(2 ** 0.5)
