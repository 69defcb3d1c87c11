"""Tests for the access-pattern building blocks."""

import numpy as np
import pytest

from repro.workloads.synthetic import (
    interleave,
    scattered_zipf_indices,
    sequential_window,
    zipf_indices,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestSelectors:
    def test_zipf_in_range(self, rng):
        idx = zipf_indices(rng, 1000, 5000)
        assert idx.min() >= 0
        assert idx.max() < 1000

    def test_zipf_is_skewed(self, rng):
        idx = zipf_indices(rng, 10_000, 20_000, exponent=1.5)
        top = np.bincount(idx, minlength=10_000).max()
        assert top > 20_000 / 10_000 * 50  # head far above uniform share

    def test_scattered_zipf_spreads_hot_items(self, rng):
        plain = zipf_indices(rng, 1 << 20, 10_000, exponent=1.5)
        scattered = scattered_zipf_indices(rng, 1 << 20, 10_000,
                                           exponent=1.5)
        # Same skew, but hot ids are no longer the small integers.
        assert plain.min() < 100
        assert scattered.max() > 1 << 19

    def test_population_validated(self, rng):
        with pytest.raises(ValueError):
            zipf_indices(rng, 0, 10)


class TestSequences:
    def test_sequential_window(self):
        assert sequential_window(5, 3).tolist() == [5, 6, 7]

    def test_sequential_stride(self):
        assert sequential_window(0, 3, stride=4).tolist() == [0, 4, 8]


class TestCombinators:
    def test_interleave_order(self):
        a = np.array([1, 2]), False
        b = np.array([10, 20]), True
        addrs, writes = interleave([a, b])
        assert addrs.tolist() == [1, 10, 2, 20]
        assert writes.tolist() == [False, True, False, True]

    def test_interleave_length_mismatch(self):
        with pytest.raises(ValueError):
            interleave([(np.array([1]), False), (np.array([1, 2]), True)])

    def test_interleave_empty_rejected(self):
        with pytest.raises(ValueError):
            interleave([])
