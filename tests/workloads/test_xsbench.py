"""Tests for the XSBench lookup generator.

The generator searches a whole batch of lookups in lockstep with
numpy.  It must reproduce, chunk for chunk and byte for byte, the
lookup-at-a-time loop it replaced, which is kept here as the reference
model: a subclass whose ``_chunk`` builds each lookup in Python lists.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workloads.xsbench import (
    GRID_ENTRY_BYTES,
    XS_READS_PER_ROW,
    XS_ROW_BYTES,
    XSBenchWorkload,
)


def binary_search_probes(target: int, population: int) -> List[int]:
    """Index sequence a binary search for ``target`` touches.

    This is the XSBench energy-grid lookup pattern: ~log2(n) reads with
    geometrically shrinking stride — highly TLB-unfriendly.
    """
    if not 0 <= target < population:
        raise ValueError("target outside population")
    probes = []
    lo, hi = 0, population - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        probes.append(mid)
        if mid == target:
            break
        if mid < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return probes


class ReferenceXSBench(XSBenchWorkload):
    """XSBench generating one lookup at a time (the reference model)."""

    def _lookup_refs(self, rng: np.random.Generator,
                     state: dict) -> Tuple[List[int], List[bool]]:
        """Addresses of one cross-section lookup.

        Particle energies cluster: successive lookups probe a drifting
        band of the grid, and the cross-section rows they read follow.
        """
        band = max(1024, self.grid_points // 100)
        cursor = state.get("energy_band", 0)
        target = (cursor + int(rng.integers(0, band))) % self.grid_points
        state["energy_band"] = (cursor + max(1, band // 64)) \
            % self.grid_points
        addresses = [
            self._egrid.base + probe * GRID_ENTRY_BYTES
            for probe in binary_search_probes(target, self.grid_points)
        ]
        row_band = max(64, self.xs_rows // 100)
        row_cursor = state.get("row_band", 0)
        row = (row_cursor + int(rng.integers(0, row_band))) % self.xs_rows
        state["row_band"] = (row_cursor + max(1, row_band // 64)) \
            % self.xs_rows
        row_base = self._xs.base + row * XS_ROW_BYTES
        addresses.extend(
            row_base + i * 8 for i in range(XS_READS_PER_ROW))
        return addresses, [False] * len(addresses)

    def _chunk(self, rng: np.random.Generator, num_refs: int,
               state: dict) -> Tuple[np.ndarray, np.ndarray]:
        addresses: List[int] = state.pop("leftover_addrs", [])
        writes: List[bool] = state.pop("leftover_writes", [])
        while len(addresses) < num_refs:
            lookup_addrs, lookup_writes = self._lookup_refs(rng, state)
            addresses.extend(lookup_addrs)
            writes.extend(lookup_writes)
        state["leftover_addrs"] = addresses[num_refs:]
        state["leftover_writes"] = writes[num_refs:]
        return (np.array(addresses[:num_refs], dtype=np.int64),
                np.array(writes[:num_refs], dtype=bool))


class TestBinarySearchProbes:
    def test_binary_search_finds_target(self):
        probes = binary_search_probes(37, 100)
        assert probes[-1] == 37

    def test_binary_search_log_length(self):
        probes = binary_search_probes(123_456, 1 << 20)
        assert len(probes) <= 21

    def test_binary_search_first_probe_is_middle(self):
        assert binary_search_probes(0, 101)[0] == 50

    def test_binary_search_validates(self):
        with pytest.raises(ValueError):
            binary_search_probes(100, 100)


#: Full scale, the benchmark scale, the test scale and one small enough
#: to take the ``grid_points < 1024`` fallback.
SCALES = [1.0, 0.05, 1 / 64, 1e-6]


class TestMatchesReference:
    def test_smallest_scale_takes_the_fallback(self):
        assert XSBenchWorkload(scale=SCALES[-1]).grid_points == 1024

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from(SCALES),
           core=st.integers(0, 3),
           chunk_refs=st.none() | st.integers(1, 9000),
           refs=st.integers(1, 20_000))
    # The benchmark's time slices, full default batches on the
    # fallback grid, and one-reference batches that mostly draw
    # nothing (the leftover covers them).
    @example(seed=42, scale=0.05, core=1, chunk_refs=2048, refs=20_000)
    @example(seed=7919, scale=1e-6, core=3, chunk_refs=None, refs=20_000)
    @example(seed=0, scale=1.0, core=0, chunk_refs=1, refs=2_000)
    def test_stream_matches_reference(self, seed, scale, core,
                                      chunk_refs, refs):
        chunks = list(XSBenchWorkload(scale, seed).stream_chunks(
            core, refs, chunk_refs))
        expected = list(ReferenceXSBench(scale, seed).stream_chunks(
            core, refs, chunk_refs))
        assert len(chunks) == len(expected)
        for (addrs, writes), (ref_addrs, ref_writes) in zip(chunks,
                                                            expected):
            assert addrs.dtype == ref_addrs.dtype == np.int64
            assert writes.dtype == ref_writes.dtype == np.bool_
            assert addrs.tobytes() == ref_addrs.tobytes()
            assert writes.tobytes() == ref_writes.tobytes()
