"""Tests for the mesh interconnect model."""

import pytest

from repro.mem.interconnect import MeshConfig, MeshInterconnect


class TestNdpMode:
    def test_single_hop_for_all_cores(self):
        noc = MeshInterconnect(8, near_memory=True)
        assert all(noc.hops(c) == 1 for c in range(8))

    def test_latency_is_hop_plus_serialization(self):
        noc = MeshInterconnect(1, near_memory=True)
        assert noc.latency(0) == 4 + 1  # Table I: 4-cycle hop, 64 B link


class TestCpuMode:
    def test_distance_grows_across_mesh(self):
        noc = MeshInterconnect(8, near_memory=False)
        assert noc.hops(7) > noc.hops(1)

    def test_minimum_one_hop(self):
        noc = MeshInterconnect(4, near_memory=False)
        assert noc.hops(0) >= 1

    def test_core_bounds_checked(self):
        noc = MeshInterconnect(4)
        with pytest.raises(ValueError):
            noc.hops(4)

    def test_needs_a_core(self):
        with pytest.raises(ValueError):
            MeshInterconnect(0)


class TestConfig:
    def test_narrow_link_serializes_more(self):
        narrow = MeshInterconnect(
            1, MeshConfig(link_bytes=16), near_memory=True)
        wide = MeshInterconnect(
            1, MeshConfig(link_bytes=64), near_memory=True)
        assert narrow.latency(0) > wide.latency(0)
