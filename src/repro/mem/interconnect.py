"""Mesh interconnect model (Table I: 4-cycle hops, 512-bit links).

Cores and memory controllers sit on a 2D mesh.  The model charges a
deterministic latency per traversal: hop count x hop latency plus the
serialization of one 64 B line over a 512-bit (64 B) link.  NDP cores
live in the logic layer directly under the DRAM stack, so their distance
to memory is a single hop; CPU cores cross the chip mesh to reach a
corner memory controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MeshConfig:
    """Geometry and timing of the mesh."""

    hop_latency: int = 4          # cycles per hop (Table I)
    link_bytes: int = 64          # 512-bit links move a line per flit
    line_bytes: int = 64


class MeshInterconnect:
    """Deterministic mesh latency between cores and memory controllers.

    Cores are laid out row-major on the smallest square mesh that fits
    them; the memory controller occupies position (0, 0).  The paper's
    NDP cores bypass the chip mesh (they are *in* the memory), which is
    modeled as a fixed single hop.
    """

    def __init__(self, num_cores: int, config: MeshConfig = MeshConfig(),
                 near_memory: bool = False):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.config = config
        self.near_memory = near_memory
        self._side = max(1, math.isqrt(num_cores - 1) + 1)

    def hops(self, core_id: int) -> int:
        """Mesh hops from ``core_id``'s tile to the memory controller."""
        if not 0 <= core_id < self.num_cores:
            raise ValueError(f"core_id {core_id} out of range")
        if self.near_memory:
            return 1
        x, y = core_id % self._side, core_id // self._side
        return max(1, x + y)

    def serialization_cycles(self) -> int:
        """Cycles to push one line across a link."""
        flits = -(-self.config.line_bytes // self.config.link_bytes)
        return flits

    def latency(self, core_id: int) -> int:
        """One-way latency from core to memory controller, in cycles."""
        return (self.hops(core_id) * self.config.hop_latency
                + self.serialization_cycles())
