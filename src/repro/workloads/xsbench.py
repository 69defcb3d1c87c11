"""XSBench particle-transport lookups (XS in Table II, 9 GB).

XSBench's hot loop performs macroscopic cross-section lookups: a binary
search over the unionized energy grid followed by reads of per-nuclide
cross-section rows.  The binary search is the translation killer —
~log2(n) touches with geometrically shrinking stride visit a different
page almost every probe.

A batch runs all its lookups' searches in lockstep with numpy, taking
the same random draws, in the same order, as one lookup at a time.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads.base import Region, Workload, layout_regions

GIB = 1024 ** 3

GRID_ENTRY_BYTES = 8          # unionized energy grid points
XS_ROW_BYTES = 16 * 8         # cross-section data read per lookup
XS_READS_PER_ROW = 16         # sequential 8 B reads inside the row

#: Fewest references one lookup makes: one probe, then the row reads.
MIN_LOOKUP_REFS = 1 + XS_READS_PER_ROW

_ROW_OFFSETS = 8 * np.arange(XS_READS_PER_ROW, dtype=np.int64)
_NO_REFS = np.empty(0, dtype=np.int64)


class XSBenchWorkload(Workload):
    """Monte Carlo cross-section lookup kernel."""

    name = "xs"
    suite = "XSBench"
    dataset_bytes = 9 * GIB
    gap_cycles = 3  # FLOP-heavy interpolation between lookups

    #: Fraction of the dataset taken by the unionized energy grid; the
    #: remainder holds per-nuclide cross-section rows.
    GRID_FRACTION = 0.25

    def __init__(self, scale: float = 1.0, seed: int = 42):
        super().__init__(scale=scale, seed=seed)
        total = int(self.dataset_bytes * scale)
        grid_bytes = max(GRID_ENTRY_BYTES * 1024,
                         int(total * self.GRID_FRACTION))
        xs_bytes = max(XS_ROW_BYTES * 64, total - grid_bytes)
        # Non-round sizes: real unionized grids have arbitrary lengths.
        # A round (power-of-two-ish) size would align every binary-search
        # midpoint to the same page offset — a synthetic-only pathology.
        self.grid_points = grid_bytes // GRID_ENTRY_BYTES - 104_729
        self.xs_rows = xs_bytes // XS_ROW_BYTES - 10_007
        if self.grid_points < 1024 or self.xs_rows < 64:
            self.grid_points = max(1024, grid_bytes // GRID_ENTRY_BYTES)
            self.xs_rows = max(64, xs_bytes // XS_ROW_BYTES)
        self._regions = layout_regions([
            ("egrid", self.grid_points * GRID_ENTRY_BYTES),
            ("xs_data", self.xs_rows * XS_ROW_BYTES),
        ])
        self._egrid, self._xs = self._regions

    def regions(self) -> List[Region]:
        return list(self._regions)

    def _chunk(self, rng: np.random.Generator, num_refs: int,
               state: dict) -> Tuple[np.ndarray, np.ndarray]:
        refs = state.pop("leftover", _NO_REFS)
        deficit = num_refs - len(refs)
        if deficit > 0:
            refs = np.concatenate((refs, self._lookups(rng, deficit, state)))
        state["leftover"] = refs[num_refs:]
        # Lookups only read; writes come from the private-region mix.
        return refs[:num_refs], np.zeros(num_refs, dtype=bool)

    def _lookups(self, rng: np.random.Generator, deficit: int,
                 state: dict) -> np.ndarray:
        """Addresses of the fewest whole lookups that make at least
        ``deficit`` references.

        Particle energies cluster: successive lookups probe a drifting
        band of the grid, and the cross-section rows they read follow.
        Lookup ``k`` draws its grid offset, then its row offset, so one
        draw over alternating bounds matches a lookup-at-a-time loop.
        The caller draws next from the same generator, so the batch
        draws for as many lookups as could be needed, then rewinds and
        redraws for as many as are.
        """
        grid_points = self.grid_points
        xs_rows = self.xs_rows
        band = max(1024, grid_points // 100)
        row_band = max(64, xs_rows // 100)
        count = -(-deficit // MIN_LOOKUP_REFS)
        bounds = np.empty(2 * count, dtype=np.int64)
        bounds[0::2] = band
        bounds[1::2] = row_band
        saved = rng.bit_generator.state
        draws = rng.integers(0, bounds)
        k = np.arange(count, dtype=np.int64)
        cursor = state.get("energy_band", 0)
        band_step = max(1, band // 64)
        targets = (cursor + band_step * k + draws[0::2]) % grid_points

        # Lockstep binary search over exclusive bounds (lo, hi), whose
        # midpoint is the inclusive search's (lo + hi) // 2.  A lane
        # that found its target keeps probing it, so its first hit is
        # at row depth minus the rows that equal the target.
        depth = grid_points.bit_length()
        probes = np.empty((depth, count), dtype=np.int64)
        limits = np.full((2, count), grid_points, dtype=np.int64)
        limits[0] = -1
        lo, hi = limits
        moves = np.empty((2, count), dtype=bool)
        below, above = moves
        for mid in probes:
            np.add(lo, hi, out=mid)
            np.right_shift(mid, 1, out=mid)
            np.less(mid, targets, out=below)
            np.greater(mid, targets, out=above)
            np.copyto(limits, mid, where=moves)
        hits = depth - np.count_nonzero(probes == targets, axis=0)

        # Lookups 0..i make ends[i] references; the first to reach the
        # deficit is the last one the loop would have generated.
        ends = np.cumsum(hits + MIN_LOOKUP_REFS)
        needed = int(np.searchsorted(ends, deficit)) + 1
        if needed < count:
            rng.bit_generator.state = saved
            rng.integers(0, bounds[:2 * needed])
        state["energy_band"] = (cursor + needed * band_step) % grid_points
        row_cursor = state.get("row_band", 0)
        row_step = max(1, row_band // 64)
        state["row_band"] = (row_cursor + needed * row_step) % xs_rows
        rows = (row_cursor + row_step * k[:needed]
                + draws[1:2 * needed:2]) % xs_rows

        # One line per lookup: its probes, then its row reads; the
        # keep-mask drops each search's probes past its hit.
        table = np.empty((needed, depth + XS_READS_PER_ROW), dtype=np.int64)
        table[:, :depth] = (self._egrid.base
                            + GRID_ENTRY_BYTES * probes[:, :needed].T)
        table[:, depth:] = (self._xs.base + XS_ROW_BYTES * rows)[:, None] \
            + _ROW_OFFSETS
        keep = np.ones(table.shape, dtype=bool)
        np.less_equal(np.arange(depth), hits[:needed, None],
                      out=keep[:, :depth])
        return table[keep]
