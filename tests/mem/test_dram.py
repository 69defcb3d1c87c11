"""Tests for the banked DRAM timing model."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import DDR4_2400, HBM2, DramModel, DramTiming
from repro.mem.request import KIND_DATA, KIND_METADATA, RequestKind


def read(dram, now, paddr, kind=KIND_DATA):
    return dram.access_fast(now, paddr, kind, 0)


def reference_decode(timing, paddr):
    """``(bank index, row)`` of ``paddr`` by the address map in division
    form, valid for any geometry: lines interleave across channels,
    fill a row's columns, then move to the next bank, whose index is
    permuted with row bits.  The oracle for ``DramModel``'s
    shift-and-mask decode."""
    line = paddr // DramModel.LINE_SIZE
    channel = line % timing.channels
    rest = line // timing.channels
    banks = timing.banks_per_channel
    within = rest // (timing.row_bytes // DramModel.LINE_SIZE)
    bank_raw = within % banks
    row = within // banks
    bank_idx = (bank_raw ^ (row % banks) ^ ((row >> 5) % banks)) % banks
    return channel * banks + bank_idx, row


def reset_state(dram):
    """Close every row and free every bank (statistics preserved)."""
    for bank in dram._banks:
        bank.free_at = 0.0
        bank.open_row = -1


def bank_states(dram):
    return [(bank.free_at, bank.open_row) for bank in dram._banks]


def changed_bank(dram, before):
    """Index of the one bank whose state differs from ``before``."""
    changed = [index for index, state in enumerate(bank_states(dram))
               if state != before[index]]
    assert len(changed) == 1, changed
    return changed[0]


@pytest.fixture
def dram():
    return DramModel(HBM2)


class TestPresets:
    def test_ddr4_geometry(self):
        assert DDR4_2400.channels == 2
        assert DDR4_2400.banks_per_channel == 16

    def test_hbm_lower_burst_than_ddr4(self):
        # HBM's edge is interface bandwidth, not latency.
        assert HBM2.burst_cycles < DDR4_2400.burst_cycles

    def test_row_miss_slower_than_hit(self):
        for timing in (DDR4_2400, HBM2):
            assert timing.row_miss_cycles > timing.row_hit_cycles
            assert timing.row_cycle_cycles >= timing.row_miss_cycles - 10


class TestLatency:
    def test_first_access_is_row_miss(self, dram):
        latency = read(dram, 0.0, 0)
        assert latency == HBM2.row_miss_cycles
        assert dram.stats.row_misses == 1

    # Geometry notes for HBM2: 2 channels, 8 banks, 32 lines per row.
    # Same channel-0 bank 0 row 0: paddr 0 and 128 (lines 0 and 2).
    # Same bank, different row: row must be a multiple of 8 so the
    # permutation (bank ^ row % 8) maps back to bank 0 -> row 8 starts
    # at line 2 * 32 * 8 * 8 = 4096, i.e. paddr 262144.

    SAME_ROW = 128
    SAME_BANK_OTHER_ROW = 262_144

    def test_same_row_hit(self, dram):
        read(dram, 0.0, 0)
        latency = read(dram, 1000.0, self.SAME_ROW)
        assert latency == HBM2.row_hit_cycles
        assert dram.stats.row_hits == 1

    def test_row_conflict_after_other_row(self, dram):
        read(dram, 0.0, 0)
        read(dram, 1000.0, self.SAME_BANK_OTHER_ROW)
        later = read(dram, 2000.0, 0)
        assert later == HBM2.row_miss_cycles
        assert dram.stats.row_misses == 3

    def test_bank_queueing_adds_delay(self, dram):
        first = read(dram, 0.0, 0)
        second = read(dram, 0.0, self.SAME_ROW)
        # Same bank at the same instant: the second waits out the
        # occupancy window of the first.
        assert second > HBM2.row_hit_cycles
        assert dram.stats.queue_delay.total > 0
        assert first == HBM2.row_miss_cycles

    def test_different_channels_no_queueing(self, dram):
        read(dram, 0.0, 0)
        read(dram, 0.0, 64)  # line 1 -> channel 1
        assert dram.stats.queue_delay.total == 0.0


class TestAttribution:
    def test_kind_counters(self, dram):
        read(dram, 0.0, 0)
        read(dram, 0.0, 1 << 20, kind=KIND_METADATA)
        by_kind = dram.stats.accesses_by_kind
        assert by_kind[RequestKind.DATA] == 1
        assert by_kind[RequestKind.METADATA] == 1

    def test_writes_counted(self, dram):
        dram.access_fast(0.0, 0, KIND_DATA, 1)
        assert (dram.stats.demand_writes, dram.stats.writebacks) == (1, 0)

    def test_drain_write_counts_but_is_posted(self, dram):
        dram.drain_write_fast(0.0, 0, KIND_DATA)
        assert (dram.stats.demand_writes, dram.stats.writebacks) == (0, 1)
        # Posted write occupies the bank: a racing read queues.
        latency = read(dram, 0.0, 0)
        assert latency >= HBM2.row_hit_cycles

    def test_row_hit_rate(self, dram):
        read(dram, 0.0, 0)
        read(dram, 500.0, 128)
        read(dram, 1000.0, 256)
        assert dram.stats.row_hit_rate == pytest.approx(2 / 3)


class TestInterleaving:
    def test_sequential_lines_share_rows(self, dram):
        """Open-page interleave: streaming gets row-buffer hits."""
        read(dram, 0.0, 0)
        hits_before = dram.stats.row_hits
        # Lines 2, 4, ... on channel 0 fall in the same row at first.
        latency = read(dram, 10_000.0, 2 * 64)
        assert dram.stats.row_hits == hits_before + 1
        assert latency == HBM2.row_hit_cycles

    def test_aligned_hot_addresses_spread_over_banks(self):
        """Permutation interleave defeats bank camping (the XSBench
        midpoint pathology): addresses sharing a page offset must not
        collapse onto one bank."""
        dram = DramModel(HBM2)
        banks = set()
        for i in range(64):
            before = bank_states(dram)
            read(dram, 0.0, i * 4096 * 507 + 4032)
            banks.add(changed_bank(dram, before))
        assert len(banks) >= 6

    def test_reset_state_clears_busy_banks(self, dram):
        read(dram, 0.0, 0)
        reset_state(dram)
        latency = read(dram, 0.0, 0)
        assert latency == HBM2.row_miss_cycles  # row closed again


#: One request: (cycles since the previous one, physical address,
#: posted write-back or demand read).
DRAM_REQUESTS = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, (1 << 40) - 1),
              st.booleans()),
    min_size=1, max_size=60)


class TestDecodeDifferential:
    """The bank and row ``access_fast`` and ``drain_write_fast`` open
    against the division-form address map."""

    @pytest.mark.parametrize("timing", [HBM2, DDR4_2400],
                             ids=lambda timing: timing.name)
    @given(requests=DRAM_REQUESTS)
    @settings(max_examples=80, deadline=None)
    def test_opened_bank_and_row_match_reference(self, timing, requests):
        dram = DramModel(timing)
        now = 0.0
        for gap, paddr, posted in requests:
            now += gap
            before = bank_states(dram)
            if posted:
                dram.drain_write_fast(now, paddr, KIND_DATA)
            else:
                read(dram, now, paddr)
            index = changed_bank(dram, before)
            assert (index, dram._banks[index].open_row) \
                == reference_decode(timing, paddr)


class TestCustomTiming:
    def test_non_power_of_two_geometry_rejected(self):
        three_channels = dataclasses.replace(HBM2, name="3ch", channels=3)
        with pytest.raises(ValueError, match="powers of two"):
            DramModel(three_channels)

    def test_custom_geometry_respected(self):
        timing = DramTiming("toy", channels=1, banks_per_channel=2,
                            row_bytes=128, row_hit_cycles=10,
                            row_miss_cycles=20, burst_cycles=2,
                            row_cycle_cycles=25)
        dram = DramModel(timing)
        assert read(dram, 0.0, 0) == 20
        assert read(dram, 100.0, 64) == 10
