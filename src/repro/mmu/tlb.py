"""Translation lookaside buffers (Table I MMU row).

A :class:`Tlb` is one set-associative structure; :class:`TlbHierarchy`
wires together the paper's configuration: a 64-entry 4-way L1 D-TLB for
4 KB pages, a small L1 TLB for 2 MB pages, and a 1536-entry 12-cycle
shared L2 TLB.

Microarchitectural choice (pinned by
``tests/mmu/test_tlb.py::TestHierarchy::test_huge_not_in_l2``): the L2
TLB holds 4 KB translations only — 2 MB pages are cached solely in the
dedicated L1 2 MB TLB, as on several real cores.  The paper's Table I
does not specify; this choice is what gives the Huge Page baseline a
finite TLB reach at dataset scale.

Multi-process support: entries are tagged by packing the ASID into the
integer key above the VPN bits (:data:`repro.vm.address.ASID_SHIFT`),
so translations of co-scheduled address spaces coexist and a context
switch needs no flush while hardware ASIDs last.  Set indexing uses
``key % num_sets`` with power-of-two set counts, so the tag never moves
an entry's set — two tenants' copies of one VPN conflict in the same
set, exactly as on hardware that indexes by VPN and compares the ASID
in the tag.  ASID 0 tags to 0: single-address-space keys (and the
inlined fast-path probes built on them) are untouched.
"""

from __future__ import annotations

from typing import Dict, List

from repro.vm.address import HUGE_PAGE_SHIFT, PAGE_SHIFT
from repro.vm.base import Translation
from repro.sim.stats import HitMissStats


class Tlb:
    """One set-associative TLB with LRU replacement."""

    __slots__ = ("name", "entries", "associativity", "latency",
                 "page_shift", "num_sets", "stats", "_sets")

    def __init__(self, name: str, entries: int, associativity: int,
                 latency: int, page_shift: int = PAGE_SHIFT):
        if entries % associativity != 0:
            raise ValueError(
                f"{name}: {entries} entries not divisible by "
                f"associativity {associativity}")
        self.name = name
        self.entries = entries
        self.associativity = associativity
        self.latency = latency
        self.page_shift = page_shift
        self.num_sets = entries // associativity
        self.stats = HitMissStats()
        self._sets: List[Dict[int, Translation]] = [
            {} for _ in range(self.num_sets)
        ]

    def insert(self, key: int, translation: Translation) -> None:
        tlb_set = self._sets[key % self.num_sets]
        if key in tlb_set:
            # Reinsert behaves like a touch: refresh LRU recency (the
            # same movement a probe hit performs), don't just overwrite.
            del tlb_set[key]
            tlb_set[key] = translation
            return
        if len(tlb_set) >= self.associativity:
            oldest = next(iter(tlb_set))
            del tlb_set[oldest]
        tlb_set[key] = translation

    def invalidate(self, key: int) -> bool:
        tlb_set = self._sets[key % self.num_sets]
        if key in tlb_set:
            del tlb_set[key]
            return True
        return False

    def flush(self) -> None:
        for tlb_set in self._sets:
            tlb_set.clear()


class TlbHierarchy:
    """L1 (4 KB + 2 MB) and L2 TLBs for one core.

    Every lookup starts at the L1 4 KB TLB, and a lookup misses every
    level exactly when it misses the L2, so ``lookups`` and
    ``full_misses`` are read off those two structures' counters.
    """

    __slots__ = ("l1_small", "l1_huge", "l2")

    def __init__(self, l1_small: Tlb, l1_huge: Tlb, l2: Tlb):
        if l1_small.page_shift != PAGE_SHIFT:
            raise ValueError("l1_small must be a 4 KB TLB")
        if l1_huge.page_shift != HUGE_PAGE_SHIFT:
            raise ValueError("l1_huge must be a 2 MB TLB")
        self.l1_small = l1_small
        self.l1_huge = l1_huge
        self.l2 = l2

    @property
    def lookups(self) -> int:
        return self.l1_small.stats.accesses

    @property
    def full_misses(self) -> int:
        return self.l2.stats.misses

    def lookup_after_l1_small_miss(self, page: int):
        """Continue a lookup whose L1-small probe already missed.

        Returns ``(translation_or_None, latency_cycles)``.  The caller
        probes the L1 4 KB TLB itself (:meth:`repro.mmu.mmu.Mmu
        .translate_parts` and the core's hit loop inline it) and must
        have recorded that miss; this probes the 2 MB L1 (in parallel
        with the 4 KB one, so one L1 latency) and then the L2, adding
        its latency and refilling the L1 4 KB TLB on a hit.  Probes
        are inlined (one dict round-trip each) — this runs on every
        L1-DTLB miss.
        """
        latency = self.l1_small.latency
        huge = self.l1_huge
        huge_key = page >> (HUGE_PAGE_SHIFT - PAGE_SHIFT)
        huge_set = huge._sets[huge_key % huge.num_sets]
        translation = huge_set.get(huge_key)
        if translation is not None:
            huge.stats.hits += 1
            huge_set[huge_key] = huge_set.pop(huge_key)
            return translation, latency
        huge.stats.misses += 1

        l2 = self.l2
        latency += l2.latency
        l2_set = l2._sets[page % l2.num_sets]
        translation = l2_set.get(page)
        if translation is not None:
            l2.stats.hits += 1
            l2_set[page] = l2_set.pop(page)
            self.l1_small.insert(page, translation)
            return translation, latency
        l2.stats.misses += 1
        return None, latency

    def insert(self, page: int, translation: Translation) -> None:
        """Install a walk result at the right granularity.

        The two 4 KB inserts are inlined (this runs once per page walk;
        semantics match :meth:`Tlb.insert`, including the LRU refresh
        on reinsert of a resident key).  The translation's page shift is
        read by index, like every hot-path Translation field.
        """
        if translation[1] == PAGE_SHIFT:
            tlb = self.l1_small
            tlb_set = tlb._sets[page % tlb.num_sets]
            if page in tlb_set:
                del tlb_set[page]
            elif len(tlb_set) >= tlb.associativity:
                del tlb_set[next(iter(tlb_set))]
            tlb_set[page] = translation
            tlb = self.l2
            tlb_set = tlb._sets[page % tlb.num_sets]
            if page in tlb_set:
                del tlb_set[page]
            elif len(tlb_set) >= tlb.associativity:
                del tlb_set[next(iter(tlb_set))]
            tlb_set[page] = translation
        else:
            self.l1_huge.insert(page >> (HUGE_PAGE_SHIFT - PAGE_SHIFT),
                                translation)

    def flush(self) -> None:
        self.l1_small.flush()
        self.l1_huge.flush()
        self.l2.flush()

    def invalidate_page(self, key: int, huge: bool = False) -> bool:
        """TLB-shootdown invalidation of one mapping.

        ``key`` is the (possibly ASID-tagged) 4 KB-granularity key the
        mapping was inserted under — for a 2 MB mapping, the tagged key
        of its base page.  Returns True when any level held the entry
        (real shootdown IPIs are sent regardless; the caller charges
        their cost either way).
        """
        if huge:
            return self.l1_huge.invalidate(
                key >> (HUGE_PAGE_SHIFT - PAGE_SHIFT))
        small = self.l1_small.invalidate(key)
        l2 = self.l2.invalidate(key)
        return small or l2


def build_tlbs(params, core_id: int = 0) -> TlbHierarchy:
    """One core's TLB hierarchy from a ``TlbParams`` (Table I row).

    The 2 MB L1 TLB is probed alongside the 4 KB one, so it takes the
    4 KB L1's latency.
    """
    return TlbHierarchy(
        l1_small=Tlb(f"L1-DTLB{core_id}", params.l1_small_entries,
                     params.l1_small_assoc, params.l1_small_latency,
                     page_shift=PAGE_SHIFT),
        l1_huge=Tlb(f"L1-2M-TLB{core_id}", params.l1_huge_entries,
                    params.l1_huge_assoc, params.l1_small_latency,
                    page_shift=HUGE_PAGE_SHIFT),
        l2=Tlb(f"L2-TLB{core_id}", params.l2_entries, params.l2_assoc,
               params.l2_latency, page_shift=PAGE_SHIFT),
    )
