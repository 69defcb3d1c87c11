"""Core timing model.

Each core consumes its workload's reference stream.  Per reference:

1. the MMU translates the virtual address — translation (and any page
   fault) *serializes*, since no data can move before its physical
   address is known;
2. the data access is issued into a bounded window of outstanding
   misses (``mlp``), so independent data accesses overlap — the
   memory-level parallelism that lets data-intensive cores pressure
   DRAM the way the paper's out-of-order cores do;
3. the core advances by its issue cost plus the workload's inter-
   reference compute gap (non-memory instructions at 1 IPC).

The model is deliberately simple — mechanistic, like Sniper's interval
core — because every compared mechanism runs on the *same* core model
and only the translation path differs.

Hot-path design: a core is fed whole reference chunks of plain lists
with precomputed VPN and line-address arrays, each made from one numpy
batch of :meth:`repro.workloads.base.Workload.stream_chunks` by
:func:`repro.workloads.base.core_chunk` as the core reaches it.  The
run-ahead engine (:mod:`repro.sim.engine`) drives each core through a
chunk coroutine (:meth:`Core._chunk_runner`) that runs as many
references as the engine's time bound (and a time slice's reference
budget) allows — resuming mid-chunk via a persistent cursor and
refilling across chunk boundaries — inlining the L1-DTLB-hit +
L1-cache-hit fast path and falling back to the shared slow paths
(``Mmu._translate_slow``, ``MemoryHierarchy.access_fast``) only on
misses, so the common reference allocates nothing and crosses no
function-call boundary.  :meth:`Core.step` remains the one-reference
entry point (the debug reference engine) and produces bit-identical
statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import KIND_DATA
from repro.mmu.mmu import Mmu
from repro.vm.address import LINE_SHIFT, PAGE_SHIFT


@dataclass(slots=True)
class CoreStats:
    """Cycle and instruction accounting for one core.

    Each reference is one memory instruction plus ``gap_cycles``
    non-memory ones, so ``instructions`` is read off ``references``.
    """

    references: int = 0
    cycles: float = 0.0
    translation_cycles: float = 0.0
    fault_cycles: float = 0.0
    data_stall_cycles: float = 0.0
    gap_cycles: int = 0

    @property
    def instructions(self) -> int:
        return self.references * (1 + self.gap_cycles)

    @property
    def translation_fraction(self) -> float:
        """Share of runtime spent translating (Fig. 5's blue bars)."""
        if self.cycles == 0:
            return 0.0
        return self.translation_cycles / self.cycles

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class Core:
    """One NDP/CPU core bound to a reference stream and an MMU.

    ``chunks`` iterates the core's reference stream as ``(addrs,
    writes, vpns, vlines)`` chunks — equal length plain lists, where
    ``vpns[i] == (addrs[i] & VA_MASK) >> PAGE_SHIFT`` and ``vlines[i]
    == addrs[i] >> LINE_SHIFT`` (the numpy-precomputed probe keys of
    :func:`repro.workloads.base.chunk_probe_keys`).  The system builds
    them lazily, one chunk at a time, by mapping
    :func:`repro.workloads.base.core_chunk` over the workload's numpy
    batches, so a core holds the lists of one chunk, not of its whole
    stream.

    A core is driven by :meth:`step` or by its chunk coroutine in one
    run, never both.
    """

    def __init__(self, core_id: int, mmu: Mmu, hierarchy: MemoryHierarchy,
                 chunks: Iterator[tuple], gap_cycles: int, mlp: int = 4,
                 issue_cycles: int = 1):
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.core_id = core_id
        self.mmu = mmu
        self.hierarchy = hierarchy
        self.gap_cycles = gap_cycles
        self.mlp = mlp
        self.issue_cycles = issue_cycles
        self.stats = CoreStats(gap_cycles=gap_cycles)
        self._chunks = chunks
        self._buf_addrs: List[int] = []
        self._buf_writes: List[bool] = []
        self._buf_vpns: List[int] = []
        self._buf_vlines: List[int] = []
        self._buf_pos = 0
        self._outstanding: Deque[float] = deque()
        self._finished = False

    @property
    def finished(self) -> bool:
        return self._finished

    def _refill(self) -> bool:
        """Pull the next non-empty chunk into the buffer; False when
        the chunk stream is exhausted (empty chunks are skipped, not
        treated as end-of-stream)."""
        while True:
            nxt = next(self._chunks, None)
            if nxt is None:
                return False
            addrs, writes, vpns, vlines = nxt
            if len(addrs) > 0:
                self._buf_addrs = addrs
                self._buf_writes = writes
                self._buf_vpns = vpns
                self._buf_vlines = vlines
                self._buf_pos = 0
                return True

    def step(self, now: float) -> Optional[float]:
        """Execute one memory reference starting at cycle ``now``.

        Returns the cycle at which the core is ready for its next
        reference, or None when the stream is exhausted (after draining
        outstanding accesses into the cycle count).
        """
        if self._buf_pos >= len(self._buf_addrs) and not self._refill():
            self._drain(now)
            return None
        pos = self._buf_pos
        vaddr = self._buf_addrs[pos]
        is_write = self._buf_writes[pos]
        self._buf_pos = pos + 1

        clock = now
        paddr, t_latency, fault_cycles, _, _ = \
            self.mmu.translate_parts(clock, vaddr)
        clock += t_latency + fault_cycles
        self.stats.translation_cycles += t_latency
        self.stats.fault_cycles += fault_cycles

        # Data access through the bounded miss window.
        if len(self._outstanding) >= self.mlp:
            oldest = self._outstanding.popleft()
            if oldest > clock:
                self.stats.data_stall_cycles += oldest - clock
                clock = oldest
        completion = clock + self.hierarchy.access_fast(
            clock, paddr, KIND_DATA, 1 if is_write else 0,
            self.core_id, 0)
        self._outstanding.append(completion)

        self.stats.references += 1
        next_ready = clock + self.issue_cycles + self.gap_cycles
        self.stats.cycles = next_ready
        return next_ready

    def runner_send(self):
        """Start a chunk coroutine for one run; return its ``send``.

        The engine calls it once per core per run and holds the
        coroutine for that call alone: nothing on the core refers to
        it, so a System whose run returned or raised is freed by
        refcounting.  The engine calls the ``send`` directly, so a
        batch costs one C-level generator resume with no Python
        wrapper frame.  See :meth:`_chunk_runner` for what it takes
        and answers.
        """
        runner = self._chunk_runner()
        next(runner)  # run the prologue, park at the first yield
        return runner.send

    def _chunk_runner(self):
        """The chunk loop as a coroutine (see :meth:`runner_send`).

        Every binding below survives across yields, so resuming costs
        one ``send`` instead of re-deriving ~30 locals per batch.  All
        bound objects are identity-stable for the core's lifetime —
        TLB/cache flushes clear their set dicts in place — which is
        what makes the long-lived bindings safe.

        The core owns its clock, which starts at ``stats.cycles``.  The
        first send is a ``(now, bound, max_refs)`` tuple that *arms* a
        shared slot's context with its slice's start time and
        reference budget, or a bare float, a one-context slot's first
        bound.  After a None that ends a budget the next send is the
        next slice's tuple; every other send is a bare float bound
        above the clock, and the batch goes on where the last stop
        left it.  A send answers with the clock at a bound stop, or
        None once the budget or the stream ends (``finished`` tells
        which; the clock is then ``stats.cycles``).  The coroutine
        returns after the stream's None.

        The hit arms count nothing: a batch counts its references (by
        cursor distance) and its L1-DTLB and L1 misses in locals (int
        sums are exact in any order).  They reach the shared counters,
        with the cursor and ``stats.cycles``, at the end of a budget or
        of the stream; between bound stops the counters lag, and they
        are exact whenever a whole run returns.  Float cycle accounting
        goes straight into the stats fields per reference so the
        summation order — and with it every reported value — is
        bit-identical to the one-reference :meth:`step` path.
        """
        # Local bindings for everything the per-reference loop touches.
        stats = self.stats
        mmu = self.mmu
        mmu_stats = mmu.stats
        hierarchy = self.hierarchy
        outstanding = self._outstanding
        mlp = self.mlp
        core_id = self.core_id
        post_cycles = self.issue_cycles + self.gap_cycles

        ideal = mmu.ideal
        asid_key = mmu.asid_tag  # 0 single-process: the OR is a no-op
        if not ideal:
            l1t = mmu.tlbs.l1_small
            l1t_sets = l1t._sets
            l1t_num_sets = l1t.num_sets
            l1t_latency = l1t.latency
            l1t_stats = l1t.stats
        l1c = hierarchy.l1ds[core_id]
        l1c_sets = l1c._sets
        l1c_num_sets = l1c.num_sets
        l1c_shift = l1c._line_shift
        l1c_latency = l1c.hit_latency
        l1c_data_stats = l1c._kind_stats[KIND_DATA]
        # Precomputed-probe plumbing: chunks arrive with per-reference
        # VPNs and virtual line addresses (``vaddr >> LINE_SHIFT``), so
        # a 4 KB TLB hit forms its L1 line tag with two cheap int ops —
        # the physical address materializes only on an L1 miss.
        # ``fast_shift`` is the page shift that takes that path: 4 KB
        # when the L1 line is LINE_SHIFT wide, otherwise none.
        line_fast = l1c_shift == LINE_SHIFT
        fast_shift = PAGE_SHIFT if line_fast else -1
        pfn_line_shift = PAGE_SHIFT - l1c_shift if line_fast else 0
        vline_mask = (1 << pfn_line_shift) - 1
        page_mask = (1 << PAGE_SHIFT) - 1

        def flush(references, tlb_misses, l1_misses):
            """Turn a batch's local counts into the shared counters:
            every reference not counted as a miss hit the L1-DTLB and
            the L1 (an Ideal MMU counts its own translations)."""
            stats.references += references
            l1c_data_stats.hits += references - l1_misses
            if not ideal:
                tlb_hits = references - tlb_misses
                mmu_stats.translations += references
                mmu_stats.tlb_hits += tlb_hits
                l1t_stats.hits += tlb_hits
                l1t_stats.misses += tlb_misses

        now = stats.cycles
        max_refs = None
        bound = yield
        if bound.__class__ is tuple:
            now, bound, max_refs = bound
        references = tlb_misses = l1_misses = 0

        while True:
            pos = self._buf_pos
            addrs = self._buf_addrs
            if pos >= len(addrs):
                if not self._refill():
                    flush(references, tlb_misses, l1_misses)
                    self._drain(now)
                    yield None
                    return
                pos = 0
                addrs = self._buf_addrs
            writes = self._buf_writes
            vpns = self._buf_vpns
            vlines = self._buf_vlines
            end = len(addrs)
            if max_refs is not None and end - pos > max_refs:
                end = pos + max_refs
            seg_start = pos

            while pos < end:
                if now >= bound:
                    # The next bound lies above the clock: the
                    # reference the batch stopped at runs then.
                    bound = yield now
                # The virtual address itself (``addrs[pos]``) is read
                # only where a physical address must be formed.
                is_write = writes[pos]
                clock = now

                # -- translation: inlined L1-DTLB hit, slow path ------
                if ideal:
                    paddr, t_latency, fault_cycles, _, _ = \
                        mmu.translate_parts(clock, addrs[pos])
                    clock += t_latency + fault_cycles
                    stats.translation_cycles += t_latency
                    stats.fault_cycles += fault_cycles
                    line = paddr >> l1c_shift
                else:
                    page = vpns[pos] | asid_key
                    tlb_set = l1t_sets[page % l1t_num_sets]
                    translation = tlb_set.get(page)
                    if translation is not None:
                        tlb_set[page] = tlb_set.pop(page)  # LRU refresh
                        stats.translation_cycles += l1t_latency
                        clock += l1t_latency
                        if translation[1] == fast_shift:
                            # L1 line tag straight from the precomputed
                            # virtual line address (C-speed on the
                            # hottest line of the simulator).
                            line = ((translation[0] << pfn_line_shift)
                                    | (vlines[pos] & vline_mask))
                            paddr = -1
                        else:
                            shift = translation[1]
                            paddr = ((translation[0] << shift)
                                     | (addrs[pos] & ((1 << shift) - 1)))
                            line = paddr >> l1c_shift
                    else:
                        # Straight to the shared slow path (avoids
                        # re-probing the set just probed).  A zero
                        # fault charge leaves the float sum unchanged,
                        # so it is skipped.
                        tlb_misses += 1
                        paddr, t_latency, fault_cycles, _, _ = \
                            mmu._translate_slow(clock, addrs[pos], page)
                        clock += t_latency + fault_cycles
                        stats.translation_cycles += t_latency
                        if fault_cycles:
                            stats.fault_cycles += fault_cycles
                        line = paddr >> l1c_shift

                # -- data access through the bounded miss window ------
                if len(outstanding) >= mlp:
                    oldest = outstanding.popleft()
                    if oldest > clock:
                        stats.data_stall_cycles += oldest - clock
                        clock = oldest

                # Inlined L1 hit; misses take the shared hierarchy
                # fast path, which re-probes the set.
                cache_set = l1c_sets[line % l1c_num_sets]
                if line in cache_set:
                    cache_set[line] = cache_set.pop(line) | is_write
                    completion = clock + l1c_latency
                else:
                    l1_misses += 1
                    if paddr < 0:
                        # Deferred from the fast TLB-hit arm (4 KB
                        # translation, so the shift is PAGE_SHIFT).
                        paddr = ((translation[0] << PAGE_SHIFT)
                                 | (addrs[pos] & page_mask))
                    completion = clock + hierarchy.access_fast(
                        clock, paddr, KIND_DATA, is_write, core_id, 0)
                outstanding.append(completion)
                now = clock + post_cycles
                pos += 1

            self._buf_pos = pos
            consumed = pos - seg_start
            references += consumed
            if max_refs is not None:
                max_refs -= consumed
                if max_refs <= 0:
                    flush(references, tlb_misses, l1_misses)
                    references = tlb_misses = l1_misses = 0
                    stats.cycles = now
                    now, bound, max_refs = yield None

    def _drain(self, now: float) -> None:
        """Wait for in-flight accesses once the stream ends."""
        end = now
        while self._outstanding:
            completion = self._outstanding.popleft()
            if completion > end:
                end = completion
        self.stats.cycles = max(self.stats.cycles, end)
        self._finished = True
