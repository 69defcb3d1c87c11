"""Golden values for warmups that run under memory pressure.

Each config's physical memory is small enough that the untimed warmup
itself reclaims (FIFO 4 KB reclaim, under Radix, ECH and transparent
huge pages with their compaction attempts, on one or two cores and
with two or three tenants sharing the frames).  The warmup then
decides, touch by touch, which pages to fault back in, so these pin
the OS model's resident state under churn, not only the ROI.

Pinned per config: every ``RunResult`` field (``extras`` and
``os_stats`` included, with int/float types), the allocator counters
right after the build, and each tenant table's ``mapped_pages``: the
4 KB pages its live entries map, 512 per 2 MB leaf.  Before and after
the run, each table maps exactly what its OS's resident index holds.
"""

import dataclasses
import json

import pytest

from repro.sim.config import ndp_config
from repro.sim.runner import collect
from repro.sim.system import System
from repro.vm.address import ENTRIES_PER_NODE

MIB = 1 << 20

#: Shared settings; each config overrides what it needs.
BASE = dict(workload="bfs", refs_per_core=4000, scale=1 / 64, seed=7)

CONFIGS = {
    "bfs-radix": dict(mechanism="radix", phys_bytes=6 * MIB),
    "bfs-hugepage": dict(mechanism="hugepage", phys_bytes=8 * MIB),
    "rnd-ech": dict(workload="rnd", mechanism="ech", phys_bytes=6 * MIB),
    "rnd-radix-3t": dict(workload="rnd", mechanism="radix", tenants=3,
                         phys_bytes=24 * MIB),
    "xs-hugepage-2t-2c": dict(workload="xs", mechanism="hugepage",
                              tenants=2, num_cores=2, refs_per_core=3000,
                              phys_bytes=16 * MIB),
    "bfs-radix-2c": dict(mechanism="radix", num_cores=2,
                         refs_per_core=3000, phys_bytes=6 * MIB),
}

#: Recorded before the OS model kept a resident index, when each
#: warmup loop filtered touches on private seen-sets.
GOLDEN = {
    "bfs-radix": {
        "allocator": {
            "small_allocs": 2873,
            "huge_allocs": 0,
            "huge_failures": 0,
            "compactions": 0,
            "blocks_recovered": 0,
            "frees": 2105
        },
        "mapped_pages": [
            691
        ],
        "result": {
            "cycles": 4644060.0,
            "instructions": 8000,
            "references": 4000,
            "translation_cycles": 350379.0,
            "fault_cycles": 4243200.0,
            "ptw_latency_mean": 116.2883320867614,
            "ptw_latency_max": 497.0,
            "walks": 2674,
            "tlb_miss_rate": 0.6685,
            "l1_data_miss_rate": 0.725,
            "l1_metadata_miss_rate": 0.6622305030609529,
            "metadata_mem_fraction": 0.4843367281165399,
            "pte_memory_accesses": 3757,
            "pwc_hit_rates": {
                "PL4": 0.9996260284218399,
                "PL3": 0.9992520568436799,
                "PL2": 0.5961106955871354,
                "PL1": 0.0
            },
            "occupancy": {
                "PL4": 0.001953125,
                "PL3": 0.00390625,
                "PL2": 0.0712890625,
                "PL1": 0.018487799657534245
            },
            "dram_accesses_by_kind": {
                "data": 3366,
                "metadata": 2488,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.02494021182097711,
            "dram_queue_delay_mean": 1.4697475872308834,
            "os_stats": {
                "minor_faults": 2652,
                "huge_faults": 0,
                "huge_fallbacks": 0,
                "compactions": 0,
                "reclaims": 2652,
                "fault_cycles": 11138400.0
            },
            "data_evicted_by_metadata": 1167,
            "table_bytes": 315392,
            "extras": {}
        }
    },
    "bfs-hugepage": {
        "allocator": {
            "small_allocs": 2736,
            "huge_allocs": 2,
            "huge_failures": 14,
            "compactions": 14,
            "blocks_recovered": 0,
            "frees": 2480
        },
        "mapped_pages": [
            1205
        ],
        "result": {
            "cycles": 4293270.0,
            "instructions": 8000,
            "references": 4000,
            "translation_cycles": 322656.0,
            "fault_cycles": 3918400.0,
            "ptw_latency_mean": 116.7194127243067,
            "ptw_latency_max": 373.0,
            "walks": 2452,
            "tlb_miss_rate": 0.613,
            "l1_data_miss_rate": 0.71625,
            "l1_metadata_miss_rate": 0.6659871869539895,
            "metadata_mem_fraction": 0.4619316653214958,
            "pte_memory_accesses": 3434,
            "pwc_hit_rates": {
                "PL4": 0.9995921696574225,
                "PL3": 0.9991843393148451,
                "PL2": 0.5999184339314845,
                "PL1": 0.0
            },
            "occupancy": {
                "PL4": 0.001953125,
                "PL3": 0.00390625,
                "PL2": 0.0712890625,
                "PL1": 0.004979093309859155
            },
            "dram_accesses_by_kind": {
                "data": 3326,
                "metadata": 2287,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.025654730090860504,
            "dram_queue_delay_mean": 1.5531832298136645,
            "os_stats": {
                "minor_faults": 2449,
                "huge_faults": 0,
                "huge_fallbacks": 2449,
                "compactions": 0,
                "reclaims": 2449,
                "fault_cycles": 10285800.0
            },
            "data_evicted_by_metadata": 1095,
            "table_bytes": 307200,
            "extras": {}
        }
    },
    "rnd-ech": {
        "allocator": {
            "small_allocs": 2465,
            "huge_allocs": 0,
            "huge_failures": 0,
            "compactions": 0,
            "blocks_recovered": 0,
            "frees": 1697
        },
        "mapped_pages": [
            640
        ],
        "result": {
            "cycles": 4034947.0,
            "instructions": 8000,
            "references": 4000,
            "translation_cycles": 349681.0,
            "fault_cycles": 3667200.0,
            "ptw_latency_mean": 137.1155844155844,
            "ptw_latency_max": 348.0,
            "walks": 2310,
            "tlb_miss_rate": 0.5775,
            "l1_data_miss_rate": 0.604,
            "l1_metadata_miss_rate": 0.962987012987013,
            "metadata_mem_fraction": 0.5359628770301624,
            "pte_memory_accesses": 4620,
            "pwc_hit_rates": {},
            "occupancy": {
                "ECH-way0": 0.03729248046875,
                "ECH-way1": 0.00177001953125
            },
            "dram_accesses_by_kind": {
                "data": 4273,
                "metadata": 4449,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.015363448750286631,
            "dram_queue_delay_mean": 6.360378732702112,
            "os_stats": {
                "minor_faults": 2292,
                "huge_faults": 0,
                "huge_fallbacks": 0,
                "compactions": 0,
                "reclaims": 2292,
                "fault_cycles": 9626400.0
            },
            "data_evicted_by_metadata": 1268,
            "table_bytes": 524288,
            "extras": {}
        }
    },
    "rnd-radix-3t": {
        "allocator": {
            "small_allocs": 7059,
            "huge_allocs": 0,
            "huge_failures": 0,
            "compactions": 0,
            "blocks_recovered": 0,
            "frees": 2963
        },
        "mapped_pages": [
            1305,
            1335,
            1174
        ],
        "result": {
            "cycles": 38549693.0,
            "instructions": 24000,
            "references": 12000,
            "translation_cycles": 985644.0,
            "fault_cycles": 37486400.0,
            "ptw_latency_mean": 128.42220936957779,
            "ptw_latency_max": 497.0,
            "walks": 6916,
            "tlb_miss_rate": 0.5763333333333334,
            "l1_data_miss_rate": 0.5948333333333333,
            "l1_metadata_miss_rate": 0.592065999648938,
            "metadata_mem_fraction": 0.487047961015645,
            "pte_memory_accesses": 11394,
            "pwc_hit_rates": {
                "PL4": 0.9995662232504338,
                "PL3": 0.9982648930017352,
                "PL2": 0.3546847888953152,
                "PL1": 0.0
            },
            "occupancy": {
                "PL4": 0.001953125,
                "PL3": 0.00390625,
                "PL2": 0.087890625,
                "PL1": 0.0283203125
            },
            "dram_accesses_by_kind": {
                "data": 12968,
                "metadata": 6746,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.011007405904433398,
            "dram_queue_delay_mean": 5.806828003457217,
            "os_stats": {
                "minor_faults": 6694,
                "huge_faults": 0,
                "huge_fallbacks": 0,
                "compactions": 0,
                "reclaims": 6694,
                "fault_cycles": 54890800.0
            },
            "data_evicted_by_metadata": 3115,
            "table_bytes": 1155072,
            "extras": {
                "tenants": 3.0,
                "context_switches": 5.0,
                "preserved_switches": 5.0,
                "flush_switches": 0.0,
                "switch_cycles": 30000.0,
                "shootdowns": 6694.0,
                "shootdown_cycles": 26776000.0,
                "cross_tenant_reclaims": 0.0,
                "frame_pressure": 1.0
            }
        }
    },
    "xs-hugepage-2t-2c": {
        "allocator": {
            "small_allocs": 1687,
            "huge_allocs": 4,
            "huge_failures": 8,
            "compactions": 8,
            "blocks_recovered": 0,
            "frees": 919
        },
        "mapped_pages": [
            2368,
            394
        ],
        "result": {
            "cycles": 5116869.0,
            "instructions": 48000,
            "references": 12000,
            "translation_cycles": 238339.0,
            "fault_cycles": 9072000.0,
            "ptw_latency_mean": 111.9706045479756,
            "ptw_latency_max": 5838.0,
            "walks": 1803,
            "tlb_miss_rate": 0.15025,
            "l1_data_miss_rate": 0.3655,
            "l1_metadata_miss_rate": 0.7408585055643879,
            "metadata_mem_fraction": 0.13588248001728234,
            "pte_memory_accesses": 1887,
            "pwc_hit_rates": {
                "PL4": 0.9977814753189129,
                "PL3": 0.9955629506378258,
                "PL2": 0.9556295063782585,
                "PL1": 0.0005567928730512249
            },
            "occupancy": {
                "PL4": 0.001953125,
                "PL3": 0.00390625,
                "PL2": 0.0244140625,
                "PL1": 0.02976190476190476
            },
            "dram_accesses_by_kind": {
                "data": 4882,
                "metadata": 1398,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.19570063694267517,
            "dram_queue_delay_mean": 118.83938450899032,
            "os_stats": {
                "minor_faults": 1620,
                "huge_faults": 0,
                "huge_fallbacks": 1620,
                "compactions": 0,
                "reclaims": 1620,
                "fault_cycles": 13284000.0
            },
            "data_evicted_by_metadata": 868,
            "table_bytes": 221184,
            "extras": {
                "tenants": 2.0,
                "context_switches": 6.0,
                "preserved_switches": 6.0,
                "flush_switches": 0.0,
                "switch_cycles": 36000.0,
                "shootdowns": 1620.0,
                "shootdown_cycles": 6480000.0,
                "cross_tenant_reclaims": 0.0,
                "frame_pressure": 1.0
            }
        }
    },
    "bfs-radix-2c": {
        "allocator": {
            "small_allocs": 4299,
            "huge_allocs": 0,
            "huge_failures": 0,
            "compactions": 0,
            "blocks_recovered": 0,
            "frees": 3531
        },
        "mapped_pages": [
            683
        ],
        "result": {
            "cycles": 3524339.0,
            "instructions": 12000,
            "references": 6000,
            "translation_cycles": 549176.0,
            "fault_cycles": 6401600.0,
            "ptw_latency_mean": 119.24190012180269,
            "ptw_latency_max": 1481.0,
            "walks": 4105,
            "tlb_miss_rate": 0.6841666666666667,
            "l1_data_miss_rate": 0.7331666666666666,
            "l1_metadata_miss_rate": 0.6694766420793818,
            "metadata_mem_fraction": 0.48691636736788096,
            "pte_memory_accesses": 5694,
            "pwc_hit_rates": {
                "PL4": 0.9995127892813642,
                "PL3": 0.9990255785627283,
                "PL2": 0.6143727161997564,
                "PL1": 0.0
            },
            "occupancy": {
                "PL4": 0.001953125,
                "PL3": 0.00390625,
                "PL2": 0.0791015625,
                "PL1": 0.016468942901234566
            },
            "dram_accesses_by_kind": {
                "data": 5091,
                "metadata": 3812,
                "instruction": 0
            },
            "dram_row_hit_rate": 0.02459844996068741,
            "dram_queue_delay_mean": 8.542077700645475,
            "os_stats": {
                "minor_faults": 4001,
                "huge_faults": 0,
                "huge_fallbacks": 0,
                "compactions": 0,
                "reclaims": 4001,
                "fault_cycles": 16804200.0
            },
            "data_evicted_by_metadata": 1717,
            "table_bytes": 348160,
            "extras": {}
        }
    }
}


def resident_pages(system):
    """Per tenant, the 4 KB pages its OS's resident index holds, 512
    per huge region."""
    return [len(tenant.os.resident)
            + ENTRIES_PER_NODE * len(tenant.os._huge_regions)
            for tenant in system.tenants]


@pytest.mark.parametrize("name", list(CONFIGS))
def test_pressure_warmup_matches_golden(mapped_pages, name):
    system = System(ndp_config(**{**BASE, **CONFIGS[name]}))
    golden = GOLDEN[name]
    allocator = dataclasses.asdict(system.allocator.stats)
    assert allocator["frees"] > 0, "the warmup never reclaimed"
    assert allocator == golden["allocator"]
    counts = [mapped_pages(tenant.page_table) for tenant in system.tenants]
    assert counts == golden["mapped_pages"]
    assert counts == resident_pages(system)
    fields = dataclasses.asdict(collect(system, system.run()))
    assert [mapped_pages(tenant.page_table) for tenant in system.tenants] \
        == resident_pages(system)
    fields.pop("config")
    assert fields == golden["result"]
    # Types too: an int where a float was changes a cache entry.
    assert json.dumps(fields) == json.dumps(golden["result"])
