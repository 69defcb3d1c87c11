"""Reusable access-pattern building blocks (numpy, chunk-vectorized).

These primitives compose into the Table II workload generators:
Zipf-skewed index selection, uniform and Zipf-headed selection inside
a drifting window, sequential windows, and interleaving of several
sub-streams with fixed per-item structure.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def zipf_indices(rng: np.random.Generator, population: int, size: int,
                 exponent: float = 1.3) -> np.ndarray:
    """Zipf-skewed indices in [0, population), hot head at low ids.

    Graph neighbour references and DLRM embedding rows follow heavy
    head-plus-long-tail popularity; numpy's Zipf sampler provides the
    tail, modulo folds it into range.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    raw = rng.zipf(exponent, size=size).astype(np.int64)
    return (raw - 1) % population


def scattered_zipf_indices(rng: np.random.Generator, population: int,
                           size: int, exponent: float = 1.3) -> np.ndarray:
    """Zipf popularity with hot items scattered across the index space.

    Multiplying by a large odd constant before the fold decorrelates
    popularity from position, so hot entries do not all share pages —
    the realistic case for hash-organized data.
    """
    skewed = zipf_indices(rng, population, size, exponent)
    return (skewed * 0x9E3779B1) % population


#: Large prime used as a multiplicative permutation over index spaces.
_SCATTER_PRIME = 2_654_435_761  # Knuth's golden-ratio prime


def windowed_uniform(rng: np.random.Generator, population: int,
                     size: int, state: dict, key: str,
                     window_items: int = 2500,
                     drift_fraction: float = 0.02,
                     window_fraction: float = None,
                     cluster_items: int = 1) -> np.ndarray:
    """Uniform selection inside a sliding, scattered, clustered window.

    Data-intensive applications touch their structures in *phases* — a
    BFS frontier's neighbourhood, a band of particles, a batch of
    embedding rows — so a bounded working set is hot at any time and
    drifts.  Three properties matter for the paper:

    * the working set's *page-table* footprint has temporal reuse and
      is sized to fit a server L2/L3 but dwarf an NDP L1 — the
      capacity relationship behind Figs. 4-7 (CPU walks hit caches,
      NDP walks go to DRAM);
    * the *data* itself sees almost no reuse (each touch picks a fresh
      word inside a hot cluster), so data accesses miss caches on both
      platforms, as in the paper's workloads;
    * working-set members are *scattered* across the structure (a
      frontier is not one contiguous VA range).

    ``window_items`` counts hot clusters; ``cluster_items`` sizes one
    cluster (pick it so a cluster spans ~8 pages = one PTE cache
    line).  Scattering uses a multiplicative permutation of a
    contiguous cursor window, so drifting replaces members gradually.
    ``window_fraction`` (relative sizing) overrides ``window_items``.
    """
    if population <= 0:
        raise ValueError("population must be positive")
    if window_fraction is not None:
        window_items = int(population * window_fraction)
    cluster = max(1, cluster_items)
    cluster_count = max(1, population // cluster)
    window = max(1, min(cluster_count, window_items))
    cursor = state.get(key, 0)
    offsets = rng.integers(0, window, size=size, dtype=np.int64)
    linear = (cursor + offsets) % cluster_count
    state[key] = int((cursor + max(1, int(window * drift_fraction)))
                     % cluster_count)
    scattered = (linear * _SCATTER_PRIME) % cluster_count
    within = rng.integers(0, cluster, size=size, dtype=np.int64)
    if cluster > 1:
        # A quarter of the touches land on the cluster's head word
        # (the node/bucket header every visit reads).  These lines
        # *would* cache - unless page-table traffic evicts them, which
        # is the pollution mechanism of the paper's Fig. 7.
        within = np.where(rng.random(size) < 0.25, 0, within)
    return np.minimum(scattered * cluster + within, population - 1)


def windowed_mixed(rng: np.random.Generator, population: int, size: int,
                   state: dict, key: str, hot_fraction: float = 0.2,
                   exponent: float = 1.3,
                   window_items: int = 2500,
                   cluster_items: int = 1) -> np.ndarray:
    """Hot Zipf head over a *windowed* uniform tail.

    Power-law graph traversals and embedding gathers reference a few
    hub items often, but the bulk of their references spread over the
    huge structure.  ``hot_fraction`` of the indices come from a
    scattered Zipf head (:func:`scattered_zipf_indices`), so hub items
    stay hot globally; the rest sweep the drifting scattered working
    set of :func:`windowed_uniform`.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    tail = windowed_uniform(rng, population, size, state, key,
                            window_items=window_items,
                            cluster_items=cluster_items)
    if hot_fraction == 0.0:
        return tail
    hot = scattered_zipf_indices(rng, population, size, exponent)
    choose_hot = rng.random(size) < hot_fraction
    return np.where(choose_hot, hot, tail)


def sequential_window(start: int, size: int, stride: int = 1) -> np.ndarray:
    """Indices start, start+stride, ... (a streaming scan window)."""
    return start + stride * np.arange(size, dtype=np.int64)


def interleave(parts: List[Tuple[np.ndarray, bool]]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Interleave equally long sub-streams item by item.

    ``parts`` is a list of (addresses, is_write) arrays of equal length
    n; the result has length n * len(parts) and cycles through the parts
    in order — e.g. offset read, edge read, property read, property
    write for a graph kernel.
    """
    if not parts:
        raise ValueError("nothing to interleave")
    length = len(parts[0][0])
    for addrs, _ in parts:
        if len(addrs) != length:
            raise ValueError("sub-streams must have equal length")
    addresses = np.empty(length * len(parts), dtype=np.int64)
    writes = np.empty(length * len(parts), dtype=bool)
    for i, (addrs, is_write) in enumerate(parts):
        addresses[i::len(parts)] = addrs
        writes[i::len(parts)] = is_write
    return addresses, writes
