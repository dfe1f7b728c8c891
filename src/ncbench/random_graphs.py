"""Seeded Erdős–Rényi-type DAG/CPDAG samplers used as negative controls.

A draw picks a uniform m-subset of the unordered node pairs as the skeleton
and orients it along a uniformly random total order, so conditional on
(d, m) every pair is included with probability m / m_max.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Dag, _as_int, dag_to_cpdag


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus stream index; distinct indices give independent streams."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, ValueError))
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self):
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))

    def child(self, index):
        """Derived stream for replication `index` under this master seed."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.stream, _as_int(index, "index", ValueError)])
        )


def max_edges(d):
    d = _as_int(d, "d", ValueError)
    if d < 0:
        raise ValueError(f"node count d={d} must be non-negative")
    return d * (d - 1) // 2


@functools.cache
def _pairs(d):
    """The unordered node pairs (i < j) in lexicographic order; sample_er_dag
    indexes them, so their order is part of every seeded draw."""
    return tuple(itertools.combinations(range(d), 2))


def sample_er_dag(d, m, rng):
    """DAG with exactly m edges: uniform skeleton, uniform-order orientation."""
    mmax = max_edges(d)
    m = _as_int(m, "m", ValueError)
    if not (0 <= m <= mmax):
        raise ValueError(f"m={m} out of range [0, {mmax}] for d={d}")
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    order = gen.permutation(d)
    rank = {int(v): pos for pos, v in enumerate(order)}
    pairs = _pairs(d)
    chosen = gen.choice(len(pairs), size=m, replace=False)
    edges = set()
    for idx in chosen:
        i, j = pairs[int(idx)]
        if rank[i] < rank[j]:
            edges.add((i, j))
        else:
            edges.add((j, i))
    return Dag(d, frozenset(edges))


def sample_er_cpdag(d, m, rng):
    """CPDAG of the Markov equivalence class of a sample_er_dag draw."""
    return dag_to_cpdag(sample_er_dag(d, m, rng))
