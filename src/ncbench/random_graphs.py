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

from .graphs import _as_int, _built, _checked_d, _compelled, max_edges


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus stream index; distinct indices give independent streams.

    Entry points take an integer seed and every sampler a numpy Generator;
    generator() and child(i) are the only conversions from one to the other."""

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


@functools.cache
def _pairs(d):
    """The unordered node pairs (i < j) in lexicographic order; sample_er_dag
    indexes them, so their order is part of every seeded draw."""
    return tuple(itertools.combinations(range(d), 2))


def _draw(d, m, rng):
    """The draw both samplers share: a uniform node order, then m of
    _pairs(d) without replacement, each oriented along the order. Returns
    (d, order, oriented edges, skeleton); d and m pass their doors first."""
    mmax = max_edges(d)
    m = _as_int(m, "m", ValueError)
    if not (0 <= m <= mmax):
        raise ValueError(f"m={m} out of range [0, {mmax}] for d={d}")
    d = _checked_d(d)
    order = rng.permutation(d).tolist()
    rank = [0] * d
    for pos, v in enumerate(order):
        rank[v] = pos
    pairs = _pairs(d)
    skel = [pairs[idx] for idx in rng.choice(len(pairs), size=m, replace=False).tolist()]
    edges = [(i, j) if rank[i] < rank[j] else (j, i) for i, j in skel]
    return d, order, edges, frozenset(skel)


def sample_er_dag(d, m, rng):
    """DAG with exactly m edges, drawn from the numpy Generator rng: uniform
    skeleton, uniform-order orientation."""
    d, _, edges, skel = _draw(d, m, rng)
    return _built(d, frozenset(edges), skel)


def sample_er_cpdag(d, m, rng):
    """CPDAG of the Markov equivalence class of a sample_er_dag draw: the same
    draw, labelled along its own order with no intermediate Dag."""
    d, order, edges, skel = _draw(d, m, rng)
    return _compelled(d, edges, order, skel, None)
