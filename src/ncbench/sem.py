"""Linear Gaussian structural-equation data generation from a DAG."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .graphs import Dag, _as_int
from .random_graphs import RngSeed

# Weight magnitudes bounded away from zero to avoid near-unfaithful models.
DEFAULT_WEIGHT_RANGE = (0.5, 2.0)
DEFAULT_VARIANCE_RANGE = (0.5, 1.5)


@dataclass(frozen=True)
class SemConfig:
    n: int
    weight_range: tuple = DEFAULT_WEIGHT_RANGE
    variance_range: tuple = DEFAULT_VARIANCE_RANGE
    seed: RngSeed = field(default_factory=lambda: RngSeed(0))

    def __post_init__(self):
        for name in ("weight_range", "variance_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi <= sys.float_info.max):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, both finite")
        object.__setattr__(self, "n", _as_int(self.n, "n", ValueError))
        if self.n < 1:
            raise ValueError("sample size n must be at least 1")


@dataclass(frozen=True)
class SemModel:
    """Edge weights and per-node noise variances for a linear Gaussian SEM."""

    graph: Dag
    weights: dict  # (i, j) -> weight of i -> j
    variances: tuple  # one per node


def draw_sem(g, cfg, rng=None):
    """Random weights (uniform on +-[lo, hi]) and variances for each node."""
    gen = cfg.seed.child(0) if rng is None else rng
    lo, hi = cfg.weight_range
    vlo, vhi = cfg.variance_range
    weights = {}
    for i, j in sorted(g.edges):
        mag = gen.uniform(lo, hi)
        sign = 1.0 if gen.random() < 0.5 else -1.0
        weights[(i, j)] = sign * mag
    variances = tuple(gen.uniform(vlo, vhi) for _ in range(g.d))
    return SemModel(g, weights, variances)


def simulate(model, n, rng=None):
    """n i.i.d. rows from the SEM, each node evaluated in topological order."""
    n = _as_int(n, "n", ValueError)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    if rng is None:
        rng = RngSeed(0)
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    g = model.graph
    data = np.zeros((n, g.d))
    for v in g.topological_order():
        noise = gen.normal(0.0, np.sqrt(model.variances[v]), size=n)
        col = noise
        for p in sorted(g.parents(v)):
            col = col + model.weights[(p, v)] * data[:, p]
        data[:, v] = col
    return data


def simulate_from_dag(g, cfg):
    """Draw a model from cfg and simulate cfg.n rows.

    Model parameters and noise use separate substreams of cfg.seed so the
    weight draws never alias the noise draws.
    """
    model = draw_sem(g, cfg)
    return simulate(model, cfg.n, cfg.seed.child(1))


def to_csv(data, labels, path):
    """Write a data matrix as CSV with node labels as the header."""
    np.savetxt(path, data, delimiter=",", header=",".join(labels), comments="")
