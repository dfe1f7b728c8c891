"""Linear Gaussian structural-equation data generation from a DAG."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .graphs import Dag, _as_int, _as_real, _nodes

# Weight magnitudes bounded away from zero to avoid near-unfaithful models.
DEFAULT_WEIGHT_RANGE = (0.5, 2.0)
DEFAULT_VARIANCE_RANGE = (0.5, 1.5)


def check_range(name, pair):
    """pair as a tuple (lo, hi) of numbers by the real-number rule, with
    0 < lo <= hi; else ValueError naming `name`."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"{name} must be two numbers, got {pair!r}")
    lo, hi = (_as_real(value, f"{name} entry") for value in pair)
    if not 0 < lo <= hi:
        raise ValueError(f"{name} must satisfy 0 < lo <= hi, both finite")
    return lo, hi


@dataclass(frozen=True)
class SemModel:
    """Edge weights and per-node noise variances for a linear Gaussian SEM."""

    graph: Dag
    weights: dict  # (i, j) -> weight of i -> j
    variances: tuple  # one per node


def draw_sem(g, rng, weight_range=DEFAULT_WEIGHT_RANGE, variance_range=DEFAULT_VARIANCE_RANGE):
    """Random weights (uniform on +-[lo, hi]) and variances for each node,
    drawn from the numpy Generator rng."""
    lo, hi = check_range("weight_range", weight_range)
    vlo, vhi = check_range("variance_range", variance_range)
    weights = {}
    for i, j in sorted(g.edges):
        mag = rng.uniform(lo, hi)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        weights[(i, j)] = sign * mag
    variances = tuple(rng.uniform(vlo, vhi) for _ in range(g.d))
    return SemModel(g, weights, variances)


def simulate(model, n, rng):
    """n i.i.d. rows from the SEM, each node evaluated in topological order,
    the noise drawn from the numpy Generator rng."""
    n = _as_int(n, "n", ValueError)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    g = model.graph
    data = np.zeros((n, g.d))
    for v in g._order:
        noise = rng.normal(0.0, np.sqrt(model.variances[v]), size=n)
        col = noise
        for p in _nodes(g._index[0][v]):
            col = col + model.weights[(p, v)] * data[:, p]
        data[:, v] = col
    return data


def to_csv(data, labels, path):
    """Write a data matrix as UTF-8 CSV with node labels as the header,
    quoted as the csv module quotes them (a label may hold a comma)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(labels)
        np.savetxt(fh, data, delimiter=",")
