"""Linear Gaussian structural-equation data generation from a DAG."""

from __future__ import annotations

import csv

from .graphs import Dag, GraphError, _as_int, _as_real, _nodes, _Record
from .random_graphs import _as_numpy

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


class SemModel(_Record):
    """Edge weights and per-node noise variances for a linear Gaussian SEM:
    graph, a Dag; weights, (i, j) -> weight of i -> j; variances, one per node."""

    def __init__(self, graph, weights, variances):
        self._set(graph=graph, weights=weights, variances=variances)


def draw_sem(g, rng, weight_range=DEFAULT_WEIGHT_RANGE, variance_range=DEFAULT_VARIANCE_RANGE):
    """Random weights (uniform on +-[lo, hi]) and variances for each node,
    drawn from the Stream rng: per edge of the Dag g in sorted order a
    magnitude and then a sign (negative when its uniform is at least 0.5),
    then the variances, all from one call for 2m + d uniforms. Each value is
    numpy's uniform(lo, hi), lo + (hi - lo) * u, of its u."""
    if not isinstance(g, Dag):
        raise GraphError("an SEM is drawn on a DAG")
    lo, hi = check_range("weight_range", weight_range)
    vlo, vhi = check_range("variance_range", variance_range)
    edges = sorted(g.edges)
    with _as_numpy(rng) as gen:
        u = gen.random(2 * len(edges) + g.d).tolist()
    weights = {
        e: (lo + (hi - lo) * mag) * (1.0 if sign < 0.5 else -1.0)
        for e, mag, sign in zip(edges, u[0::2], u[1::2])
    }
    variances = tuple(vlo + (vhi - vlo) * v for v in u[2 * len(edges):])
    return SemModel(g, weights, variances)


def simulate(model, n, rng):
    """n i.i.d. rows from the SEM, each node evaluated in topological order,
    the noise drawn from the Stream rng in one call: n values per node, the
    nodes in that order."""
    import numpy as np
    n = _as_int(n, "n", ValueError)
    if n < 1:
        raise ValueError("sample size must be at least 1")
    g = model.graph
    sd = np.sqrt(np.array(model.variances)[list(g._order)])
    with _as_numpy(rng) as gen:
        noise = gen.normal(0.0, sd[:, None], size=(g.d, n))
    data = np.zeros((n, g.d))
    for v, col in zip(g._order, noise):
        for p in _nodes(g._index[0][v]):
            col = col + model.weights[(p, v)] * data[:, p]
        data[:, v] = col
    return data


def to_csv(data, labels, path):
    """Write a data matrix as UTF-8 CSV with node labels as the header,
    quoted as the csv module quotes them (a label may hold a comma)."""
    import numpy as np
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(labels)
        np.savetxt(fh, data, delimiter=",")
