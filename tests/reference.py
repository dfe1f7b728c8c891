"""Brute-force references the tests check the package against.

Each one computes a quantity the slow, direct way; the package computes it
faster and never calls these.
"""

import itertools
import math

import numpy as np

from ncbench.graphs import Dag, GraphError, d_separated
from ncbench.pc import CiTestError, _check_sample_size, _fisher_z_p


def all_dags(d):
    """Every labeled DAG on d nodes (brute force; d <= 4 in practice)."""
    pairs = list(itertools.combinations(range(d), 2))
    out = []
    for states in itertools.product((None, 0, 1), repeat=len(pairs)):
        edges = set()
        for (i, j), s in zip(pairs, states):
            if s == 0:
                edges.add((i, j))
            elif s == 1:
                edges.add((j, i))
        try:
            out.append(Dag(d, frozenset(edges)))
        except GraphError:  # a directed cycle
            pass
    return out


def all_extensions(p):
    """The edge sets of every DAG extension of the partially directed p, by
    brute force: each orientation of p's undirected pairs is kept if it is
    acyclic and its colliders are exactly those of p's directed edges."""
    undirected = sorted(p.undirected)
    adjacent = {frozenset(e) for e in p.directed | p.undirected}

    def colliders(edges):  # a -> b <- c with a < c non-adjacent, over every triple
        return {
            (a, c, b)
            for a, c in itertools.combinations(range(p.d), 2)
            for b in range(p.d)
            if (a, b) in edges and (c, b) in edges and frozenset((a, c)) not in adjacent
        }

    base = colliders(p.directed)
    out = set()
    for flips in itertools.product((False, True), repeat=len(undirected)):
        edges = p.directed | {(j, i) if f else (i, j) for (i, j), f in zip(undirected, flips)}
        try:
            g = Dag(p.d, edges)
        except GraphError:  # a directed cycle
            continue
        if colliders(g.edges) == base:
            out.add(g.edges)
    return out


def valid_adjustment(g, i, j, z):
    """Back-door-style validity of z for the effect of i on j in DAG g:
    no member of z is a descendant of i, and z blocks every back-door path
    (d-separation with i's outgoing edges removed). SID counts the pairs
    for which an estimate's parent set fails this check."""
    z = frozenset(z)
    if i == j or i in z or j in z:
        raise GraphError("need distinct i, j not in the adjustment set")
    if z & g.descendants(i):
        return False
    backdoor = Dag(
        g.d,
        frozenset(e for e in g.edges if e[0] != i),
        g.labels,
    )
    return d_separated(backdoor, i, j, z)


def fisher_z_test(data, i, j, z):
    """Two-sided p-value for zero partial correlation of columns i, j given z.

    One test from the covariance of the columns involved; FisherZTest is the
    batched engine PC uses, and this is its reference.
    """
    z = sorted(z)
    n = data.shape[0]
    _check_sample_size(n, len(z))
    idx = [i, j] + z
    cov = np.cov(data[:, idx], rowvar=False)
    try:
        prec = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise CiTestError(f"singular conditioning covariance for {idx}") from exc
    r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
    return _fisher_z_p(r, n, len(z))


def per_call_decide(test, plan, size):
    """The decide contract asked one triple at a time: per pair of the plan,
    test.independent(i, j, frozenset(S)) for its sets in order, stopping at
    the first independent one; its index, or -1 if there is none."""
    return [
        next((k for k, s in enumerate(sets) if test.independent(i, j, frozenset(s))), -1)
        for i, j, sets in plan
    ]


def population_covariance(model):
    """Closed-form covariance implied by a SemModel's (weights, variances)."""
    d = model.graph.d
    w = np.zeros((d, d))
    for (i, j), wt in model.weights.items():
        w[i, j] = wt
    # x = W^T x + e  =>  cov = (I - W^T)^-1 D (I - W^T)^-T
    inv = np.linalg.inv(np.eye(d) - w.T)
    return inv @ np.diag(model.variances) @ inv.T
