"""Brute-force references the tests check the package against.

Each one computes a quantity the slow, direct way; the package computes it
faster and never calls these.
"""

import itertools
import math

import numpy as np

from ncbench.graphs import Dag, GraphError, _nodes, d_separated
from ncbench.pc import CiTestError, _check_sample_size, _fisher_z_p
from ncbench.sem import SemModel


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


def d_connected_sets(parents, children, source, z, stop=None):
    """Nodes with an active path from `source` given z (source included), by a
    depth-first Bayes-ball search over (node, arrival-direction) states held
    in sets; graphs.d_connected does the same over bitmasks.

    `parents` and `children` are per-node index sequences of a DAG and z a
    set of nodes that must not contain `source`. The search ends early, with
    a partial set, once it reaches `stop`.
    """
    # Nodes with a descendant (or themselves) in z: colliders open iff in this set.
    anc_of_z = set(z)
    stack = list(z)
    while stack:
        for p in parents[stack.pop()]:
            if p not in anc_of_z:
                anc_of_z.add(p)
                stack.append(p)

    # up: entered via an edge out of the node (from a child);
    # down: entered via an edge into the node (from a parent).
    up = {source}
    down = set()
    stack = [(source, True)]
    while stack:
        v, from_child = stack.pop()
        if from_child:
            if v in z:
                continue
            to_parents, to_children = parents[v], children[v]
        else:
            to_parents = parents[v] if v in anc_of_z else ()
            to_children = () if v in z else children[v]
        for p in to_parents:
            if p not in up:
                up.add(p)
                stack.append((p, True))
        for c in to_children:
            if c not in down:
                down.add(c)
                stack.append((c, False))
        if stop in up or stop in down:
            break
    return up | down


def level_plan_by_pair(adj, d, level):
    """The stable skeleton phase's plan of one level, built pair by pair: per
    pair i < j still adjacent in `adj`, the combinations of adj[i] - {j} and
    then of adj[j] - {i}, each distinct set kept once in order of first
    appearance."""
    return [
        (i, j, list(dict.fromkeys(itertools.chain(
            itertools.combinations(sorted(adj[i] - {j}), level),
            itertools.combinations(sorted(adj[j] - {i}), level),
        ))))
        for i in range(d)
        for j in sorted(adj[i])
        if i < j
    ]


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


def draw_sem_per_call(g, gen, weight_range, variance_range):
    """draw_sem one numpy call per value on a numpy Generator: per edge in
    sorted order uniform(lo, hi) for its magnitude and random() for its
    sign, then uniform(vlo, vhi) per node."""
    weights = {}
    for i, j in sorted(g.edges):
        mag = gen.uniform(*weight_range)
        sign = 1.0 if gen.random() < 0.5 else -1.0
        weights[(i, j)] = sign * mag
    variances = tuple(gen.uniform(*variance_range) for _ in range(g.d))
    return SemModel(g, weights, variances)


def simulate_per_call(model, n, gen):
    """simulate one numpy call per node on a numpy Generator: each node's n
    noise values drawn when the topological order reaches it."""
    g = model.graph
    data = np.zeros((n, g.d))
    for v in g._order:
        col = gen.normal(0.0, np.sqrt(model.variances[v]), size=n)
        for p in _nodes(g._index[0][v]):
            col = col + model.weights[(p, v)] * data[:, p]
        data[:, v] = col
    return data


def population_covariance(model):
    """Closed-form covariance implied by a SemModel's (weights, variances)."""
    d = model.graph.d
    w = np.zeros((d, d))
    for (i, j), wt in model.weights.items():
        w[i, j] = wt
    # x = W^T x + e  =>  cov = (I - W^T)^-1 D (I - W^T)^-T
    inv = np.linalg.inv(np.eye(d) - w.T)
    return inv @ np.diag(model.variances) @ inv.T


def with_labels(g, labels):
    """Same graph structure with a different label tuple, built through the
    checked constructor; None gives the defaults."""
    return g._replace(labels=labels)
