"""Labeled DAG/CPDAG types and the structural queries built on them.

Nodes are positional indices 0..d-1 internally; labels are only attached
for I/O. All functions here are pure and operate on immutable graphs.
Each graph is checked in one pass at construction, which keeps what the
checks compute: its skeleton and, for a Dag, its per-node parent and child
index and its topological order. Queries read these and never rebuild them.
Both graph kinds expose the same edge view: `directed` (for a Dag, the same
frozenset as `edges`), `undirected` (empty for a Dag) and `kind` ("dag" or
"cpdag"), so code that only reads edges never asks which kind it holds.
A graph's v-structures are computed on first request and kept with it.
A Dag is completed to its CPDAG by Chickering's compelled-edge labelling
(Chickering 1995, "A transformational characterization of equivalent
Bayesian network structures", UAI): one pass over the kept topological
order. The Meek rules close the partial orientations of PC and of
extension enumeration.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple


class GraphError(ValueError):
    """Invalid graph construction or query."""


class ExtensionCapExceeded(RuntimeError):
    """Equivalence class larger than the requested enumeration cap."""

    def __init__(self, cap):
        self.cap = cap
        super().__init__(
            f"equivalence class has more than {cap} consistent extensions; "
            "raise the cap or skip this graph"
        )


@functools.cache
def _default_labels(d):
    return tuple(f"X{i + 1}" for i in range(d))


def _check_nodes(d, nodes):
    for v in nodes:
        if not (0 <= v < d):
            raise GraphError(f"node index {v} out of range for d={d}")


def _kahn(children):
    """Kahn's topological sort over per-node child lists: ready nodes start in
    ascending order and each node releases its children in ascending order.
    The order is shorter than len(children) iff the graph has a cycle."""
    indeg = [0] * len(children)
    for cs in children:
        for c in cs:
            indeg[c] += 1
    order = [v for v, n in enumerate(indeg) if n == 0]
    for v in order:  # order is also the FIFO queue: appended nodes come in turn
        for c in sorted(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    return order


def is_acyclic(edges, d):
    """True iff the directed edges over nodes 0..d-1 admit a topological order."""
    _check_nodes(d, (v for e in edges for v in e))
    children = [[] for _ in range(d)]
    for i, j in edges:
        children[i].append(j)
    return len(_kahn(children)) == d


class _Graph:
    """What Dag and Cpdag keep beyond their dataclass fields, which alone
    decide eq, hash and repr."""

    @functools.cached_property
    def _v_structures(self):
        return frozenset(map(VStructure._make, _colliders(self.directed, self._skeleton)))


def _as_int(v, what):
    """v as an int if it is a Python or numpy integer (not a bool)."""
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise GraphError(f"{what} must be an integer, got {v!r}")


def _int_pairs(pairs):
    """`pairs` as a frozenset of int pairs; plain-int pairs pass unconverted."""
    return frozenset(
        (i, j) if type(i) is type(j) is int else (_as_int(i, "node"), _as_int(j, "node"))
        for i, j in pairs
    )


def _checked_edges(g, directed, undirected=frozenset()):
    """Normalize g's d, labels and edge sets in place after the checks Dag
    and Cpdag share, and set g._skeleton; returns (directed, undirected) as
    frozensets of int pairs, undirected pairs in canonical (i < j) order."""
    if type(g.d) is not int:
        object.__setattr__(g, "d", _as_int(g.d, "d"))
    if g.d < 1:
        raise GraphError("d must be positive")
    directed = _int_pairs(directed)
    undirected = frozenset((min(i, j), max(i, j)) for i, j in _int_pairs(undirected))
    labels = tuple(g.labels) if g.labels is not None else _default_labels(g.d)
    if len(labels) != g.d or len(set(labels)) != g.d:
        raise GraphError("labels must be d distinct strings")
    object.__setattr__(g, "labels", labels)
    _check_nodes(g.d, (v for e in itertools.chain(directed, undirected) for v in e))
    for i, j in itertools.chain(directed, undirected):
        if i == j:
            raise GraphError(f"self-loop at node {i}")
    pairs = frozenset((min(i, j), max(i, j)) for i, j in directed)
    if len(pairs) != len(directed):
        raise GraphError("both orientations present for some pair")
    if not pairs.isdisjoint(undirected):
        raise GraphError("pair appears both directed and undirected")
    object.__setattr__(g, "_skeleton", pairs | undirected)
    return directed, undirected


@dataclass(frozen=True)
class Dag(_Graph):
    """Directed acyclic graph over d labeled nodes.

    Shares Cpdag's edge view: `directed` is the same frozenset as `edges`,
    `undirected` is empty and `kind` is "dag".
    """

    d: int
    edges: frozenset = field(default_factory=frozenset)
    labels: tuple = None
    directed: frozenset = field(init=False, repr=False, compare=False)
    _skeleton: frozenset = field(init=False, repr=False, compare=False)
    _index: tuple = field(init=False, repr=False, compare=False)
    _order: tuple = field(init=False, repr=False, compare=False)

    undirected = frozenset()
    kind = "dag"

    def __post_init__(self):
        edges, _ = _checked_edges(self, self.edges)
        parents = [[] for _ in range(self.d)]
        children = [[] for _ in range(self.d)]
        for i, j in edges:
            parents[j].append(i)
            children[i].append(j)
        order = _kahn(children)
        if len(order) != self.d:
            raise GraphError("edge set contains a directed cycle")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "directed", edges)
        index = tuple(map(tuple, parents)), tuple(map(tuple, children))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_order", tuple(order))

    @property
    def m(self):
        return len(self.edges)

    def parents(self, v):
        return frozenset(self._index[0][v])

    def children(self, v):
        return frozenset(self._index[1][v])

    def descendants(self, v):
        """All nodes reachable from v by a directed path (excluding v)."""
        children = self._index[1]
        out = set()
        stack = [v]
        while stack:
            for c in children[stack.pop()]:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        out.discard(v)
        return frozenset(out)

    def topological_order(self):
        return list(self._order)


@dataclass(frozen=True)
class Cpdag(_Graph):
    """Partially directed graph: directed plus undirected edges, no mixed pairs.

    Ingested external outputs may be improper (not a valid equivalence-class
    representative); validity is only enforced where extensions are needed.
    """

    d: int
    directed: frozenset = field(default_factory=frozenset)
    undirected: frozenset = field(default_factory=frozenset)
    labels: tuple = None
    _skeleton: frozenset = field(init=False, repr=False, compare=False)

    kind = "cpdag"

    def __post_init__(self):
        directed, undirected = _checked_edges(self, self.directed, self.undirected)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)

    @property
    def m(self):
        return len(self.directed) + len(self.undirected)


class VStructure(NamedTuple):
    """Collider a -> b <- c with a, c non-adjacent; (a, c) in canonical order."""

    a: int
    c: int
    b: int


def skeleton(g):
    """Unordered adjacent pairs of a Dag or Cpdag, as kept at construction."""
    return g._skeleton


def _colliders(directed, skel):
    """Yield (a, c, b) for each a -> b <- c in `directed` with a < c and
    (a, c) not in the skeleton `skel`. Given both orientations of every pair
    in `skel`, it yields the unshielded triples a - b - c, as PC needs."""
    by_child = {}
    for i, j in directed:
        by_child.setdefault(j, []).append(i)
    for b, pars in by_child.items():
        for a, c in itertools.combinations(sorted(pars), 2):
            if (a, c) not in skel:
                yield a, c, b


def v_structures(g):
    """All v-structures of a Dag or Cpdag (only fully directed colliders
    count), computed on the first call and kept by the graph."""
    return g._v_structures


def d_separated(g, i, j, z):
    """True iff every path between i and j is blocked by z (standard d-separation)."""
    if not isinstance(g, Dag):
        raise GraphError("d-separation is defined on DAGs")
    z = frozenset(z)
    _check_nodes(g.d, [i, j])
    _check_nodes(g.d, z)
    if i == j:
        raise GraphError("i and j must differ")
    if i in z or j in z:
        raise GraphError("endpoints may not be in the conditioning set")
    parents, children = g._index
    return j not in d_connected(parents, children, i, z, stop=j)


def d_connected(parents, children, source, z, stop=None):
    """Nodes with an active path from `source` given z (source included).

    `parents` and `children` are per-node index sequences of a DAG; z must not
    contain `source`. Reachability search over (node, arrival-direction)
    states, Bayes-ball style. The search ends early, with a partial set, once
    it reaches `stop`.
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


def _meek_close(d, skel, directed):
    """Close a set of directed orientations under the four Meek rules; PC's
    orientation phase and enumerate_extensions use it (dag_to_cpdag needs no
    closure, see there).

    `skel` is a set of canonical (i < j) pairs and `directed` a set of (i, j)
    orientations; pairs in skel with neither orientation present are
    undirected. Returns the closed set. Each half-edge x - y is tested against
    R1 to R4 in turn, reading per-node parent, child and adjacency sets that
    grow as orientations are added.
    """
    directed = set(directed)
    adj = [set() for _ in range(d)]
    for a, b in skel:
        adj[a].add(b)
        adj[b].add(a)
    pa = [set() for _ in range(d)]
    ch = [set() for _ in range(d)]
    for i, j in directed:
        ch[i].add(j)
        pa[j].add(i)

    def und(i, j):
        return j in adj[i] and j not in ch[i] and j not in pa[i]

    half_edges = [(a, b) for (a, b) in skel] + [(b, a) for (a, b) in skel]
    changed = True
    while changed:
        changed = False
        for x, y in half_edges:
            if not und(x, y):
                continue
            adj_y, pa_y = adj[y], pa[y]
            # R1: z -> x - y with z, y non-adjacent  =>  x -> y
            # (y -> x would create a new v-structure at x)
            orient = any(z != y and z not in adj_y for z in pa[x])
            # R2: x -> z -> y with x - y  =>  x -> y  (y -> x would be a cycle)
            if not orient:
                orient = not ch[x].isdisjoint(pa_y)
            # R3: x - z1 -> y, x - z2 -> y, z1, z2 non-adjacent  =>  x -> y
            if not orient:
                pointing = [z for z in pa_y if und(x, z)]
                orient = any(
                    z2 not in adj[z1] for z1, z2 in itertools.combinations(pointing, 2)
                )
            # R4: x ~ z1, z1 -> z2 -> y with z1, y non-adjacent  =>  x -> y
            if not orient:
                orient = any(
                    z1 != y and z1 not in adj_y and not ch[z1].isdisjoint(pa_y)
                    for z1 in adj[x]
                )
            if orient:
                directed.add((x, y))
                ch[x].add(y)
                pa_y.add(x)
                changed = True
    return directed


def dag_to_cpdag(g):
    """Completed partially directed graph of the Dag g's Markov equivalence
    class: its compelled edges stay directed, its reversible ones undirected.

    Chickering's (1995) Find-Compelled, one pass over g's kept topological
    order. For each node y with parents, let x be the parent latest in that
    order; every edge into x is labelled by then. A compelled w -> x with w
    not a parent of y compels every edge into y. Otherwise each such w -> y
    is compelled, and the rest of y's edges are compelled iff some parent of
    y other than x is not a parent of x, else reversible.
    """
    if not isinstance(g, Dag):
        raise GraphError("dag_to_cpdag completes a Dag")
    parents = g._index[0]
    position = [0] * g.d
    for k, v in enumerate(g._order):
        position[v] = k
    compelled = [()] * g.d  # per node, its parents along compelled edges
    directed, undirected = [], []
    for y in g._order:
        pa_y = parents[y]
        if not pa_y:
            continue
        x = max(pa_y, key=position.__getitem__)
        pa_x = parents[x]
        compelled_y = []
        for w in compelled[x]:
            if w not in pa_y:
                compelled_y = pa_y
                break
            compelled_y.append(w)
        else:
            if any(z != x and z not in pa_x for z in pa_y):
                compelled_y = pa_y
        compelled[y] = compelled_y
        for z in pa_y:
            if z in compelled_y:
                directed.append((z, y))
            else:
                undirected.append((z, y) if z < y else (y, z))
    return Cpdag(g.d, frozenset(directed), frozenset(undirected), g.labels)


def enumerate_extensions(p, cap=10_000):
    """All DAGs extending Cpdag p: same skeleton, all directed edges kept,
    acyclic, and no v-structure absent from p.

    Backtracking over undirected pairs with Meek closure after each choice;
    raises ExtensionCapExceeded beyond `cap` results.
    """
    skel = skeleton(p)
    base_vs = set(_colliders(p.directed, skel))
    results = []

    def valid_partial(directed):
        # No directed cycle (2-cycles included), no new v-structure.
        return is_acyclic(directed, p.d) and base_vs.issuperset(
            _colliders(directed, skel)
        )

    def recurse(directed):
        undecided = [
            (i, j)
            for i, j in sorted(skel)
            if (i, j) not in directed and (j, i) not in directed
        ]
        if not undecided:
            dag = Dag(p.d, frozenset(directed), p.labels)
            results.append(dag)
            if len(results) > cap:
                raise ExtensionCapExceeded(cap)
            return
        i, j = undecided[0]
        for choice in ((i, j), (j, i)):
            trial = set(directed)
            trial.add(choice)
            trial = _meek_close(p.d, skel, trial)
            if valid_partial(trial):
                recurse(trial)

    start = _meek_close(p.d, skel, set(p.directed))
    if not valid_partial(start):
        raise GraphError("graph admits no consistent DAG extension")
    recurse(start)
    if not results:
        raise GraphError("graph admits no consistent DAG extension")
    return results


def with_labels(g, labels):
    """Same graph structure with a different label tuple; None gives the defaults."""
    return replace(g, labels=labels)


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
