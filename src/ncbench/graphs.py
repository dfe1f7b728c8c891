"""Labeled DAG/CPDAG types and the structural queries built on them.

Nodes are positional indices 0..d-1 internally; labels are only attached
for I/O. All functions here are pure and operate on immutable graphs.
Graphs are checked at the door and trusted inside: the public constructors
check every graph in one pass and keep what the checks compute, its
skeleton and, for a Dag, its per-node parent and child index and its
topological order. Only the random samplers and dag_to_cpdag, which build
graphs from parts they already hold valid, skip the checks, through _built,
which keeps the same fields. Queries read these and never rebuild them.
Both graph kinds expose the same edge view: `directed` (for a Dag, the same
frozenset as `edges`), `undirected` (empty for a Dag) and `kind` ("dag" or
"cpdag"), so code that only reads edges never asks which kind it holds.
A graph keeps nothing else: its v-structures are computed on each request.
A Dag is completed to its CPDAG by Chickering's compelled-edge labelling
(Chickering 1995, "A transformational characterization of equivalent
Bayesian network structures", UAI): one pass over a topological order,
the kept one or a sampler's own. The Meek rules close PC's partial
orientations only; extensions are enumerated with two local checks per
orientation, propagated to the open pairs at each new edge's ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import NamedTuple

SID_CAP = 10_000  # the default extension cap of every SID computation


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
    d = _checked_d(d)
    edges = [(_as_int(i, "node"), _as_int(j, "node")) for i, j in edges]
    _check_nodes(d, (v for e in edges for v in e))
    return _acyclic(edges, d)


def _acyclic(edges, d):
    """is_acyclic for pairs of ints already known to lie in 0..d-1."""
    children = [[] for _ in range(d)]
    for i, j in edges:
        children[i].append(j)
    return len(_kahn(children)) == d


def _as_int(v, what, error=GraphError):
    """The package's integer rule: v as an int if it is a Python or numpy integer
    (not a bool), else `error` naming `what`, GraphError for graph inputs."""
    if type(v) is int:
        return v
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise error(f"{what} must be an integer, got {v!r}")


def _as_real(v, what):
    """The package's real-number rule: v if it is a finite int or float (not a
    bool), any other finite real (a numpy float, say) as a float, else
    ValueError naming `what`. Kept values are JSON-ready."""
    number = v
    if type(v) is not float and type(v) is not int:
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            raise ValueError(f"{what} must be a number, got {v!r}")
        try:
            number = float(v)
        except OverflowError:  # a Fraction past float range
            number = math.inf
    # json.load reads Infinity, NaN, 1e999 (as inf) and integers past float
    # range; NaN fails the comparison, and no int is converted to a float.
    if not abs(number) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return number


def _checked_d(d):
    """d by the integer rule, and at least 1."""
    d = _as_int(d, "d")
    if d < 1:
        raise GraphError("d must be positive")
    return d


def _checked_pairs(edges, d, skel, canonical):
    """One pass over an edge set: each edge is converted by the integer rule
    (plain-int pairs pass unconverted), range-checked and rejected if it is
    a self-loop, and its canonical (i < j) pair is added to the set `skel`.
    Returns the edges as a frozenset of int pairs, canonical if asked."""
    out = set()
    for i, j in edges:
        if type(i) is not int or type(j) is not int:
            i, j = _as_int(i, "node"), _as_int(j, "node")
        if not (0 <= i < d and 0 <= j < d):
            raise GraphError(f"node index {j if 0 <= i < d else i} out of range for d={d}")
        if i == j:
            raise GraphError(f"self-loop at node {i}")
        pair = (i, j) if i < j else (j, i)
        skel.add(pair)
        out.add(pair if canonical else (i, j))
    return frozenset(out)


def _checked_edges(g, directed, undirected=frozenset()):
    """Normalize g's d, labels and edge sets in place after the checks Dag
    and Cpdag share, and set g._skeleton; returns (directed, undirected) as
    frozensets of int pairs, undirected pairs in canonical (i < j) order.
    Each edge set is walked once; the skeleton's size then tells whether a
    pair came in both orientations or both directed and undirected."""
    d = _checked_d(g.d)
    if d is not g.d:
        object.__setattr__(g, "d", d)
    labels = tuple(g.labels) if g.labels is not None else _default_labels(g.d)
    if len(labels) != g.d or len(set(labels)) != g.d:
        raise GraphError("labels must be d distinct strings")
    object.__setattr__(g, "labels", labels)
    skel = set()
    directed = _checked_pairs(directed, g.d, skel, False)
    n_directed = len(skel)
    undirected = _checked_pairs(undirected, g.d, skel, True)
    if n_directed != len(directed):
        raise GraphError("both orientations present for some pair")
    if len(skel) != n_directed + len(undirected):
        raise GraphError("pair appears both directed and undirected")
    object.__setattr__(g, "_skeleton", frozenset(skel))
    return directed, undirected


def _set_index(g):
    """Set Dag g's per-node parent and child index, each ascending, and its
    Kahn order, all read from g.edges; the order is short iff g has a cycle."""
    parents = [[] for _ in range(g.d)]
    children = [[] for _ in range(g.d)]
    for i, j in sorted(g.edges):
        parents[j].append(i)
        children[i].append(j)
    object.__setattr__(g, "_index", (tuple(map(tuple, parents)), tuple(map(tuple, children))))
    object.__setattr__(g, "_order", tuple(_kahn(children)))


def _built(d, directed, skel, undirected=None, labels=None):
    """A graph from parts the package already holds valid, its fields set
    directly with no door check: the Dag with edges `directed` when
    `undirected` is None, indexed as its constructor indexes it, else the
    Cpdag. The parts must be what the constructor keeps: d an int >= 1,
    `directed` int pairs in 0..d-1 (acyclic for a Dag), `undirected`
    canonical pairs, `skel` the canonical pairs of both with no pair twice,
    and labels d distinct strings or None for the defaults. Only graphs.py
    and random_graphs.py call it: a graph from a user or a file is checked."""
    g = object.__new__(Dag if undirected is None else Cpdag)
    object.__setattr__(g, "d", d)
    object.__setattr__(g, "labels", _default_labels(d) if labels is None else labels)
    object.__setattr__(g, "directed", directed)
    object.__setattr__(g, "_skeleton", skel)
    if undirected is None:
        object.__setattr__(g, "edges", directed)
        _set_index(g)
    else:
        object.__setattr__(g, "undirected", undirected)
    return g


@dataclass(frozen=True)
class Dag:
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
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "directed", edges)
        _set_index(self)
        if len(self._order) != self.d:
            raise GraphError("edge set contains a directed cycle")

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
class Cpdag:
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
    count), computed from its edges and kept skeleton on each call."""
    return frozenset(map(VStructure._make, _colliders(g.directed, g._skeleton)))


def d_separated(g, i, j, z):
    """True iff every path between i and j is blocked by z (standard d-separation)."""
    if not isinstance(g, Dag):
        raise GraphError("d-separation is defined on DAGs")
    i, j, *z = [_as_int(u, "node") for u in (i, j, *z)]
    _check_nodes(g.d, (i, j, *z))
    z = frozenset(z)
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
    """Close a set of directed orientations under the four Meek rules; only
    PC's orientation phase uses it (dag_to_cpdag and enumerate_extensions
    need no closure, see there).

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
    class: its compelled edges stay directed, its reversible ones undirected."""
    if not isinstance(g, Dag):
        raise GraphError("dag_to_cpdag completes a Dag")
    return _compelled(g.d, g._index[0], g._order, g._skeleton, g.labels)


def _compelled(d, parents, order, skel, labels):
    """The CPDAG of the DAG over nodes 0..d-1 with per-node `parents`,
    topological `order` and skeleton `skel`, built with no door check.

    Chickering's (1995) Find-Compelled, one pass over `order`. For each node
    y with parents, let x be the parent latest in that order; every edge
    into x is labelled by then. A compelled w -> x with w not a parent of y
    compels every edge into y. Otherwise each such w -> y is compelled, and
    the rest of y's edges are compelled iff some parent of y other than x is
    not a parent of x, else reversible. The labels depend only on the
    equivalence class, so any topological order gives the same CPDAG.
    """
    position = [0] * d
    for k, v in enumerate(order):
        position[v] = k
    compelled = [()] * d  # per node, its parents along compelled edges
    directed, undirected = [], []
    for y in order:
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
    return _built(d, frozenset(directed), skel, frozenset(undirected), labels)


def enumerate_extensions(p, cap=SID_CAP):
    """_extensions' DAGs as a list of Dags, in its order and with its cap and errors."""
    edge_lists = ([(i, j) for j, pa in enumerate(ps) for i in pa] for ps in _extensions(p, cap))
    return [Dag(p.d, edges, p.labels) for edges in edge_lists]


def _extensions(p, cap):
    """Yield the DAGs extending Cpdag p (same skeleton, all directed edges kept, acyclic, and
    no v-structure absent from p) as the search's own per-node parent sets, changed on resume.

    a -> b is allowed while every parent of b is adjacent to a (no new
    v-structure) and b is not an ancestor of a (no cycle); more edges undo
    neither fault. Each added edge rechecks the open pairs at its two ends:
    one with no allowed side is a fault, one with one side takes it. At the
    start, each open pair at a node with a parent is tried both ways until
    no try faults, a pair with one faulting side taking the other; as the
    Meek rules force no side whose opposite passes this, p fails here if its
    Meek closure does. Then, depth-first on an explicit stack, the first
    open pair (i, j) in sorted order is tried as i -> j, then j -> i. More
    than `cap` extensions, or (cap + 1) * (pairs + 1) settled states, raise
    ExtensionCapExceeded; a cap that is not an integer >= 1 raises ValueError.
    """
    cap = _as_int(cap, "cap", ValueError)
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if not _acyclic(p.directed, p.d):
        raise GraphError("graph admits no consistent DAG extension")
    skel = skeleton(p)
    pa, nb = [set() for _ in range(p.d)], [set() for _ in range(p.d)]
    for i, j in p.directed:
        pa[j].add(i)
    for i, j in p.undirected:
        nb[i].add(j)
        nb[j].add(i)

    def allowed(a, b):  # no new v-structure at b, and b is not an ancestor of a
        if any((a, c) not in skel and (c, a) not in skel for c in pa[b]):
            return False
        ancestors, stack = set(), [a]
        while stack:
            new = pa[stack.pop()] - ancestors
            ancestors |= new
            stack += new
        return b not in ancestors

    def unset(a, b):
        return a not in pa[b] and b not in pa[a]

    def orient(forced):  # add the forced orientations and what they force
        while forced:
            a, b = forced.pop()
            if a in pa[b]:
                continue
            if not allowed(a, b):
                return False
            pa[b].add(a)
            trail.append((a, b))
            for u in (a, b):  # an open pair at u with one allowed side takes it
                for c in nb[u]:
                    if unset(u, c):
                        options = [e for e in ((u, c), (c, u)) if allowed(*e)]
                        if not options:
                            return False
                        if len(options) == 1:
                            forced.append(options[0])
        return True

    def undo(n):
        for a, b in trail[n:]:
            pa[b].remove(a)
        del trail[n:]

    def faults(e):
        n = len(trail)
        fault = not orient([e])
        undo(n)
        return fault

    undirected, trail, ok = sorted(p.undirected), [], True
    while ok:  # R3 and R4 orient only pairs at a node with a parent
        tried = [(i, j) for i, j in undirected if unset(i, j) and (pa[i] or pa[j])]
        forced = [e for i, j in tried for e in ((i, j), (j, i)) if faults(e[::-1])]
        if not forced:
            break
        ok = orient(forced)
    if not ok:
        raise GraphError("graph admits no consistent DAG extension")
    count, stack, budget = 0, [(len(trail), 0, None)], (cap + 1) * (len(undirected) + 1)
    while stack:
        n, k, e = stack.pop()  # undo to the trail's length n, then orient e
        undo(n)
        if e and not orient([e]):
            continue
        budget -= 1
        if budget < 0:
            raise ExtensionCapExceeded(cap)
        while k < len(undirected) and not unset(*undirected[k]):
            k += 1
        if k == len(undirected):
            count += 1
            if count > cap:
                raise ExtensionCapExceeded(cap)
            yield pa
        else:
            i, j = undirected[k]
            stack += [(len(trail), k, (j, i)), (len(trail), k, (i, j))]
    if not count:
        raise GraphError("graph admits no consistent DAG extension")


def with_labels(g, labels):
    """Same graph structure with a different label tuple; None gives the defaults."""
    return replace(g, labels=labels)
