"""Labeled DAG/CPDAG types and the structural queries built on them.

Nodes are positional indices 0..d-1 internally; labels are only attached
for I/O. All functions here are pure and operate on immutable graphs.
Graphs are checked at the door and trusted inside: the public constructors
check every graph in one pass (_checked) and keep what the checks compute,
its skeleton and, for a Dag, its per-node parent and child bitmasks and its
topological order. Only the random samplers and dag_to_cpdag, which build
graphs from parts they already hold valid, skip the checks, through _built.
Both builds set fields in one place, _fill, and keep the same fields.
Queries read these and never rebuild them, and check nodes with _node.
An int bitmask is the one per-node form: bit u of a node's mask is set iff
u is one of its parents (children, neighbours). _index builds every mask
list from edge pairs, and _nodes lists a mask's nodes in ascending order.
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
Every record of the package, Dag and Cpdag and the configs and results of
the other modules, is a _Record, defined here as every module imports this
one first: immutable, compared by its `_fields` and copied with `_replace`.
Records are not dataclasses (dataclasses.fields and dataclasses.replace do
not apply), and no module imports dataclasses or typing: they were most of
a cold `import ncbench.cli`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import sys

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


class _Record:
    """The base of the package's records, each an immutable value whose
    fields are its __init__'s parameters, in order, as `_fields`. A record
    equals only a record of its own class with equal fields, hashes as the
    tuple of its fields, and shows them in its repr; `_replace(**changes)`
    builds a new one through __init__, so it is checked again. Each __init__
    sets its fields with object.__setattr__ (a graph's through _fill), never
    through the instance dict, whose creation would slow every later read."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()), **changes))


@functools.cache
def _default_labels(d):
    return tuple(f"X{i + 1}" for i in range(d))


def _index(edges, d):
    """The per-node bitmasks of directed `edges` over nodes 0..d-1, as the
    lists (parents, children): bit i of parents[j], and bit j of children[i],
    is set iff i -> j is an edge. Every per-node mask list is built here."""
    parents, children = [0] * d, [0] * d
    for i, j in edges:
        parents[j] |= 1 << i
        children[i] |= 1 << j
    return parents, children


def _nodes(mask):
    """The nodes of a bitmask, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _kahn(parents, children):
    """Kahn's topological sort over per-node parent and child masks: ready
    nodes start in ascending order and each node releases its children in
    ascending order. The order is shorter than len(parents) iff the graph
    has a cycle."""
    indeg = [pa.bit_count() for pa in parents]
    order = [v for v, n in enumerate(indeg) if n == 0]
    for v in order:  # order is also the FIFO queue: appended nodes come in turn
        for c in _nodes(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    return order


def is_acyclic(edges, d):
    """True iff the directed edges over nodes 0..d-1 admit a topological order."""
    d = _checked_d(d)
    return _acyclic([(_node(i, d), _node(j, d)) for i, j in edges], d)


def _acyclic(edges, d):
    """is_acyclic for pairs of ints already known to lie in 0..d-1."""
    return len(_kahn(*_index(edges, d))) == d


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


def max_edges(d):
    d = _as_int(d, "d", ValueError)
    if d < 0:
        raise ValueError(f"node count d={d} must be non-negative")
    return d * (d - 1) // 2


def _node(v, d):
    """v by the integer rule, checked to be a node of a graph over 0..d-1."""
    v = _as_int(v, "node")
    if not 0 <= v < d:
        raise GraphError(f"node index {v} out of range for d={d}")
    return v


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


def _checked(d, labels, directed, undirected=()):
    """The checks Dag and Cpdag share, setting nothing: d, the labels (None
    gives the defaults), then one walk over each edge set, after which the
    skeleton's size tells whether a pair came twice. Returns the parts _fill
    sets, (d, directed, skel, undirected, labels), skel and undirected canonical."""
    d = _checked_d(d)
    given = labels is not None
    labels = tuple(labels) if given else _default_labels(d)
    if (
        given and not all(isinstance(lab, str) for lab in labels)
        or len(labels) != d
        or len(set(labels)) != d
    ):
        raise GraphError("labels must be d distinct strings")
    skel = set()
    directed = _checked_pairs(directed, d, skel, False)
    n_directed = len(skel)
    undirected = _checked_pairs(undirected, d, skel, True)
    if n_directed != len(directed):
        raise GraphError("both orientations present for some pair")
    if len(skel) != n_directed + len(undirected):
        raise GraphError("pair appears both directed and undirected")
    return d, directed, frozenset(skel), undirected, labels


def _fill(g, d, directed, skel, undirected, labels):
    """Set g's fields from valid parts, the one place a graph's fields are
    set, and return g. A Dag also keeps its edges, its parent and child
    masks as tuples (a frozen graph hands out no list) and its Kahn order,
    short iff it has a cycle; a Cpdag keeps `undirected`."""
    object.__setattr__(g, "d", d)
    object.__setattr__(g, "labels", labels)
    object.__setattr__(g, "directed", directed)
    object.__setattr__(g, "_skeleton", skel)
    if isinstance(g, Dag):
        parents, children = _index(directed, d)
        object.__setattr__(g, "edges", directed)
        object.__setattr__(g, "_index", (tuple(parents), tuple(children)))
        object.__setattr__(g, "_order", tuple(_kahn(parents, children)))
    else:
        object.__setattr__(g, "undirected", undirected)
    return g


def _built(d, directed, skel, undirected=None, labels=None):
    """A graph from parts the package already holds valid, filled by _fill
    with no door check: the Dag with edges `directed` when `undirected` is
    None, else the Cpdag. The parts must be what _checked returns: d an int
    >= 1, `directed` int pairs in 0..d-1 (acyclic for a Dag), `undirected`
    canonical pairs, `skel` the canonical pairs of both with no pair twice,
    and labels d distinct strings or None for the defaults. Only graphs.py
    and random_graphs.py call it: a graph from a user or a file is checked."""
    g = object.__new__(Dag if undirected is None else Cpdag)
    return _fill(g, d, directed, skel, undirected, _default_labels(d) if labels is None else labels)


class Dag(_Record):
    """Directed acyclic graph over d labeled nodes.

    Shares Cpdag's edge view: `directed` is the same frozenset as `edges`,
    `undirected` is empty and `kind` is "dag".
    """

    undirected = frozenset()
    kind = "dag"

    def __init__(self, d, edges=frozenset(), labels=None):
        _fill(self, *_checked(d, labels, edges))
        if len(self._order) != self.d:
            raise GraphError("edge set contains a directed cycle")

    @property
    def m(self):
        return len(self.edges)

    def parents(self, v):
        return frozenset(_nodes(self._index[0][_node(v, self.d)]))

    def children(self, v):
        return frozenset(_nodes(self._index[1][_node(v, self.d)]))

    def descendants(self, v):
        """All nodes reachable from v by a directed path (excluding v)."""
        children = self._index[1]
        out = todo = children[_node(v, self.d)]
        while todo:
            u = todo.bit_length() - 1
            todo ^= 1 << u
            new = children[u] & ~out
            out |= new
            todo |= new
        return frozenset(_nodes(out))

    def topological_order(self):
        return list(self._order)


class Cpdag(_Record):
    """Partially directed graph: directed plus undirected edges, no mixed pairs.

    Ingested external outputs may be improper (not a valid equivalence-class
    representative); validity is only enforced where extensions are needed.
    """

    kind = "cpdag"

    def __init__(self, d, directed=frozenset(), undirected=frozenset(), labels=None):
        _fill(self, *_checked(d, labels, directed, undirected))

    @property
    def m(self):
        return len(self.directed) + len(self.undirected)


VStructure = collections.namedtuple("VStructure", "a c b")
VStructure.__doc__ = """Collider a -> b <- c with a, c non-adjacent; (a, c) in canonical order."""


def skeleton(g):
    """Unordered adjacent pairs of a Dag or Cpdag, as kept at construction."""
    return g._skeleton


def _colliders(directed, skel):
    """Yield (a, c, b) for each a -> b <- c in `directed` with a < c and
    (a, c) not in the skeleton `skel`."""
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
    i, j, *z = [_node(u, g.d) for u in (i, j, *z)]
    if i == j:
        raise GraphError("i and j must differ")
    if i in z or j in z:
        raise GraphError("endpoints may not be in the conditioning set")
    return not d_connected(*g._index, i, _mask(z), stop=j) >> j & 1


def _mask(nodes):
    """The bitmask of a collection of node indices: bit v set iff v is in it."""
    out = 0
    for v in nodes:
        out |= 1 << v
    return out


def d_connected(parents, children, source, z, stop=None):
    """The reach of `source` given z, as a bitmask of the nodes the ball
    visits: the source, and each node outside z iff an active path given z
    joins it to the source (nodes of z it touches are set too).

    `parents` and `children` are per-node bitmasks of a DAG (see _index),
    and z is the bitmask of the conditioning set, which must exclude
    `source`. Bayes-ball (Shachter 1998) over (node, arrival direction)
    states, one level of new states at a time: a node outside z passes the
    ball on to all its neighbours when it arrives from a child, and to its
    children when it arrives from a parent; a node in z bounces a ball from
    a parent back to its parents. A collider with a descendant in z is open
    through that bounce: the ball it passes down comes back up to it. With a
    node `stop`, the search ends after the first level that reaches it: bit
    `stop` is then set, and other bits may be missing from the full reach.
    """
    # up: entered via an edge out of the node (from a child);
    # down: entered via an edge into the node (from a parent).
    up = new_up = 1 << source
    down = new_down = 0
    goal = 0 if stop is None else 1 << stop
    while new_up | new_down:
        to_parents = to_children = 0
        senders = (new_up | new_down) & ~z  # the new states that go on to children
        while senders:
            v = senders.bit_length() - 1
            senders ^= 1 << v
            to_children |= children[v]
        senders = new_up & ~z | new_down & z  # and those that go on to parents
        while senders:
            v = senders.bit_length() - 1
            senders ^= 1 << v
            to_parents |= parents[v]
        new_up = to_parents & ~up
        new_down = to_children & ~down
        up |= new_up
        down |= new_down
        if (up | down) & goal:
            break
    return up | down


def _meek_close(d, skel, directed):
    """Close a set of directed orientations under the four Meek rules; only
    PC's orientation phase uses it (dag_to_cpdag and enumerate_extensions
    need no closure, see there).

    `skel` is a set of canonical (i < j) pairs and `directed` a set of (i, j)
    orientations; pairs in skel with neither orientation present are
    undirected. Returns the closed set. Each half-edge x - y is tested against
    R1 to R4 in turn, reading per-node parent, child and adjacency masks that
    grow as orientations are added.
    """
    directed = set(directed)
    pa, ch = _index(directed, d)
    adj = [p | c for p, c in zip(*_index(skel, d))]
    half_edges = [*skel, *((b, a) for a, b in skel)]
    changed = True
    while changed:
        changed = False
        for x, y in half_edges:
            open_x = adj[x] & ~pa[x] & ~ch[x]  # x's undirected neighbours
            if not open_x >> y & 1:
                continue
            pa_y, far_y = pa[y], ~adj[y] & ~(1 << y)  # far_y: neither y nor adjacent to it
            # R1: z -> x - y with z, y non-adjacent  =>  x -> y
            # (y -> x would create a new v-structure at x)
            # R2: x -> z -> y with x - y  =>  x -> y  (y -> x would be a cycle)
            orient = pa[x] & far_y or ch[x] & pa_y
            # R3: x - z1 -> y, x - z2 -> y, z1, z2 non-adjacent  =>  x -> y
            if not orient:
                pointing = open_x & pa_y
                orient = any(pointing & ~adj[z] & ~(1 << z) for z in _nodes(pointing))
            # R4: x ~ z1, z1 -> z2 -> y with z1, y non-adjacent  =>  x -> y
            if not orient:
                orient = any(ch[z] & pa_y for z in _nodes(adj[x] & far_y))
            if orient:
                directed.add((x, y))
                ch[x] |= 1 << y
                pa[y] |= 1 << x
                changed = True
    return directed


def dag_to_cpdag(g):
    """Completed partially directed graph of the Dag g's Markov equivalence
    class: its compelled edges stay directed, its reversible ones undirected."""
    if not isinstance(g, Dag):
        raise GraphError("dag_to_cpdag completes a Dag")
    position = [0] * g.d
    for k, v in enumerate(g._order):
        position[v] = k
    return _compelled(g.d, g.edges, position, g._skeleton, g.labels)


def _compelled(d, edges, position, skel, labels):
    """The CPDAG of the DAG over nodes 0..d-1 with directed `edges` and
    skeleton `skel`, built with no door check. position[v] is v's place in a
    topological order: a sampler hands over its draw's own rank, and
    dag_to_cpdag the rank in the kept order.

    Chickering's (1995) Find-Compelled, one pass over the order, on parent
    masks over positions, set straight from `position`: bit k of a node's
    mask is set iff its parent at position k, so the highest bit is the
    parent latest in the order. For each node y with parents, let x be that
    parent; every edge into x is labelled by then. A compelled w -> x with w
    not a parent of y compels every edge into y. Otherwise each such w -> y
    is compelled, and the rest of y's edges are compelled iff some parent of
    y other than x is not a parent of x, else reversible. The labels depend
    only on the equivalence class, so any topological order gives the same CPDAG.
    """
    parents = [0] * d
    for i, j in edges:
        parents[position[j]] |= 1 << position[i]
    compelled = [0] * d  # per position, the mask of its parents along compelled edges
    for y, pa_y in enumerate(parents):
        if pa_y:
            x = pa_y.bit_length() - 1
            c_x = compelled[x]
            compelled[y] = pa_y if c_x & ~pa_y or pa_y & ~parents[x] & ~(1 << x) else c_x
    directed, undirected = [], []
    for i, j in edges:
        if compelled[position[j]] >> position[i] & 1:
            directed.append((i, j))
        else:
            undirected.append((i, j) if i < j else (j, i))
    return _built(d, frozenset(directed), skel, frozenset(undirected), labels)


def enumerate_extensions(p, cap=SID_CAP):
    """_extensions' DAGs as a list of Dags, in its order and with its cap and errors."""
    edge_lists = (
        [(i, j) for j, pa in enumerate(ps) for i in _nodes(pa)] for ps in _extensions(p, cap)
    )
    return [Dag(p.d, edges, p.labels) for edges in edge_lists]


def _extensions(p, cap):
    """Yield the DAGs extending Cpdag p (same skeleton, all directed edges kept, acyclic, and
    no v-structure absent from p) as the search's own per-node parent bitmasks, changed on resume.

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
    pa = _index(p.directed, p.d)[0]
    adj = [a | b for a, b in zip(*_index(skeleton(p), p.d))]
    nb = [a | b for a, b in zip(*_index(p.undirected, p.d))]

    def allowed(a, b):  # no new v-structure at b, and b is not an ancestor of a
        if pa[b] & ~adj[a]:
            return False
        todo, seen = pa[a], 0  # a's ancestors still to walk, and those walked
        while todo and not todo >> b & 1:
            v = todo.bit_length() - 1
            seen |= 1 << v
            todo = (todo | pa[v]) & ~seen
        return not todo

    def unset(a, b):
        return not (pa[b] >> a & 1 or pa[a] >> b & 1)

    def orient(forced):  # add the forced orientations and what they force
        while forced:
            a, b = forced.pop()
            if pa[b] >> a & 1:
                continue
            if not allowed(a, b):
                return False
            pa[b] |= 1 << a
            trail.append((a, b))
            for u in (a, b):  # an open pair at u with one allowed side takes it
                for c in _nodes(nb[u]):
                    if unset(u, c):
                        options = [e for e in ((u, c), (c, u)) if allowed(*e)]
                        if not options:
                            return False
                        if len(options) == 1:
                            forced.append(options[0])
        return True

    def undo(n):
        for a, b in trail[n:]:
            pa[b] ^= 1 << a
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
