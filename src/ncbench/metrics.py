"""Graph-comparison metrics: adjacency/orientation confusions, SHD,
v-structure recovery, and SID with bounds for CPDAG estimates."""

from __future__ import annotations

from .graphs import (
    SID_CAP,
    Dag,
    ExtensionCapExceeded,
    GraphError,
    _extensions,
    _index,
    _nodes,
    _Record,
    d_connected,
    max_edges,
    skeleton,
    v_structures,
)
from .hypergeom import _LINEAR, METRICS, ConfusionCounts, _from_counts

# Direction conventions for negative-control comparisons.
SMALLER_IS_BETTER = frozenset({"shd", "sid_lower", "sid_upper"})

# Every name full_report evaluates, in report order; the SID bounds come last.
_REPORT_NAMES = (
    *(f"{kind}_{metric}" for kind in ("adjacency", "orientation") for metric in METRICS),
    "shd",
    "vstructure_recovery",
)
_SID_NAMES = ("sid_lower", "sid_upper")
METRIC_NAMES = frozenset(_REPORT_NAMES + _SID_NAMES)


def check_metric_names(names):
    """Raise ValueError naming the first name full_report does not know, or
    else the first name given twice."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or name not in METRIC_NAMES:
            known = ", ".join(sorted(METRIC_NAMES))
            raise ValueError(f"unknown metric {name!r}; metrics are {known}")
        if name in seen:
            raise ValueError(f"metric {name!r} is repeated; metrics must be distinct")
        seen.add(name)


class SidBounds(_Record):
    def __init__(self, lower, upper, exact):
        if not (0 <= lower <= upper):
            raise ValueError("need 0 <= lower <= upper")
        if exact and lower != upper:
            raise ValueError("exact bounds must coincide")
        self._set(lower=lower, upper=upper, exact=exact)


class MetricValue(_Record):
    """Named metric result; value None means MISSING (undefined)."""

    def __init__(self, name, value):
        self._set(name=name, value=value)


class MetricReport(_Record):
    """full_report's MetricValues for one truth/estimate pair, by name."""

    def __init__(self, values):
        self._set(values=values)

    def __getitem__(self, name):
        return self.values[name]


def _check_pair(truth, est):
    """The same node count and labels; each door checks its pair once."""
    if truth.d != est.d:
        raise GraphError(f"node count mismatch: {truth.d} vs {est.d}")
    if truth.labels != est.labels:
        raise GraphError("node label mismatch between truth and estimate")


def _compare_pairs(truth, est):
    """(adjacency counts, orientation counts, SHD), each count a TP, FP, FN,
    TN quadruple of ints, from set algebra on the skeletons and edge sets.

    On a pair adjacent in both skeletons a graph puts one arrowhead, or none
    when it leaves the pair undirected, and the two graphs' arrowheads meet
    exactly on the edges they direct alike. A pair adjacent in one skeleton
    only costs SHD one unit; a pair adjacent in both costs one unit unless
    both direct it alike or both leave it undirected.
    """
    skel_t, skel_e = skeleton(truth), skeleton(est)
    tp = len(skel_t & skel_e)
    fp, fn = len(skel_e) - tp, len(skel_t) - tp
    alike = len(truth.directed & est.directed)
    heads_t = tp - len(truth.undirected & skel_e)
    heads_e = tp - len(est.undirected & skel_t)
    orientation = (alike, heads_e - alike, heads_t - alike, 2 * tp - heads_t - heads_e + alike)
    distance = fp + fn + tp - alike - len(truth.undirected & est.undirected)
    return (tp, fp, fn, max_edges(truth.d) - tp - fp - fn), orientation, distance


def adjacency_confusion(truth, est):
    """Classify all d(d-1)/2 unordered pairs by skeleton membership."""
    _check_pair(truth, est)
    return ConfusionCounts(*_compare_pairs(truth, est)[0])


def orientation_confusion(truth, est):
    """Endpoint classification over edges present in both skeletons.

    Arrowhead in both: TP; tail in both: TN; estimated arrowhead over a true
    tail: FP; estimated tail over a true arrowhead: FN. Undirected CPDAG
    edges contribute two tails.
    """
    _check_pair(truth, est)
    return ConfusionCounts(*_compare_pairs(truth, est)[1])


def shd(truth, est):
    """Structural Hamming distance: unit cost per addition, removal, or
    orientation mismatch (directed-vs-reversed or directed-vs-undirected)."""
    _check_pair(truth, est)
    return _compare_pairs(truth, est)[2]


def vstructure_recovery(truth, est):
    """Fraction of the truth's v-structures present in the estimate; 1 if none.
    A true a -> b <- c is present iff the estimate directs both edges into b
    and leaves a and c non-adjacent."""
    _check_pair(truth, est)
    return _recovered(v_structures(truth), est)


def _recovered(vs_t, est):
    """vstructure_recovery's value, given the truth's v-structures vs_t."""
    if not vs_t:
        return 1.0
    arrows, skel = est.directed, skeleton(est)
    found = sum((a, b) in arrows and (c, b) in arrows and (a, c) not in skel for a, c, b in vs_t)
    return found / len(vs_t)


def _sid_terms(truth):
    """Per-node SID term of `truth`: term(i, pa) counts the targets j != i
    whose effect from i is misjudged by adjusting for the parent bitmask pa.

    Targets in pa are claimed to have no effect, which is wrong iff j is a
    descendant of i. Every other target counts unless pa is a valid
    adjustment set for it (no descendant of i, and it blocks every back-door
    path): if pa holds a descendant of i, every such target counts; otherwise
    one Bayes-ball pass from i, in the truth without i's outgoing edges and
    given pa, counts the targets it reaches. Clearing children[i] is that
    whole edit: a ball coming back to i from a child, along the truth's own
    parent masks, finds i's up state set at the start and adds no state.
    Terms are memoized by (i, pa).
    """
    parents, children = truth._index
    desc = [0] * truth.d  # bit v of desc[i] iff v is a proper descendant of i
    for v in reversed(truth._order):
        for c in _nodes(children[v]):
            desc[v] |= desc[c] | 1 << c
    memo = {}

    def term(i, pa):
        key = (i, pa)
        if key not in memo:
            wrong_null = (pa & desc[i]).bit_count()
            if wrong_null:
                memo[key] = wrong_null + truth.d - 1 - pa.bit_count()
            else:
                back_children = list(children)
                back_children[i] = 0
                reached = d_connected(parents, back_children, i, pa)
                memo[key] = (reached & ~pa).bit_count() - 1  # i itself is in reached
        return memo[key]

    return term


def _check_sid_truth(truth):
    if not isinstance(truth, Dag):
        raise GraphError("SID is defined against a true DAG")


def sid(truth, est, cap=SID_CAP):
    """SID of the estimate against a true DAG; (min, max) over the parent sets
    of the estimate's DAG extensions when the estimate is a CPDAG."""
    _check_sid_truth(truth)
    _check_pair(truth, est)
    return _sid_bounds(_sid_terms(truth), est, cap)


def _sid_bounds(term, est, cap):
    """sid's bounds from the truth's term memo. A node with no undirected
    pair keeps its directed parents in every extension, so its terms are
    summed once; each extension rescores only the undirected pairs' ends."""
    parents = _index(est.directed, est.d)[0]
    free = {v for pair in est.undirected for v in pair}
    fixed = sum(term(i, pa) for i, pa in enumerate(parents) if i not in free)
    extensions = [parents] if isinstance(est, Dag) else _extensions(est, cap)
    values = [fixed + sum(term(i, pas[i]) for i in free) for pas in extensions]
    return SidBounds(min(values), max(values), isinstance(est, Dag))


def full_report(truth, est, metrics=None, sid_cap=SID_CAP):
    """Named metric values for one truth/estimate pair, each computed once.

    `metrics` lists the names to report; the default is every name except the
    SID bounds, which a caller requests by name. Both confusion tables and SHD
    come from one pass over the skeletons, and sid() runs at most once for
    both bounds. When the estimate has no DAG extension, or more than sid_cap of
    them, the SID values are MISSING and every other value is kept; SID
    requested against a truth that is not a DAG raises GraphError.
    """
    score = _scorer(truth, _REPORT_NAMES if metrics is None else tuple(metrics), sid_cap)
    _check_pair(truth, est)
    return MetricReport({name: MetricValue(name, value) for name, value in score(est).items()})


def _scorer(truth, names, sid_cap):
    """score(est, names=names): full_report(truth, est, names, sid_cap)'s
    values as {name: float, or None when MISSING}, for the tuple `names` or a
    subset of them, in the order given. Planned once per truth, here: the
    name check, what each name reads (adjacency or orientation counts with
    the metric's _LINEAR entry, SHD, v-structure recovery or a SID bound),
    the SID truth check, the truth's v-structures and its SID term memo. A
    score counts the pair once, in ints, read through hypergeom._from_counts.
    score checks no pair: the caller checks an estimate from outside once,
    and a draw over the truth's d nodes needs none."""
    check_metric_names(names)
    plan = {}
    for name in names:
        kind, _, metric = name.partition("_")
        plan[name] = kind, _LINEAR.get(metric)
    vs_t = v_structures(truth) if "vstructure_recovery" in names else None
    term = None
    if any(name in _SID_NAMES for name in names):
        _check_sid_truth(truth)  # a caller's error, never a MISSING value
        term = _sid_terms(truth)

    def score(est, names=names):
        adjacency, orientation, distance = _compare_pairs(truth, est)
        bounds = None
        if term is not None and any(name in _SID_NAMES for name in names):
            try:
                bounds = _sid_bounds(term, est, sid_cap)
            except (GraphError, ExtensionCapExceeded):
                pass
        values = {}
        for name in names:
            kind, linear = plan[name]
            if linear is not None:
                value = _from_counts(linear, *(adjacency if kind == "adjacency" else orientation))
            elif kind == "shd":
                value = float(distance)
            elif kind == "vstructure":
                value = _recovered(vs_t, est)
            elif bounds is None:
                value = None
            else:
                value = float(bounds.lower if name == "sid_lower" else bounds.upper)
            values[name] = value
        return values

    return score
