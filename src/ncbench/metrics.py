"""Graph-comparison metrics: adjacency/orientation confusions, SHD,
v-structure recovery, and SID with bounds for CPDAG estimates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .graphs import (
    Cpdag,
    Dag,
    GraphError,
    d_connected,
    d_separated,
    enumerate_extensions,
    skeleton,
    v_structures,
)
from .hypergeom import METRICS, ConfusionCounts, MetricValue, metric_from_counts

# Direction conventions for negative-control comparisons.
SMALLER_IS_BETTER = frozenset({"shd", "sid_lower", "sid_upper"})

# Every name compute_metric evaluates.
METRIC_NAMES = frozenset(
    {"shd", "vstructure_recovery", "sid_lower", "sid_upper"}
    | {f"{kind}_{metric}" for kind in ("adjacency", "orientation") for metric in METRICS}
)


def check_metric_names(names):
    """Raise ValueError naming the first name compute_metric does not know."""
    for name in names:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")


@dataclass(frozen=True)
class SidBounds:
    lower: int
    upper: int
    exact: bool

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValueError("need 0 <= lower <= upper")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact bounds must coincide")


@dataclass(frozen=True)
class MetricReport:
    """Named metric values for one truth/estimate pair."""

    values: dict
    d: int
    m_true: int
    m_est: int
    truth_kind: str = "dag"
    est_kind: str = "dag"

    def __getitem__(self, name):
        return self.values[name]


def _check_pair(truth, est):
    if truth.d != est.d:
        raise GraphError(f"node count mismatch: {truth.d} vs {est.d}")
    if truth.labels != est.labels:
        raise GraphError("node label mismatch between truth and estimate")


def adjacency_confusion(truth, est):
    """Classify all d(d-1)/2 unordered pairs by skeleton membership."""
    _check_pair(truth, est)
    m_max = truth.d * (truth.d - 1) // 2
    skel_t = skeleton(truth)
    skel_e = skeleton(est)
    tp = len(skel_t & skel_e)
    fp = len(skel_e - skel_t)
    fn = len(skel_t - skel_e)
    return ConfusionCounts(tp, fp, fn, m_max - tp - fp - fn)


def _endpoint_marks(g, i, j):
    """Marks at (i, j)'s two endpoints: 'arrow' or 'tail' at i and at j."""
    directed = g.edges if isinstance(g, Dag) else g.directed
    if (i, j) in directed:
        return "tail", "arrow"
    if (j, i) in directed:
        return "arrow", "tail"
    return "tail", "tail"


def orientation_confusion(truth, est):
    """Endpoint classification over edges present in both skeletons.

    Arrowhead in both: TP; tail in both: TN; estimated arrowhead over a true
    tail: FP; estimated tail over a true arrowhead: FN. Undirected CPDAG
    edges contribute two tails.
    """
    _check_pair(truth, est)
    tp = fp = fn = tn = 0
    for i, j in skeleton(truth) & skeleton(est):
        marks_t = _endpoint_marks(truth, i, j)
        marks_e = _endpoint_marks(est, i, j)
        for mt, me in zip(marks_t, marks_e):
            if mt == "arrow" and me == "arrow":
                tp += 1
            elif mt == "tail" and me == "tail":
                tn += 1
            elif me == "arrow":
                fp += 1
            else:
                fn += 1
    return ConfusionCounts(tp, fp, fn, tn)


def _edge_type(g, pair):
    """None, 'undirected', or the ordered pair for a directed edge."""
    i, j = pair
    directed = g.edges if isinstance(g, Dag) else g.directed
    if (i, j) in directed:
        return (i, j)
    if (j, i) in directed:
        return (j, i)
    if not isinstance(g, Dag) and pair in g.undirected:
        return "undirected"
    return None


def shd(truth, est):
    """Structural Hamming distance: unit cost per addition, removal, or
    orientation mismatch (directed-vs-reversed or directed-vs-undirected)."""
    _check_pair(truth, est)
    dist = 0
    for pair in itertools.combinations(range(truth.d), 2):
        a = _edge_type(truth, pair)
        b = _edge_type(est, pair)
        if a != b:
            dist += 1
    return dist


def vstructure_recovery(truth, est):
    """Fraction of the truth's v-structures present in the estimate; 1 if none."""
    _check_pair(truth, est)
    vs_t = v_structures(truth)
    if not vs_t:
        return MetricValue("vstructure_recovery", 1.0)
    vs_e = v_structures(est)
    return MetricValue("vstructure_recovery", len(vs_t & vs_e) / len(vs_t))


def valid_adjustment(g, i, j, z):
    """Back-door-style validity of z for the effect of i on j in DAG g:
    no member of z is a descendant of i, and z blocks every back-door path
    (d-separation with i's outgoing edges removed)."""
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


def _sid_terms(truth):
    """Per-node SID term of `truth`: term(i, pa) counts the targets j != i
    whose effect from i is misjudged by adjusting for the estimated parents pa.

    Targets in pa are claimed to have no effect, which is wrong iff j is a
    descendant of i. For every other target this is valid_adjustment's rule:
    if pa holds a descendant of i, every such target counts; otherwise one
    Bayes-ball pass from i, in the truth without i's outgoing edges and given
    pa, counts the targets it reaches. Terms are memoized by (i, pa).
    """
    parents, children = truth._index
    desc = [truth.descendants(v) for v in range(truth.d)]
    memo = {}

    def term(i, pa):
        key = (i, pa)
        if key not in memo:
            wrong_null = len(pa & desc[i])
            if wrong_null:
                memo[key] = wrong_null + truth.d - 1 - len(pa)
            else:
                back_parents = list(parents)
                for c in children[i]:
                    back_parents[c] = tuple(p for p in parents[c] if p != i)
                back_children = list(children)
                back_children[i] = ()
                reached = d_connected(back_parents, back_children, i, pa)
                memo[key] = len(reached - pa) - 1  # i itself is in reached
        return memo[key]

    return term


def _sid_dag(term, est):
    """Ordered pairs (i, j) whose parent adjustment in the DAG `est` is invalid
    in the truth behind `term`."""
    return sum(term(i, est.parents(i)) for i in range(est.d))


def sid(truth, est, cap=10_000):
    """SID of the estimate against a true DAG; (min, max) over the estimate's
    equivalence class when the estimate is a CPDAG."""
    _check_pair(truth, est)
    term = _sid_terms(truth)
    if isinstance(est, Dag):
        value = _sid_dag(term, est)
        return SidBounds(value, value, True)
    values = [_sid_dag(term, ext) for ext in enumerate_extensions(est, cap)]
    return SidBounds(min(values), max(values), False)


def full_report(truth, est, include_sid=False, sid_cap=10_000):
    """All comparison metrics for one truth/estimate pair."""
    _check_pair(truth, est)
    values = {}
    adj = adjacency_confusion(truth, est)
    for metric in METRICS:
        values[f"adjacency_{metric}"] = metric_from_counts(metric, adj)
    ori = orientation_confusion(truth, est)
    for metric in ("precision", "recall"):
        mv = metric_from_counts(metric, ori)
        values[f"orientation_{metric}"] = MetricValue(f"orientation_{metric}", mv.value)
    values["shd"] = MetricValue("shd", float(shd(truth, est)))
    values["vstructure_recovery"] = vstructure_recovery(truth, est)
    if include_sid:
        bounds = sid(truth, est, sid_cap)
        values["sid_lower"] = MetricValue("sid_lower", float(bounds.lower))
        values["sid_upper"] = MetricValue("sid_upper", float(bounds.upper))
    return MetricReport(
        values=values,
        d=truth.d,
        m_true=len(skeleton(truth)),
        m_est=len(skeleton(est)),
        truth_kind="dag" if isinstance(truth, Dag) else "cpdag",
        est_kind="dag" if isinstance(est, Dag) else "cpdag",
    )


def compute_metric(name, truth, est, sid_cap=10_000):
    """Evaluate a single named metric (one of full_report's keys)."""
    if name == "shd":
        return MetricValue("shd", float(shd(truth, est)))
    if name == "vstructure_recovery":
        return vstructure_recovery(truth, est)
    if name.startswith("adjacency_"):
        mv = metric_from_counts(name.removeprefix("adjacency_"), adjacency_confusion(truth, est))
        return MetricValue(name, mv.value)
    if name.startswith("orientation_"):
        mv = metric_from_counts(name.removeprefix("orientation_"), orientation_confusion(truth, est))
        return MetricValue(name, mv.value)
    if name in ("sid_lower", "sid_upper"):
        bounds = sid(truth, est, sid_cap)
        return MetricValue(name, float(bounds.lower if name == "sid_lower" else bounds.upper))
    raise ValueError(f"unknown metric {name!r}")
