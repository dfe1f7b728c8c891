"""Reference PC algorithm: stable skeleton search, v-structure orientation
from separating sets, and Meek-rule closure.

The skeleton phase tests each (i, j, S) triple at most once; the v-structures
come from the graph core's collider scan over the skeleton's half-edges.

Two conditional-independence backends, with one contract: decide(plan, size)
takes a level's plan, a list of (i, j, sets), and returns for each pair the
index in `sets` of its first separating set, or -1 if it has none. The
d-separation oracle on a known DAG answers a pair the DAG joins with -1 and
the others from full reach sets, one search per (node, set) and level. The
Fisher-z test on Gaussian data decides a whole level in one numpy pass: one
stacked inverse gives every candidate's partial correlation, and each is
compared with the exact bounds of the correlations its p-value test accepts,
so it gives the answers of `_fisher_z_p(r) >= alpha` without a p-value per
triple.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import Cpdag, Dag, _as_int, _as_real, _colliders, _meek_close, d_connected


class CiTestError(RuntimeError):
    """Numerical failure inside a conditional-independence test."""


@dataclass(frozen=True)
class PcConfig:
    """alpha: the CI tests' level, in (0, 1). max_cond_size: the largest
    conditioning-set size tested, None for no limit, else a non-negative
    integer (0 runs the marginal tests only)."""

    alpha: float = 0.05
    max_cond_size: int | None = None

    def __post_init__(self):
        alpha = _as_real(self.alpha, "alpha")
        if not (0 < alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        object.__setattr__(self, "alpha", alpha)
        if self.max_cond_size is not None:
            size = _as_int(self.max_cond_size, "max_cond_size", ValueError)
            if size < 0:
                raise ValueError(
                    f"max_cond_size must be None or a non-negative integer, got {size}"
                )
            object.__setattr__(self, "max_cond_size", size)


def _fisher_z_p(r, n, size):
    """Two-sided p-value of a partial correlation r over `size` conditioning
    variables and n samples."""
    r = max(-1 + 1e-12, min(1 - 1e-12, r))
    stat = math.sqrt(n - size - 3) * abs(0.5 * math.log((1 + r) / (1 - r)))
    return math.erfc(stat / math.sqrt(2))


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _largest_accepted(n, size, alpha, sign):
    """The largest magnitude m with _fisher_z_p(sign * m) >= alpha: inf when
    every magnitude passes, -inf when none does.

    The p-value does not rise as |r| grows, so the accepted magnitudes are
    one run from 0. Non-negative doubles order as their bit patterns, so a
    bisection over the patterns in [0, 1] finds the end of the run exactly;
    beyond 1 - 1e-12 the clamp in _fisher_z_p makes p constant.
    """

    def accepted(bits):
        return _fisher_z_p(sign * _double(bits), n, size) >= alpha

    good, bad = 0, struct.unpack("<q", struct.pack("<d", 1.0))[0]
    if accepted(bad):
        return math.inf
    if not accepted(good):
        return -math.inf
    while bad - good > 1:
        mid = (good + bad) // 2
        if accepted(mid):
            good = mid
        else:
            bad = mid
    return _double(good)


# Kept for the life of the process: a study tests at the same few
# (n, |S|, alpha) in every replication.
@functools.cache
def _accept_bounds(n, size, alpha):
    """(lo, hi) such that _fisher_z_p(r, n, size) >= alpha exactly when
    lo <= r <= hi, for every finite r. Each side is searched on its own,
    since fl((1 + r) / (1 - r)) is not symmetric in r."""
    return (
        -_largest_accepted(n, size, alpha, -1.0),
        _largest_accepted(n, size, alpha, 1.0),
    )


def _accepted(r, n, size, alpha):
    """_fisher_z_p(r_k, n, size) >= alpha for each finite r_k of an array."""
    lo, hi = _accept_bounds(n, size, alpha)
    return (lo <= r) & (r <= hi)


def _check_sample_size(n, size):
    if n <= size + 3:
        raise CiTestError(f"need n > |z| + 3 (n={n}, |z|={size})")


def _singular_row(idx, sub):
    """The columns of the first matrix in a stack that cannot be inverted."""
    for row, m in zip(idx.tolist(), sub):
        try:
            np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return row
    return None


class FisherZTest:
    """Fisher-z tests on one dataset, its correlation matrix computed once.
    The partial correlation r of i, j given S comes from the inverse of the
    (|S|+2) correlation submatrix. A triple is independent when r lies within
    _accept_bounds, which is the answer of the p-value rule
    _fisher_z_p(r) >= alpha."""

    def __init__(self, data, alpha):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(
                f"data must be a 2-D array (n samples x d variables), got shape {data.shape}"
            )
        self.n, self.d = data.shape
        self.alpha = alpha
        self.corr = np.eye(self.d)
        finite = np.isfinite(data).all(axis=0)
        if not finite.all():
            raise CiTestError(f"non-finite data column {int(np.argmin(finite))}")
        if self.d < 2:
            return  # no pair to test
        _check_sample_size(self.n, 0)
        constant = np.flatnonzero(np.ptp(data, axis=0) == 0)
        if constant.size:
            raise CiTestError(f"constant data column {int(constant[0])}")
        self.corr = np.corrcoef(data, rowvar=False)

    def decide(self, plan, size):
        """Per pair of a level's plan, the index in its sets of its first
        separating set, or -1: plan is a list of (i, j, sets) with i < j, and
        sets a list of sorted tuples of `size` node indices."""
        _check_sample_size(self.n, size)
        counts = [len(sets) for _, _, sets in plan]
        total = sum(counts)
        rows = np.repeat(np.arange(len(plan)), counts)  # each candidate's pair
        pairs = np.array([(i, j) for i, j, _ in plan], dtype=np.intp)
        chain = itertools.chain.from_iterable
        conds = np.fromiter(chain(chain(sets for _, _, sets in plan)), np.intp, total * size)
        idx = np.hstack([pairs.take(rows, axis=0), conds.reshape(total, size)])
        sub = self.corr[idx[:, :, None], idx[:, None, :]]
        try:
            prec = np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise CiTestError(
                f"singular conditioning correlation for {_singular_row(idx, sub)}"
            ) from exc
        with np.errstate(invalid="ignore"):
            r = -prec[:, 0, 1] / np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
        finite = np.isfinite(r)
        if not finite.all():
            row = idx[int(np.argmin(finite))].tolist()
            raise CiTestError(f"undefined partial correlation for {row}")
        hits = _accepted(r, self.n, size, self.alpha).nonzero()[0]
        # The hits ascend: a pair's first is where their pair changes, and its
        # index in the pair's sets is its distance from the pair's first row.
        owner = rows[hits]
        first = hits[owner != np.concatenate(([-1], owner[:-1]))]
        out = np.full(len(plan), -1)
        out[rows[first]] = first - rows.searchsorted(rows[first])
        return out.tolist()


class OracleTest:
    """d-separation on a known DAG. A pair the DAG joins is never separated:
    -1, with no search. Any other pair is separated by S iff one endpoint is
    outside the other's reach given S, read from a per-call memo of full
    reach sets keyed by (node, S)."""

    def __init__(self, graph):
        self.graph = graph
        self.d = graph.d

    def decide(self, plan, size):
        """As FisherZTest.decide: a pair's sets are tried in order up to its
        first separating set, and each (node, set) is searched at most once."""
        parents, children = self.graph._index
        adjacent = self.graph._skeleton
        reach = {}

        def separated(i, j, s):
            if (i, s) in reach:
                return j not in reach[(i, s)]
            if (j, s) not in reach:
                # d_separated without its checks: the plan's nodes are in-range ints.
                reach[(j, s)] = d_connected(parents, children, j, frozenset(s))
            return i not in reach[(j, s)]

        return [
            -1 if (i, j) in adjacent
            else next((k for k, s in enumerate(sets) if separated(i, j, s)), -1)
            for i, j, sets in plan
        ]


def _skeleton_phase(test, d, max_cond_size):
    """Stable skeleton search: every test of a conditioning-set size level
    sees the neighbourhoods the level started with, so the result is
    independent of node ordering.

    Neighbourhoods are frozen for a level, so its candidate sets are known
    before any test runs. A pair's candidates are the sorted tuples that
    itertools.combinations yields from the sorted neighbour lists, first of
    i then of j, each distinct set kept once in order of first appearance;
    a triple names its pair, so no two pairs share one and no memo across
    pairs is needed. test.decide() gets the level's whole plan in one call and
    returns, per pair, the index of its separating set in its sets, or -1.
    """
    adj = {v: set(range(d)) - {v} for v in range(d)}
    sepsets = {}
    level = 0
    while True:
        if max_cond_size is not None and level > max_cond_size:
            break
        if all(len(adj[v]) - 1 < level for v in range(d)):
            break
        plan = [
            (i, j, list(dict.fromkeys(itertools.chain(
                itertools.combinations(sorted(adj[i] - {j}), level),
                itertools.combinations(sorted(adj[j] - {i}), level),
            ))))
            for i in range(d)
            for j in sorted(adj[i])
            if i < j
        ]
        for (i, j, sets), k in zip(plan, test.decide(plan, level)):
            if k >= 0:
                sepsets[(i, j)] = frozenset(sets[k])
                adj[i].discard(j)
                adj[j].discard(i)
        level += 1
    skel = frozenset((i, j) for i in range(d) for j in adj[i] if i < j)
    return skel, sepsets


def _orient_v_structures(skel, sepsets):
    """Orient each unshielded triple a - b - c whose middle node is outside
    sepsets[(a, c)]; conflicting orientations are dropped (left undirected).
    The collider scan over both orientations of every pair yields exactly
    these triples, each once with a < c."""
    votes = set()
    for a, c, b in _colliders(skel | {(j, i) for i, j in skel}, skel):
        if b not in sepsets[(a, c)]:
            votes.add((a, b))
            votes.add((c, b))
    # Conflict: both orientations requested for the same pair.
    return {(i, j) for i, j in votes if (j, i) not in votes}


def pc(data_or_graph, cfg=None):
    """Run PC; accepts a data matrix (Fisher-z) or a Dag (d-separation oracle).

    Returns the estimated Cpdag. The output may be an improper CPDAG on
    finite data; it is returned as-is.
    """
    cfg = cfg or PcConfig()
    if isinstance(data_or_graph, Dag):
        test = OracleTest(data_or_graph)
    else:
        test = FisherZTest(data_or_graph, cfg.alpha)
    d = test.d
    skel, sepsets = _skeleton_phase(test, d, cfg.max_cond_size)
    # No pair holds both orientations: the votes drop conflicts, and the Meek
    # rules orient only pairs with no orientation yet.
    directed = _meek_close(d, skel, _orient_v_structures(skel, sepsets))
    oriented = {(min(i, j), max(i, j)) for i, j in directed}
    return Cpdag(d, frozenset(directed), skel - oriented)
