"""Reference PC algorithm: stable skeleton search, v-structure orientation
from separating sets, and Meek-rule closure.

Neighbourhoods and separating sets are the graph core's int bitmasks. The
skeleton phase tests each (i, j, S) triple at most once; a level's plan
filters per-node lists of combinations, each node's listed once, and the
v-structure scan reads each node's pairs of neighbours with bit tests.

Two conditional-independence backends, with one contract: decide(plan, size)
takes a level's plan, a list of (i, j, sets), and returns for each pair the
index in `sets` of its first separating set, or -1 if it has none. The
d-separation oracle on a known DAG answers a pair the DAG joins with -1 and
the others from full reach bitmasks of the graph core's Bayes-ball search,
one search per (node, set) and level, over the DAG's own parent and child
masks. The Fisher-z test on Gaussian data decides a whole level in one numpy
pass: eliminating the conditioning nodes from every candidate's correlation
submatrix at once gives its partial correlation, and each is compared with
the exact bounds of the correlations its p-value test accepts, so it gives
the answers of `_fisher_z_p(r) >= alpha` without a p-value per triple. The
stacked inverse of the submatrices is the referee: it decides a level, and
raises its errors, when elimination cannot vouch for a row (a pivot under
1e-6, 1 - r^2 under 1e-8, a non-finite r, or an r within 1e-9 of a bound).
"""

from __future__ import annotations

import functools
import itertools
import math
import struct

from .graphs import (
    Cpdag, Dag, _as_int, _as_real, _mask, _meek_close, _nodes, _Record, d_connected
)


class CiTestError(RuntimeError):
    """Numerical failure inside a conditional-independence test."""


class PcConfig(_Record):
    """alpha: the CI tests' level, in (0, 1). max_cond_size: the largest
    conditioning-set size tested, None for no limit, else a non-negative
    integer (0 runs the marginal tests only)."""

    def __init__(self, alpha=0.05, max_cond_size=None):
        alpha = _as_real(alpha, "alpha")
        if not (0 < alpha < 1):
            raise ValueError("alpha must be in (0, 1)")
        object.__setattr__(self, "alpha", alpha)
        if max_cond_size is not None:
            max_cond_size = _as_int(max_cond_size, "max_cond_size", ValueError)
            if max_cond_size < 0:
                raise ValueError(
                    f"max_cond_size must be None or a non-negative integer, got {max_cond_size}"
                )
        object.__setattr__(self, "max_cond_size", max_cond_size)


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
    import numpy as np
    for row, m in zip(idx.tolist(), sub):
        try:
            np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return row
    return None


# The floors under which elimination cannot vouch for a row (see FisherZTest).
_PIVOT_FLOOR = 1e-6
_DET_FLOOR = 1e-8
_BAND = 1e-9


def _eliminated(sub, size, lo, hi):
    """The partial correlation of each stacked submatrix's first two nodes
    given the other `size`, by eliminating those from the last on, one
    batched Schur complement per node; None when a row has a pivot (a[0, 0]
    and a[1, 1] of the final 2 x 2 included) under _PIVOT_FLOOR, 1 - r^2
    under _DET_FLOOR, or an r within _BAND of lo or hi. Each test is False on
    NaN, so a non-finite r is refused too."""
    import numpy as np
    a = sub
    for _ in range(size):
        pivot = a[:, -1:, -1:]
        if not (pivot >= _PIVOT_FLOOR).all():
            return None
        a = a[:, :-1, :-1] - a[:, :-1, -1:] * (a[:, -1:, :-1] / pivot)
    a00, a11 = a[:, 0, 0], a[:, 1, 1]
    if not ((a00 >= _PIVOT_FLOOR).all() and (a11 >= _PIVOT_FLOOR).all()):
        return None
    r = a[:, 0, 1] / np.sqrt(a00 * a11)
    vouched = (1 - r * r >= _DET_FLOOR) & (abs(r - lo) >= _BAND) & (abs(r - hi) >= _BAND)
    return r if vouched.all() else None


def _inverted(idx, sub):
    """The referee: each stacked submatrix's partial correlation of its first
    two nodes given the rest, from its inverse. Raises CiTestError naming the
    first singular submatrix's columns, or the first candidate whose r is
    not finite."""
    import numpy as np
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
    return r


class FisherZTest:
    """Fisher-z tests on one dataset, its correlation matrix computed once.
    A level's partial correlations r of i, j given S come from eliminating S
    from every candidate's (|S|+2) correlation submatrix at once. The level
    goes to the referee, the inverse of each submatrix, when elimination
    cannot vouch for one of its rows: a pivot under 1e-6, 1 - r^2 under 1e-8
    (a near-singular final 2 x 2), a non-finite r, or an r within 1e-9 of a
    bound. A triple is independent when r lies within _accept_bounds, which
    is the answer of the p-value rule _fisher_z_p(r) >= alpha."""

    def __init__(self, data, alpha):
        import numpy as np
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(
                f"data must be a 2-D array (n samples x d variables), got shape {data.shape}"
            )
        self.n, self.d = data.shape
        self.alpha = alpha
        self.corr = np.eye(self.d)
        with np.errstate(over="ignore", invalid="ignore"):
            total = data.sum()
        if not math.isfinite(total):  # a non-finite entry, or finite ones overflowing
            finite = np.isfinite(data).all(axis=0)
            if not finite.all():
                raise CiTestError(f"non-finite data column {int(np.argmin(finite))}")
        if self.d < 2:
            return  # no pair to test
        _check_sample_size(self.n, 0)
        constant = np.flatnonzero((data == data[0]).all(axis=0))
        if constant.size:
            raise CiTestError(f"constant data column {int(constant[0])}")
        # np.corrcoef(data, rowvar=False), step for step, without its
        # argument handling.
        x = data - data.mean(axis=0)
        corr = np.dot(x.T, x)
        corr *= np.true_divide(1, self.n - 1)
        scale = np.sqrt(np.diag(corr))
        corr /= scale[:, None]
        corr /= scale[None, :]
        self.corr = np.clip(corr, -1, 1, out=corr)

    def decide(self, plan, size):
        """Per pair of a level's plan, the index in its sets of its first
        separating set, or -1: plan is a list of (i, j, sets) with i < j, and
        sets a list of sorted tuples of `size` node indices."""
        import numpy as np
        _check_sample_size(self.n, size)
        counts = [len(sets) for _, _, sets in plan]
        total = sum(counts)
        rows = np.repeat(np.arange(len(plan)), counts)  # each candidate's pair
        pairs = np.array([(i, j) for i, j, _ in plan], dtype=np.intp)
        chain = itertools.chain.from_iterable
        conds = np.fromiter(chain(chain(sets for _, _, sets in plan)), np.intp, total * size)
        idx = np.hstack([pairs.take(rows, axis=0), conds.reshape(total, size)])
        sub = self.corr[idx[:, :, None], idx[:, None, :]]
        # The answers and errors are the inverse's. A level elimination
        # refuses goes to the inverse whole, so its r's and the CiTestError it
        # raises are the inverse's alone. On a level elimination vouches for,
        # every pivot is at least 1e-6, so each submatrix is positive definite
        # and far from singular: the inverse would neither raise nor give a
        # non-finite r there, and elimination, backward stable on such
        # matrices (Higham 2002, ch. 10), moves r by far less than the 1e-9
        # band it keeps from each bound (at most 5e-13 from the inverse's r
        # over the 628 671 candidates of 16 dense 50-replication studies). So
        # each r falls on the inverse's side of lo and of hi.
        r = _eliminated(sub, size, *_accept_bounds(self.n, size, self.alpha))
        if r is None:
            r = _inverted(idx, sub)
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
    reach masks keyed by (node, S). The searches read the DAG's own masks."""

    def __init__(self, graph):
        self.graph = graph
        self.d = graph.d

    def decide(self, plan, size):
        """As FisherZTest.decide: a pair's sets are tried in order up to its
        first separating set, and each (node, set) is searched at most once."""
        parents, children = self.graph._index
        adjacent = self.graph._skeleton
        reach = {}
        out = [-1] * len(plan)
        for n, (i, j, sets) in enumerate(plan):
            if (i, j) in adjacent:
                continue
            for k, s in enumerate(sets):
                seen, other = reach.get((i, s)), j
                if seen is None:
                    seen, other = reach.get((j, s)), i
                    if seen is None:
                        # d_separated without its checks: the plan's nodes are in-range ints.
                        seen = reach[(j, s)] = d_connected(parents, children, j, _mask(s))
                if not seen >> other & 1:
                    out[n] = k
                    break
        return out


def _level_plan(adj, level):
    """The plan of one level over the neighbourhood masks `adj`: per pair
    i < j still adjacent, in order, the sorted `level`-subsets of adj[i] - {j},
    then those of adj[j] - {i} that are not also subsets of adj[i], each in
    itertools.combinations order. Each node's combinations are listed once,
    each with its mask; a pair's rows filter them by mask, and skip node j's
    when adj[j] - {i} has no node outside adj[i]."""
    combos, nodes = [], [_nodes(a) for a in adj]
    for vs in nodes:
        masks = map(sum, itertools.combinations([1 << v for v in vs], level))
        combos.append(list(zip(itertools.combinations(vs, level), masks)))
    plan = []
    for i, vs in enumerate(nodes):
        outside, bit_i = ~adj[i], 1 << i
        for j in vs:
            if i < j:
                bit_j = 1 << j
                sets = [s for s, m in combos[i] if not m & bit_j]
                if adj[j] & outside & ~bit_i:
                    sets += [s for s, m in combos[j] if not m & bit_i and m & outside]
                plan.append((i, j, sets))
    return plan


def _skeleton_phase(test, d, max_cond_size):
    """Stable skeleton search: every test of a conditioning-set size level
    sees the neighbourhoods the level started with, so the result is
    independent of node ordering. Returns (adj, sepsets): the neighbourhood
    masks, and the separating set's mask of each removed pair i < j.

    Neighbourhoods are frozen for a level, so its candidate sets are known
    before any test runs, and _level_plan lists them; a triple names its
    pair, so no two pairs share one and no memo across pairs is needed.
    test.decide() gets the level's whole plan in one call and returns, per
    pair, the index of its separating set in its sets, or -1.
    """
    adj = [((1 << d) - 1) ^ (1 << v) for v in range(d)]
    sepsets = {}
    level = 0
    while max_cond_size is None or level <= max_cond_size:
        if not any(a.bit_count() > level for a in adj):
            break
        plan = _level_plan(adj, level)
        for (i, j, sets), k in zip(plan, test.decide(plan, level)):
            if k >= 0:
                sepsets[(i, j)] = _mask(sets[k])
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
        level += 1
    return adj, sepsets


def _orient_v_structures(adj, sepsets):
    """Orient each unshielded triple a - b - c whose middle node is outside
    sepsets[(a, c)]; conflicting orientations are dropped (left undirected).
    Each node b's pairs of neighbours a < c are scanned once."""
    votes = set()
    for b, around in enumerate(adj):
        for a, c in itertools.combinations(_nodes(around), 2):
            if not adj[a] >> c & 1 and not sepsets[(a, c)] >> b & 1:
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
    adj, sepsets = _skeleton_phase(test, d, cfg.max_cond_size)
    skel = frozenset((i, j) for i in range(d) for j in _nodes(adj[i]) if i < j)
    # No pair holds both orientations: the votes drop conflicts, and the Meek
    # rules orient only pairs with no orientation yet.
    directed = _meek_close(d, skel, _orient_v_structures(adj, sepsets))
    oriented = {(min(i, j), max(i, j)) for i, j in directed}
    return Cpdag(d, frozenset(directed), skel - oriented)
