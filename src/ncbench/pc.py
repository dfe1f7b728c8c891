"""Reference PC algorithm: stable skeleton search, v-structure orientation
from separating sets, and Meek-rule closure.

The skeleton phase tests each (i, j, S) triple at most once; the v-structures
come from the graph core's collider scan over the skeleton's half-edges.

Two conditional-independence backends: a Fisher-z test for vanishing partial
correlations on Gaussian data, and a d-separation oracle on a known DAG.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graphs import Cpdag, Dag, _colliders, _meek_close, d_separated


class CiTestError(RuntimeError):
    """Numerical failure inside a conditional-independence test."""


@dataclass(frozen=True)
class PcConfig:
    alpha: float = 0.05
    max_cond_size: int | None = None

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must be in (0, 1)")


def _fisher_z_p(r, n, size):
    """Two-sided p-value of a partial correlation r over `size` conditioning
    variables and n samples."""
    r = max(-1 + 1e-12, min(1 - 1e-12, r))
    stat = math.sqrt(n - size - 3) * abs(0.5 * math.log((1 + r) / (1 - r)))
    return math.erfc(stat / math.sqrt(2))


def _check_sample_size(n, size):
    if n <= size + 3:
        raise CiTestError(f"need n > |z| + 3 (n={n}, |z|={size})")


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


def _singular_row(idx, sub):
    """The columns of the first matrix in a stack that cannot be inverted."""
    for row, m in zip(idx.tolist(), sub):
        try:
            np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return row
    return None


class FisherZTest:
    """Fisher-z tests on one dataset.

    The data are checked and the correlation matrix computed once. The partial
    correlation of i, j given S comes from the inverse of the (|S|+2)
    correlation submatrix. prepare() evaluates a batch of triples with one
    stacked inverse per conditioning-set size; independent() decides one
    triple of the last prepared batch, and only those.
    """

    def __init__(self, data, alpha):
        data = np.asarray(data, dtype=float)
        self.n, self.d = data.shape
        self.alpha = alpha
        self.corr = np.eye(self.d)
        self._prepared = {}
        if self.d < 2:
            return  # no pair to test
        _check_sample_size(self.n, 0)
        constant = np.flatnonzero(np.ptp(data, axis=0) == 0)
        if constant.size:
            raise CiTestError(f"constant data column {int(constant[0])}")
        self.corr = np.corrcoef(data, rowvar=False)

    def p_values(self, triples):
        """p-values of (i, j, S) triples whose sets S share one size, in order."""
        if not triples:
            return []
        size = len(triples[0][2])
        _check_sample_size(self.n, size)
        idx = np.array([[i, j, *sorted(s)] for i, j, s in triples], dtype=np.intp)
        sub = self.corr[idx[:, :, None], idx[:, None, :]]
        try:
            prec = np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise CiTestError(
                f"singular conditioning correlation for {_singular_row(idx, sub)}"
            ) from exc
        with np.errstate(invalid="ignore"):
            r = -prec[:, 0, 1] / np.sqrt(prec[:, 0, 0] * prec[:, 1, 1])
        out = []
        for row, r_k in zip(idx.tolist(), r.tolist()):
            if not math.isfinite(r_k):
                raise CiTestError(f"undefined partial correlation for {row}")
            out.append(_fisher_z_p(r_k, self.n, size))
        return out

    def prepare(self, triples):
        """Evaluate a sequence of (i, j, S) triples with i < j and one set
        size, for independent()."""
        self._prepared = dict(zip(triples, self.p_values(triples)))

    def independent(self, i, j, z):
        return self._prepared[(min(i, j), max(i, j), frozenset(z))] >= self.alpha


class OracleTest:
    def __init__(self, graph):
        self.graph = graph
        self.d = graph.d

    def independent(self, i, j, z):
        return d_separated(self.graph, i, j, z)


def _skeleton_phase(test, d, max_cond_size):
    """Stable skeleton search: edges removed only between conditioning-set
    size levels, so the result is independent of node ordering.

    Neighbourhoods are frozen for a level, so its candidate sets are known
    before any test runs. Each pair tests each distinct set once, in order of
    first appearance; a triple names its pair, so no two pairs share one and
    no memo across pairs is needed. A test with prepare() evaluates the
    level's triples in one batch. The oracle is not batched, since it would
    then also decide the sets after a pair's first independent one.
    """
    adj = {v: set(range(d)) - {v} for v in range(d)}
    sepsets = {}
    level = 0
    while True:
        if max_cond_size is not None and level > max_cond_size:
            break
        if all(len(adj[v]) - 1 < level for v in range(d)):
            break
        # Every pair's distinct candidate sets in test order: subsets of
        # adj(i) - {j}, then those of adj(j) - {i} not seen already.
        plan = [
            (i, j, list(dict.fromkeys(
                frozenset(s)
                for a, b in ((i, j), (j, i))
                for s in itertools.combinations(sorted(adj[a] - {b}), level)
            )))
            for i in range(d)
            for j in sorted(adj[i])
            if i < j
        ]
        if hasattr(test, "prepare"):
            test.prepare([(i, j, s) for i, j, sets in plan for s in sets])
        to_remove = []
        for i, j, sets in plan:
            for s in sets:
                if test.independent(i, j, s):
                    sepsets[(i, j)] = s
                    to_remove.append((i, j))
                    break
        for i, j in to_remove:
            adj[i].discard(j)
            adj[j].discard(i)
        level += 1
    skel = frozenset(
        (i, j) for i in range(d) for j in adj[i] if i < j
    )
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
