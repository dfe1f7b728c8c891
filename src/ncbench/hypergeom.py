"""Exact hypergeometric null for true-positive adjacencies under random guessing.

Conditional on (m_max, m_true, m_est) the TP count of a uniformly placed
skeleton follows HyperGeom(m_max, m_true, m_est). Everything here is exact:
closed-form expectations, quantile transforms for the five adjacency
metrics, and the one-sided skeleton-fit test, each float a correctly rounded
ratio of integers at every size. Each metric has one definition, its _LINEAR
entry; _from_counts, the one int-level helper, reads every observed value.

The null is symmetric in m_true and m_est, so every probability is an
integer over C(m_max, s), s the smaller of the two. The support walk keeps
one integer term per point, C(m_max, s) * P(TP = k), and steps it by the
term ratio with one multiply and one exact division by small integers. A
HyperParams walks its support at most once across all its quantile, cdf and
metric_quantile calls: it keeps its exact walk, reads the points already
walked and resumes only past them, so threads that share one HyperParams
must take turns. The skeleton-fit test walks on its own; its log10 is read
from the same exact tail to a few ulps, also for p near 1.
"""

from __future__ import annotations

import bisect
import functools
import math

from .graphs import _as_int, _as_real, _Record

METRICS = ("precision", "recall", "f1", "npv", "specificity")


class DegenerateParamsError(ValueError):
    """Requested quantity has an empty denominator for these parameters."""


class HyperParams(_Record):
    """The conditioning triple of the exact null."""

    def __init__(self, m_max, m_true, m_est):
        for name, value in zip(self._fields, (m_max, m_true, m_est)):
            object.__setattr__(self, name, _as_int(value, name, ValueError))
        if min(self.m_max, self.m_true, self.m_est) < 0:
            raise ValueError("all edge counts must be non-negative")
        if self.m_true > self.m_max or self.m_est > self.m_max:
            raise ValueError("m_true and m_est cannot exceed m_max")

    @functools.cached_property
    def support(self):
        lo = max(0, self.m_est + self.m_true - self.m_max)
        hi = min(self.m_est, self.m_true)
        return range(lo, hi + 1)

    @functools.cached_property
    def _walk(self):
        """The kept support walk; not a field, so eq, hash and repr ignore it."""
        return _Walk(self)


class ConfusionCounts(_Record):
    """TP/FP/FN/TN quadruple for adjacency or endpoint classification."""

    def __init__(self, tp, fp, fn, tn):
        for name, value in zip(self._fields, (tp, fp, fn, tn)):
            object.__setattr__(self, name, _as_int(value, name, ValueError))
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def _denom(p):
    """C(m_max, s), s = min(m_true, m_est): the denominator of every
    probability, the smallest the symmetry in m_true and m_est allows."""
    return math.comb(p.m_max, min(p.m_true, p.m_est))


def _term(k, p):
    """C(m_max, s) * P(TP = k) = C(big, k) * C(m_max - big, s - k), where s
    and big are the smaller and larger of m_true and m_est."""
    s, big = sorted((p.m_true, p.m_est))
    return math.comb(big, k) * math.comb(p.m_max - big, s - k)


def _terms(p, stop, k, t):
    """Yield (k, t), t = C(m_max, s) * P(TP = k), from the given point on for
    support points k < stop, exactly."""
    # t_{k+1} is an integer and equals t_k times the term ratio, so each // is exact.
    other = p.m_max - p.m_true - p.m_est + 1
    for k in range(k, min(stop, p.support.stop)):
        yield k, t
        t = t * ((p.m_true - k) * (p.m_est - k)) // ((k + 1) * (other + k))


class _Walk:
    """A resumable exact walk of one HyperParams' support. (k, t) is the
    first point not yet walked and its term, num the exact sum of the walked
    terms and cdf[i] the float num / denom after point lo + i. Only ints and
    floats are kept, so the HyperParams that holds it still pickles."""

    __slots__ = ("denom", "k", "t", "num", "cdf")

    def __init__(self, p):
        self.denom = _denom(p)
        self.k = p.support.start
        self.t = _term(self.k, p)
        self.num = 0
        self.cdf = []

    def extend(self, p, more):
        """Walk on while more(cdf) holds, up to the top of the support."""
        for k, t in _terms(p, p.support.stop, self.k, self.t):
            if not more(self.cdf):
                self.k, self.t = k, t
                return
            self.num += t
            self.cdf.append(self.num / self.denom)
        self.k = p.support.stop


def pmf(k, p):
    """P(TP = k) under HyperGeom(m_max, m_true, m_est); 0 outside the support."""
    k = _as_int(k, "k", ValueError)
    if k not in p.support:
        return 0.0
    return _term(k, p) / _denom(p)


def cdf(k, p):
    """P(TP <= k), read from p's kept walk."""
    k = _as_int(k, "k", ValueError)
    lo = p.support.start
    if k < lo:
        return 0.0
    walk = p._walk
    if len(walk.cdf) <= k - lo:
        walk.extend(p, lambda cdf: len(cdf) <= k - lo)
    return walk.cdf[min(k - lo, len(walk.cdf) - 1)]


def quantile(level, p):
    """Smallest k in the support with CDF(k) >= level; CDF(last k) is exactly 1.
    Reads p's kept walk, whose CDF floats never decrease."""
    level = _as_real(level, "level")
    if not (0 < level < 1):
        raise ValueError("level must be strictly between 0 and 1")
    target = level - 1e-12
    walk = p._walk
    if not walk.cdf or walk.cdf[-1] < target:
        walk.extend(p, lambda cdf: not cdf or cdf[-1] < target)
    return p.support.start + bisect.bisect_left(walk.cdf, target)


def expected_tp(p):
    """E(TP) = m_est * m_true / m_max."""
    if p.m_max == 0:
        raise DegenerateParamsError("m_max must be positive")
    return p.m_est * p.m_true / p.m_max


# The one definition of the five adjacency metrics: metric -> (a, b, den) as
# a function of (m_max, m_true, m_est), with metric = (a * TP + b) / den,
# since TN = TP + m_max - m_true - m_est.
_LINEAR = {
    "precision": lambda n, t, e: (1, 0, e),
    "recall": lambda n, t, e: (1, 0, t),
    "f1": lambda n, t, e: (2, 0, e + t),
    "npv": lambda n, t, e: (1, n - t - e, n - e),
    "specificity": lambda n, t, e: (1, n - t - e, n - t),
}


def _linear(metric):
    """The metric's _LINEAR entry; ValueError for a name that is not one."""
    if metric not in _LINEAR:
        raise ValueError(f"unknown metric {metric!r}")
    return _LINEAR[metric]


def _from_counts(linear, tp, fp, fn, tn):
    """The metric with _LINEAR entry `linear` on int counts; None when its
    denominator is 0 (MISSING). Every metric value of a table is read here."""
    a, b, den = linear(tp + fp + fn + tn, tp + fn, tp + fp)
    return None if den == 0 else (a * tp + b) / den


def metric_from_counts(metric, c):
    """One of the five adjacency metrics on a confusion table; None when its
    denominator is 0 (MISSING)."""
    return _from_counts(_linear(metric), c.tp, c.fp, c.fn, c.tn)


def _linear_params(metric, p):
    """The metric's (a, b, den) for the null's parameters; raises when the
    metric is undefined."""
    if p.m_max == 0:
        raise DegenerateParamsError("m_max must be positive")
    a, b, den = _linear(metric)(p.m_max, p.m_true, p.m_est)
    if den == 0:
        raise DegenerateParamsError(
            f"{metric} is undefined for m_max={p.m_max}, "
            f"m_true={p.m_true}, m_est={p.m_est}"
        )
    return a, b, den


def expected_metric(metric, p):
    """Closed-form expectation of the metric under random guessing:
    (a * E(TP) + b) / den with E(TP) = m_est * m_true / m_max."""
    a, b, den = _linear_params(metric, p)
    return (a * p.m_est * p.m_true + b * p.m_max) / (den * p.m_max)


def metric_quantile(metric, level, p):
    """Quantile of the metric: (a * TP + b) / den, which never decreases in
    TP, at TP = quantile(level); raises when the metric is undefined for p."""
    a, b, den = _linear_params(metric, p)
    return (a * quantile(level, p) + b) / den


def _upper_tail(tp_obs, p):
    """Integers (num, denom) with P(TP >= tp_obs) = num / denom; walks k < tp_obs."""
    if p.m_est == 0:
        raise DegenerateParamsError(
            "skeleton fit test is undefined for an empty estimate (m_est = 0)"
        )
    tp_obs = _as_int(tp_obs, "tp_obs", ValueError)
    if not (0 <= tp_obs <= min(p.m_true, p.m_est)):
        raise ValueError(
            f"tp_obs={tp_obs} inconsistent with m_true={p.m_true}, m_est={p.m_est}"
        )
    lo, denom = p.support.start, _denom(p)
    return denom - sum(t for _, t in _terms(p, tp_obs, lo, _term(lo, p))), denom


def _log10_ratio(num, denom):
    """log10(num / denom) for integers 0 < num <= denom, to a few ulps: near 1
    from the correctly rounded num / denom - 1, elsewhere from the ratio scaled
    by a power of 2 into (1/2, 2), so it stays finite below the float range.
    Exactly 0.0 at num == denom."""
    if 2 * num > denom:
        return math.log1p((num - denom) / denom) / math.log(10)
    shift = denom.bit_length() - num.bit_length()
    return math.log10((num << shift) / denom) - shift * math.log10(2)


def skeleton_fit_test(tp_obs, p):
    """One-sided exact p-value P(TP >= tp_obs) for the random-placement null."""
    num, denom = _upper_tail(tp_obs, p)
    return num / denom


def skeleton_fit_log10_p(tp_obs, p):
    """log10 of the skeleton-fit p-value; finite where the float p underflows to 0."""
    return _log10_ratio(*_upper_tail(tp_obs, p))
