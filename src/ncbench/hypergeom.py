"""Exact hypergeometric null for true-positive adjacencies under random guessing.

Conditional on (m_max, m_true, m_est) the TP count of a uniformly placed
skeleton follows HyperGeom(m_max, m_true, m_est). Everything here is exact:
closed-form expectations, quantile transforms for the five adjacency
metrics, and the one-sided skeleton-fit test, each float a correctly rounded
ratio of integers at every size.

A HyperParams walks its support at most once across all its quantile, cdf
and metric_quantile calls: it keeps its exact walk and resumes it only past
the points already walked, so threads that share one HyperParams must take
turns. The skeleton-fit test walks on its own.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from .graphs import _as_int, _as_real

METRICS = ("precision", "recall", "f1", "npv", "specificity")


class DegenerateParamsError(ValueError):
    """Requested quantity has an empty denominator for these parameters."""


@dataclass(frozen=True)
class HyperParams:
    """The conditioning triple of the exact null."""

    m_max: int
    m_true: int
    m_est: int

    def __post_init__(self):
        for name in ("m_max", "m_true", "m_est"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, ValueError))
        if min(self.m_max, self.m_true, self.m_est) < 0:
            raise ValueError("all edge counts must be non-negative")
        if self.m_true > self.m_max or self.m_est > self.m_max:
            raise ValueError("m_true and m_est cannot exceed m_max")

    @property
    def support(self):
        lo = max(0, self.m_est + self.m_true - self.m_max)
        hi = min(self.m_est, self.m_true)
        return range(lo, hi + 1)

    @functools.cached_property
    def _walk(self):
        """The kept support walk; not a field, so eq, hash and repr ignore it."""
        return _Walk(self)


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN quadruple for adjacency or endpoint classification."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, ValueError))
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def _bottom(p):
    """The walk state (k, a, b) at the bottom of the support."""
    lo = p.support.start
    return lo, math.comb(p.m_true, lo), math.comb(p.m_max - p.m_true, p.m_est - lo)


def _terms(p, stop, k, a, b):
    """Yield the walk states (k, a, b), a * b = C(m_max, m_est) * P(TP = k),
    from the given state on for support points k < stop, exactly."""
    other = p.m_max - p.m_true
    for k in range(k, min(stop, p.support.stop)):
        yield k, a, b
        # C(n, i) * (n - i) == C(n, i + 1) * (i + 1), so each // is exact.
        a = a * (p.m_true - k) // (k + 1)
        b = b * (p.m_est - k) // (other - p.m_est + k + 1)


class _Walk:
    """A resumable exact walk of one HyperParams' support. (k, a, b) is the
    state of the first point not yet walked, num the exact sum of the walked
    terms and cdf[i] the float num / denom after point lo + i. Only ints and
    floats are kept, so the HyperParams that holds it still pickles."""

    __slots__ = ("denom", "k", "a", "b", "num", "cdf")

    def __init__(self, p):
        self.denom = math.comb(p.m_max, p.m_est)
        self.k, self.a, self.b = _bottom(p)
        self.num = 0
        self.cdf = []

    def extend(self, p, more):
        """Walk on while more(cdf) holds, up to the top of the support."""
        for k, a, b in _terms(p, p.support.stop, self.k, self.a, self.b):
            if not more(self.cdf):
                self.k, self.a, self.b = k, a, b
                return
            self.num += a * b
            self.cdf.append(self.num / self.denom)
        self.k = p.support.stop


def pmf(k, p):
    """P(TP = k) under HyperGeom(m_max, m_true, m_est); 0 outside the support."""
    k = _as_int(k, "k", ValueError)
    if k not in p.support:
        return 0.0
    num = math.comb(p.m_true, k) * math.comb(p.m_max - p.m_true, p.m_est - k)
    return num / math.comb(p.m_max, p.m_est)


def cdf(k, p):
    """P(TP <= k), read from p's kept walk."""
    k = _as_int(k, "k", ValueError)
    lo = p.support.start
    if k < lo:
        return 0.0
    walk = p._walk
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


def _linear(metric, m_max, m_true, m_est):
    if metric not in _LINEAR:
        raise ValueError(f"unknown metric {metric!r}")
    return _LINEAR[metric](m_max, m_true, m_est)


def metric_from_counts(metric, c):
    """One of the five adjacency metrics on a confusion table; None when its
    denominator is 0 (MISSING)."""
    a, b, den = _linear(metric, c.total, c.tp + c.fn, c.tp + c.fp)
    return None if den == 0 else (a * c.tp + b) / den


def _linear_params(metric, p):
    """_linear for the null's parameters; raises when the metric is undefined."""
    if p.m_max == 0:
        raise DegenerateParamsError("m_max must be positive")
    a, b, den = _linear(metric, p.m_max, p.m_true, p.m_est)
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
    denom = math.comb(p.m_max, p.m_est)
    return denom - sum(a * b for _, a, b in _terms(p, tp_obs, *_bottom(p))), denom


def skeleton_fit_test(tp_obs, p):
    """One-sided exact p-value P(TP >= tp_obs) for the random-placement null."""
    num, denom = _upper_tail(tp_obs, p)
    return num / denom


def skeleton_fit_log10_p(tp_obs, p):
    """log10 of the skeleton-fit p-value; finite where the float p underflows to 0."""
    num, denom = _upper_tail(tp_obs, p)
    return math.log10(num) - math.log10(denom)
