"""Exact hypergeometric null for true-positive adjacencies under random guessing.

Conditional on (m_max, m_true, m_est) the TP count of a uniformly placed
skeleton follows HyperGeom(m_max, m_true, m_est). Everything here is exact:
closed-form expectations, quantile transforms for the five adjacency
metrics, and the one-sided skeleton-fit test, each float a correctly rounded
ratio of integers at every size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if min(self.m_max, self.m_true, self.m_est) < 0:
            raise ValueError("all edge counts must be non-negative")
        if self.m_true > self.m_max or self.m_est > self.m_max:
            raise ValueError("m_true and m_est cannot exceed m_max")

    @property
    def support(self):
        lo = max(0, self.m_est + self.m_true - self.m_max)
        hi = min(self.m_est, self.m_true)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class ConfusionCounts:
    """TP/FP/FN/TN quadruple for adjacency or endpoint classification."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricValue:
    """Named metric result; value None means an undefined (0/0) denominator."""

    name: str
    value: float | None

    @property
    def missing(self):
        return self.value is None


def _terms(p, stop):
    """Yield (k, C(m_max, m_est) * P(TP = k)) for support points k < stop, exactly."""
    other, lo = p.m_max - p.m_true, p.support.start
    a, b = math.comb(p.m_true, lo), math.comb(other, p.m_est - lo)
    for k in range(lo, min(stop, p.support.stop)):
        yield k, a * b
        # C(n, i) * (n - i) == C(n, i + 1) * (i + 1), so each // is exact.
        a = a * (p.m_true - k) // (k + 1)
        b = b * (p.m_est - k) // (other - p.m_est + k + 1)


def pmf(k, p):
    """P(TP = k) under HyperGeom(m_max, m_true, m_est); 0 outside the support."""
    if k not in p.support:
        return 0.0
    num = math.comb(p.m_true, k) * math.comb(p.m_max - p.m_true, p.m_est - k)
    return num / math.comb(p.m_max, p.m_est)


def cdf(k, p):
    """P(TP <= k)."""
    return sum(term for _, term in _terms(p, k + 1)) / math.comb(p.m_max, p.m_est)


def quantile(level, p):
    """Smallest k in the support with CDF(k) >= level; CDF(last k) is exactly 1."""
    if not (0 < level < 1):
        raise ValueError("level must be strictly between 0 and 1")
    denom = math.comb(p.m_max, p.m_est)
    num = 0
    for k, term in _terms(p, p.support.stop):
        num += term
        if num / denom >= level - 1e-12:
            return k


def expected_tp(p):
    """E(TP) = m_est * m_true / m_max."""
    if p.m_max == 0:
        raise DegenerateParamsError("m_max must be positive")
    return p.m_est * p.m_true / p.m_max


def metric_from_counts(metric, c):
    """Evaluate one of the five adjacency metrics on a confusion table."""
    if metric == "precision":
        num, den = c.tp, c.tp + c.fp
    elif metric == "recall":
        num, den = c.tp, c.tp + c.fn
    elif metric == "f1":
        num, den = 2 * c.tp, 2 * c.tp + c.fp + c.fn
    elif metric == "npv":
        num, den = c.tn, c.tn + c.fn
    elif metric == "specificity":
        num, den = c.tn, c.tn + c.fp
    else:
        raise ValueError(f"unknown metric {metric!r}")
    if den == 0:
        return MetricValue(metric, None)
    return MetricValue(metric, num / den)


def _check_denominator(metric, p):
    if p.m_max == 0:
        raise DegenerateParamsError("m_max must be positive")
    dens = {
        "precision": p.m_est,
        "recall": p.m_true,
        "f1": p.m_est + p.m_true,
        "npv": p.m_max - p.m_est,
        "specificity": p.m_max - p.m_true,
    }
    if metric not in dens:
        raise ValueError(f"unknown metric {metric!r}")
    if dens[metric] == 0:
        raise DegenerateParamsError(
            f"{metric} is undefined for m_max={p.m_max}, "
            f"m_true={p.m_true}, m_est={p.m_est}"
        )
    return dens[metric]


def expected_metric(metric, p):
    """Closed-form expectation of the metric under random guessing."""
    _check_denominator(metric, p)
    if metric == "precision":
        return p.m_true / p.m_max
    if metric == "recall":
        return p.m_est / p.m_max
    if metric == "f1":
        return 2 * p.m_est * p.m_true / (p.m_max * (p.m_est + p.m_true))
    if metric == "npv":
        return 1 - p.m_true / p.m_max
    return 1 - p.m_est / p.m_max


def metric_quantile(metric, level, p):
    """Quantile of the metric: the monotone TP transform applied to quantile(level)."""
    den = _check_denominator(metric, p)
    q = quantile(level, p)
    if metric == "precision":
        return q / p.m_est
    if metric == "recall":
        return q / p.m_true
    if metric == "f1":
        return 2 * q / (p.m_est + p.m_true)
    # NPV and specificity share the numerator, with different denominators.
    return (p.m_max - p.m_est - p.m_true + q) / den


def _upper_tail(tp_obs, p):
    """Integers (num, denom) with P(TP >= tp_obs) = num / denom; walks k < tp_obs."""
    if p.m_est == 0:
        raise DegenerateParamsError(
            "skeleton fit test is undefined for an empty estimate (m_est = 0)"
        )
    if not (0 <= tp_obs <= min(p.m_true, p.m_est)):
        raise ValueError(
            f"tp_obs={tp_obs} inconsistent with m_true={p.m_true}, m_est={p.m_est}"
        )
    denom = math.comb(p.m_max, p.m_est)
    return denom - sum(term for _, term in _terms(p, tp_obs)), denom


def skeleton_fit_test(tp_obs, p):
    """One-sided exact p-value P(TP >= tp_obs) for the random-placement null."""
    num, denom = _upper_tail(tp_obs, p)
    return num / denom


def skeleton_fit_log10_p(tp_obs, p):
    """log10 of the skeleton-fit p-value; finite where the float p underflows to 0."""
    num, denom = _upper_tail(tp_obs, p)
    return math.log10(num) - math.log10(denom)
