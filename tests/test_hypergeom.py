import decimal
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import hypergeom as scipy_hypergeom

from ncbench import hypergeom
from ncbench.hypergeom import (
    METRICS,
    ConfusionCounts,
    DegenerateParamsError,
    HyperParams,
    cdf,
    expected_metric,
    expected_tp,
    metric_from_counts,
    metric_quantile,
    pmf,
    quantile,
    skeleton_fit_log10_p,
    skeleton_fit_test,
)

P587 = HyperParams(10, 8, 7)


class TestPmf:
    def test_value_at_five(self):
        # direct binomial-coefficient evaluation: C(8,5)*C(2,2)/C(10,7)
        assert pmf(5, P587) == pytest.approx(56 / 120, abs=1e-15)

    def test_below_support_is_zero(self):
        assert pmf(4, P587) == 0.0

    def test_normalization(self):
        assert sum(pmf(k, P587) for k in range(11)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_scipy(self):
        p = HyperParams(231, 30, 30)
        for k in p.support:
            assert pmf(k, p) == pytest.approx(
                scipy_hypergeom.pmf(k, 231, 30, 30), rel=1e-10
            )
        dense = HyperParams(124750, 5000, 4000)
        reference = scipy_hypergeom.pmf(list(dense.support), 124750, 5000, 4000)
        checked = 0
        for k, ref in zip(dense.support, reference):
            if ref > 1e-300:
                assert pmf(k, dense) == pytest.approx(ref, rel=1e-9)
                checked += 1
        assert checked > 500

    def test_support_bounds(self):
        p = HyperParams(10, 8, 7)
        assert p.support == range(5, 8)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 40), st.integers(61, 400)), st.data())
def test_pmf_normalizes_for_any_params(m_max, data):
    m_true = data.draw(st.integers(0, m_max))
    m_est = data.draw(st.integers(0, m_max))
    p = HyperParams(m_max, m_true, m_est)
    total = sum(pmf(k, p) for k in p.support)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(pmf(k, p) >= 0 for k in p.support)


def _exact_term(k, p):
    """C(m_max, m_est) * P(TP = k) by direct math.comb."""
    return math.comb(p.m_true, k) * math.comb(p.m_max - p.m_true, p.m_est - k)


class TestExactness:
    # Every value is the correctly rounded float of the exact integer ratio,
    # here up to d = 100 (m_max = 4950).
    @pytest.mark.parametrize(
        "p",
        [
            HyperParams(61, 20, 15),
            HyperParams(231, 30, 30),
            HyperParams(231, 200, 190),
            HyperParams(1225, 49, 60),
            HyperParams(4950, 99, 120),
        ],
    )
    def test_pmf_cdf_and_fit_test_are_correctly_rounded(self, p):
        den = math.comb(p.m_max, p.m_est)
        below = 0
        for k in p.support:
            term = _exact_term(k, p)
            assert pmf(k, p) == float(Fraction(term, den)), k
            assert skeleton_fit_test(k, p) == float(Fraction(den - below, den)), k
            below += term
            assert cdf(k, p) == float(Fraction(below, den)), k
        assert below == den

    @pytest.mark.parametrize(
        "p",
        [
            HyperParams(10, 8, 7),
            HyperParams(61, 20, 15),
            HyperParams(231, 200, 190),
            HyperParams(1225, 49, 60),
            HyperParams(4950, 99, 120),
        ],
    )
    def test_expected_metrics_are_correctly_rounded(self, p):
        # E(metric) = sum over k of P(TP = k) * metric(k), in exact arithmetic.
        den = math.comb(p.m_max, p.m_est)
        exact = dict.fromkeys(METRICS, Fraction(0))
        for k in p.support:
            fp, fn = p.m_est - k, p.m_true - k
            tn = p.m_max - p.m_true - p.m_est + k
            weight = Fraction(_exact_term(k, p), den)
            exact["precision"] += weight * Fraction(k, k + fp)
            exact["recall"] += weight * Fraction(k, k + fn)
            exact["f1"] += weight * Fraction(2 * k, 2 * k + fp + fn)
            exact["npv"] += weight * Fraction(tn, tn + fn)
            exact["specificity"] += weight * Fraction(tn, tn + fp)
        for metric in METRICS:
            assert expected_metric(metric, p) == float(exact[metric]), metric

    def test_dense_tail_below_float_range(self):
        p = HyperParams(124750, 5000, 4000)
        # Upper tail from k = 800 by the term ratio, which divides exactly.
        k, term, tail = 800, _exact_term(800, p), 0
        while term:
            tail += term
            term = term * (p.m_true - k) * (p.m_est - k)
            term //= (k + 1) * (p.m_max - p.m_true - p.m_est + k + 1)
            k += 1
        expected = math.log10(tail) - math.log10(math.comb(p.m_max, p.m_est))
        assert expected == pytest.approx(-326.9063, abs=1e-4)
        assert skeleton_fit_test(800, p) == 0.0
        assert skeleton_fit_log10_p(800, p) == pytest.approx(expected, abs=1e-6)


class TestQuantile:
    def test_printed_example_values(self):
        assert quantile(0.025, P587) == 5
        assert quantile(0.5, P587) == 6
        assert quantile(0.975, P587) == 7

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            quantile(0.0, P587)
        with pytest.raises(ValueError):
            quantile(1.0, P587)

    def test_generalized_inverse(self):
        for p in [P587, HyperParams(15, 6, 9), HyperParams(21, 10, 4)]:
            for k in p.support:
                level = cdf(k, p)
                if level < 1.0:
                    assert quantile(level, p) <= k

    def test_cdf_nondecreasing(self):
        p = HyperParams(28, 12, 17)
        values = [cdf(k, p) for k in p.support]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0, abs=1e-14)


def _reference_terms(p, stop):
    """The one-off support walk that cdf and quantile each ran before a
    HyperParams kept its walk: (k, C(m_max, m_est) * P(TP = k)) for k < stop."""
    other, lo = p.m_max - p.m_true, p.support.start
    a, b = math.comb(p.m_true, lo), math.comb(other, p.m_est - lo)
    for k in range(lo, min(stop, p.support.stop)):
        yield k, a * b
        a = a * (p.m_true - k) // (k + 1)
        b = b * (p.m_est - k) // (other - p.m_est + k + 1)


def _reference_cdf(k, p):
    return sum(term for _, term in _reference_terms(p, k + 1)) / math.comb(p.m_max, p.m_est)


def _reference_quantile(level, p):
    denom = math.comb(p.m_max, p.m_est)
    num = 0
    for k, term in _reference_terms(p, p.support.stop):
        num += term
        if num / denom >= level - 1e-12:
            return k


# The sparse cells of the benchmark's exact-null grid up to d = 100, and its
# dense cell.
KEPT_WALK_CELLS = [
    (d * (d - 1) // 2, int(a * d), int(b * d))
    for d in (10, 20, 50, 100)
    for a in (0.5, 1, 1.5, 2, 3)
    for b in (0.5, 1, 1.5, 2, 3)
] + [(124750, 5000, 4000)]
KEPT_WALK_LEVELS = (0.025, 0.5, 0.975, 1e-13, 1 - 1e-13)


class TestKeptWalk:
    @pytest.mark.parametrize("cell", KEPT_WALK_CELLS, ids=str)
    def test_matches_a_fresh_walk_in_any_order(self, cell):
        ref = HyperParams(*cell)
        lo, hi = ref.support.start, ref.support.stop - 1
        expected_q = {level: _reference_quantile(level, ref) for level in KEPT_WALK_LEVELS}
        # Points around each quantile, and off both ends of the support.
        ks = sorted({k + dk for k in expected_q.values() for dk in (-1, 0, 1)} | {lo - 1})
        expected_cdf = {k: _reference_cdf(k, ref) for k in ks}
        rng = random.Random(str(cell))
        shuffled = rng.sample(KEPT_WALK_LEVELS, len(KEPT_WALK_LEVELS))
        orders = (sorted(KEPT_WALK_LEVELS), sorted(KEPT_WALK_LEVELS, reverse=True), shuffled)
        shared = HyperParams(*cell)
        for order in orders:
            kept = HyperParams(*cell)
            for level in order:
                for p in (kept, shared, HyperParams(*cell)):
                    assert quantile(level, p) == expected_q[level], (level, p)
                k = rng.choice(ks)
                for p in (kept, shared, HyperParams(*cell)):
                    assert cdf(k, p) == expected_cdf[k], (k, p)
        for k in (hi, hi + 1):
            assert cdf(k, kept) == cdf(k, HyperParams(*cell)) == _reference_cdf(k, ref) == 1.0

    def test_walks_the_support_once(self, monkeypatch):
        p = HyperParams(4950, 99, 120)
        yielded = []
        terms = hypergeom._terms

        def counted(*args):
            for state in terms(*args):
                yielded.append(state[0])
                yield state

        monkeypatch.setattr(hypergeom, "_terms", counted)
        calls = 0
        for metric in METRICS:
            for level in (0.5, 0.025, 0.975):
                metric_quantile(metric, level, p)
                calls += 1
        top = quantile(0.975, p)
        calls += 1
        for k in p.support.start - 1, top - 1:
            cdf(k, p)
            calls += 1
        # Each point is walked once; a call that needs no further point
        # still looks at the next one before stopping.
        assert len(set(yielded)) == top - p.support.start + 2
        assert len(yielded) <= len(set(yielded)) + calls

    def test_walked_params_pickle_and_compare_as_fresh(self):
        for cell in [(10, 8, 7), (4950, 99, 120), (124750, 5000, 4000)]:
            p = HyperParams(*cell)
            quantile(0.5, p)
            cdf(p.support.start + 1, p)
            walk = p._walk
            assert all(type(getattr(walk, f)) is int for f in ("denom", "k", "t", "num"))
            assert walk.denom == math.comb(p.m_max, min(p.m_true, p.m_est))
            assert walk.cdf and all(type(x) is float for x in walk.cdf)
            fresh = HyperParams(*cell)
            copy = pickle.loads(pickle.dumps(p))
            for q in (p, copy):
                assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
            for level in KEPT_WALK_LEVELS:
                assert quantile(level, copy) == _reference_quantile(level, fresh)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.data())
def test_margins_swap_to_the_same_exact_values(m_max, data):
    # The walk sums C(m_max, s) * P(TP = k) over the smaller margin s; the
    # reference is the C(m_max, m_est) form, whichever margin is smaller.
    a = data.draw(st.integers(0, m_max))
    b = data.draw(st.integers(1, m_max))
    p, swapped = HyperParams(m_max, a, b), HyperParams(m_max, b, a)
    den = math.comb(m_max, b)
    below = 0
    for k in range(p.support.stop):
        term = _exact_term(k, p)  # 0 below the support
        fit = float(Fraction(den - below, den))
        assert skeleton_fit_test(k, p) == fit, k
        if a:
            assert skeleton_fit_test(k, swapped) == fit, k
        below += term
        assert cdf(k, p) == cdf(k, swapped) == float(Fraction(below, den)), k
    for level in KEPT_WALK_LEVELS:
        expected = _reference_quantile(level, p)
        assert quantile(level, p) == quantile(level, swapped) == expected, level


def _decimal_log10(num, denom):
    """log10(num / denom) with more digits than either integer has."""
    with decimal.localcontext() as ctx:
        ctx.prec = denom.bit_length() * 3 // 10 + 40
        return float((decimal.Decimal(num) / decimal.Decimal(denom)).log10())


class TestFitLog10:
    # log10 p is read from the exact tail to a few ulps, also near p = 1,
    # where subtracting two rounded logs of nearly equal integers cancels.
    @pytest.mark.parametrize(
        "cell, tp_obs",
        [
            ((283, 16, 270), 5),
            ((55, 20, 24), 13),
            ((4950, 99, 120), 1),
            ((231, 200, 190), 165),
            ((4950, 99, 120), 12),
        ],
    )
    def test_matches_a_decimal_reference(self, cell, tp_obs):
        p = HyperParams(*cell)
        num, denom = hypergeom._upper_tail(tp_obs, p)
        expected = _decimal_log10(num, denom)
        assert skeleton_fit_log10_p(tp_obs, p) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_random_cells(self):
        rng = random.Random(30)
        for _ in range(200):
            m_max = rng.randint(1, 300)
            p = HyperParams(m_max, rng.randint(0, m_max), rng.randint(1, m_max))
            for tp_obs in range(p.support.start + 1, p.support.stop):
                num, denom = hypergeom._upper_tail(tp_obs, p)
                expected = _decimal_log10(num, denom)
                got = skeleton_fit_log10_p(tp_obs, p)
                assert got == pytest.approx(expected, rel=1e-15, abs=0), (p, tp_obs)

    def test_p_one_is_positive_zero(self):
        for cell in [(10, 3, 4), (283, 16, 270), (124750, 5000, 4000)]:
            p = HyperParams(*cell)
            for tp_obs in range(p.support.start + 1):
                log10_p = skeleton_fit_log10_p(tp_obs, p)
                assert log10_p == 0.0 and math.copysign(1.0, log10_p) == 1.0


class TestExpectedTp:
    def test_worked_example(self):
        assert expected_tp(P587) == pytest.approx(5.6)

    def test_zero_truth(self):
        assert expected_tp(HyperParams(10, 0, 7)) == 0.0

    def test_metropolit_setting(self):
        assert expected_tp(HyperParams(231, 30, 30)) == pytest.approx(900 / 231)

    def test_zero_m_max(self):
        with pytest.raises(DegenerateParamsError):
            expected_tp(HyperParams(0, 0, 0))


class TestMetricFromCounts:
    COUNTS = ConfusionCounts(tp=6, fp=1, fn=2, tn=1)

    def test_precision(self):
        assert type(metric_from_counts("precision", self.COUNTS)) is float
        assert metric_from_counts("precision", self.COUNTS) == pytest.approx(6 / 7)

    def test_recall(self):
        assert metric_from_counts("recall", self.COUNTS) == pytest.approx(0.75)

    def test_missing_on_empty_estimate(self):
        c = ConfusionCounts(0, 0, 3, 7)
        assert metric_from_counts("precision", c) is None

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            metric_from_counts("accuracy", self.COUNTS)


class TestExpectedMetric:
    def test_precision_recall_examples(self):
        assert expected_metric("precision", P587) == pytest.approx(0.80)
        assert expected_metric("recall", P587) == pytest.approx(0.70)

    def test_f1_peak_example(self):
        assert expected_metric("f1", HyperParams(10, 8, 10)) == pytest.approx(8 / 9)

    def test_complements(self):
        for p in [P587, HyperParams(20, 5, 12), HyperParams(36, 18, 9)]:
            assert expected_metric("npv", p) == pytest.approx(
                1 - expected_metric("precision", p)
            )
            assert expected_metric("specificity", p) == pytest.approx(
                1 - expected_metric("recall", p)
            )

    def test_f1_monotone_in_m_est(self):
        # free lunch: adding edges never hurts expected F1
        for m_true in (1, 5, 8):
            values = [
                expected_metric("f1", HyperParams(10, m_true, m_est))
                for m_est in range(1, 11)
            ]
            assert values == sorted(values)

    def test_degenerate_precision(self):
        with pytest.raises(DegenerateParamsError):
            expected_metric("precision", HyperParams(10, 8, 0))


def _counts_for(k, p):
    return ConfusionCounts(
        tp=k,
        fp=p.m_est - k,
        fn=p.m_true - k,
        tn=p.m_max - p.m_est - p.m_true + k,
    )


class TestLinearity:
    @pytest.mark.parametrize("m_max", [5, 12, 23])
    def test_expectation_is_pmf_average(self, m_max):
        for m_true in range(m_max + 1):
            for m_est in range(m_max + 1):
                p = HyperParams(m_max, m_true, m_est)
                for metric in METRICS:
                    try:
                        expected = expected_metric(metric, p)
                    except DegenerateParamsError:
                        continue
                    avg = sum(
                        pmf(k, p) * metric_from_counts(metric, _counts_for(k, p))
                        for k in p.support
                    )
                    assert abs(expected - avg) < 1e-12, (metric, p)


class TestMetricQuantile:
    def test_recall_interval(self):
        assert metric_quantile("recall", 0.025, P587) == pytest.approx(5 / 8)
        assert metric_quantile("recall", 0.975, P587) == pytest.approx(7 / 8)

    def test_precision_median(self):
        assert metric_quantile("precision", 0.5, P587) == pytest.approx(6 / 7)

    def test_transform_of_quantile(self):
        p = HyperParams(21, 9, 12)
        for level in (0.1, 0.5, 0.9):
            q = quantile(level, p)
            assert metric_quantile("f1", level, p) == pytest.approx(
                2 * q / (p.m_est + p.m_true)
            )
            assert metric_quantile("npv", level, p) == pytest.approx(
                (p.m_max - p.m_est - p.m_true + q) / (p.m_max - p.m_est)
            )
            assert metric_quantile("specificity", level, p) == pytest.approx(
                (p.m_max - p.m_est - p.m_true + q) / (p.m_max - p.m_true)
            )


class TestIntegerCounts:
    @pytest.mark.parametrize(
        "counts",
        [(10.0, 3, 2), (10, 3, 2.5), (10, True, 2), (10, 3, False), ("10", 3, 2), (None, 3, 2)],
    )
    def test_non_integer_count_rejected(self, counts):
        with pytest.raises(ValueError, match="must be an integer"):
            HyperParams(*counts)

    def test_numpy_integers_become_ints(self):
        p = HyperParams(np.int64(10), np.int32(8), np.uint8(7))
        assert p == P587
        assert [type(v) for v in (p.m_max, p.m_true, p.m_est)] == [int, int, int]
        assert quantile(0.5, p) == quantile(0.5, P587)

    @pytest.mark.parametrize("tp_obs", [6.0, True, "6", None])
    def test_non_integer_tp_obs_rejected(self, tp_obs):
        with pytest.raises(ValueError, match="tp_obs must be an integer"):
            skeleton_fit_test(tp_obs, P587)
        with pytest.raises(ValueError, match="tp_obs must be an integer"):
            skeleton_fit_log10_p(tp_obs, P587)

    def test_numpy_tp_obs_accepted(self):
        assert skeleton_fit_test(np.int64(6), P587) == skeleton_fit_test(6, P587)

    @pytest.mark.parametrize("k", [2.0, True, "1", None])
    @pytest.mark.parametrize("fn", [pmf, cdf])
    def test_non_integer_k_rejected(self, fn, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            fn(k, P587)
        assert fn(np.int64(6), P587) == fn(6, P587) > 0


class TestSkeletonFitTest:
    def test_metropolit_p_value(self):
        p = skeleton_fit_test(10, HyperParams(231, 30, 30))
        assert round(p, 3) == 0.002

    def test_zero_observed_gives_one(self):
        assert skeleton_fit_test(0, P587) == 1.0

    def test_tail_sum_example(self):
        assert skeleton_fit_test(6, P587) == pytest.approx(56 / 120 + 8 / 120)

    def test_complement_identity(self):
        for k in P587.support:
            assert skeleton_fit_test(k, P587) + cdf(k - 1, P587) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_empty_estimate_rejected(self):
        with pytest.raises(DegenerateParamsError):
            skeleton_fit_test(0, HyperParams(10, 8, 0))

    def test_inconsistent_tp(self):
        with pytest.raises(ValueError):
            skeleton_fit_test(8, P587)

    def test_conservative_under_null(self, five_node_truth):
        # rejection rate at level alpha stays at or below alpha + MC tolerance
        from ncbench.metrics import adjacency_confusion
        from ncbench.random_graphs import RngSeed, sample_er_dag

        alpha = 0.05
        params = HyperParams(10, 8, 7)
        gen = RngSeed(77).generator()
        rejections = 0
        n_draws = 10_000
        for _ in range(n_draws):
            guess = sample_er_dag(5, 7, gen)
            conf = adjacency_confusion(five_node_truth, guess)
            if skeleton_fit_test(conf.tp, params) <= alpha:
                rejections += 1
        assert rejections / n_draws <= alpha + 0.01
