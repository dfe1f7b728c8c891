"""Simulation-based negative controls: the multi-truth study (simulate
truths, run the algorithm, pair each estimate with a random graph of matched
edge count) and the single-truth variant for real-data applications.

Each replication is one call per step on its own stream, independent of b and
of the other replications: _replicate(cfg, i) on RngSeed(seed).child(i) and
_control on RngSeed(seed, 1).child(i); draw i of single_truth_nc uses
RngSeed(seed).child(i). _nc_values draws every negative control through
random_graphs._nc_draw, which spends only the randomness the graph reads, as
the stream is dropped after the draw. It scores the control with a scorer
(metrics._scorer) that has done the truth's share of the work once: its
v-structures and its SID term memo. A score is a plain {name: float, or None
when MISSING} dict. single_truth_nc builds one scorer per evaluation, for the
estimate and all b draws; a study one per replication, built by _replicate
and shared with _control. The scorer checks no pair, and _nc_draw only the
stream's pair-count door: the truth and the estimate are checked once where
they enter, and a draw needs nothing more."""

from __future__ import annotations

import functools
import math

from . import metrics as _metrics
from .graphs import SID_CAP, _as_int, _as_real, _Record, skeleton
from .metrics import SMALLER_IS_BETTER, check_metric_names
from .pc import CiTestError, PcConfig, pc
from .random_graphs import RngSeed, _nc_draw, max_edges, sample_er_dag
from .sem import DEFAULT_VARIANCE_RANGE, DEFAULT_WEIGHT_RANGE, check_range, draw_sem, simulate

DEFAULT_METRICS = (
    "shd",
    "adjacency_precision",
    "adjacency_recall",
    "orientation_precision",
    "orientation_recall",
    "vstructure_recovery",
)


class PipelineConfig(_Record):
    """A study config, checked in full at construction; PcConfig and RngSeed
    check their fields. The shipped config schema documents the rules.
    nc_kind matches the algorithm's output kind; algorithm is a
    callable(data, PcConfig) -> Dag | Cpdag, PC if None."""

    def __init__(
        self, b, d, m_true, n=400, alpha=0.05, metrics=DEFAULT_METRICS, nc_kind="cpdag", seed=0,
        weight_range=DEFAULT_WEIGHT_RANGE, variance_range=DEFAULT_VARIANCE_RANGE, sid_cap=SID_CAP,
        algorithm=None,
    ):
        b, d, m_true, n, seed, sid_cap = (_as_int(value, name, ValueError) for name, value in zip(
            ("b", "d", "m_true", "n", "seed", "sid_cap"), (b, d, m_true, n, seed, sid_cap)))
        for name, value, low in (("b", b, 1), ("d", d, 2), ("m_true", m_true, 0), ("n", n, 1),
                                 ("sid_cap", sid_cap, 1)):
            if value < low:
                raise ValueError(f"{name} must be at least {low}")
        if m_true > max_edges(d):
            raise ValueError(f"m_true must be at most d(d-1)/2 = {max_edges(d)}")
        alpha = _as_real(alpha, "alpha")
        weight_range = check_range("weight_range", weight_range)
        variance_range = check_range("variance_range", variance_range)
        if nc_kind not in ("dag", "cpdag"):
            raise ValueError("nc_kind must be 'dag' or 'cpdag'")
        if not isinstance(metrics, (list, tuple)) or not metrics:
            raise ValueError("metrics must be a non-empty list of metric names")
        check_metric_names(metrics)
        PcConfig(alpha=alpha)
        RngSeed(seed)
        self._set(b=b, d=d, m_true=m_true, n=n, alpha=alpha, metrics=tuple(metrics),
                  nc_kind=nc_kind, seed=seed, weight_range=weight_range,
                  variance_range=variance_range, sid_cap=sid_cap, algorithm=algorithm)


class Replication(_Record):
    """One study replication: its truth Dag, the algorithm's estimate and
    its m_est (both None when the algorithm failed), the negative control
    nc, each side's values by metric, and the algorithm's CiTestError, if
    it raised one."""

    def __init__(self, index, truth, estimate, nc, m_est, algo_values, nc_values, error=None):
        self._set(index=index, truth=truth, estimate=estimate, nc=nc, m_est=m_est,
                  algo_values=algo_values, nc_values=nc_values, error=error)


METHODS_NOTE = (
    "Paired p-values count replications where the negative control "
    "performs at least as well as the algorithm (ties favor the null)."
)


class StudyResult(_Record):
    """A study's PipelineConfig, its Replications and its summary, metric ->
    dict(mean/ci/p for algo and nc)."""

    def __init__(self, config, replications, summary):
        self._set(config=config, replications=replications, summary=summary)

    def to_dict(self):
        cfg = self.config
        return {
            "schema_version": 1,
            "config": {name: getattr(cfg, name) for name in cfg._fields if name != "algorithm"},
            "summary": self.summary,
            "methods_note": METHODS_NOTE,
        }


def paired_p(algo_values, nc_values, direction="smaller-favorable"):
    """Fraction of pairs where the negative control does at least as well.

    MISSING pairs are dropped; returns (p, dropped_count).
    """
    if len(algo_values) != len(nc_values):
        raise ValueError("paired vectors must have equal length")
    if direction not in ("smaller-favorable", "larger-favorable"):
        raise ValueError(f"unknown direction {direction!r}")
    hits = usable = 0
    for a, c in zip(algo_values, nc_values):
        if a is not None and c is not None:
            usable += 1
            hits += c <= a if direction == "smaller-favorable" else c >= a
    if usable == 0:
        raise ValueError("no usable pairs (all values missing)")
    return hits / usable, len(algo_values) - usable


def _quantile(ordered, q):
    """np.quantile's default ('linear') rule on a sorted list, to the bit:
    np.quantile itself imports numpy.ma on its first call."""
    h = (len(ordered) - 1) * q
    if h >= len(ordered) - 1:
        return ordered[-1]
    k = math.floor(h)
    a, b, g = ordered[k], ordered[k + 1], h - k
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def _pairwise(x):
    """numpy's pairwise sum of a list of floats, to the bit: below 8 terms a loop
    from -0.0; to 128, eight interleaved running sums added as a tree, then the
    rest; above, the sums of two halves split at a multiple of 8."""
    n, add = len(x), float.__add__
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(x[:half]) + _pairwise(x[half:])
    if n < 8:
        return functools.reduce(add, x, -0.0)
    r = [functools.reduce(add, x[k:n - n % 8:8]) for k in range(8)]
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(add, x[n - n % 8:], tree)


def _mean(values):
    """np.mean on a list of floats or of ints, to the bit: 0.0 plus the pairwise sum.
    numpy sums ints cast in 8192-element buffers, another order, but below 2**53
    every partial sum of ints is exact, so the order cannot change the bits."""
    return (0.0 + _pairwise([float(v) for v in values])) / len(values)


def _summarize(values):
    present = [v for v in values if v is not None]
    if not present:
        return {"mean": None, "ci": [None, None], "missing": len(values)}
    ordered = sorted(present)
    return {
        "mean": _mean(present),
        "ci": [float(_quantile(ordered, 0.025)), float(_quantile(ordered, 0.975))],
        "missing": len(values) - len(present),
    }


def _nc_values(score, kind, d, m, rng, metrics):
    """(nc, values): one negative control of the given kind with m edges over
    d nodes, drawn from rng by random_graphs._nc_draw, and its `metrics` values
    from the scorer `score`."""
    nc = _nc_draw(kind, d, m, rng)
    return nc, score(nc, metrics)


def _paired(name, algo_vals, nc_vals):
    """(p, dropped pairs, direction) for one metric; p is None and every pair
    is dropped when the metric is MISSING in all of them."""
    direction = "smaller-favorable" if name in SMALLER_IS_BETTER else "larger-favorable"
    try:
        return (*paired_p(algo_vals, nc_vals, direction), direction)
    except ValueError:
        return None, len(nc_vals), direction


def _replicate(cfg, i):
    """Step 1 for replication i, on stream RngSeed(cfg.seed).child(i): truth,
    SEM, data, the algorithm's estimate and its values. Returns the
    Replication and the scorer prepared on its truth, for _control. A
    CiTestError from the algorithm leaves the estimate, m_est and every value
    MISSING (None)."""
    rng = RngSeed(cfg.seed).child(i)
    truth = sample_er_dag(cfg.d, cfg.m_true, rng)
    score = _metrics._scorer(truth, cfg.metrics, cfg.sid_cap)
    # The SEM, then its data, draw on from the truth's state in the same stream.
    data = simulate(draw_sem(truth, rng, cfg.weight_range, cfg.variance_range), cfg.n, rng)
    try:
        estimate = (cfg.algorithm or pc)(data, PcConfig(alpha=cfg.alpha))
    except CiTestError as exc:
        return Replication(i, truth, None, None, None, dict.fromkeys(cfg.metrics), {}, exc), score
    _metrics._check_pair(truth, estimate)
    m_est = len(skeleton(estimate))
    return Replication(i, truth, estimate, None, m_est, score(estimate), {}), score


def _control(cfg, rep, score, pool):
    """Step 2 for rep, on stream RngSeed(cfg.seed, 1).child(rep.index): an edge
    count drawn from pool, the study's m_ests, then the NC and its values from
    `score`, the scorer _replicate prepared on rep's truth."""
    rng = RngSeed(cfg.seed, 1).child(rep.index)
    m = rng.choice(pool)
    nc, nc_values = _nc_values(score, cfg.nc_kind, rep.truth.d, m, rng, cfg.metrics)
    return rep._replace(nc=nc, nc_values=nc_values)


def run_study(cfg):
    """Steps 1-3 of the negative-control procedure, plus paired p-values.

    Step 1, _replicate(cfg, i) in index order: truth, data, estimate, values.
    Step 2, _control: one negative control per replication, its edge count
    resampled (with replacement) from the estimates' edge counts, scored by
    the scorer _replicate prepared on the same truth. Step 3: aggregate. A
    replication whose algorithm raised CiTestError is MISSING and adds no
    edge count; the first error is re-raised only when every replication
    failed. Deterministic given cfg.seed.
    """
    steps = [_replicate(cfg, i) for i in range(cfg.b)]
    if all(rep.error is not None for rep, _ in steps):
        raise steps[0][0].error
    pool = [rep.m_est for rep, _ in steps if rep.error is None]
    reps = [_control(cfg, rep, score, pool) for rep, score in steps]
    summary = {}
    for name in cfg.metrics:
        algo_vals = [r.algo_values[name] for r in reps]
        nc_vals = [r.nc_values[name] for r in reps]
        p, dropped, direction = _paired(name, algo_vals, nc_vals)
        summary[name] = {
            "algorithm": _summarize(algo_vals),
            "negative_control": _summarize(nc_vals),
            "p": p,
            "dropped_pairs": dropped,
            "direction": direction,
        }
    summary["m_est"] = _summarize([rep.m_est for rep in reps])
    return StudyResult(cfg, reps, summary)


def single_truth_nc(truth, estimate, metrics, b=1000, seed=0, sid_cap=SID_CAP):
    """Negative-control evaluation against a single known truth.

    Scores the estimate once. Draws b random graphs of the estimate's kind and
    edge count, draw i on stream RngSeed(seed).child(i), scores each against
    the truth once for every metric defined for the estimate, and returns
    {name: row} in `metrics` order. A row holds the observed value, the NC
    mean and 95% interval, and the fraction of NCs doing at least as well as
    the estimate. MISSING NC values are dropped; a metric MISSING on every
    draw gets no mean, interval or p. A metric undefined for the estimate
    (0/0, or SID of an improper CPDAG) is MISSING: its row has observed and p
    None and no NC keys, and when no metric is defined nothing is drawn.
    """
    b = _as_int(b, "b", ValueError)
    if b < 1:
        raise ValueError("need at least one negative control")
    master, metrics = RngSeed(seed), tuple(metrics)
    score = _metrics._scorer(truth, metrics, sid_cap)
    _metrics._check_pair(truth, estimate)
    observed = score(estimate)
    defined = [name for name in metrics if observed[name] is not None]
    m_est = len(skeleton(estimate))
    draws = [
        _nc_values(score, estimate.kind, truth.d, m_est, master.child(i), defined)[1]
        for i in range(b if defined else 0)
    ]
    rows = {}
    for name in metrics:
        row = {"metric": name, "observed": observed[name], "m_est": m_est, "nc_kind": estimate.kind}
        if observed[name] is None:
            rows[name] = {**row, "p": None}
            continue
        nc_vals = [values[name] for values in draws]
        nc = _summarize(nc_vals)
        p, dropped, direction = _paired(name, [observed[name]] * b, nc_vals)
        rows[name] = {
            **row,
            "nc_mean": nc["mean"],
            "nc_ci": nc["ci"],
            "p": p,
            "dropped": dropped,
            "direction": direction,
        }
    return rows
