"""Simulation-based negative controls: the multi-truth study (simulate
truths, run the algorithm, pair each estimate with a random graph of matched
edge count) and the single-truth variant for real-data applications."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Cpdag, Dag, ExtensionCapExceeded, GraphError, skeleton, with_labels
from .hypergeom import MetricValue
from .metrics import SMALLER_IS_BETTER, check_metric_names, compute_metric
from .pc import PcConfig, pc
from .random_graphs import RngSeed, sample_er_cpdag, sample_er_dag
from .sem import SemConfig, draw_sem, simulate

DEFAULT_METRICS = (
    "shd",
    "adjacency_precision",
    "adjacency_recall",
    "orientation_precision",
    "orientation_recall",
    "vstructure_recovery",
)


@dataclass(frozen=True)
class PipelineConfig:
    b: int
    d: int
    m_true: int
    n: int = 400
    alpha: float = 0.05
    metrics: tuple = DEFAULT_METRICS
    nc_kind: str = "cpdag"  # matches the algorithm's output kind
    seed: int = 0
    weight_range: tuple = (0.5, 2.0)
    variance_range: tuple = (0.5, 1.5)
    sid_cap: int = 10_000
    algorithm: object = None  # callable(data, PcConfig) -> Dag | Cpdag; PC if None

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("replication count must be at least 1")
        if self.nc_kind not in ("dag", "cpdag"):
            raise ValueError("nc_kind must be 'dag' or 'cpdag'")
        check_metric_names(self.metrics)


@dataclass
class Replication:
    index: int
    truth: Dag
    estimate: object
    nc: object
    m_est: int
    algo_values: dict
    nc_values: dict


@dataclass
class StudyResult:
    config: PipelineConfig
    replications: list
    summary: dict  # metric -> dict(mean/ci/p for algo and nc)
    methods_note: str = (
        "Paired p-values count replications where the negative control "
        "performs at least as well as the algorithm (ties favor the null)."
    )

    def to_dict(self):
        cfg = self.config
        return {
            "schema_version": 1,
            "config": {
                "b": cfg.b,
                "d": cfg.d,
                "m_true": cfg.m_true,
                "n": cfg.n,
                "alpha": cfg.alpha,
                "metrics": list(cfg.metrics),
                "nc_kind": cfg.nc_kind,
                "seed": cfg.seed,
                "weight_range": list(cfg.weight_range),
                "variance_range": list(cfg.variance_range),
            },
            "summary": self.summary,
            "methods_note": self.methods_note,
        }


def paired_p(algo_values, nc_values, direction="smaller-favorable"):
    """Fraction of pairs where the negative control does at least as well.

    MISSING pairs are dropped; returns (p, dropped_count).
    """
    if len(algo_values) != len(nc_values):
        raise ValueError("paired vectors must have equal length")
    if direction not in ("smaller-favorable", "larger-favorable"):
        raise ValueError(f"unknown direction {direction!r}")
    hits = 0
    usable = 0
    for a, c in zip(algo_values, nc_values):
        if a is None or c is None:
            continue
        usable += 1
        if direction == "smaller-favorable":
            hits += c <= a
        else:
            hits += c >= a
    if usable == 0:
        raise ValueError("no usable pairs (all values missing)")
    return hits / usable, len(algo_values) - usable


def _metric_direction(name):
    return "smaller-favorable" if name in SMALLER_IS_BETTER else "larger-favorable"


def _summarize(values):
    present = [v for v in values if v is not None]
    if not present:
        return {"mean": None, "ci": [None, None], "missing": len(values)}
    return {
        "mean": float(np.mean(present)),
        "ci": [
            float(np.quantile(present, 0.025)),
            float(np.quantile(present, 0.975)),
        ],
        "missing": len(values) - len(present),
    }


def _score(name, truth, est, sid_cap):
    """One metric value, or None (MISSING) when the estimate cannot be scored:
    an improper CPDAG or an equivalence class above the extension cap."""
    try:
        return compute_metric(name, truth, est, sid_cap).value
    except (GraphError, ExtensionCapExceeded):
        return None


def run_study(cfg):
    """Steps 1-3 of the negative-control procedure, plus paired p-values.

    Step 1: simulate truths, generate data, run the algorithm, score it and
    record each estimate's edge count. Step 2: draw one negative control per
    replication with edge count resampled (with replacement) from the
    observed counts. Step 3: score the negative controls against the same
    truths and aggregate. Deterministic given cfg.seed.
    """
    master = RngSeed(cfg.seed)
    algorithm = cfg.algorithm or (lambda data, pc_cfg: pc(data, pc_cfg))
    pc_cfg = PcConfig(alpha=cfg.alpha)

    replications = []
    m_ests = []
    for i in range(cfg.b):
        rep_rng = master.child(i)
        truth = sample_er_dag(cfg.d, cfg.m_true, rep_rng)
        sem_cfg = SemConfig(
            n=cfg.n,
            weight_range=cfg.weight_range,
            variance_range=cfg.variance_range,
        )
        model = draw_sem(truth, sem_cfg, rep_rng)
        data = simulate(model, cfg.n, rep_rng)
        estimate = algorithm(data, pc_cfg)
        m_est = len(skeleton(estimate))
        algo_values = {
            name: _score(name, truth, estimate, cfg.sid_cap) for name in cfg.metrics
        }
        replications.append(
            Replication(i, truth, estimate, None, m_est, algo_values, {})
        )
        m_ests.append(m_est)

    # Step 2 uses a dedicated stream so NC draws never depend on b ordering.
    nc_master = RngSeed(cfg.seed, 1)
    for rep in replications:
        nc_rng = nc_master.child(rep.index)
        m_nc = int(nc_rng.choice(m_ests))
        if cfg.nc_kind == "dag":
            nc = sample_er_dag(cfg.d, m_nc, nc_rng)
        else:
            nc = sample_er_cpdag(cfg.d, m_nc, nc_rng)
        rep.nc = nc
        rep.nc_values = {
            name: _score(name, rep.truth, nc, cfg.sid_cap) for name in cfg.metrics
        }

    summary = {}
    for name in cfg.metrics:
        algo_vals = [r.algo_values[name] for r in replications]
        nc_vals = [r.nc_values[name] for r in replications]
        try:
            p, dropped = paired_p(algo_vals, nc_vals, _metric_direction(name))
        except ValueError:
            p, dropped = None, cfg.b  # metric undefined in every replication
        summary[name] = {
            "algorithm": _summarize(algo_vals),
            "negative_control": _summarize(nc_vals),
            "p": p,
            "dropped_pairs": dropped,
            "direction": _metric_direction(name),
        }
    summary["m_est"] = _summarize([float(m) for m in m_ests])
    return StudyResult(cfg, replications, summary)


def single_truth_nc(truth, estimate, metric, b=1000, seed=0, sid_cap=10_000):
    """Negative-control evaluation against a single known truth.

    Draws b random graphs of the estimate's kind and edge count, scores each
    against the truth, and reports the observed value, NC mean, and the
    fraction of NCs doing at least as well as the estimate. NC values that
    are MISSING are dropped.
    """
    if b < 1:
        raise ValueError("need at least one negative control")
    observed = compute_metric(metric, truth, estimate, sid_cap).value
    if observed is None:
        raise ValueError(f"{metric} is undefined for the observed estimate")
    m_est = len(skeleton(estimate))
    kind = "dag" if isinstance(estimate, Dag) else "cpdag"
    master = RngSeed(seed)
    direction = _metric_direction(metric)
    nc_values = []
    for i in range(b):
        rng = master.child(i)
        if kind == "dag":
            nc = sample_er_dag(truth.d, m_est, rng)
        else:
            nc = sample_er_cpdag(truth.d, m_est, rng)
        nc = with_labels(nc, truth.labels)
        nc_values.append(_score(metric, truth, nc, sid_cap))
    usable = [v for v in nc_values if v is not None]
    if not usable:
        raise ValueError("all negative-control values missing")
    if direction == "smaller-favorable":
        hits = sum(v <= observed for v in usable)
    else:
        hits = sum(v >= observed for v in usable)
    return {
        "metric": metric,
        "observed": observed,
        "m_est": m_est,
        "nc_kind": kind,
        "nc_mean": float(np.mean(usable)),
        "nc_ci": [
            float(np.quantile(usable, 0.025)),
            float(np.quantile(usable, 0.975)),
        ],
        "p": hits / len(usable),
        "dropped": len(nc_values) - len(usable),
        "direction": direction,
    }
