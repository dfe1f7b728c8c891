"""End-to-end acceptance checks.

Each test prints a single ``[criterion N] PASS/FAIL`` line so the suite can be
read as a checklist. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ncbench.cli import main
from ncbench.graphs import Dag, dag_to_cpdag, skeleton
from ncbench.hypergeom import (
    METRICS,
    ConfusionCounts,
    DegenerateParamsError,
    HyperParams,
    expected_metric,
    metric_from_counts,
    metric_quantile,
    pmf,
    quantile,
    skeleton_fit_test,
)
from ncbench.io import align_to, parse_graph
from ncbench.metrics import shd
from ncbench.pc import pc
from ncbench.pipeline import PipelineConfig, single_truth_nc
from ncbench.random_graphs import RngSeed, max_edges, sample_er_dag

from conftest import DATA_DIR, shared_study
from reference import all_dags

FIG1A = frozenset({(0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4), (4, 2)})


def _report(n, ok, detail=""):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_exact_expectation_table(capsys):
    start = time.perf_counter()
    p = HyperParams(10, 8, 7)
    checks = [
        expected_metric("precision", p) == 0.80,
        metric_quantile("precision", 0.5, p) == 6 / 7,
        metric_quantile("precision", 0.025, p) == 5 / 7,
        metric_quantile("precision", 0.975, p) == 7 / 7,
        expected_metric("recall", p) == 0.70,
        metric_quantile("recall", 0.5, p) == 0.75,
        metric_quantile("recall", 0.025, p) == 5 / 8,
        metric_quantile("recall", 0.975, p) == 7 / 8,
    ]
    rc = main(["expect", "--d", "5", "--m-true", "8", "--m-est", "7"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = all(checks) and rc == 0 and "0.8000" in out and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"exact rationals, {elapsed:.3f}s")


def test_criterion_02_f1_surface(capsys):
    start = time.perf_counter()
    checks = [
        expected_metric("f1", HyperParams(10, 5, 5)) == 0.5,
        expected_metric("f1", HyperParams(10, 5, 10)) == 2 / 3,
        expected_metric("f1", HyperParams(10, 8, 10)) == 8 / 9,
    ]
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed < 1.0
    with capsys.disabled():
        _report(2, ok, f"0.5, 2/3, 8/9 exact, {elapsed:.3f}s")


def test_criterion_03_fit_test_p_value(capsys):
    start = time.perf_counter()
    p = skeleton_fit_test(10, HyperParams(231, 30, 30))
    elapsed = time.perf_counter() - start
    ok = round(p, 3) == 0.002 and elapsed < 1.0
    with capsys.disabled():
        _report(3, ok, f"p = {p:.6f}, {elapsed:.3f}s")


def test_criterion_04_median_precision_recall(capsys):
    start = time.perf_counter()
    truth_skel = skeleton(Dag(5, FIG1A))
    ok = True
    for master_seed in range(5):
        gen = RngSeed(master_seed).generator()
        tps = [
            len(truth_skel & skeleton(sample_er_dag(5, 7, gen)))
            for _ in range(1000)
        ]
        prec = float(np.median([t / 7 for t in tps]))
        rec = float(np.median([t / 8 for t in tps]))
        ok = ok and prec == 6 / 7 and rec == 6 / 8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        _report(4, ok, f"medians 6/7 and 6/8 over 5 master seeds, {elapsed:.2f}s")


def test_criterion_05_tv_distance(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for d, m_true, m_est, seed in [(5, 8, 7, 1), (10, 15, 12, 2), (22, 30, 30, 3)]:
        gen = RngSeed(seed).generator()
        truth_skel = skeleton(sample_er_dag(d, m_true, gen))
        n_draws = 10_000
        counts = np.zeros(m_true + 1)
        for _ in range(n_draws):
            counts[len(truth_skel & skeleton(sample_er_dag(d, m_est, gen)))] += 1
        params = HyperParams(max_edges(d), m_true, m_est)
        tv = 0.5 * sum(
            abs(counts[k] / n_draws - pmf(k, params)) for k in range(m_true + 1)
        )
        details.append(f"TV({d},{m_true},{m_est})={tv:.4f}")
        ok = ok and tv < 0.02
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _report(5, ok, f"{' '.join(details)}, {elapsed:.1f}s")


def test_criterion_06_linearity_grid(capsys):
    start = time.perf_counter()
    worst = 0.0
    quantile_ok = True
    transforms = {
        "precision": lambda q, p: q / p.m_est,
        "recall": lambda q, p: q / p.m_true,
        "f1": lambda q, p: 2 * q / (p.m_est + p.m_true),
        "npv": lambda q, p: (p.m_max - p.m_est - p.m_true + q) / (p.m_max - p.m_est),
        "specificity": lambda q, p: (p.m_max - p.m_est - p.m_true + q)
        / (p.m_max - p.m_true),
    }
    for m_max in range(1, 31):
        for m_true in range(m_max + 1):
            for m_est in range(m_max + 1):
                p = HyperParams(m_max, m_true, m_est)
                weights = {k: pmf(k, p) for k in p.support}
                for metric in METRICS:
                    try:
                        expected = expected_metric(metric, p)
                    except DegenerateParamsError:
                        continue
                    avg = sum(
                        w
                        * metric_from_counts(
                            metric,
                            ConfusionCounts(
                                k, m_est - k, m_true - k, m_max - m_est - m_true + k
                            ),
                        )
                        for k, w in weights.items()
                    )
                    worst = max(worst, abs(expected - avg))
                    for level in (0.025, 0.5, 0.975):
                        q = quantile(level, p)
                        if metric_quantile(metric, level, p) != pytest.approx(
                            transforms[metric](q, p), abs=1e-12
                        ):
                            quantile_ok = False
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and quantile_ok and elapsed < 60.0
    with capsys.disabled():
        _report(6, ok, f"max |E - pmf average| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_oracle_pc(capsys):
    start = time.perf_counter()
    ok = True
    for d in (2, 3, 4):
        for g in all_dags(d):
            cp = dag_to_cpdag(g)
            est = pc(g)
            ok = ok and est.directed == cp.directed and est.undirected == cp.undirected
    gen = RngSeed(2718).generator().numpy()
    for _ in range(200):
        g = sample_er_dag(8, int(gen.integers(8, 21)), gen)
        cp = dag_to_cpdag(g)
        est = pc(g)
        ok = ok and est.directed == cp.directed and est.undirected == cp.undirected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        _report(7, ok, f"exhaustive d<=4 plus 200 random d=8, {elapsed:.1f}s")


def test_criterion_08_study_reproduction(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for seed in (1, 2, 3):
        sparse = shared_study(
            PipelineConfig(b=200, d=10, m_true=15, n=400, alpha=0.05, seed=seed)
        ).summary
        dense = shared_study(
            PipelineConfig(b=200, d=10, m_true=30, n=400, alpha=0.05, seed=seed)
        ).summary
        p_sparse = sparse["shd"]["p"]
        p_dense = dense["shd"]["p"]
        mean_m_est = dense["m_est"]["mean"]
        checks = [
            p_sparse < 0.05,
            sparse["adjacency_precision"]["p"] < 0.05,
            sparse["adjacency_recall"]["p"] < 0.05,
            p_dense > 0.05,
            mean_m_est < 20,
        ]
        details.append(
            f"seed {seed}: sparse p={p_sparse:.3f}, dense p={p_dense:.3f}, "
            f"dense m_est={mean_m_est:.1f}"
        )
        ok = ok and all(checks)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    with capsys.disabled():
        _report(8, ok, f"{'; '.join(details)}, {elapsed:.0f}s")


def test_criterion_09_sachs_fixtures(capsys):
    start = time.perf_counter()
    truth = parse_graph(f"{DATA_DIR}/sachs_truth.csv")
    empty = Dag(truth.d, frozenset(), truth.labels)
    est = align_to(truth, parse_graph(f"{DATA_DIR}/sachs_pc_estimate.csv", kind="cpdag"))
    nc = single_truth_nc(truth, est, ("shd",), b=1000, seed=5)["shd"]
    elapsed = time.perf_counter() - start
    checks = [
        shd(truth, empty) == 20,
        nc["observed"] == 23.0,
        29 <= nc["nc_mean"] <= 34,
        nc["p"] <= 0.01,
        elapsed < 30.0,
    ]
    ok = all(checks)
    with capsys.disabled():
        _report(
            9,
            ok,
            f"empty SHD 20, observed 23, NC mean {nc['nc_mean']:.2f}, "
            f"p={nc['p']:.3f}, {elapsed:.1f}s",
        )


def test_criterion_10_property_suites_standalone(capsys, tmp_path):
    start = time.perf_counter()
    here = Path(__file__).parent
    ok = True
    details, tails = [], []
    for module in ("test_graphs.py", "test_metrics.py"):
        run = subprocess.run(
            [sys.executable, "-m", "pytest", str(here / module), "-q"],
            capture_output=True,
            text=True,
        )
        ok = ok and run.returncode == 0
        details.append(f"{module} rc={run.returncode}")
        if run.returncode:
            tails.append(f"--- {module} ---\n" + "\n".join(run.stdout.splitlines()[-15:]))
    # pipeline determinism across thread counts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 6, "d": 6, "m_true": 7, "n": 80, "seed": 17}))
    summaries = []
    for threads in (1, 4):
        out_dir = tmp_path / f"t{threads}"
        rc = main(
            [
                "pipeline",
                "--config",
                str(cfg),
                "--out-dir",
                str(out_dir),
                "--threads",
                str(threads),
            ]
        )
        ok = ok and rc == 0
        summaries.append((out_dir / "summary.json").read_text())
    capsys.readouterr()
    same = summaries[0] == summaries[1]
    ok = ok and same
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    details.append(f"summaries at 1 and 4 threads {'match' if same else 'differ'}")
    detail = ", ".join(details) + f", {elapsed:.0f}s" + "".join(f"\n{t}" for t in tails)
    with capsys.disabled():
        _report(10, ok, detail)
