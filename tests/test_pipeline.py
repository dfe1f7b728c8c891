import inspect
import json
import math
import re
import warnings
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from ncbench.graphs import (
    SID_CAP, Cpdag, Dag, GraphError, dag_to_cpdag, enumerate_extensions, skeleton
)
from ncbench.hypergeom import ConfusionCounts, HyperParams, expected_metric, quantile
from ncbench.io import align_to, parse_graph
from ncbench.metrics import SMALLER_IS_BETTER, full_report, sid
import ncbench.metrics
import ncbench.pipeline
from ncbench.pc import CiTestError, PcConfig, pc
from ncbench.pipeline import (
    DEFAULT_METRICS,
    PipelineConfig,
    _mean,
    _replicate,
    _summarize,
    paired_p,
    run_study,
    single_truth_nc,
)
from ncbench.random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag
from ncbench.sem import draw_sem, simulate

from conftest import DATA_DIR, load_schema
from reference import with_labels


def test_summary_interval_matches_numpy_quantile():
    # _summarize writes out np.quantile's linear rule; equal to the bit on
    # integers, ties, fractions and floats of mixed scale, from n = 1 up.
    gen = RngSeed(31).generator().numpy()
    for trial in range(2000):
        n = 1 + trial % 7 if trial < 70 else int(gen.integers(1, 300))
        kind = trial % 4
        if kind == 0:
            values = gen.normal(size=n).tolist()
        elif kind == 1:
            values = gen.integers(0, 40, size=n).tolist()
        elif kind == 2:
            values = (gen.integers(0, 7, size=n) / 7).tolist()
        else:
            values = (gen.random(size=n) * 10 ** gen.uniform(-5, 5, size=n)).tolist()
        summary = _summarize(values + [None] * (trial % 3))
        assert summary["ci"] == [
            float(np.quantile(values, 0.025)), float(np.quantile(values, 0.975))
        ]
        assert summary["missing"] == trial % 3


def test_summary_mean_matches_numpy_mean():
    # _mean writes out np.mean on floats (pairwise, after 0.0) and on ints
    # (an exact sum), equal to the bit from n = 1 to past numpy's 8192-element
    # cast buffers, on mixed scales and on signed zeros.
    gen = np.random.default_rng(32)
    sizes = [1, 2, 7, 8, 9, 15, 16, 127, 128, 129, 136, 255, 1000, 8192, 8193, 20000, 70001]
    lists = []
    for n in sizes:
        lists.append(gen.normal(size=n).tolist())
        lists.append((gen.random(size=n) * 10 ** gen.uniform(-8, 8, size=n)).tolist())
        lists.append(gen.integers(0, 10**6, size=n).tolist())
        lists.append([float(v) for v in gen.integers(-3, 4, size=n)])
    lists += [[-0.0] * n for n in (1, 7, 8, 200)] + [[3, 0.5, 2]]
    for values in lists:
        mean = _mean(values)
        assert type(mean) is float
        assert repr(mean) == repr(float(np.mean(values))), (len(values), values[:3])


class TestPairedP:
    def test_nc_always_worse(self):
        p, dropped = paired_p([1, 1, 1], [5, 5, 5], "smaller-favorable")
        assert p == 0.0 and dropped == 0

    def test_ties_favor_null(self):
        p, _ = paired_p([2, 2], [2, 2], "smaller-favorable")
        assert p == 1.0

    def test_missing_pairs_dropped(self):
        p, dropped = paired_p([1, None, 3], [2, 2, None], "smaller-favorable")
        assert p == 0.0 and dropped == 2

    def test_all_missing_raises(self):
        with pytest.raises(ValueError):
            paired_p([None], [None], "smaller-favorable")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_p([1], [1, 2], "smaller-favorable")

    def test_directions_cover_everything(self):
        algo = [1.0, 2.0, 3.0, 2.0]
        nc = [2.0, 1.0, 3.0, 2.5]
        lo, _ = paired_p(algo, nc, "smaller-favorable")
        hi, _ = paired_p(algo, nc, "larger-favorable")
        # ties count for both, so the two one-sided rates sum to >= 1
        assert lo + hi >= 1.0


class TestRunStudy:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(b=0, d=5, m_true=4)
        with pytest.raises(ValueError):
            PipelineConfig(b=1, d=5, m_true=4, nc_kind="pdag")

    def test_unknown_metric_named_before_work(self):
        with pytest.raises(ValueError, match="'adjacency_precsion'"):
            PipelineConfig(b=1, d=5, m_true=4, metrics=("shd", "adjacency_precsion"))

    def test_repeated_metric_named_before_work(self):
        with pytest.raises(ValueError, match="metric 'shd' is repeated"):
            PipelineConfig(b=1, d=5, m_true=4, metrics=("shd", "adjacency_f1", "shd"))

    def test_perfect_algorithm_dominates(self):
        # an oracle that returns the truth itself: SHD 0, p_shd small
        def oracle(data, pc_cfg):
            return oracle.answers.pop(0)

        # build answers by replaying the per-replication truth stream
        master = RngSeed(3)
        oracle.answers = [
            sample_er_dag(6, 7, master.child(i)) for i in range(20)
        ]
        cfg = PipelineConfig(
            b=20, d=6, m_true=7, n=50, seed=3, nc_kind="dag", algorithm=oracle
        )
        result = run_study(cfg)
        assert result.summary["shd"]["algorithm"]["mean"] == 0.0
        assert result.summary["shd"]["p"] <= 0.05
        for rep in result.replications:
            assert rep.algo_values["shd"] == 0.0

    def test_nc_edge_counts_resampled_from_observed(self):
        cfg = PipelineConfig(b=15, d=6, m_true=8, n=80, seed=4)
        result = run_study(cfg)
        observed = {rep.m_est for rep in result.replications}
        for rep in result.replications:
            assert len(skeleton(rep.nc)) in observed

    def test_each_truth_is_prepared_once(self, monkeypatch):
        # One scorer per replication scores both its estimate and its
        # negative control, so each truth's v-structures are found once.
        scorers, found = [], []
        scorer, v_structures = ncbench.metrics._scorer, ncbench.metrics.v_structures

        def scorer_spy(truth, names, sid_cap):
            scorers.append(truth)
            return scorer(truth, names, sid_cap)

        def v_structures_spy(g):
            found.append(g)
            return v_structures(g)

        monkeypatch.setattr(ncbench.metrics, "_scorer", scorer_spy)
        monkeypatch.setattr(ncbench.metrics, "v_structures", v_structures_spy)
        result = run_study(PipelineConfig(b=5, d=10, m_true=30, n=400, seed=0))
        truths = [rep.truth for rep in result.replications]
        assert scorers == found == truths
        assert all(rep.nc is not None and rep.error is None for rep in result.replications)

    def test_determinism(self):
        cfg = PipelineConfig(b=8, d=5, m_true=5, n=60, seed=11)
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.to_dict() == b.to_dict()

    def test_numpy_integer_config_is_stored_as_ints(self):
        # The fields are kept as ints, so the result serializes as JSON and
        # equals the study of the same config in plain ints.
        cfg = PipelineConfig(b=np.int64(2), d=np.int64(4), m_true=3, n=60, seed=np.uint64(1))
        doc = run_study(cfg).to_dict()
        for name in ("b", "d", "m_true", "n", "seed", "sid_cap"):
            assert type(doc["config"][name]) is int
        plain = run_study(PipelineConfig(b=2, d=4, m_true=3, n=60, seed=1)).to_dict()
        assert json.dumps(doc) == json.dumps(plain)

    def test_numpy_float_config_is_stored_as_floats(self):
        # No cast warning in the finite check, and the fields are kept as
        # floats, so the result serializes as JSON.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = PipelineConfig(
                b=2, d=4, m_true=3, n=60, seed=1, alpha=np.float32(0.05),
                weight_range=(np.float32(0.5), np.float32(2.0)),
                variance_range=(np.float16(1.0), np.float32(1.5)),
            )
            doc = run_study(cfg).to_dict()
        assert type(cfg.alpha) is float and cfg.alpha == float(np.float32(0.05))
        for pair in (cfg.weight_range, cfg.variance_range):
            assert all(type(v) is float for v in pair)
        assert cfg.weight_range == (0.5, 2.0) and cfg.variance_range == (1.0, 1.5)
        assert json.loads(json.dumps(doc))["config"]["alpha"] == cfg.alpha
        # Any other real the same way, and one past float range is not finite.
        cfg = PipelineConfig(b=2, d=4, m_true=3, weight_range=(Fraction(1, 2), 2))
        assert cfg.weight_range == (0.5, 2) and type(cfg.weight_range[1]) is int
        with pytest.raises(ValueError, match=r"^weight_range entry must be a finite number"):
            PipelineConfig(b=2, d=4, m_true=3, weight_range=(1, Fraction(10**400)))

    def test_summary_schema(self):
        cfg = PipelineConfig(b=5, d=5, m_true=5, n=60, seed=12, sid_cap=7)
        doc = run_study(cfg).to_dict()
        schema = load_schema("study-result.schema.json")
        jsonschema.validate(json.loads(json.dumps(doc)), schema)
        assert doc["config"]["sid_cap"] == 7  # the cap that decided SID MISSING
        assert "algorithm" not in doc["config"]
        doc["config"]["sid_cap"] = 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    def test_all_default_metrics_present(self):
        cfg = PipelineConfig(b=4, d=5, m_true=5, n=60, seed=13)
        result = run_study(cfg)
        for name in DEFAULT_METRICS:
            assert name in result.summary
            assert result.summary[name]["direction"] in (
                "smaller-favorable",
                "larger-favorable",
            )

    def test_unscorable_sid_is_missing_not_fatal(self):
        # Some PC outputs in this regime are improper CPDAGs with no DAG
        # extension; their SID values become MISSING and the study completes.
        cfg = PipelineConfig(
            b=20, d=10, m_true=30, seed=7, metrics=("shd", "sid_lower", "sid_upper")
        )
        summary = run_study(cfg).summary
        for name in ("sid_lower", "sid_upper"):
            assert summary[name]["algorithm"]["missing"] > 0
            assert summary[name]["dropped_pairs"] == summary[name]["algorithm"]["missing"]
        shd_only = run_study(PipelineConfig(b=20, d=10, m_true=30, seed=7, metrics=("shd",)))
        assert summary["shd"] == shd_only.summary["shd"]
        assert summary["shd"]["algorithm"]["missing"] == 0

    def test_null_calibration(self):
        # "algorithm" that is itself a matched random draw: p-values for SHD
        # should be roughly uniform, so the rejection rate at 0.05 stays near 0.05
        rejections = 0
        meta = 200
        for s in range(meta):
            stream = RngSeed(9000, s)

            def null_algo(data, pc_cfg, _rng=stream.generator()):
                return sample_er_dag(5, 6, _rng)

            cfg = PipelineConfig(
                b=25,
                d=5,
                m_true=6,
                n=20,
                seed=s,
                metrics=("shd",),
                nc_kind="dag",
                algorithm=null_algo,
            )
            if run_study(cfg).summary["shd"]["p"] <= 0.05:
                rejections += 1
        assert rejections / meta <= 0.12


# n = 4 is too small for a Fisher-z test given one variable: PC raises
# CiTestError on replications 0, 1 and 3 of this config, not on 2.
PROBE = {"b": 4, "d": 8, "m_true": 20, "n": 4, "seed": 1}


def _step1(rep):
    return rep.truth, rep.estimate, rep.m_est, rep.algo_values


class TestFailedReplication:
    def test_failed_replications_are_missing(self):
        result = run_study(PipelineConfig(**PROBE))
        reps = result.replications
        assert [rep.error is None for rep in reps] == [False, False, True, False]
        for rep in reps[:2] + reps[3:]:
            assert isinstance(rep.error, CiTestError)
            assert (rep.estimate, rep.m_est) == (None, None)
            assert rep.algo_values == dict.fromkeys(DEFAULT_METRICS)
        # Every NC, the failed replications' too, is drawn from the one m_est left.
        assert {len(skeleton(rep.nc)) for rep in reps} == {reps[2].m_est}
        summary = result.summary
        assert summary["m_est"]["missing"] == 3
        assert summary["m_est"]["mean"] == float(reps[2].m_est)
        for name in DEFAULT_METRICS:
            assert summary[name]["algorithm"]["missing"] >= 3
            assert summary[name]["dropped_pairs"] >= 3
        assert summary["shd"]["dropped_pairs"] == 3
        assert summary["shd"]["negative_control"]["missing"] == 0

    def test_every_replication_failing_raises_the_first_error(self):
        with pytest.raises(CiTestError, match=r"need n > \|z\| \+ 3 \(n=4, \|z\|=1\)"):
            run_study(PipelineConfig(**{**PROBE, "b": 1}))

    def test_one_failure_leaves_the_other_replications(self):
        calls = []

        def fails_on_index_1(data, pc_cfg):
            calls.append(None)
            if len(calls) == 2:  # step 1 runs in index order
                raise CiTestError("injected")
            return pc(data, pc_cfg)

        cfg = PipelineConfig(b=6, d=6, m_true=7, n=80, seed=5)
        plain = run_study(cfg).replications
        patched = run_study(cfg._replace(algorithm=fails_on_index_1))
        failed = patched.replications[1]
        assert str(failed.error) == "injected"
        assert _step1(failed) == (plain[1].truth, None, None, dict.fromkeys(cfg.metrics))
        for i in (0, 2, 3, 4, 5):
            assert _step1(patched.replications[i]) == _step1(plain[i])
        assert patched.summary["m_est"]["missing"] == 1
        pool = {plain[i].m_est for i in (0, 2, 3, 4, 5)}
        assert {len(skeleton(rep.nc)) for rep in patched.replications} <= pool


class TestIndependence:
    @pytest.mark.parametrize("b", [5, 8])
    def test_replication_independent_of_b(self, b):
        cfg = PipelineConfig(b=b, d=6, m_true=7, n=80, seed=21)
        reps = run_study(cfg).replications
        for i in range(5):
            assert _step1(_replicate(cfg, i)[0]) == _step1(reps[i])

    def test_single_truth_draws_independent_of_b(
        self, five_node_truth, five_node_estimate, monkeypatch
    ):
        real = ncbench.pipeline._nc_values
        drawn = []

        def recording(*args):
            nc, values = real(*args)
            drawn[-1].append((nc, values))
            return nc, values

        monkeypatch.setattr(ncbench.pipeline, "_nc_values", recording)
        for b in (50, 100):
            drawn.append([])
            single_truth_nc(five_node_truth, five_node_estimate, DEFAULT_METRICS, b=b, seed=6)
        assert [len(d) for d in drawn] == [50, 100]
        assert drawn[0] == drawn[1][:50]


class TestSingleTruthNc:
    def test_perfect_estimate_small_p(self, five_node_truth):
        out = single_truth_nc(five_node_truth, five_node_truth, ("shd",), b=200, seed=1)["shd"]
        assert out["observed"] == 0.0
        assert out["p"] < 0.05

    def test_nc_mean_matches_exact_null(self, five_node_truth, five_node_estimate):
        # adjacency recall of a matched random DAG has closed-form mean m_est/m_max
        out = single_truth_nc(
            five_node_truth, five_node_estimate, ("adjacency_recall",), b=2000, seed=2
        )["adjacency_recall"]
        expected = expected_metric("recall", HyperParams(10, 8, 7))
        assert out["nc_mean"] == pytest.approx(expected, abs=0.02)
        assert out["m_est"] == 7

    def test_determinism(self, five_node_truth, five_node_estimate):
        a = single_truth_nc(five_node_truth, five_node_estimate, ("shd",), b=50, seed=3)["shd"]
        b = single_truth_nc(five_node_truth, five_node_estimate, ("shd",), b=50, seed=3)["shd"]
        assert a == b

    def test_metric_names_may_come_as_a_one_shot_iterator(
        self, five_node_truth, five_node_estimate
    ):
        names = ["shd", "adjacency_recall"]
        truth, est = five_node_truth, five_node_estimate
        assert full_report(truth, est, (n for n in names)) == full_report(truth, est, names)
        rows = single_truth_nc(truth, est, iter(names), b=3)
        assert list(rows) == names
        assert rows == single_truth_nc(truth, est, names, b=3)

    def test_bad_b(self, five_node_truth):
        with pytest.raises(ValueError):
            single_truth_nc(five_node_truth, five_node_truth, ("shd",), b=0)

    def test_sid_cap_below_one_is_an_error_not_missing(self, five_node_truth):
        est = dag_to_cpdag(five_node_truth)
        with pytest.raises(ValueError, match="cap must be at least 1"):
            single_truth_nc(five_node_truth, est, ("sid_lower",), b=2, sid_cap=0)

    def test_missing_observed_is_a_missing_row(self, five_node_truth, monkeypatch):
        # Precision of the empty estimate is 0/0; recall (0) and SHD are defined.
        scorers, scored = [], []
        original = ncbench.pipeline._metrics._scorer

        def scorer_spy(truth, metrics, sid_cap):
            scorers.append(tuple(metrics))
            score = original(truth, metrics, sid_cap)

            def score_spy(est, names=metrics):
                scored.append(tuple(names))
                return score(est, names)

            return score_spy

        monkeypatch.setattr(ncbench.pipeline._metrics, "_scorer", scorer_spy)
        names = ("adjacency_precision", "adjacency_recall", "shd")
        out = single_truth_nc(five_node_truth, Dag(5), names, b=10, seed=5)
        assert list(out) == list(names)
        assert out["adjacency_precision"] == {
            "metric": "adjacency_precision",
            "observed": None,
            "m_est": 0,
            "nc_kind": "dag",
            "p": None,
        }
        # One scorer per evaluation scores the estimate once, and the draws
        # score the defined metrics only.
        assert scorers == [names]
        assert scored == [names] + [("adjacency_recall", "shd")] * 10
        defined = single_truth_nc(five_node_truth, Dag(5), names[1:], b=10, seed=5)
        assert {name: out[name] for name in names[1:]} == defined
        assert defined["shd"]["observed"] == 8.0 and defined["shd"]["p"] == 1.0
        # With no metric defined, nothing is drawn.
        scorers.clear()
        scored.clear()
        out = single_truth_nc(five_node_truth, Dag(5), ("adjacency_precision",), b=10)
        assert out["adjacency_precision"]["p"] is None
        assert scorers == scored == [("adjacency_precision",)]

    def test_labeled_truth(self, five_node_truth, five_node_estimate):
        labels = ("A", "B", "C", "D", "E")
        out = single_truth_nc(
            with_labels(five_node_truth, labels),
            with_labels(five_node_estimate, labels),
            ("shd",),
            b=50,
            seed=4,
        )["shd"]
        plain = single_truth_nc(
            five_node_truth, five_node_estimate, ("shd",), b=50, seed=4
        )["shd"]
        assert out == plain

    def test_all_missing_metric_keeps_the_others(self):
        # The one NC edge of seed 0 is 2 -> 0, which misses the pair (0, 1), so
        # no orientation is shared and orientation precision is 0/0.
        truth = Dag(4, frozenset({(0, 1)}))
        assert skeleton(sample_er_dag(4, 1, RngSeed(0).child(0))) != skeleton(truth)
        out = single_truth_nc(truth, truth, ("orientation_precision", "shd"), b=1, seed=0)
        row = out["orientation_precision"]
        assert row["observed"] == 1.0
        assert (row["nc_mean"], row["nc_ci"], row["p"], row["dropped"]) == (
            None,
            [None, None],
            None,
            1,
        )
        assert out["shd"]["p"] == 0.0 and out["shd"]["dropped"] == 0


def per_metric_nc(truth, est, name, b, seed):
    """One metric's single-truth NC row from its own b draws, scored one name
    at a time: the reference for the shared draws of single_truth_nc."""
    observed = full_report(truth, est, (name,))[name].value
    m_est = len(skeleton(est))
    values = []
    for i in range(b):
        nc = with_labels(sample_er_cpdag(truth.d, m_est, RngSeed(seed).child(i)), truth.labels)
        values.append(full_report(truth, nc, (name,))[name].value)
    usable = [v for v in values if v is not None]
    if name in SMALLER_IS_BETTER:
        hits = sum(v <= observed for v in usable)
    else:
        hits = sum(v >= observed for v in usable)
    return {
        "observed": observed,
        "nc_mean": float(np.mean(usable)),
        "nc_ci": [float(np.quantile(usable, 0.025)), float(np.quantile(usable, 0.975))],
        "p": hits / len(usable),
        "dropped": b - len(usable),
    }


def test_shared_draws_match_per_metric_draws():
    truth = parse_graph(f"{DATA_DIR}/sachs_truth.csv")
    est = align_to(truth, parse_graph(f"{DATA_DIR}/sachs_pc_estimate.csv", kind="cpdag"))
    names = DEFAULT_METRICS + ("sid_lower", "sid_upper")
    out = single_truth_nc(truth, est, names, b=200, seed=11)
    assert list(out) == list(names)
    for name in names:
        row = {key: out[name][key] for key in ("observed", "nc_mean", "nc_ci", "p", "dropped")}
        assert row == per_metric_nc(truth, est, name, b=200, seed=11), name


def test_single_truth_nc_rejects_a_repeated_metric_before_drawing(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a repeated metric reached the draws")

    monkeypatch.setattr(ncbench.pipeline, "sample_er_cpdag", must_not_run)
    monkeypatch.setattr(ncbench.pipeline, "sample_er_dag", must_not_run)
    truth = sample_er_dag(5, 4, RngSeed(0).generator())
    with pytest.raises(ValueError, match="metric 'vstructure_recovery' is repeated"):
        single_truth_nc(truth, truth, ("vstructure_recovery", "shd", "vstructure_recovery"), b=5)


@pytest.mark.parametrize(
    "estimate, message",
    [
        (Dag(5), "node count mismatch: 4 vs 5"),
        (Dag(4, labels=("A", "B", "C", "D")), "node label mismatch"),
    ],
    ids=["node_count", "labels"],
)
def test_run_study_rejects_a_mismatched_estimate_before_drawing(estimate, message, monkeypatch):
    # The study checks each estimate against its truth once, where the
    # algorithm returns it; the negative controls are never checked.
    def must_not_run(*args, **kwargs):
        raise AssertionError("a mismatched estimate reached the negative controls")

    monkeypatch.setattr(ncbench.pipeline, "_nc_values", must_not_run)
    cfg = PipelineConfig(b=2, d=4, m_true=3, n=20, algorithm=lambda data, pc_cfg: estimate)
    with pytest.raises(GraphError, match=message):
        run_study(cfg)


def test_metric_values_are_wrapped_only_at_full_reports_door(monkeypatch):
    # Inside the package a score is a plain {name: float | None}: a compare
    # and a study build no MetricValue, and full_report one per name.
    built = []
    init = ncbench.metrics.MetricValue.__init__

    def spy(self, name, value):
        built.append(name)
        init(self, name, value)

    monkeypatch.setattr(ncbench.metrics.MetricValue, "__init__", spy)
    truth = parse_graph(f"{DATA_DIR}/sachs_truth.csv")
    est = align_to(truth, parse_graph(f"{DATA_DIR}/sachs_pc_estimate.csv", kind="cpdag"))
    single_truth_nc(truth, est, DEFAULT_METRICS, b=50)
    run_study(PipelineConfig(b=3, d=5, m_true=5, n=60, seed=2))
    assert built == []
    names = ("shd", "sid_lower", "adjacency_f1")
    full_report(truth, est, names)
    assert built == list(names)


def test_every_sid_cap_default_is_sid_cap():
    for fn, name in (
        (enumerate_extensions, "cap"),
        (sid, "cap"),
        (full_report, "sid_cap"),
        (single_truth_nc, "sid_cap"),
    ):
        assert inspect.signature(fn).parameters[name].default is SID_CAP
    assert PipelineConfig(b=1, d=3, m_true=1).sid_cap is SID_CAP


# Every door that takes a count, seed or cap: name -> (the argument its
# errors name, a call that passes a value there and returns what it keeps or
# gives). Each must reject what is not an integer, bools included, with a
# ValueError naming the argument, and treat a numpy integer as the int.
_CHAIN = Dag(3, frozenset({(0, 1), (1, 2)}))
_CHAIN_MODEL = draw_sem(_CHAIN, RngSeed(0).child(0))
_PIPELINE_BASE = {"b": 3, "d": 3, "m_true": 1}
_COUNTS_BASE = {"tp": 1, "fp": 0, "fn": 0, "tn": 0}
INTEGER_DOORS = {
    "RngSeed.seed": ("seed", lambda v: RngSeed(v).seed),
    "RngSeed.stream": ("stream", lambda v: RngSeed(0, v).stream),
    "RngSeed.child": ("index", lambda v: RngSeed(0).child(v).numpy().random()),
    "max_edges": ("d", max_edges),
    "sample_er_dag.d": ("d", lambda v: sample_er_dag(v, 1, RngSeed(0).generator())),
    "sample_er_dag.m": ("m", lambda v: sample_er_dag(5, v, RngSeed(0).generator())),
    "sample_er_cpdag.d": ("d", lambda v: sample_er_cpdag(v, 1, RngSeed(0).generator())),
    "sample_er_cpdag.m": ("m", lambda v: sample_er_cpdag(5, v, RngSeed(0).generator())),
    "simulate.n": ("n", lambda v: simulate(_CHAIN_MODEL, v, RngSeed(0).generator()).tolist()),
    "single_truth_nc.b": ("b", lambda v: single_truth_nc(_CHAIN, _CHAIN, ("shd",), b=v)),
    "single_truth_nc.seed": (
        "seed", lambda v: single_truth_nc(_CHAIN, _CHAIN, ("shd",), b=2, seed=v)
    ),
    "PcConfig.max_cond_size": (
        "max_cond_size", lambda v: PcConfig(max_cond_size=v).max_cond_size
    ),
    "enumerate_extensions.cap": (
        "cap", lambda v: enumerate_extensions(Cpdag(2, undirected={(0, 1)}), cap=v)
    ),
    "HyperParams.m_est": ("m_est", lambda v: HyperParams(4, 2, v).m_est),
    **{
        f"ConfusionCounts.{name}": (
            name, lambda v, name=name: getattr(ConfusionCounts(**{**_COUNTS_BASE, name: v}), name)
        )
        for name in _COUNTS_BASE
    },
    **{
        f"PipelineConfig.{name}": (
            name, lambda v, name=name: getattr(PipelineConfig(**{**_PIPELINE_BASE, name: v}), name)
        )
        for name in ("b", "d", "m_true", "n", "seed", "sid_cap")
    },
}


@pytest.mark.parametrize("value", [True, 2.5, "3", np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("door", INTEGER_DOORS)
def test_integer_rule_rejects(door, value):
    name, call = INTEGER_DOORS[door]
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("door", INTEGER_DOORS)
def test_integer_rule_takes_numpy_integers_as_ints(door):
    _, call = INTEGER_DOORS[door]
    plain = call(2)
    for value in (np.int64(2), np.uint8(2)):
        kept = call(value)
        assert type(kept) is type(plain) and kept == plain


# Every door that takes a real number: name -> (the argument its errors
# name, a call that passes a value there and returns what it keeps or gives).
# Each must reject a bool, a string, None and a non-finite float with a
# ValueError naming the argument, and treat a numpy float as the float.
_PARAMS = HyperParams(10, 8, 7)
REAL_DOORS = {
    "PcConfig.alpha": ("alpha", lambda v: PcConfig(alpha=v).alpha),
    "quantile.level": ("level", lambda v: quantile(v, _PARAMS)),
    "PipelineConfig.alpha": ("alpha", lambda v: PipelineConfig(**_PIPELINE_BASE, alpha=v).alpha),
    **{
        f"draw_sem.{name}": (
            f"{name} entry",
            lambda v, name=name: draw_sem(_CHAIN, RngSeed(0).child(0), **{name: (0.5, v)}),
        )
        for name in ("weight_range", "variance_range")
    },
    **{
        f"PipelineConfig.{name}": (
            f"{name} entry",
            lambda v, name=name: getattr(
                PipelineConfig(**{**_PIPELINE_BASE, name: (0.5, v)}), name
            ),
        )
        for name in ("weight_range", "variance_range")
    },
}


@pytest.mark.parametrize("value", [True, "0.5", None, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("door", REAL_DOORS)
def test_real_rule_rejects(door, value):
    name, call = REAL_DOORS[door]
    message = f"^{name} must be a (finite )?number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("door", REAL_DOORS)
def test_real_rule_takes_numpy_floats_as_floats(door):
    _, call = REAL_DOORS[door]
    plain, kept = call(0.5), call(np.float64(0.5))
    assert kept == plain
    pairs = zip(kept, plain) if isinstance(kept, tuple) else [(kept, plain)]  # a range's entries
    assert all(type(k) is type(p) for k, p in pairs)


@pytest.mark.parametrize("pair", [1.0, (0.5, 2, 3), [0.5], "ab"], ids=repr)
def test_a_range_must_be_two_numbers(pair):
    for call in (
        lambda: draw_sem(_CHAIN, RngSeed(0).child(0), weight_range=pair),
        lambda: PipelineConfig(**_PIPELINE_BASE, weight_range=pair),
    ):
        message = f"^weight_range must be two numbers, got {re.escape(repr(pair))}$"
        with pytest.raises(ValueError, match=message):
            call()
