import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import ncbench
import ncbench.hypergeom
import ncbench.pipeline
from ncbench.cli import EXIT_INPUT, EXIT_NUMERICAL, _pipeline_config_from_file, main
from ncbench.graphs import Dag
from ncbench.hypergeom import metric_from_counts
from ncbench.io import write_graph
from ncbench.metrics import METRIC_NAMES, orientation_confusion, sid
from ncbench.pipeline import PipelineConfig

from conftest import DATA_DIR, load_schema

TRUTH = f"{DATA_DIR}/five_node_truth.csv"
EST = f"{DATA_DIR}/five_node_estimate.csv"


class TestExpect:
    def test_table_output(self, capsys):
        rc = main(["expect", "--d", "5", "--m-true", "8", "--m-est", "7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "m_max=10" in out
        assert "0.8000" in out  # expected precision
        assert "0.7000" in out  # expected recall

    def test_json_output(self, tmp_path, capsys):
        out_path = str(tmp_path / "expect.json")
        rc = main(
            [
                "expect",
                "--m-max",
                "10",
                "--m-true",
                "8",
                "--m-est",
                "7",
                "--metric",
                "recall",
                "--json",
                out_path,
            ]
        )
        assert rc == 0
        payload = json.loads(open(out_path).read())
        row = payload["rows"][0]
        assert row["expected"] == pytest.approx(0.7)
        assert row["ci_lower"] == pytest.approx(5 / 8)
        assert row["ci_upper"] == pytest.approx(7 / 8)

    def test_missing_size_args(self, capsys):
        rc = main(["expect", "--m-true", "8", "--m-est", "7"])
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_d_and_m_max_together_rejected(self, capsys):
        # --d sets m_max itself; a second, different m_max was silently ignored.
        rc = main(["expect", "--d", "10", "--m-max", "7", "--m-true", "3", "--m-est", "3"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "error: give one of --d or --m-max, not both\n"

    def test_degenerate_params(self, capsys):
        rc = main(["expect", "--d", "5", "--m-true", "8", "--m-est", "0"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "d, message",
        [
            ("-3", "node count d=-3 must be non-negative"),
            ("0", "m_true and m_est cannot exceed m_max"),
            ("1", "m_true and m_est cannot exceed m_max"),
        ],
    )
    def test_small_or_negative_d(self, d, message, capsys):
        rc = main(["expect", "--d", d, "--m-true", "2", "--m-est", "2"])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("level", ["-0.5", "0", "1", "1.5", "nan"])
    def test_level_outside_unit_interval(self, level, capsys):
        rc = main(["expect", "--d", "10", "--m-true", "8", "--m-est", "7", "--level", level])
        captured = capsys.readouterr()
        assert rc == EXIT_INPUT
        assert captured.out == ""
        assert captured.err == "error: level must be strictly between 0 and 1\n"

    def test_bad_level_reported_before_undefined_metric(self, capsys):
        # recall is undefined with m_true = 0
        argv = ["expect", "--d", "5", "--m-true", "0", "--m-est", "3"]
        assert main(argv) == EXIT_INPUT
        assert "recall is undefined" in capsys.readouterr().err
        assert main([*argv, "--level", "-0.5"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: level must be strictly between 0 and 1\n"


class TestFitTest:
    def test_bundled_pair(self, capsys):
        rc = main(["fit-test", "--truth", TRUTH, "--est", EST])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tp_obs=6" in out
        assert "log10_p = " in out

    def test_json(self, tmp_path):
        out_path = str(tmp_path / "fit.json")
        rc = main(["fit-test", "--truth", TRUTH, "--est", EST, "--json", out_path])
        assert rc == 0
        payload = json.loads(open(out_path).read())
        assert payload["m_true"] == 8 and payload["m_est"] == 7
        assert 0 < payload["p"] <= 1
        assert payload["log10_p"] == pytest.approx(math.log10(payload["p"]))

    def test_walks_the_tail_once(self, tmp_path, capsys, monkeypatch):
        # p and log10_p are read from one exact tail, as the library gives them.
        tails = []
        upper_tail = ncbench.hypergeom._upper_tail

        def counted(tp_obs, p):
            tails.append((tp_obs, p))
            return upper_tail(tp_obs, p)

        monkeypatch.setattr(ncbench.hypergeom, "_upper_tail", counted)
        out_path = tmp_path / "fit.json"
        assert main(["fit-test", "--truth", TRUTH, "--est", EST, "--json", str(out_path)]) == 0
        assert len(tails) == 1
        payload = json.loads(out_path.read_text())
        monkeypatch.undo()
        tp_obs, p = tails[0]
        assert payload["p"] == ncbench.hypergeom.skeleton_fit_test(tp_obs, p)
        assert payload["log10_p"] == ncbench.hypergeom.skeleton_fit_log10_p(tp_obs, p)

    def test_missing_file(self, capsys):
        rc = main(["fit-test", "--truth", TRUTH, "--est", "/nonexistent.csv"])
        assert rc == EXIT_INPUT

    def test_sampled_graph_keeps_isolated_nodes(self, tmp_path, capsys):
        # Five edges over ten nodes leave some nodes isolated; m_max must
        # still be C(10, 2) = 45, so the exact p-value is 1 / C(45, 5).
        path = str(tmp_path / "t.csv")
        assert main(["sample", "--d", "10", "--m", "5", "--seed", "1", "--out", path]) == 0
        capsys.readouterr()
        assert main(["fit-test", "--truth", path, "--est", path]) == 0
        out = capsys.readouterr().out
        assert "m_max=45 m_true=5 m_est=5 tp_obs=5" in out
        assert f"p = {1 / math.comb(45, 5):.6g}" in out


class TestCompare:
    def test_report_and_schema(self, tmp_path, capsys):
        out_path = str(tmp_path / "cmp.json")
        rc = main(
            [
                "compare",
                "--truth",
                TRUTH,
                "--est",
                EST,
                "--nc-reps",
                "100",
                "--seed",
                "7",
                "--json",
                out_path,
            ]
        )
        assert rc == 0
        payload = json.loads(open(out_path).read())
        jsonschema.validate(payload, load_schema("compare-report.schema.json"))
        assert payload["m_true"] == 8 and payload["m_est"] == 7
        assert "shd" in payload["metrics"]
        assert 0 <= payload["metrics"]["shd"]["p"] <= 1

    def test_seed_determinism(self, tmp_path):
        paths = [str(tmp_path / f"c{i}.json") for i in range(2)]
        for p in paths:
            args = [
                "compare",
                "--truth",
                TRUTH,
                "--est",
                EST,
                "--nc-reps",
                "50",
                "--seed",
                "3",
                "--json",
                p,
            ]
            assert main(args) == 0
        assert open(paths[0]).read() == open(paths[1]).read()

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCBENCH_SEED", "3")
        env_path = str(tmp_path / "env.json")
        assert (
            main(
                [
                    "compare",
                    "--truth",
                    TRUTH,
                    "--est",
                    EST,
                    "--nc-reps",
                    "50",
                    "--json",
                    env_path,
                ]
            )
            == 0
        )
        explicit_path = str(tmp_path / "explicit.json")
        main(
            [
                "compare",
                "--truth",
                TRUTH,
                "--est",
                EST,
                "--nc-reps",
                "50",
                "--seed",
                "3",
                "--json",
                explicit_path,
            ]
        )
        assert open(env_path).read() == open(explicit_path).read()

    def test_malformed_env_seed_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NCBENCH_SEED", "abc")
        rc = main(["sample", "--d", "4", "--m", "2", "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_INPUT
        assert "NCBENCH_SEED" in capsys.readouterr().err

    def test_sid_metrics_reported(self, tmp_path, five_node_truth, five_node_estimate):
        out_path = str(tmp_path / "sid.json")
        rc = main(
            [
                "compare",
                "--truth",
                TRUTH,
                "--est",
                EST,
                "--metrics",
                "sid_lower,sid_upper",
                "--nc-reps",
                "50",
                "--json",
                out_path,
            ]
        )
        assert rc == 0
        payload = json.loads(open(out_path).read())
        bounds = sid(five_node_truth, five_node_estimate)
        assert payload["metrics"]["sid_lower"]["observed"] == bounds.lower
        assert payload["metrics"]["sid_upper"]["observed"] == bounds.upper
        for name in ("sid_lower", "sid_upper"):
            assert 0 <= payload["metrics"][name]["p"] <= 1
            assert payload["metrics"][name]["nc_mean"] > 0

    def test_orientation_metrics_reported(self, tmp_path, five_node_truth, five_node_estimate):
        out_path = str(tmp_path / "ori.json")
        names = ("orientation_f1", "orientation_npv", "orientation_specificity")
        args = ["compare", "--truth", TRUTH, "--est", EST, "--metrics", ",".join(names)]
        assert main(args + ["--nc-reps", "50", "--json", out_path]) == 0
        payload = json.loads(open(out_path).read())
        ori = orientation_confusion(five_node_truth, five_node_estimate)
        for name in names:
            expected = metric_from_counts(name.removeprefix("orientation_"), ori)
            assert payload["metrics"][name]["observed"] == expected
            assert payload["metrics"][name]["p"] is not None

    def test_improper_estimate_gives_missing_sid(self, tmp_path, capsys):
        # A directed 3-cycle: a CPDAG with no DAG extension.
        est = tmp_path / "cycle.csv"
        est.write_text(
            "from,to,type\nX1,X2,directed\nX2,X3,directed\nX3,X1,directed\nX4,X5,undirected\n"
        )
        out_path = str(tmp_path / "cmp.json")
        rc = main(
            [
                "compare",
                "--truth",
                TRUTH,
                "--est",
                str(est),
                "--est-kind",
                "cpdag",
                "--metrics",
                "shd,sid_lower,sid_upper",
                "--nc-reps",
                "20",
                "--json",
                out_path,
            ]
        )
        assert rc == 0
        payload = json.loads(open(out_path).read())
        jsonschema.validate(payload, load_schema("compare-report.schema.json"))
        assert payload["metrics"]["sid_lower"] == {"observed": None, "p": None}
        assert payload["metrics"]["sid_upper"] == {"observed": None, "p": None}
        assert payload["metrics"]["shd"]["observed"] is not None
        assert "missing" in capsys.readouterr().out

    def test_unknown_metric_rejected(self, capsys):
        rc = main(
            ["compare", "--truth", TRUTH, "--est", EST, "--metrics", "shd,adjacency_precsion"]
        )
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "'adjacency_precsion'" in captured.err
        assert captured.out == ""

    def test_repeated_metric_rejected_before_reading(self, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a repeated metric reached the inputs")

        monkeypatch.setattr(ncbench.cli, "parse_graph", must_not_run)
        rc = main(["compare", "--truth", TRUTH, "--est", EST, "--metrics", "shd,shd"])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert "metric 'shd' is repeated" in captured.err
        assert captured.out == ""


def _src_env():
    """The environment for a child Python that imports this checkout's ncbench."""
    return {**os.environ, "PYTHONPATH": str(Path(ncbench.__file__).resolve().parents[1])}


def test_cli_import_loads_no_scipy():
    # Neither scipy nor jsonschema (test dependencies only), nor fractions:
    # the exact null is plain integer arithmetic. Nor numpy: only PC's tests
    # and the SEM load it, when they run.
    for module in ("ncbench", "ncbench.cli"):
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('scipy', 'jsonschema', 'fractions', 'numpy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]", module


def test_compare_and_pipeline_leave_numpy_ma_unimported(tmp_path):
    # np.quantile imports numpy.ma on its first call, ~10 ms of every
    # process; the summaries write its rule out instead.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 2, "d": 5, "m_true": 5, "n": 60, "seed": 1}))
    code = (
        "import sys\n"
        "from ncbench.cli import main\n"
        f"assert main(['pipeline', '--config', {str(cfg)!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
        f"assert main(['compare', '--truth', {DATA_DIR + '/sachs_truth.csv'!r},"
        f" '--est', {DATA_DIR + '/sachs_pc_estimate.csv'!r}, '--est-kind', 'cpdag',"
        " '--nc-reps', '5', '--seed', '0']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_every_subcommand_runs_with_the_runtime_dependencies_only(tmp_path):
    # The checks CI runs on a numpy-only install, here against src/: the test
    # dependencies blocked, every warning an error. A ResourceWarning is
    # printed, not raised, so stderr must stay empty.
    script = Path(__file__).resolve().parent / "bare_install.py"
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script), str(tmp_path)],
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok check_every_subcommand_ran"


def test_os_errors_exit_2_with_one_error_line(tmp_path):
    # A directory where a file is expected: the error is an input error on
    # one stderr line, with no traceback.
    runs = [
        ["sample", "--d", "3", "--m", "1", "--out", str(tmp_path)],
        ["fit-test", "--truth", str(tmp_path), "--est", EST],
        ["pipeline", "--config", str(tmp_path), "--out-dir", str(tmp_path / "out")],
    ]
    for argv in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "ncbench.cli", *argv],
            env=_src_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_INPUT, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and str(tmp_path) in line, line


def test_config_that_is_not_json_names_the_file(tmp_path, capsys):
    files = {"study.yaml": b"b: 4\n", "empty.json": b"", "binary.json": b"\xff\xfe"}
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content)
        rc = main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        [line] = capsys.readouterr().err.splitlines()
        assert rc == EXIT_INPUT
        assert line.startswith(f"error: {path}: not valid JSON: "), line
    assert not (tmp_path / "out").exists()


def test_config_with_a_byte_order_mark_runs_as_the_plain_file(tmp_path, capsys):
    # Editors on Windows can start a JSON file with a UTF-8 byte-order mark.
    text = json.dumps({"b": 2, "d": 5, "m_true": 5, "n": 60, "seed": 1}).encode()
    outs = []
    for name, content in (("plain.json", text), ("bom.json", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(content)
        outs.append(tmp_path / name.replace(".json", "_out"))
        assert main(["pipeline", "--config", str(tmp_path / name), "--out-dir", str(outs[-1])]) == 0
    capsys.readouterr()
    for name in ("summary.json", "replications.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_config_schema_lists_every_metric_name():
    schema = load_schema("pipeline-config.schema.json")
    assert set(schema["properties"]["metrics"]["items"]["enum"]) == METRIC_NAMES


# The config agreement table: PipelineConfig (through the `pipeline --config`
# loader) and the shipped schema must give every config the same verdict.
BASE_CONFIG = {"b": 1, "d": 3, "m_true": 2}
RANGES = (
    [[0.5, 2.0], [1, 1]],
    [[0.5], [0.5, 1, 2], [0, 1], [-1, 1], [-math.inf, 1], ["a", 1], [True, 1], "1,2", None],
)
FIELD_VALUES = {  # field -> (valid values, invalid values)
    "b": ([1, 7], ["4", True, None, 1.5, 0, -1]),
    "d": ([3, 12], ["5", True, 2.5, 1, 0]),
    "m_true": ([0, 3], ["1", True, 0.5, -1]),
    "n": ([1, 400], ["60", True, 60.5, 0]),
    "alpha": ([0.05, 0.999], ["0.05", True, None, 0, 1, 1.5, -0.1, math.inf, -math.inf]),
    "metrics": (
        [["shd"], sorted(METRIC_NAMES)],
        ["shd", [], ["shd", "sid_lowr"], ["shd", "shd"], [1], [True], None],
    ),
    "nc_kind": (["dag", "cpdag"], ["pdag", "DAG", 1, True, None]),
    "seed": ([0, 2**64 - 1], ["3", True, -1, 2**64, 1.5]),
    "weight_range": RANGES,
    "variance_range": RANGES,
    "sid_cap": ([1, 10_000], ["5", True, 0, 2.5]),
}
# Rejected by PipelineConfig although the schema accepts them: the rules the
# schema's description names because JSON Schema cannot state them. JSON has
# no non-finite numbers, but json.load reads Infinity and NaN, which the
# schema's bounds let through.
SCHEMA_EXCEPTIONS = [
    *({field: 4.0} for field in ("b", "d", "m_true", "n", "seed", "sid_cap")),
    {"m_true": 4},  # d = 3 has 3 pairs
    {"weight_range": [2.0, 0.5]},
    {"variance_range": [1.5, 0.5]},
    {"alpha": math.nan},
    {"weight_range": [1, math.inf]},
    {"weight_range": [math.nan, 1]},
    {"variance_range": [0.5, math.inf]},
    {"variance_range": [1, math.nan]},
    {"weight_range": [1, 10**400]},  # an int past float range
]


def _agreement_cases():
    """(config, the field a rejection must name, or None for a valid config)."""
    for field, (valid, invalid) in FIELD_VALUES.items():
        for value in valid:
            yield {**BASE_CONFIG, field: value}, None
        for value in invalid:
            yield {**BASE_CONFIG, field: value}, field
    yield {**BASE_CONFIG, "replications": 3}, "replications"
    yield {**BASE_CONFIG, "algorithm": "pc"}, "algorithm"
    for field in BASE_CONFIG:
        yield {k: v for k, v in BASE_CONFIG.items() if k != field}, field
    for root in ([], "config", 1, None):
        yield root, "object"


def _rejection_names_field(raw, field, tmp_path, capsys, monkeypatch):
    """Run `pipeline` on a config that must be rejected: exit 2, the field
    named on stderr, and no truth drawn or PC run before the rejection."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a rejected config reached the study")

    monkeypatch.setattr(ncbench.pipeline, "sample_er_dag", must_not_run)
    monkeypatch.setattr(ncbench.pipeline, "pc", must_not_run)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    rc = main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_INPUT
    assert field in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, field", list(_agreement_cases()), ids=json.dumps)
def test_config_loader_agrees_with_schema(raw, field, tmp_path, capsys, monkeypatch):
    schema = jsonschema.Draft202012Validator(load_schema("pipeline-config.schema.json"))
    assert schema.is_valid(raw) == (field is None)
    if field is None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert isinstance(_pipeline_config_from_file(str(path)), PipelineConfig)
    else:
        _rejection_names_field(raw, field, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("change", SCHEMA_EXCEPTIONS, ids=json.dumps)
def test_config_rules_beyond_the_schema(change, tmp_path, capsys, monkeypatch):
    raw = {**BASE_CONFIG, **change}
    assert jsonschema.Draft202012Validator(load_schema("pipeline-config.schema.json")).is_valid(raw)
    [field] = change
    _rejection_names_field(raw, field, tmp_path, capsys, monkeypatch)


class TestPipeline:
    def _config(self, tmp_path, **overrides):
        cfg = {"b": 4, "d": 5, "m_true": 5, "n": 60, "seed": 9}
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_writes_outputs(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out_dir = str(tmp_path / "out")
        rc = main(["pipeline", "--config", cfg, "--out-dir", out_dir])
        assert rc == 0
        summary = json.loads(open(f"{out_dir}/summary.json").read())
        jsonschema.validate(summary, load_schema("study-result.schema.json"))
        assert summary["schema_version"] == 1
        assert "shd" in summary["summary"]
        lines = open(f"{out_dir}/replications.csv").read().splitlines()
        assert len(lines) == 5  # header + 4 replications
        assert lines[0].startswith("replication,m_true,m_est,m_nc")

    def test_seed_override_changes_results(self, tmp_path):
        cfg = self._config(tmp_path)
        a, b, c = (str(tmp_path / x) for x in ("a", "b", "c"))
        main(["pipeline", "--config", cfg, "--out-dir", a])
        main(["pipeline", "--config", cfg, "--out-dir", b, "--seed", "9"])
        main(["pipeline", "--config", cfg, "--out-dir", c, "--seed", "10"])
        read = lambda p: open(f"{p}/summary.json").read()
        assert read(a) == read(b)
        assert read(a) != read(c)

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        cfg = self._config(tmp_path, b="four")
        rc = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "b" in err

    def test_unknown_metric_in_config_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path, metrics=["shd", "sid_lowr"])
        rc = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert "'sid_lowr'" in capsys.readouterr().err

    def test_failed_replications_are_missing(self, tmp_path):
        # PC raises CiTestError (n too small) on replications 0, 1 and 3.
        cfg = self._config(tmp_path, d=8, m_true=20, n=4, seed=1)
        out_dir = str(tmp_path / "out")
        assert main(["pipeline", "--config", cfg, "--out-dir", out_dir]) == 0
        summary = json.loads(open(f"{out_dir}/summary.json").read())
        jsonschema.validate(summary, load_schema("study-result.schema.json"))
        assert summary["summary"]["m_est"]["missing"] == 3
        rows = open(f"{out_dir}/replications.csv").read().splitlines()[1:]
        assert [row.split(",")[2] != "" for row in rows] == [False, False, True, False]
        assert rows[0].split(",")[4] == ""  # algo_shd
        assert rows[0].split(",")[5] != ""  # nc_shd

    def test_failed_replications_warned_on_stderr(self, tmp_path, capsys):
        cfg = self._config(tmp_path, d=8, m_true=20, n=4, seed=1)
        assert main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: 3 of 4 replications failed; "
            "first (replication 0): need n > |z| + 3 (n=4, |z|=1)\n"
        )
        assert "warning" not in captured.out

    def test_clean_study_leaves_stderr_empty(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_env_seed_does_not_set_the_study_seed(self, tmp_path, monkeypatch):
        # A study's seed comes from its config; only --seed overrides it.
        cfg = self._config(tmp_path)
        outs = []
        for env_seed in ("1", "9"):
            monkeypatch.setenv("NCBENCH_SEED", env_seed)
            outs.append(tmp_path / f"out{env_seed}")
            main(["pipeline", "--config", cfg, "--out-dir", str(outs[-1])])
        assert (outs[0] / "summary.json").read_text() == (outs[1] / "summary.json").read_text()

    def test_every_replication_failing_exits_3(self, tmp_path, capsys):
        cfg = self._config(tmp_path, b=1, d=8, m_true=20, n=4, seed=1)
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", cfg, "--out-dir", str(out_dir)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == "error: need n > |z| + 3 (n=4, |z|=1)\n"
        assert not out_dir.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path, replications=10)
        rc = main(["pipeline", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_INPUT

    def test_unknown_and_missing_keys_are_named(self, tmp_path, capsys):
        # "algorithm" is a PipelineConfig field but no config key: a file
        # cannot hold a callable. Missing keys come in field order.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"replications": 10, "algorithm": "pc", "d": 5, "n": 60}))
        rc = main(["pipeline", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {path}: unknown keys ['algorithm', 'replications'], "
            "missing keys ['b', 'm_true']\n"
        )


class TestSampleAndSimulate:
    def test_sample_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            rc = main(
                ["sample", "--d", "6", "--m", "7", "--seed", "5", "--out", out]
            )
            assert rc == 0
        assert open(a).read() == open(b).read()

    def test_sample_cpdag_matrix(self, tmp_path):
        out = str(tmp_path / "cp.csv")
        rc = main(
            [
                "sample",
                "--d",
                "4",
                "--m",
                "3",
                "--kind",
                "cpdag",
                "--seed",
                "1",
                "--format",
                "adjacency-matrix",
                "--out",
                out,
            ]
        )
        assert rc == 0

    def test_seeded_outputs_are_pinned(self, tmp_path):
        # sha256 of each output file: a changed seed stream changes them.
        dag, cpdag, data = (str(tmp_path / name) for name in ("dag.csv", "cp.csv", "data.csv"))
        runs = {
            dag: ["sample", "--d", "6", "--m", "7", "--seed", "5", "--stream", "2", "--out", dag],
            cpdag: [
                "sample", "--d", "4", "--m", "3", "--kind", "cpdag", "--seed", "1",
                "--format", "adjacency-matrix", "--out", cpdag,
            ],
            data: ["simulate-data", "--graph", dag, "--n", "5", "--seed", "2", "--out", data],
        }
        pinned = {
            dag: "328e03c8b3f7edb09419cc739c3438d82d099dff2003d41eecb5534815ce1e50",
            cpdag: "0beaefcc13082114e595e303c932924ea27f4f3bfd79f39989a70985368d6b2b",
            data: "c6cac70d9938b27db3d54a3ffc48fc41ba9c85622ca60073d8f1b6e0ca3525dd",
        }
        for out, argv in runs.items():
            assert main(argv) == 0
            assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == pinned[out], argv

    @pytest.mark.parametrize("seed", range(6))
    def test_simulate_data_does_not_depend_on_the_format(self, tmp_path, seed):
        data = []
        for fmt in ("edge-list", "adjacency-matrix"):
            graph, out = str(tmp_path / f"{fmt}.csv"), tmp_path / f"{fmt}.data.csv"
            sample = ["sample", "--d", "12", "--m", "15", "--seed", str(seed), "--out", graph]
            assert main([*sample, "--format", fmt]) == 0
            simulate = ["simulate-data", "--graph", graph, "--n", "4", "--seed", str(seed)]
            assert main([*simulate, "--format", fmt, "--out", str(out)]) == 0
            data.append(out.read_bytes())
        assert data[0] == data[1]
        assert data[0].startswith(b"X1,X2,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12\n")

    def test_sample_m_too_large(self, capsys):
        rc = main(["sample", "--d", "3", "--m", "4", "--out", "/tmp/x.csv"])
        assert rc == EXIT_INPUT

    @pytest.mark.parametrize(
        "d, message",
        [
            ("-3", "node count d=-3 must be non-negative"),
            ("0", "m=2 out of range [0, 0] for d=0"),
            ("1", "m=2 out of range [0, 0] for d=1"),
        ],
    )
    def test_sample_small_or_negative_d(self, d, message, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["sample", "--d", d, "--m", "2", "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_simulate_data(self, tmp_path):
        out = str(tmp_path / "data.csv")
        rc = main(
            [
                "simulate-data",
                "--graph",
                TRUTH,
                "--n",
                "25",
                "--seed",
                "2",
                "--out",
                out,
            ]
        )
        assert rc == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 26
        assert len(lines[0].split(",")) == 5

    def test_simulate_data_quotes_the_header(self, tmp_path):
        # A label may hold a comma or a quote: the header is quoted as the
        # graph file is, one cell per data column.
        labels = ["a,b", "c", 'say "hi"']
        graph, out = str(tmp_path / "g.csv"), str(tmp_path / "data.csv")
        write_graph(Dag(3, {(0, 1), (1, 2)}, labels), graph)
        rc = main(["simulate-data", "--graph", graph, "--n", "6", "--seed", "0", "--out", out])
        assert rc == 0
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == labels
        assert len(rows) == 6 and all(len(row) == 3 for row in rows)
