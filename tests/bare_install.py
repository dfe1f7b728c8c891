"""Run every ncbench subcommand with numpy as the only runtime dependency.

    python -W error tests/bare_install.py DIR

DIR must exist; every file the checks write goes under it. The test
dependencies (jsonschema, scipy, hypothesis) are blocked before ncbench is
imported, every warning is an error, and each command runs through
ncbench.cli.main in this process with its exit code checked. The Sachs
fixtures are read from the imported package's own data/ directory, so a run
against an installed package also checks that its data files were installed.
The last check fails if some subcommand of the parser was never run.
One check runs expect, fit-test, compare and sample again in a child process
with numpy blocked: they must not need it, and must print the bytes that
tests/golden/ holds for them, and write the same sample file as with numpy.
Another imports ncbench and then ncbench.cli in a child process: neither
import may load dataclasses, inspect or typing.

CI runs this against a non-editable install in a venv holding numpy only;
tests/test_cli.py runs it against src/ with PYTHONPATH=src.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

sys.dont_write_bytecode = True  # write nothing outside DIR
for _name in ("jsonschema", "scipy", "hypothesis"):
    sys.modules[_name] = None  # `import _name` now raises ImportError
warnings.simplefilter("error")

import ncbench  # noqa: E402
from ncbench import cli  # noqa: E402

DATA = os.path.join(os.path.dirname(ncbench.__file__), "data")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SACHS = [
    "--truth", os.path.join(DATA, "sachs_truth.csv"),
    "--est", os.path.join(DATA, "sachs_pc_estimate.csv"), "--est-kind", "cpdag",
]
RAN = set()


def run(*argv):
    """cli.main(argv) with stdout and stderr captured; returns both after
    checking that it exited 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    RAN.add(argv[0])
    assert rc == 0, (argv, rc, err.getvalue())
    return out.getvalue(), err.getvalue()


def run_pipeline(root, name, config):
    """`pipeline` on `config` written to root/name.json, into root/name;
    returns the output directory and stderr."""
    path, out_dir = os.path.join(root, name + ".json"), os.path.join(root, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    _, err = run("pipeline", "--config", path, "--out-dir", out_dir)
    return out_dir, err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def check_expect_and_fit_test(root):
    out, _ = run("fit-test", *SACHS)
    assert out.splitlines()[0] == "m_max=55 m_true=20 m_est=24 tp_obs=13", out
    out, _ = run("expect", "--d", "11", "--m-true", "20", "--m-est", "24")
    assert out.startswith("m_max=55 m_true=20 m_est=24 level=0.95\n"), out


def check_compare_sachs(root):
    path = os.path.join(root, "sachs.json")
    run("compare", *SACHS, "--nc-reps", "100", "--seed", "0", "--json", path)
    report = read_json(path)
    assert set(report["metrics"]) == set(cli.DEFAULT_METRICS), report
    assert all(row["p"] is not None for row in report["metrics"].values()), report


def check_pipeline(root):
    out_dir, err = run_pipeline(root, "study", {"b": 2, "d": 5, "m_true": 5, "n": 60, "seed": 1})
    assert err == "", err
    assert read_json(os.path.join(out_dir, "summary.json"))["config"]["b"] == 2
    assert len(read_rows(os.path.join(out_dir, "replications.csv"))) == 3


def check_failed_replications_are_missing(root):
    # n = 4 rows are too few for PC's tests on three of the four replications:
    # they are missing, not fatal, and one stderr line says so.
    out_dir, err = run_pipeline(root, "probe", {"b": 4, "d": 8, "m_true": 20, "n": 4, "seed": 1})
    assert os.path.isfile(os.path.join(out_dir, "summary.json"))
    lines = err.splitlines()
    assert len(lines) == 1 and "3 of 4 replications failed" in lines[0], err


def check_sample_and_simulate(root):
    # Both formats, and a second stream, through sample and back in.
    runs = [
        ("dag.csv", "edge-list", "0"),
        ("dag_matrix.csv", "adjacency-matrix", "1"),
    ]
    for name, fmt, stream in runs:
        graph = os.path.join(root, name)
        run("sample", "--d", "8", "--m", "10", "--seed", "0", "--stream", stream,
            "--format", fmt, "--out", graph)
        data = os.path.join(root, "data_" + name)
        run("simulate-data", "--graph", graph, "--format", fmt, "--n", "50", "--seed", "0",
            "--out", data)
        rows = read_rows(data)
        assert len(rows) == 51 and all(len(row) == 8 for row in rows), data


def check_empty_estimate(root):
    # Adjacency precision of an empty estimate is 0/0: the first compare is
    # partly MISSING, the second all MISSING, and it draws nothing.
    truth, empty = os.path.join(root, "truth8.csv"), os.path.join(root, "empty8.csv")
    run("sample", "--d", "8", "--m", "10", "--seed", "0", "--out", truth)
    run("sample", "--d", "8", "--m", "0", "--seed", "0", "--out", empty)
    path = os.path.join(root, "empty.json")
    for metrics, defined in [
        ("adjacency_precision,adjacency_recall,sid_lower", {"adjacency_recall", "sid_lower"}),
        ("adjacency_precision", set()),
    ]:
        run("compare", "--truth", truth, "--est", empty, "--nc-reps", "20",
            "--metrics", metrics, "--json", path)
        rows = read_json(path)["metrics"]
        assert {name for name, row in rows.items() if row["observed"] is not None} == defined
        assert {name for name, row in rows.items() if "nc_mean" in row} == defined


def check_extension_cap(root):
    # The complete undirected 9-node CPDAG has 9! DAG extensions, past the
    # 10 000 cap: both SID bounds are missing and the compare still exits 0.
    truth, est = os.path.join(root, "dag9.csv"), os.path.join(root, "complete9.csv")
    run("sample", "--d", "9", "--m", "12", "--seed", "0", "--out", truth)
    run("sample", "--d", "9", "--m", "36", "--kind", "cpdag", "--seed", "0", "--out", est)
    path = os.path.join(root, "cap.json")
    run("compare", "--truth", truth, "--est", est, "--est-kind", "cpdag",
        "--metrics", "shd,sid_lower,sid_upper", "--nc-reps", "1", "--json", path)
    rows = read_json(path)["metrics"]
    assert [name for name, row in rows.items() if row["observed"] is None] == [
        "sid_lower", "sid_upper"
    ], rows


# Run in a child with numpy blocked: each argv's exit code and stdout, as JSON.
NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import ncbench
from ncbench import cli
assert ncbench.__file__ == sys.argv[1], ncbench.__file__
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    results.append([rc, out.getvalue()])
print(json.dumps(results))
"""


def check_numpy_free_commands(root):
    # The exact answers, compare and sample load no numpy. Their stdout is
    # byte-equal to the recorded goldens, and the sampled file to the one
    # this process writes with numpy loaded.
    sample = ["sample", "--d", "8", "--m", "10", "--seed", "0", "--stream", "1", "--out"]
    with_numpy = os.path.join(root, "sample_numpy.csv")
    run(*sample, with_numpy)
    runs = [
        (["expect", "--d", "500", "--m-true", "12476", "--m-est", "62375"],
         os.path.join(GOLDEN, "expect", "expect_d500.txt")),
        (["fit-test", *SACHS], os.path.join(GOLDEN, "fit_test_sachs.txt")),
        (["compare", *SACHS, "--seed", "0"], os.path.join(GOLDEN, "compare", "compare_seed00.txt")),
        ([*sample, os.path.join(root, "sample_no_numpy.csv")], None),
    ]
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-c", NUMPY_FREE_CHILD, ncbench.__file__,
         json.dumps([argv for argv, _ in runs])],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    for (argv, golden), (rc, out) in zip(runs, json.loads(proc.stdout)):
        assert rc == 0, (argv, rc)
        if golden is not None:
            with open(golden, encoding="utf-8", newline="") as fh:
                assert out == fh.read(), (argv, out)
        RAN.add(argv[0])
    with open(with_numpy, "rb") as a, open(os.path.join(root, "sample_no_numpy.csv"), "rb") as b:
        assert a.read() == b.read()


# Run in a child: per import, the modules it adds that a cold start must not load.
COLD_IMPORT_CHILD = """
import json, sys
assert "ncbench" not in sys.modules
added = []
for module in ("ncbench", "ncbench.cli"):
    before = set(sys.modules)
    __import__(module)
    added.append(sorted({"dataclasses", "inspect", "typing"} & (set(sys.modules) - before)))
assert sys.modules["ncbench"].__file__ == sys.argv[1], sys.modules["ncbench"].__file__
print(json.dumps(added))
"""


def check_cold_import(root):
    # Each of these costs every CLI process milliseconds to import. Only what
    # each import adds counts, so a module the site preloads (some sites load
    # typing) neither hides nor fakes a hit.
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-c", COLD_IMPORT_CHILD, ncbench.__file__],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == [[], []], proc.stdout


def check_every_subcommand_ran(root):
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) <= RAN, sorted(set(sub.choices) - RAN)


CHECKS = [
    check_expect_and_fit_test,
    check_compare_sachs,
    check_pipeline,
    check_failed_replications_are_missing,
    check_sample_and_simulate,
    check_empty_estimate,
    check_extension_cap,
    check_numpy_free_commands,
    check_cold_import,
    check_every_subcommand_ran,
]


def main(argv):
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        sys.exit("usage: python -W error tests/bare_install.py DIR (an existing directory)")
    if sys.flags.optimize:
        sys.exit("the checks are asserts, which -O removes: run without -O")
    print(f"ncbench {ncbench.__version__} from {os.path.dirname(ncbench.__file__)}")
    for check in CHECKS:
        check(argv[0])
        print(f"ok {check.__name__}")


if __name__ == "__main__":
    main(sys.argv[1:])
