"""The shared byte-identity gates as recorded outputs, and their recorder.

The outputs, each made through the `ncbench` command line but the last two:
  - `compare --est-kind cpdag --json` on the bundled Sachs truth and PC
    estimate, default metrics and draws, seeds 0-15;
  - the same with `--metrics shd,sid_lower,sid_upper --nc-reps 200`,
    seeds 0-3, which pins the SID bounds of CPDAG estimates;
  - `compare --est-kind dag --json` on the bundled five-node truth and DAG
    estimate, default metrics and with `--metrics shd,sid_lower,sid_upper`,
    seeds 0-3, which pins DAG negative controls and SID of a DAG estimate;
  - `pipeline`'s summary.json, and digests of its replications.csv, for the
    criterion-8 configs (b = 200, d = 10, m_true 15 and 30, seeds 1-3), the
    dense study config (b = 50, m_true = 30, seeds 0 and 7), the n = 4
    probe, where PC fails on most replications, and a study with DAG
    negative controls (b = 50, d = 10, m_true = 15, seed 1);
  - `expect --json` on the d = 500 cell m_true = 12476, m_est = 62375,
    whose quantiles walk about 6 300 support points of the exact null;
  - `fit-test` stdout on the bundled Sachs truth and PC estimate, which
    pins the printed p and log10_p;
  - the negative-control layer, called in process: `single_truth_nc` rows
    (b = 50, SID cap 100) over a seeded corpus of `sample_er_dag` truths at
    d = 2, 4, 6, 11 and 20, DAG and CPDAG estimates with m_est from 0 to
    m_max, and two improper CPDAG estimates, each scored with the default
    metrics and with every metric name (the SID bounds at d <= 6 only).
    Only its record count and digests are kept (layer_digest);
  - the PC layer, called in process: pc() on seeded linear Gaussian SEM
    data at d = 3-12, sparse to complete truths, n = 8, 30 and 400, alpha
    0.01, 0.05 and 0.2 and max_cond_size None and 1, and on degenerate
    data: an exactly duplicated integer column, a near-collinear column and
    n = 4. Only its record count and digests are kept.

Each compare and expect case also records its stdout table, as <name>.txt
beside its --json file. test_golden.py compares every output with its file
byte for byte. A change that moves an output re-records it, by hand, from
the root of a checkout:

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from ncbench.cli import main
from ncbench.graphs import Cpdag, max_edges
from ncbench.metrics import METRIC_NAMES
from ncbench.pc import CiTestError, PcConfig, pc
from ncbench.pipeline import DEFAULT_METRICS, single_truth_nc
from ncbench.random_graphs import RngSeed, sample_er_cpdag, sample_er_dag
from ncbench.sem import draw_sem, simulate

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE.parent / "src" / "ncbench" / "data"

SACHS = [
    "--truth", str(DATA / "sachs_truth.csv"),
    "--est", str(DATA / "sachs_pc_estimate.csv"),
    "--est-kind", "cpdag",
]
FIVE_NODE = [
    "--truth", str(DATA / "five_node_truth.csv"),
    "--est", str(DATA / "five_node_estimate.csv"),
    "--est-kind", "dag",
]
SID_NAMES = ["--metrics", "shd,sid_lower,sid_upper"]
COMPARES = {
    **{f"compare_seed{s:02d}": [*SACHS, "--seed", str(s)] for s in range(16)},
    **{
        f"compare_sid_seed{s}": [*SACHS, *SID_NAMES, "--nc-reps", "200", "--seed", str(s)]
        for s in range(4)
    },
    **{f"compare_dag_seed{s}": [*FIVE_NODE, "--seed", str(s)] for s in range(4)},
    **{f"compare_dag_sid_seed{s}": [*FIVE_NODE, *SID_NAMES, "--seed", str(s)] for s in range(4)},
}
EXPECTS = {"expect_d500": ["--d", "500", "--m-true", "12476", "--m-est", "62375"]}
FIT_TEST = ["fit-test", *SACHS]
STUDIES = {
    **{
        f"criterion8_m{m}_seed{s}": {"b": 200, "d": 10, "m_true": m, "n": 400, "seed": s}
        for m in (15, 30)
        for s in (1, 2, 3)
    },
    **{f"dense_seed{s}": {"b": 50, "d": 10, "m_true": 30, "n": 400, "seed": s} for s in (0, 7)},
    "probe_n4": {"b": 4, "d": 8, "m_true": 20, "n": 4, "seed": 1},
    "dag_nc_seed1": {"b": 50, "d": 10, "m_true": 15, "n": 400, "seed": 1, "nc_kind": "dag"},
}


def _stdout(argv):
    """stdout bytes of one command line, which must exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")
    return stdout.getvalue().encode()


def _json_output(argv, out):
    """(--json file bytes, stdout bytes) of one command line."""
    stdout = _stdout([*argv, "--json", str(out)])
    return out.read_bytes(), stdout


def compare_output(name, tmp):
    """(--json file bytes, stdout bytes) of compare case `name`."""
    return _json_output(["compare", *COMPARES[name]], Path(tmp) / f"{name}.json")


def expect_output(name, tmp):
    """(--json file bytes, stdout bytes) of expect case `name`."""
    return _json_output(["expect", *EXPECTS[name]], Path(tmp) / f"{name}.json")


def fit_test_stdout():
    """stdout bytes of the Sachs fit-test case."""
    return _stdout(FIT_TEST)


def study_outputs(name, tmp):
    """(summary.json bytes, replications.csv digest) of study case `name`."""
    config = Path(tmp) / f"{name}.config.json"
    config.write_text(json.dumps(STUDIES[name]))
    out = Path(tmp) / name
    if main(["pipeline", "--config", str(config), "--out-dir", str(out)]) != 0:
        raise RuntimeError(f"study case {name} failed")
    return (out / "summary.json").read_bytes(), csv_digest((out / "replications.csv").read_bytes())


def csv_digest(data):
    """sha256 of a CSV file, and a short digest of each of its lines, so that
    a mismatch names its first differing row."""
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": [hashlib.sha256(line).hexdigest()[:12] for line in data.splitlines()],
    }


def nc_layer_records():
    """The negative-control corpus, one JSON-ready record per single_truth_nc
    call (b = 50, SID cap 100): [d, truth m, estimate kind, seed, metric
    names, rows], m_est being in the rows. The estimates' m_est runs from 0
    to m_max in at most 9 values. The names come sorted, not in report
    order, so a scorer must keep the caller's order. The cap makes the SID of
    the complete CPDAG at d = 6 (720 extensions) MISSING, and drops some of
    the draws near it."""
    cases = []
    for d in (2, 4, 6, 11, 20):
        m_max = max_edges(d)
        truth = sample_er_dag(d, m_max // 3, RngSeed(d).generator())
        every = sorted(METRIC_NAMES if d <= 6 else METRIC_NAMES - {"sid_lower", "sid_upper"})
        steps = sorted({*range(0, m_max, -(-m_max // 8)), m_max})
        for k, (m, sampler) in enumerate(itertools.product(steps, (sample_er_dag, sample_er_cpdag))):
            est = sampler(d, m, RngSeed(d, 1).child(k))
            cases += [(truth, est, DEFAULT_METRICS), (truth, est, every)]
    # A cycle (no extension, so SID is MISSING) and a pattern PC could leave
    # unclosed (2 - 3 is forced to 2 -> 3), against the d = 4 truth.
    truth = sample_er_dag(4, 2, RngSeed(4).generator())
    for directed in ({(0, 1), (1, 2), (2, 0)}, {(0, 2), (1, 2)}):
        cases.append((truth, Cpdag(4, directed, {(2, 3)}), sorted(METRIC_NAMES)))
    return [
        [truth.d, truth.m, est.kind, seed, list(names), single_truth_nc(truth, est, names, 50, seed, 100)]
        for seed, (truth, est, names) in enumerate(cases)
    ]


def pc_layer_records():
    """The PC corpus, one JSON-ready record per pc() call: [case, alpha,
    max_cond_size, outcome], the outcome being the sorted directed and
    undirected edges or the CiTestError text. Each case is one dataset,
    [d, m, n, seed] for SEM data on a sample_er_dag truth, or a degenerate
    one named by its first entry, and is run at every alpha and
    max_cond_size."""
    datasets = []
    for d in range(3, 13):
        m_max = max_edges(d)
        for m in sorted({round(f * m_max) for f in (0.1, 0.3, 0.5, 0.75, 1.0)}):
            for n in (8, 30, 400):
                for seed in (0, 1):
                    datasets.append(([d, m, n, seed], _sem_data(d, m, n, seed)))
    for d in (5, 8, 11):
        # An exact copy of an integer column: the pair's 2 x 2 correlation
        # block is singular, so the marginal tests raise.
        data = RngSeed(d).generator().numpy().integers(-5, 6, size=(64, d)).astype(float)
        data[:, 3] = data[:, 1]
        datasets.append((["duplicated", d], data))
        datasets.append((["n4", d], _sem_data(d, d, 4, 3)))
    for d, n, seed in itertools.product(range(5, 13), (30, 400), range(4)):
        # Column 2 copies column 0 up to 1e-6 noise: conditioning on either
        # leaves the other a pivot near 1e-12.
        data = _sem_data(d, 2 * d, n, seed)
        data[:, 2] = data[:, 0] + 1e-6 * RngSeed(d, n).child(seed).numpy().normal(size=n)
        datasets.append((["collinear", d, n, seed], data))
    records = []
    for case, data in datasets:
        for alpha, size in itertools.product((0.01, 0.05, 0.2), (None, 1)):
            try:
                est = pc(data, PcConfig(alpha, size))
                outcome = [sorted(map(list, est.directed)), sorted(map(list, est.undirected))]
            except CiTestError as exc:
                outcome = str(exc)
            records.append([case, alpha, size, outcome])
    return records


def _sem_data(d, m, n, seed):
    """n rows of linear Gaussian SEM data on a seeded sample_er_dag truth."""
    g = sample_er_dag(d, m, RngSeed(d, m).child(seed))
    return simulate(draw_sem(g, RngSeed(seed, 1).child(d * 100 + m)), n, RngSeed(seed, 2).child(d))


def layer_digest(records):
    """csv_digest of a corpus as JSON lines, one per record, and its count."""
    lines = [json.dumps(record) for record in records]
    return {"records": len(lines), **csv_digest("\n".join(lines).encode())}


def compare_path(name):
    return GOLDEN / "compare" / f"{name}.json"


def stdout_path(name):
    return GOLDEN / "compare" / f"{name}.txt"


def expect_path(name):
    return GOLDEN / "expect" / f"{name}.json"


def fit_test_path():
    return GOLDEN / "fit_test_sachs.txt"


def summary_path(name):
    return GOLDEN / "studies" / f"{name}.summary.json"


def digest_path(name):
    return GOLDEN / "studies" / f"{name}.replications.json"


def nc_layer_path():
    return GOLDEN / "nc_layer.json"


def pc_layer_path():
    return GOLDEN / "pc_layer.json"


def record(tmp):
    for name in COMPARES:
        compare_path(name).parent.mkdir(parents=True, exist_ok=True)
        recorded, stdout = compare_output(name, tmp)
        compare_path(name).write_bytes(recorded)
        stdout_path(name).write_bytes(stdout)
    for name in EXPECTS:
        expect_path(name).parent.mkdir(parents=True, exist_ok=True)
        recorded, stdout = expect_output(name, tmp)
        expect_path(name).write_bytes(recorded)
        expect_path(name).with_suffix(".txt").write_bytes(stdout)
    fit_test_path().write_bytes(fit_test_stdout())
    for name in STUDIES:
        summary, digest = study_outputs(name, tmp)
        summary_path(name).parent.mkdir(parents=True, exist_ok=True)
        summary_path(name).write_bytes(summary)
        digest_path(name).write_text(json.dumps(digest, indent=1) + "\n")
    nc_layer_path().write_text(json.dumps(layer_digest(nc_layer_records()), indent=1) + "\n")
    pc_layer_path().write_text(json.dumps(layer_digest(pc_layer_records()), indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
    print(
        f"recorded {len(COMPARES)} compare, {len(EXPECTS)} expect, 1 fit-test "
        f"and {len(STUDIES)} study outputs and the negative-control and PC corpora in {GOLDEN}"
    )
