"""The shared byte-identity gates as recorded outputs, and their recorder.

The outputs, each made through the `ncbench` command line:
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
    negative controls (b = 50, d = 10, m_true = 15, seed 1).

test_golden.py compares every output with its file byte for byte. A change
that moves an output re-records it, by hand, from the root of a checkout:

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
from pathlib import Path

from ncbench.cli import main

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


def compare_output(name, tmp):
    """The bytes of compare case `name`'s --json file."""
    out = Path(tmp) / f"{name}.json"
    if main(["compare", *COMPARES[name], "--json", str(out)]) != 0:
        raise RuntimeError(f"compare case {name} failed")
    return out.read_bytes()


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


def compare_path(name):
    return GOLDEN / "compare" / f"{name}.json"


def summary_path(name):
    return GOLDEN / "studies" / f"{name}.summary.json"


def digest_path(name):
    return GOLDEN / "studies" / f"{name}.replications.json"


def record(tmp):
    for name in COMPARES:
        compare_path(name).parent.mkdir(parents=True, exist_ok=True)
        compare_path(name).write_bytes(compare_output(name, tmp))
    for name in STUDIES:
        summary, digest = study_outputs(name, tmp)
        summary_path(name).parent.mkdir(parents=True, exist_ok=True)
        summary_path(name).write_bytes(summary)
        digest_path(name).write_text(json.dumps(digest, indent=1) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
    print(f"recorded {len(COMPARES)} compare and {len(STUDIES)} study outputs in {GOLDEN}")
