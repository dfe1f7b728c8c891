"""ncbench benchmark: four seeded workloads, checked outputs, and a traced run.

    python3 perfbench/run.py --workload W --seed N --seconds R --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-references

Run from the root of a checkout; the package is imported from its src/.
A run pins itself and its children to one CPU. With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics of BENCHMARK.json,
timed at the reference speed of a probe that shares the CPU (see speed.py);
with --trace 1 it holds the per-layer metrics of one traced operation. The line
before it records provenance and sample counts.
--smoke runs every workload at a tiny size in both modes and checks the
output format; --record-references rewrites references.json from the
current package. See README.md in this directory.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed
import tracer
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The CLI commands take their input seed from a pool of this size; the
# references hold their outputs for every seed in it.
SEED_POOL = 16
STUDY = {
    "full": {"b": 50, "d": 10, "m_true": 30, "n": 400},
    "smoke": {"b": 2, "d": 10, "m_true": 30, "n": 400},
}
NC_REPS = {"full": 1000, "smoke": 5}
SETUP_PROBES = {"full": 3, "smoke": 1}
SACHS_TRUTH = os.path.join("src", "ncbench", "data", "sachs_truth.csv")
SACHS_ESTIMATE = os.path.join("src", "ncbench", "data", "sachs_pc_estimate.csv")
OP_TIMEOUT = 120  # seconds for any one child process
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# CPUs available before the run pins itself to one of them.
NPROC = nproc()


def pin_to_one_cpu():
    """Pin this process, and so every child it starts, to one CPU: the speed
    probe has to share the CPU of the code whose time it rates."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Imports use bytecode caches, as an installed package would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("NCBENCH_SEED", None)
    return env


Child = collections.namedtuple("Child", "rc wall cpu_s out err")


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv, python_flags=()):
    """Run worker.py with argv; a Child with its wall and CPU seconds."""
    cmd = [sys.executable, *python_flags, WORKER, *argv]
    cpu = _children_cpu_s()
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=OP_TIMEOUT,
    )
    wall = time.perf_counter() - start
    return Child(proc.returncode, wall, _children_cpu_s() - cpu, proc.stdout, proc.stderr)


def child_json(argv, python_flags=()):
    child = run_child(argv, python_flags)
    if child.rc != 0:
        raise BenchError(f"worker {' '.join(argv[:3])} failed:\n{child.err.strip()}")
    return json.loads(child.out.strip().splitlines()[-1]), child.err


def closed_loop(op, seconds):
    """Call op() until the next call would likely end after `seconds`."""
    start = time.perf_counter()
    calls = 0
    while True:
        op(calls)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / calls >= seconds:
            return calls


def import_profile(stderr):
    """(seconds importing scipy, modules imported) from -X importtime output."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative = parts[1].strip()
        if not cumulative.isdigit():
            continue
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, raw.strip(), int(cumulative)))
    # Entries come children first; walk them parents first and count each
    # scipy module whose ancestors are not scipy modules.
    ancestors = []
    scipy_us = 0
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_us += cumulative
        ancestors.append(name)
    return scipy_us / 1e6, len(entries)


def load_references(profile, workload):
    with open(worker.REFERENCES) as fh:
        return json.load(fh)[profile][workload]


def src_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "ncbench")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


# -- CLI workloads ----------------------------------------------------------------


def cli_argv(kind, input_seed, out, profile, config):
    """ncbench arguments of one command of a CLI workload."""
    if kind == "study_dense":
        return ["pipeline", "--config", config, "--out-dir", out,
                "--seed", str(input_seed), "--threads", str(NPROC)]
    return ["compare", "--truth", SACHS_TRUTH, "--est", SACHS_ESTIMATE,
            "--est-kind", "cpdag", "--nc-reps", str(NC_REPS[profile]),
            "--seed", str(input_seed), "--json", out]


def read_output(kind, out):
    """(full output, the part that is checked against the references)."""
    path = os.path.join(out, "summary.json") if kind == "study_dense" else out
    with open(path) as fh:
        output = json.load(fh)
    if kind == "study_dense":
        return output, output["summary"]
    checked = {key: output[key] for key in ("d", "m_true", "m_est")}
    checked["metrics"] = {
        name: {key: row[key] for key in ("observed", "nc_mean", "p")}
        for name, row in output["metrics"].items()
    }
    return output, checked


class CliWorkload:
    """study_dense or compare_sachs: one `ncbench` command after another, in
    a closed loop."""

    def __init__(self, kind, seed, profile, tmp, gauge=None):
        self.kind = kind
        self.seed = seed
        self.profile = profile
        self.tmp = tmp
        self.gauge = gauge
        self.refs = load_references(profile, kind)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.config = os.path.join(tmp, "study.json")
        with open(self.config, "w") as fh:
            json.dump(STUDY[profile], fh)

    def input_seed(self, k):
        # The k-th study of a run cycles through three pipeline seeds.
        if self.kind == "study_dense":
            return (3 * self.seed + k % 3) % SEED_POOL
        return self.seed % SEED_POOL

    def sizes(self):
        if self.kind == "study_dense":
            return {"config": STUDY[self.profile], "threads": NPROC}
        return {"nc_reps": NC_REPS[self.profile], "metrics": "default (6)"}

    def op(self, k, tag, trace_out=None):
        """Run one command; (wall seconds, seconds at the reference speed or
        None without a gauge, output), with None times if it failed."""
        seed = self.input_seed(k)
        out = os.path.join(self.tmp, f"{tag}-{k}")
        argv = ["cli"] + (["--trace-out", trace_out] if trace_out else [])
        argv += ["--", *cli_argv(self.kind, seed, out, self.profile, self.config)]
        self.attempted += 1
        before = self.gauge.snapshot() if self.gauge else None
        child = run_child(argv)
        reference = None
        if self.gauge:
            reference = self.gauge.reference_s(child.cpu_s, before, self.gauge.snapshot())
        if child.rc != 0:
            self.failed += 1
            self.problems.append(f"{self.kind} {k}: exit {child.rc}: {child.err.strip()[-300:]}")
            return None, None, None
        try:
            output, checked = read_output(self.kind, out)
        except (OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{self.kind} {k}: unreadable output: {exc!r}")
            return None, None, None
        problems = worker.matches(self.refs[str(seed)], checked, self.kind)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return child.wall, reference, output

    def measure(self, seconds):
        """(median seconds per command at the reference speed, commands timed,
        detail)."""
        walls, reference = [], []

        def one(k):
            wall, ref_s, _ = self.op(k, "op")
            if wall is not None:
                walls.append(wall)
                reference.append(ref_s)

        closed_loop(one, seconds)
        if not walls:
            raise BenchError(f"every run of the command failed: {self.problems[:3]}")
        detail = {"op_wall_median_s": statistics.median(walls), "op_reference_s": reference}
        return statistics.median(reference), len(reference), detail

    def traced(self):
        """The command once plain and once under the tracer."""
        wall, _, plain = self.op(0, "plain")
        path = os.path.join(self.tmp, "trace.json")
        traced_wall, _, traced = self.op(0, "traced", path)
        if wall is None or traced_wall is None:
            raise BenchError(f"traced run failed: {self.problems[:3]}")
        with open(path) as fh:
            trace = json.load(fh)
        merged = tracer.Tracer()
        merged.merge(trace["raw"])
        layers = merged.metrics(trace["op_s"])
        if self.kind == "study_dense":
            layers["study.reps_per_s"] = STUDY[self.profile]["b"] / wall
        else:
            layers["compare.wall_s"] = wall
        return {
            "layers": layers,
            "plain_s": wall,
            "traced_s": traced_wall,
            "equal": plain == traced,
            "restored": trace["restored"],
            "missing": trace["missing"],
        }


# -- one benchmark run ---------------------------------------------------------


def setup_probe(workload, seed, profile, python_flags=(), gauge=None):
    """One cold start in a fresh interpreter; (probe result, its stderr).
    With a gauge the result also holds `setup_reference_s`."""
    argv = ["setup", "--workload", workload, "--seed", str(seed), "--profile", profile]
    before = gauge.snapshot() if gauge else None
    result, err = child_json(argv, python_flags)
    if gauge:
        result["setup_reference_s"] = gauge.reference_s(
            result["setup_cpu_s"], before, gauge.snapshot())
    if os.path.dirname(result["package"]) != os.path.join(SRC, "ncbench"):
        raise BenchError(f"imported ncbench from {result['package']}, not {SRC}")
    return result, err


def measure_setup(workload, seed, profile, gauge):
    """(median set-up seconds at the reference speed, probes, versions, detail)."""
    probes = [setup_probe(workload, seed, profile, gauge=gauge)[0]
              for _ in range(SETUP_PROBES[profile])]
    values = [p["setup_reference_s"] for p in probes]
    detail = {"setup_wall_median_s": statistics.median(p["setup_s"] for p in probes),
              "setup_reference_s": values}
    return statistics.median(values), len(values), probes[-1]["versions"], detail


def inproc_argv(workload, seed, seconds, profile, trace, speed_file=None):
    argv = ["run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--profile", profile]
    if speed_file:
        argv += ["--speed", speed_file]
    return argv + (["--trace"] if trace else [])


def inproc_sizes(workload, profile):
    if workload == "score_ladder":
        sizes = {"rungs (d, instances)": worker.LADDER[profile], "m": "1.5 d"}
    else:
        sizes = {"grid": worker.NULL[profile], "quantiles": worker.QUANTILES}
    return {**sizes, "base_seed": worker.BASE_SEED}


def rung_metric(rung):
    """Per-layer metric name of an in-process rung's time."""
    part = "ladder" if rung in worker.LADDER["full"] else "null"
    return f"{part}.{rung}_s"


def bench(workload, seed, seconds, trace, profile, spec):
    """One run; returns (result line, detail line)."""
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    probe = None
    try:
        gauge = None
        if not trace:
            probe, gauge = speed.start_probe(os.path.join(tmp, "speed.bin"))
        return _bench(workload, seed, seconds, trace, profile, spec, tmp, gauge)
    finally:
        if probe is not None:
            speed.stop_probe(probe)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


def _bench(workload, seed, seconds, trace, profile, spec, tmp, gauge):
    cli = workload in worker.CLI_WORKLOADS
    detail = {"samples": {}}
    if cli:
        runner = CliWorkload(workload, seed, profile, tmp, gauge)
        sizes = runner.sizes()
        input_seeds = sorted({runner.input_seed(k) for k in range(3)})
    else:
        sizes = inproc_sizes(workload, profile)
        input_seeds = "fixed instances; the seed orders nodes and cells"

    if not trace:
        setup_s, n_setup, versions, setup_detail = measure_setup(workload, seed, profile, gauge)
        detail.update(setup_detail)
        if cli:
            op_s, n_op, op_detail = runner.measure(seconds)
            detail.update(op_detail)
            attempted, failed, problems = runner.attempted, runner.failed, runner.problems
        else:
            argv = inproc_argv(workload, seed, seconds, profile, False,
                               os.path.join(tmp, "speed.bin"))
            result, _ = child_json(argv)
            medians = {r: statistics.median(v) for r, v in result["reference"].items()}
            op_s = sum(medians.values())
            n_op = min(len(v) for v in result["reference"].values())
            attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
            detail["rung_reference_medians_s"] = medians
            detail["rung_wall_medians_s"] = {
                r: statistics.median(v) for r, v in result["samples"].items()}
        values = {"op_s": op_s, "setup_s": setup_s}
        detail["samples"] = {"op_s": n_op, "setup_s": n_setup}
        correct = failed == 0
        declared = spec["end_to_end"]
    else:
        probe, err = setup_probe(workload, seed, profile, ("-X", "importtime"))
        versions = probe["versions"]
        if cli:
            traced = runner.traced()
            attempted, failed, problems = runner.attempted, runner.failed, runner.problems
        else:
            result, _ = child_json(inproc_argv(workload, seed, seconds, profile, True))
            traced = result["trace"]
            attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
            for rung, times in result["samples"].items():
                traced["layers"][rung_metric(rung)] = times[0]
        if not traced["equal"]:
            failed += 1
            problems.append("traced outputs differ from untraced outputs")
        if not traced["restored"]:
            failed += 1
            problems.append("tracer left a wrapper installed")
        values = dict(traced["layers"])
        values["cli.import_scipy_s"], values["cli.import_modules"] = import_profile(err)
        values["trace.overhead_frac"] = traced["traced_s"] / traced["plain_s"] - 1
        values["failed_frac"] = failed / attempted
        detail["missing_wraps"] = traced["missing"]
        correct = failed == 0
        declared = spec["per_layer"]

    metrics = {}
    for entry in declared:
        value = values.get(entry["name"], 0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    detail["undeclared"] = sorted(set(values) - {e["name"] for e in declared})
    detail["provenance"] = {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        **versions,
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "reference_rate": speed.REFERENCE_RATE,
        "blas_threads": 1,
        "workload": workload,
        "seed": seed,
        "input_seeds": input_seeds,
        "seconds": seconds,
        "trace": int(trace),
        "profile": profile,
        "sizes": sizes,
    }
    detail["problems"] = problems[:20]
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, detail


# -- modes -----------------------------------------------------------------------


def check_checkout():
    if not os.path.isfile(os.path.join(SRC, "ncbench", "__init__.py")):
        raise BenchError(f"no ncbench package under {SRC}; run from a full checkout")
    if not os.path.isfile(SPEC):
        raise BenchError(f"{SPEC} is missing")
    with open(SPEC) as fh:
        return json.load(fh)


def smoke(spec):
    """Every workload at a tiny size, both modes; checks the output format."""
    ok = True
    for entry in spec["workloads"]:
        for trace in (False, True):
            line, detail = bench(entry["name"], 0, 1, trace, "smoke", spec)
            declared = {e["name"] for e in spec["per_layer" if trace else "end_to_end"]}
            issues = list(detail["problems"])
            issues += [f"undeclared metric {n}" for n in detail["undeclared"]]
            issues += [f"bad name {n}" for n in line["metrics"] if not NAME.match(n)]
            if set(line["metrics"]) != declared:
                issues.append("printed metrics differ from BENCHMARK.json")
            if not line["correct"]:
                issues.append("run not correct (failed operations or wrappers left)")
            status = "ok" if not issues else "FAIL"
            ok = ok and not issues
            print(f"{entry['name']:<14} trace={int(trace)} {status} "
                  f"attempted={line['attempted']} failed={line['failed']}")
            for issue in issues:
                print(f"    {issue}")
    return 0 if ok else 1


def record_references():
    refs = {}
    tmp = os.path.join(ROOT, ".perfbench_tmp", "record")
    os.makedirs(tmp, exist_ok=True)
    try:
        for profile in ("full", "smoke"):
            refs[profile] = {}
            config = os.path.join(tmp, "study.json")
            with open(config, "w") as fh:
                json.dump(STUDY[profile], fh)
            for kind in worker.CLI_WORKLOADS:
                refs[profile][kind] = {}
                for seed in range(SEED_POOL):
                    out = os.path.join(tmp, f"{profile}-{kind}-{seed}")
                    argv = cli_argv(kind, seed, out, profile, config)
                    child = run_child(["cli", "--", *argv])
                    if child.rc != 0:
                        raise BenchError(f"{kind} seed {seed} failed: {child.err}")
                    refs[profile][kind][str(seed)] = read_output(kind, out)[1]
                    print(f"recorded {profile} {kind} seed {seed}", file=sys.stderr)
            for workload in worker.INPROC_WORKLOADS:
                argv = ["record", "--workload", workload, "--profile", profile]
                refs[profile][workload], _ = child_json(argv)
                print(f"recorded {profile} {workload}", file=sys.stderr)
    finally:
        shutil.rmtree(os.path.dirname(tmp), ignore_errors=True)
    with open(worker.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-references", action="store_true", dest="record")
    args = parser.parse_args()
    # A terminated run still stops its children: SystemExit unwinds through
    # the cleanup of bench() and subprocess.run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = check_checkout()
        pin_to_one_cpu()
        if args.smoke:
            return smoke(spec)
        if args.record:
            return record_references()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        line, detail = bench(args.workload, args.seed, seconds, bool(args.trace), "full", spec)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
