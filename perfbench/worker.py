"""Child processes of the benchmark.

    python3 perfbench/worker.py setup  --workload W --seed S --profile P
    python3 perfbench/worker.py run    --workload W --seed S --profile P --seconds R [--trace | --speed FILE]
    python3 perfbench/worker.py record --workload W --profile P
    python3 perfbench/worker.py cli    [--trace-out FILE] -- <ncbench arguments>

`setup` times a cold start: importing the package and building the inputs.
`run` drives an in-process workload in a closed loop of passes over its
rungs; with --speed it also gives each rung's time at the reference speed of
the probe whose shared file is named (see speed.py). `record` prints the
outputs that references.json holds for one in-process workload. `cli` is the
`ncbench` console script, optionally under the tracer.

Every mode prints one JSON object on stdout. run.py starts these processes
with PYTHONPATH pointing at the checkout's src/ and BLAS pinned to one thread.
"""

import time

# `setup` counts from here, so interpreter start-up itself is left out.
_START = time.perf_counter()
_START_CPU = time.process_time()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Workloads that run `ncbench` commands, and workloads that call the package
# in process. references.json holds one section per workload.
CLI_WORKLOADS = ("study_dense", "compare_sachs")
INPROC_WORKLOADS = ("score_ladder", "null_exact")

# Fixed master seed of the base instances of the in-process workloads. The
# workload seed relabels their nodes (score_ladder) or orders the cells
# (null_exact), which leaves every output and the work itself unchanged.
BASE_SEED = 20240

# rung -> (d, instances); every graph has m = 1.5 d edges.
LADDER = {
    "full": {
        "score_d10": (10, 4),
        "score_d30": (30, 2),
        "score_d100": (100, 1),
        "sid_bounds": (10, 6),
        "oracle_pc": (30, 1),
    },
    "smoke": {
        "score_d10": (6, 1),
        "score_d30": (8, 1),
        "score_d100": (10, 1),
        "sid_bounds": (6, 1),
        "oracle_pc": (8, 1),
    },
}

# Sparse cells: every d with m_true and m_est each a multiple of d from
# `mult`. One dense cell (d, m_true, m_est).
NULL = {
    "full": {"sparse_d": (10, 20, 50, 100, 200, 500), "mult": (0.5, 1, 1.5, 2, 3),
             "dense": (500, 5000, 4000)},
    "smoke": {"sparse_d": (10, 20), "mult": (1, 2), "dense": (40, 300, 250)},
}
QUANTILES = (0.5, 0.025, 0.975)
REL_TOL = 1e-9
TINY = 1e-300  # both values below this count as equal (float underflow)


def versions():
    from importlib import metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "scipy"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matches(ref, out, path="", problems=None):
    """Compare `out` with the recorded `ref`: integers, strings and graphs
    exactly, floats to a relative REL_TOL; keys absent from `ref` are
    ignored. Returns a list of differences (empty when they match)."""
    problems = [] if problems is None else problems
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            problems.append(f"{path}: expected an object")
            return problems
        for key, value in ref.items():
            if key not in out:
                problems.append(f"{path}/{key}: missing")
            else:
                matches(value, out[key], f"{path}/{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
        else:
            for i, (a, b) in enumerate(zip(ref, out)):
                matches(a, b, f"{path}/{i}", problems)
    elif isinstance(ref, float) and _is_number(out):
        close = abs(ref - out) <= REL_TOL * max(abs(ref), abs(out))
        if not (close or max(abs(ref), abs(out)) < TINY):
            problems.append(f"{path}: {out!r} != {ref!r}")
    elif isinstance(ref, int) and not isinstance(ref, bool):
        if not (_is_number(out) and out == ref):
            problems.append(f"{path}: {out!r} != {ref!r}")
    elif type(out) is not type(ref) or out != ref:
        problems.append(f"{path}: {out!r} != {ref!r}")
    return problems


# -- inputs ------------------------------------------------------------------


def _permuted(g, perm):
    from ncbench import Cpdag, Dag

    if isinstance(g, Dag):
        return Dag(g.d, frozenset((int(perm[i]), int(perm[j])) for i, j in g.edges))
    return Cpdag(
        g.d,
        frozenset((int(perm[i]), int(perm[j])) for i, j in g.directed),
        frozenset((int(perm[i]), int(perm[j])) for i, j in g.undirected),
    )


def ladder_inputs(seed, profile):
    """rung -> [(truth, estimate or None, node permutation)]."""
    import numpy as np
    from ncbench import RngSeed, sample_er_cpdag, sample_er_dag

    relabel = np.random.default_rng(seed)
    inputs = {}
    for stream, (rung, (d, count)) in enumerate(LADDER[profile].items()):
        m = int(1.5 * d)
        items = []
        for k in range(count):
            rng = RngSeed(BASE_SEED, stream).child(k)
            truth = sample_er_dag(d, m, rng)
            if rung == "oracle_pc":
                est = None
            elif rung == "sid_bounds":
                est = sample_er_cpdag(d, m, rng)
            else:
                est = sample_er_dag(d, m, rng)
            perm = relabel.permutation(d)
            items.append((
                _permuted(truth, perm),
                None if est is None else _permuted(est, perm),
                perm,
            ))
        inputs[rung] = items
    return inputs


def null_inputs(seed, profile):
    """(table cells, dense cell, fit tests), cells in a seed-given order."""
    import numpy as np

    spec = NULL[profile]
    cells = []
    for d in spec["sparse_d"]:
        m_max = d * (d - 1) // 2
        for a in spec["mult"]:
            for b in spec["mult"]:
                cells.append((m_max, int(a * d), int(b * d)))
    d, m_true, m_est = spec["dense"]
    dense = (d * (d - 1) // 2, m_true, m_est)
    fits = []
    for m_max, m_true, m_est in cells + [dense]:
        # TP at the null mean and three standard deviations above it.
        mean = m_est * m_true / m_max
        var = mean * (1 - m_true / m_max) * (m_max - m_est) / (m_max - 1)
        top = min(m_true, m_est)
        for tp in (round(mean), min(top, math.ceil(mean + 3 * math.sqrt(var)))):
            fits.append((m_max, m_true, m_est, tp))
    order = np.random.default_rng(seed)
    cells = [cells[i] for i in order.permutation(len(cells))]
    fits = [fits[i] for i in order.permutation(len(fits))]
    return cells, dense, fits


def make_inputs(workload, seed, profile):
    if workload == "score_ladder":
        return ladder_inputs(seed, profile)
    return null_inputs(seed, profile)


# -- operations ----------------------------------------------------------------


def _key(*parts):
    return "/".join(str(p) for p in parts)


def _graph_out(g, perm):
    """A CPDAG as sorted edge lists, mapped back to the unpermuted nodes."""
    inv = {int(v): i for i, v in enumerate(perm)}
    return {
        "directed": sorted([inv[i], inv[j]] for i, j in g.directed),
        "undirected": sorted(sorted([inv[i], inv[j]]) for i, j in g.undirected),
    }


def ladder_rungs(inputs):
    """[(rung, [(key, thunk)])]; each thunk is one operation."""
    metrics = importlib.import_module("ncbench.metrics")
    pc_module = importlib.import_module("ncbench.pc")

    def score(truth, est):
        report = metrics.full_report(truth, est)
        bounds = metrics.sid(truth, est)
        return {
            "report": {k: v.value for k, v in sorted(report.values.items())},
            "sid": [bounds.lower, bounds.upper, bounds.exact],
        }

    def bounds(truth, est):
        b = metrics.sid(truth, est)
        return [b.lower, b.upper, b.exact]

    def oracle(truth, perm):
        return _graph_out(pc_module.pc(truth), perm)

    rungs = []
    for rung, items in inputs.items():
        ops = []
        for k, (truth, est, perm) in enumerate(items):
            if rung == "oracle_pc":
                ops.append((str(k), lambda t=truth, p=perm: oracle(t, p)))
            elif rung == "sid_bounds":
                ops.append((str(k), lambda t=truth, e=est: bounds(t, e)))
            else:
                ops.append((str(k), lambda t=truth, e=est: score(t, e)))
        rungs.append((rung, ops))
    return rungs


def null_rungs(inputs):
    hg = importlib.import_module("ncbench.hypergeom")
    cells, dense, fits = inputs

    def table(cell):
        params = hg.HyperParams(*cell)
        return {
            metric: [hg.expected_metric(metric, params)]
            + [hg.metric_quantile(metric, q, params) for q in QUANTILES]
            for metric in hg.METRICS
        }

    def fit(m_max, m_true, m_est, tp):
        return hg.skeleton_fit_test(tp, hg.HyperParams(m_max, m_true, m_est))

    return [
        ("table_sparse", [(_key(*c), lambda c=c: table(c)) for c in cells]),
        ("table_dense", [(_key(*dense), lambda: table(dense))]),
        ("fit_test", [(_key(*f), lambda f=f: fit(*f)) for f in fits]),
    ]


def make_rungs(workload, inputs):
    if workload == "score_ladder":
        return ladder_rungs(inputs)
    return null_rungs(inputs)


def inproc_rungs(workload, seed, profile):
    """The rungs of one pass of an in-process workload, in order."""
    return make_rungs(workload, make_inputs(workload, seed, profile))


def _json_value(out):
    """Outputs as JSON would give them back (tuples become lists)."""
    return json.loads(json.dumps(out))


def run_cycle(rungs, refs, tally, gauge=None):
    """One pass over every rung: (wall seconds by rung, seconds at the
    reference speed by rung or None without a gauge, outputs by rung and key)."""
    walls, cpus, windows, outputs = {}, {}, {}, {}
    for rung, ops in rungs:
        outputs[rung] = {}
        before = gauge.snapshot() if gauge else None
        start, start_cpu = time.perf_counter(), time.process_time()
        for key, op in ops:
            tally["attempted"] += 1
            try:
                out = op()
            except Exception as exc:  # a failed operation is data, not a crash
                tally["failed"] += 1
                tally["problems"].append(f"{rung}/{key}: {type(exc).__name__}: {exc}")
                continue
            outputs[rung][key] = out
            if refs is not None:
                problems = matches(refs[rung][key], _json_value(out), f"{rung}/{key}")
                if problems:
                    tally["failed"] += 1
                    tally["problems"].extend(problems)
        walls[rung] = time.perf_counter() - start
        cpus[rung] = time.process_time() - start_cpu
        if gauge:
            windows[rung] = (before, gauge.snapshot())
    reference = None
    if gauge:
        reference = {r: gauge.reference_s(cpus[r], *windows[r]) for r in walls}
    return walls, reference, outputs


def cmd_run(args):
    rungs = inproc_rungs(args.workload, args.seed, args.profile)
    with open(REFERENCES) as fh:
        refs = json.load(fh)[args.profile][args.workload]
    tally = {"attempted": 0, "failed": 0, "problems": []}
    walls = {rung: [] for rung, _ in rungs}
    reference = {rung: [] for rung, _ in rungs}
    result = {"versions": versions()}
    if args.trace:
        import tracer

        times, _, plain = run_cycle(rungs, refs, tally)
        traced_tracer = tracer.Tracer()
        traced_tracer.install()
        try:
            start = time.perf_counter()
            _, _, traced = run_cycle(rungs, None, tally)
            traced_s = time.perf_counter() - start
        finally:
            traced_tracer.uninstall()
        for rung, seconds in times.items():
            walls[rung].append(seconds)
        result["trace"] = {
            "layers": traced_tracer.metrics(traced_s),
            "plain_s": sum(times.values()),
            "traced_s": traced_s,
            "equal": _json_value(plain) == _json_value(traced),
            "restored": traced_tracer.restored(),
            "missing": traced_tracer.missing,
        }
    else:
        import speed

        gauge = speed.Gauge(args.speed) if args.speed else None
        start = time.perf_counter()
        cycles = 0
        while True:
            times, ref_times, _ = run_cycle(rungs, refs, tally, gauge)
            for rung, seconds in times.items():
                walls[rung].append(seconds)
                if ref_times:
                    reference[rung].append(ref_times[rung])
            cycles += 1
            elapsed = time.perf_counter() - start
            # Closed loop: start another pass only if it should end in time.
            if elapsed + 0.5 * elapsed / cycles >= args.seconds:
                break
        if gauge:
            result["reference"] = reference
    result.update(
        attempted=tally["attempted"],
        failed=tally["failed"],
        problems=tally["problems"][:20],
        samples=walls,
    )
    return result


def cmd_setup(args):
    if args.workload in CLI_WORKLOADS:
        import ncbench.cli  # noqa: F401
    else:
        inproc_rungs(args.workload, args.seed, args.profile)
    setup_s = time.perf_counter() - _START
    setup_cpu_s = time.process_time() - _START_CPU
    import ncbench

    return {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "package": ncbench.__file__,
        "versions": versions(),
    }


def cmd_record(args):
    """Outputs of one pass for two seeds, which must agree."""
    outputs = []
    for seed in (0, 1):
        rungs = inproc_rungs(args.workload, seed, args.profile)
        tally = {"attempted": 0, "failed": 0, "problems": []}
        _, _, out = run_cycle(rungs, None, tally)
        if tally["failed"]:
            raise SystemExit(f"operations failed while recording: {tally['problems']}")
        outputs.append(_json_value(out))
    if outputs[0] != outputs[1]:
        raise SystemExit("outputs depend on the workload seed")
    return outputs[0]


def cmd_cli(args):
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    import ncbench.cli

    if not args.trace_out:
        return ncbench.cli.main(argv)
    import tracer

    traced = tracer.Tracer()
    traced.install()
    try:
        start = time.perf_counter()
        rc = ncbench.cli.main(argv)
        op_s = time.perf_counter() - start
    finally:
        traced.uninstall()
    with open(args.trace_out, "w") as fh:
        json.dump(
            {
                "raw": traced.raw(),
                "op_s": op_s,
                "restored": traced.restored(),
                "missing": traced.missing,
            },
            fh,
        )
    return rc


def main():
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run", "record"):
        p = sub.add_parser(mode)
        workloads = CLI_WORKLOADS + INPROC_WORKLOADS if mode == "setup" else INPROC_WORKLOADS
        p.add_argument("--workload", required=True, choices=workloads)
        p.add_argument("--profile", default="full", choices=tuple(LADDER))
        if mode != "record":
            p.add_argument("--seed", type=int, required=True)
        if mode == "run":
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", action="store_true")
            p.add_argument("--speed", help="shared file of the speed probe")
    p = sub.add_parser("cli")
    p.add_argument("--trace-out", dest="trace_out")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "cli":
        return cmd_cli(args)
    command = {"setup": cmd_setup, "run": cmd_run, "record": cmd_record}[args.mode]
    print(json.dumps(command(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
