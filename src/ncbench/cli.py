"""Command-line front end.

Commands: expect, fit-test, compare, pipeline, sample, simulate-data.
Exit codes: 0 success, 2 input error, 3 numerical/enumeration error.
A `pipeline` config file holds PipelineConfig fields, which it checks; the
shipped JSON schemas document the file formats and are not read at run time.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import hypergeom as hg
from .graphs import ExtensionCapExceeded, GraphError, skeleton
from .io import ParseError, align_to, parse_graph, write_graph
from .metrics import adjacency_confusion, check_metric_names
from .pc import CiTestError
from .pipeline import DEFAULT_METRICS, PipelineConfig, run_study, single_truth_nc
from .random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag
from .sem import draw_sem, simulate, to_csv

EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _default_seed():
    value = os.environ.get("NCBENCH_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"NCBENCH_SEED must be an integer, got {value!r}") from None


def _m_max_from_args(args):
    if args.d is not None and args.m_max is not None:
        raise ParseError("give one of --d or --m-max, not both")
    if args.d is not None:
        return max_edges(args.d)
    if args.m_max is not None:
        return args.m_max
    raise ParseError("one of --d or --m-max is required")


def cmd_expect(args):
    m_max = _m_max_from_args(args)
    params = hg.HyperParams(m_max, args.m_true, args.m_est)
    level = args.level
    # Checked before any metric, so a bad --level is reported even when the
    # metric is undefined for these counts.
    if not 0 < level < 1:
        raise ValueError("level must be strictly between 0 and 1")
    levels = {"median": 0.5, "ci_lower": (1 - level) / 2, "ci_upper": 1 - (1 - level) / 2}
    metrics = [args.metric] if args.metric else list(hg.METRICS)
    rows = [
        {
            "metric": metric,
            "expected": hg.expected_metric(metric, params),
            **{key: hg.metric_quantile(metric, q, params) for key, q in levels.items()},
        }
        for metric in metrics
    ]
    print(f"m_max={m_max} m_true={args.m_true} m_est={args.m_est} level={level}")
    print(f"{'metric':<14}{'expected':>10}{'median':>10}{'ci_lower':>10}{'ci_upper':>10}")
    for r in rows:
        print(
            f"{r['metric']:<14}{r['expected']:>10.4f}{r['median']:>10.4f}"
            f"{r['ci_lower']:>10.4f}{r['ci_upper']:>10.4f}"
        )
    if args.json:
        params_out = {
            "m_max": m_max,
            "m_true": args.m_true,
            "m_est": args.m_est,
            "level": level,
        }
        _write_json(args.json, {"schema_version": 1, "params": params_out, "rows": rows})
    return 0


def cmd_fit_test(args):
    truth = parse_graph(args.truth, args.format, "dag")
    est = align_to(truth, parse_graph(args.est, args.format, args.est_kind))
    conf = adjacency_confusion(truth, est)
    m_max = max_edges(truth.d)
    m_true = len(skeleton(truth))
    m_est = len(skeleton(est))
    params = hg.HyperParams(m_max, m_true, m_est)
    # One tail walk gives both: p and log10_p read the same exact ratio.
    num, denom = hg._upper_tail(conf.tp, params)
    p, log10_p = num / denom, hg._log10_ratio(num, denom)
    print(f"m_max={m_max} m_true={m_true} m_est={m_est} tp_obs={conf.tp}")
    print(f"p = {p:.6g} log10_p = {log10_p:.6g}")
    if args.json:
        _write_json(
            args.json,
            {
                "schema_version": 1,
                "m_max": m_max,
                "m_true": m_true,
                "m_est": m_est,
                "tp_obs": conf.tp,
                "p": p,
                "log10_p": log10_p,
            },
        )
    return 0


def cmd_compare(args):
    metrics = args.metrics.split(",") if args.metrics else list(DEFAULT_METRICS)
    check_metric_names(metrics)
    truth = parse_graph(args.truth, args.format, "dag")
    est = align_to(truth, parse_graph(args.est, args.format, args.est_kind))
    # A metric undefined for the estimate comes back MISSING, with no NC keys.
    rows = single_truth_nc(truth, est, metrics, b=args.nc_reps, seed=args.seed)
    keys = ("observed", "nc_mean", "nc_ci", "p", "direction", "dropped")
    out = {
        "schema_version": 1,
        "d": truth.d,
        "m_true": len(skeleton(truth)),
        "m_est": len(skeleton(est)),
        "truth_kind": truth.kind,
        "est_kind": est.kind,
        "metrics": {
            name: {key: row[key] for key in keys if key in row} for name, row in rows.items()
        },
    }
    print(f"{'metric':<24}{'observed':>10}{'nc_mean':>10}{'p':>8}")
    for name, row in out["metrics"].items():
        obs = "missing" if row["observed"] is None else f"{row['observed']:.4f}"
        ncm = f"{row['nc_mean']:.4f}" if row.get("nc_mean") is not None else "-"
        pstr = f"{row['p']:.3f}" if row.get("p") is not None else "-"
        print(f"{name:<24}{obs:>10}{ncm:>10}{pstr:>8}")
    if args.json:
        _write_json(args.json, out)
    return 0


def _pipeline_config_from_file(path):
    with open(path, encoding="utf-8-sig") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on binary files
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    fields = PipelineConfig._fields
    unknown = sorted(raw.keys() - (set(fields) - {"algorithm"}))
    required = fields[: len(fields) - len(PipelineConfig.__init__.__defaults__)]
    missing = [name for name in required if name not in raw]
    if unknown or missing:
        raise ParseError(f"{path}: unknown keys {unknown}, missing keys {missing}")
    return PipelineConfig(**raw)


def cmd_pipeline(args):
    cfg = _pipeline_config_from_file(args.config)
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    result = run_study(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = os.path.join(args.out_dir, "summary.json")
    _write_json(summary_path, result.to_dict())
    csv_path = os.path.join(args.out_dir, "replications.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["replication", "m_true", "m_est", "m_nc"]
        for name in cfg.metrics:
            header += [f"algo_{name}", f"nc_{name}"]
        writer.writerow(header)
        for rep in result.replications:
            row = [
                rep.index,
                cfg.m_true,
                rep.m_est,
                len(skeleton(rep.nc)),
            ]
            for name in cfg.metrics:
                row += [_fmt(rep.algo_values[name]), _fmt(rep.nc_values[name])]
            writer.writerow(row)
    for name in cfg.metrics:
        p = result.summary[name]["p"]
        print(f"{name}: p = {'undefined' if p is None else format(p, '.3f')}")
    print(f"wrote {summary_path} and {csv_path}")
    failed = [rep for rep in result.replications if rep.error is not None]
    if failed:
        print(
            f"warning: {len(failed)} of {len(result.replications)} replications failed; "
            f"first (replication {failed[0].index}): {failed[0].error}",
            file=sys.stderr,
        )
    return 0


def _fmt(v):
    return "" if v is None else repr(v)


def cmd_sample(args):
    rng = RngSeed(args.seed, args.stream).generator()
    if args.kind == "dag":
        g = sample_er_dag(args.d, args.m, rng)
    else:
        g = sample_er_cpdag(args.d, args.m, rng)
    write_graph(g, args.out, args.format)
    print(f"wrote {args.kind} with {args.m} edges over {args.d} nodes to {args.out}")
    return 0


def cmd_simulate_data(args):
    g = parse_graph(args.graph, args.format, "dag")
    seed = RngSeed(args.seed)  # separate streams: the model's draws never shift the noise
    data = simulate(draw_sem(g, seed.child(0)), args.n, seed.child(1))
    to_csv(data, g.labels, args.out)
    print(f"wrote {args.n} x {g.d} data matrix to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncbench",
        description="Negative-control evaluation of causal discovery outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="exact metric expectations under random guessing")
    p.add_argument("--d", type=int, help="node count (sets m_max = d(d-1)/2)")
    p.add_argument("--m-max", type=int, dest="m_max")
    p.add_argument("--m-true", type=int, required=True, dest="m_true")
    p.add_argument("--m-est", type=int, required=True, dest="m_est")
    p.add_argument("--metric", choices=hg.METRICS)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--json", help="also write the table as JSON to this path")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("fit-test", help="exact one-sided skeleton-fit test")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "adjacency-matrix"])
    p.add_argument("--est-kind", default="dag", choices=["dag", "cpdag"], dest="est_kind")
    p.add_argument("--json")
    p.set_defaults(func=cmd_fit_test)

    p = sub.add_parser("compare", help="metric report with negative-control p-values")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "adjacency-matrix"])
    p.add_argument("--est-kind", default="dag", choices=["dag", "cpdag"], dest="est_kind")
    p.add_argument("--metrics", help="comma-separated metric names")
    p.add_argument("--nc-reps", type=int, default=1000, dest="nc_reps")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline", help="config-driven negative-control study")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted and ignored: a study runs in one process for now",
    )
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sample", help="draw a seeded random DAG or CPDAG")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", default="dag", choices=["dag", "cpdag"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "adjacency-matrix"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("simulate-data", help="linear Gaussian SEM data from a DAG file")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "adjacency-matrix"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_data)

    return parser


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("sample", "simulate-data", "compare") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ParseError, GraphError, hg.DegenerateParamsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CiTestError, ExtensionCapExceeded, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
