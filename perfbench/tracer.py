"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ncbench modules from outside the
package. Each function is wrapped at the module (or class) attribute through
which the package calls it, so nothing under src/ changes. A wrapper records
one span per call: a count, the time inside the call, and the self time (the
call's time minus the time of traced calls made inside it).

install() replaces the attributes and uninstall() puts the originals back;
restored() checks that every original is in place again.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span). The attribute may be "Class.method". A span name
# is "<layer>.<function>"; several attributes can feed one span.
WRAPS = (
    ("ncbench.cli", "parse_graph", "io.parse_graph"),
    ("ncbench.cli", "run_study", "pipeline.run_study"),
    ("ncbench.cli", "single_truth_nc", "pipeline.single_truth_nc"),
    ("ncbench.cli", "full_report", "metrics.full_report"),
    ("ncbench.cli", "sample_er_dag", "random_graphs.sample_er_dag"),
    ("ncbench.cli", "sample_er_cpdag", "random_graphs.sample_er_cpdag"),
    ("ncbench.cli", "simulate_from_dag", "sem.simulate_from_dag"),
    ("ncbench.pipeline", "pc", "pc.pc"),
    ("ncbench.pipeline", "draw_sem", "sem.draw_sem"),
    ("ncbench.pipeline", "simulate", "sem.simulate"),
    ("ncbench.pipeline", "sample_er_dag", "random_graphs.sample_er_dag"),
    ("ncbench.pipeline", "sample_er_cpdag", "random_graphs.sample_er_cpdag"),
    ("ncbench.pipeline", "compute_metric", "metrics.compute_metric"),
    ("ncbench.pc", "pc", "pc.pc"),
    ("ncbench.pc", "FisherZTest.independent", "pc.ci_test"),
    ("ncbench.pc", "OracleTest.independent", "pc.ci_test"),
    ("ncbench.pc", "d_separated", "graphs.d_separated"),
    ("ncbench.random_graphs", "dag_to_cpdag", "graphs.dag_to_cpdag"),
    ("ncbench.metrics", "full_report", "metrics.full_report"),
    ("ncbench.metrics", "compute_metric", "metrics.compute_metric"),
    ("ncbench.metrics", "sid", "metrics.sid"),
    ("ncbench.metrics", "d_separated", "graphs.d_separated"),
    ("ncbench.metrics", "enumerate_extensions", "graphs.enumerate_extensions"),
    ("ncbench.hypergeom", "quantile", "hypergeom.quantile"),
    ("ncbench.hypergeom", "cdf", "hypergeom.cdf"),
    ("ncbench.hypergeom", "skeleton_fit_test", "hypergeom.skeleton_fit_test"),
)

CI_LEVELS = 5  # pc.ci_tests.l0 .. l4; deeper tests count in l5plus


def _resolve(module_name, attr):
    """(owner object, attribute name) for "name" or "Class.name" in a module."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Span:
    __slots__ = ("calls", "total", "self_time", "by_parent")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.by_parent = {}


class Tracer:
    def __init__(self):
        self.spans = {}
        self._stack = []  # [span name, time of traced children] per open call
        self._originals = []  # (owner, name, original) per replaced attribute
        self.missing = []  # attributes this version of the package lacks
        self.ci_seen = set()
        self.ci_levels = [0] * (CI_LEVELS + 1)
        self.ci_repeats = 0
        self.ci_indep = 0
        self.ci_max_level = 0
        self.extensions = 0
        self.metric_values = 0
        self.metric_missing = 0

    # -- installing ---------------------------------------------------------

    def install(self):
        for module_name, attr, span in WRAPS:
            try:
                owner, name = _resolve(module_name, attr)
                original = owner.__dict__[name]
            except (AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span))

    def uninstall(self):
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)

    def restored(self):
        """True when every replaced attribute holds its original again."""
        return all(owner.__dict__[name] is fn for owner, name, fn in self._originals)

    def _wrap(self, fn, span_name):
        span = self.spans.setdefault(span_name, Span())
        stack = self._stack
        clock = time.perf_counter
        on_enter = {"pc.pc": self._enter_pc}.get(span_name)
        on_return = {
            "pc.ci_test": self._ci_result,
            "graphs.enumerate_extensions": self._extensions,
            "metrics.full_report": self._report,
            "metrics.compute_metric": self._metric,
        }.get(span_name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            span.by_parent[parent] = span.by_parent.get(parent, 0) + 1
            if on_enter is not None:
                on_enter()
            frame = [span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-span counters --------------------------------------------------

    def _enter_pc(self):
        # Repeats are counted within one PC run.
        self.ci_seen = set()

    def _ci_result(self, args, independent):
        _, i, j, z = args[:4]
        z = frozenset(z)
        level = len(z)
        self.ci_levels[min(level, CI_LEVELS)] += 1
        self.ci_max_level = max(self.ci_max_level, level)
        key = (min(i, j), max(i, j), z)
        if key in self.ci_seen:
            self.ci_repeats += 1
        else:
            self.ci_seen.add(key)
        self.ci_indep += bool(independent)

    def _extensions(self, args, result):
        self.extensions += len(result)

    def _report(self, args, report):
        for value in report.values.values():
            self._count_value(value.value)

    def _metric(self, args, value):
        self._count_value(value.value)

    def _count_value(self, value):
        self.metric_values += 1
        self.metric_missing += value is None

    # -- results ------------------------------------------------------------

    _COUNTERS = ("ci_repeats", "ci_indep", "extensions", "metric_values", "metric_missing")

    def raw(self):
        """Spans and counters as JSON, for merging traces of several processes."""
        return {
            "spans": {
                name: [s.calls, s.total, s.self_time, list(s.by_parent.items())]
                for name, s in self.spans.items()
            },
            "ci_levels": self.ci_levels,
            "ci_max_level": self.ci_max_level,
            **{name: getattr(self, name) for name in self._COUNTERS},
        }

    def merge(self, raw):
        """Add the spans and counters of another process's raw()."""
        for name, (calls, total, self_time, by_parent) in raw["spans"].items():
            span = self.spans.setdefault(name, Span())
            span.calls += calls
            span.total += total
            span.self_time += self_time
            for parent, count in by_parent:
                span.by_parent[parent] = span.by_parent.get(parent, 0) + count
        self.ci_levels = [a + b for a, b in zip(self.ci_levels, raw["ci_levels"])]
        self.ci_max_level = max(self.ci_max_level, raw["ci_max_level"])
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + raw[name])

    def _span(self, name):
        return self.spans.get(name) or Span()

    def metrics(self, op_s):
        """Per-layer numbers; op_s is the traced time of the operations that
        ran PC, the base of pc.busy_frac."""
        s = self._span
        draws = ("random_graphs.sample_er_dag", "random_graphs.sample_er_cpdag")
        sems = ("sem.draw_sem", "sem.simulate", "sem.simulate_from_dag")
        scores = ("metrics.full_report", "metrics.compute_metric")
        ci = s("pc.ci_test")
        out = {
            "io.parse_calls": s("io.parse_graph").calls,
            "io.parse_s": s("io.parse_graph").total,
            # Negative controls drawn for single-truth comparisons (compare).
            "pipeline.nc_draws": sum(
                s(n).by_parent.get("pipeline.single_truth_nc", 0) for n in draws
            ),
            "random_graphs.draws": sum(s(n).calls for n in draws),
            "random_graphs.draw_s": sum(s(n).total for n in draws),
            "graphs.dag_to_cpdag_calls": s("graphs.dag_to_cpdag").calls,
            "graphs.dag_to_cpdag_s": s("graphs.dag_to_cpdag").total,
            "graphs.d_separated_calls": s("graphs.d_separated").calls,
            "graphs.d_separated_s": s("graphs.d_separated").total,
            "graphs.extensions": self.extensions,
            "graphs.enumerate_s": s("graphs.enumerate_extensions").total,
            "sem.calls": sum(s(n).calls for n in sems),
            "sem.busy_s": sum(s(n).total for n in sems),
            "pc.calls": s("pc.pc").calls,
            "pc.busy_s": s("pc.pc").total,
            "pc.self_s": s("pc.pc").self_time,
            "pc.busy_frac": s("pc.pc").total / op_s if op_s > 0 else 0.0,
            "pc.ci_tests": ci.calls,
            "pc.ci_test_s": ci.total,
            "pc.max_level": self.ci_max_level,
            "pc.ci_repeat_frac": self.ci_repeats / ci.calls if ci.calls else 0.0,
            "pc.ci_indep_frac": self.ci_indep / ci.calls if ci.calls else 0.0,
            "metrics.score_calls": sum(s(n).calls for n in scores),
            "metrics.score_s": sum(s(n).total for n in scores),
            "metrics.score_self_s": sum(s(n).self_time for n in scores),
            "metrics.sid_calls": s("metrics.sid").calls,
            "metrics.sid_s": s("metrics.sid").total,
            "metrics.sid_self_s": s("metrics.sid").self_time,
            "metrics.missing_frac": (
                self.metric_missing / self.metric_values if self.metric_values else 0.0
            ),
            "hypergeom.quantile_calls": s("hypergeom.quantile").calls,
            "hypergeom.quantile_s": s("hypergeom.quantile").total,
            "hypergeom.cdf_calls": s("hypergeom.cdf").calls,
            "hypergeom.fit_test_calls": s("hypergeom.skeleton_fit_test").calls,
            "hypergeom.fit_test_s": s("hypergeom.skeleton_fit_test").total,
        }
        for level in range(CI_LEVELS):
            out[f"pc.ci_tests.l{level}"] = self.ci_levels[level]
        out[f"pc.ci_tests.l{CI_LEVELS}plus"] = self.ci_levels[CI_LEVELS]
        return out
