import itertools
import sys

import pytest

from ncbench.graphs import (
    SID_CAP,
    Cpdag,
    Dag,
    ExtensionCapExceeded,
    GraphError,
    dag_to_cpdag,
    enumerate_extensions,
    skeleton,
    v_structures,
)
from ncbench import graphs, metrics
from ncbench.metrics import (
    METRIC_NAMES,
    MetricValue,
    SidBounds,
    adjacency_confusion,
    full_report,
    orientation_confusion,
    shd,
    sid,
    vstructure_recovery,
)
from ncbench.hypergeom import metric_from_counts
from ncbench.pc import CiTestError, pc
from ncbench.pipeline import single_truth_nc
from ncbench.random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag

from conftest import simulate_seeded
from reference import all_dags, numpy_stream, valid_adjustment
from test_graphs import _partial_orientation, _pc_on_small_data, _proper_cpdag


def reference_sid(truth, est):
    """SID by its definition: one valid_adjustment check per ordered pair."""
    count = 0
    for i, j in itertools.permutations(range(truth.d), 2):
        pa = est.parents(i)
        if j in pa:
            count += j in truth.descendants(i)
        else:
            count += not valid_adjustment(truth, i, j, pa)
    return count


def _reversed(g):
    return Dag(g.d, frozenset((j, i) for i, j in g.edges))


class TestAdjacencyConfusion:
    def test_five_node_example(self, five_node_truth, five_node_estimate):
        c = adjacency_confusion(five_node_truth, five_node_estimate)
        assert (c.tp, c.fp, c.fn, c.tn) == (6, 1, 2, 1)

    def test_identity(self, five_node_truth):
        c = adjacency_confusion(five_node_truth, five_node_truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (8, 0, 0, 2)

    def test_empty_estimate(self, five_node_truth):
        c = adjacency_confusion(five_node_truth, Dag(5))
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 8, 2)

    def test_margins(self, five_node_truth, five_node_estimate):
        c = adjacency_confusion(five_node_truth, five_node_estimate)
        assert c.total == 10
        assert c.tp + c.fp == len(skeleton(five_node_estimate))
        assert c.tp + c.fn == len(skeleton(five_node_truth))


# Every door that takes a truth/estimate pair checks it once, on entry; the
# scorer behind full_report and single_truth_nc checks none.
@pytest.mark.parametrize(
    "door",
    [
        full_report,
        adjacency_confusion,
        orientation_confusion,
        shd,
        vstructure_recovery,
        sid,
        lambda truth, est: single_truth_nc(truth, est, ("shd", "sid_lower"), b=2),
    ],
    ids=[
        "full_report",
        "adjacency_confusion",
        "orientation_confusion",
        "shd",
        "vstructure_recovery",
        "sid",
        "single_truth_nc",
    ],
)
@pytest.mark.parametrize(
    "est, message",
    [
        (Dag(4), "node count mismatch: 5 vs 4"),
        (Dag(5, labels=("A", "B", "C", "D", "E")), "node label mismatch"),
    ],
    ids=["node_count", "labels"],
)
def test_node_mismatch(door, est, message, five_node_truth):
    with pytest.raises(GraphError, match=message):
        door(five_node_truth, est)


class TestOrientationConfusion:
    def test_five_node_example(self, five_node_truth, five_node_estimate):
        # endpoint enumeration over the 6 shared edges
        c = orientation_confusion(five_node_truth, five_node_estimate)
        assert (c.tp, c.fp, c.fn, c.tn) == (4, 2, 2, 4)

    def test_identity(self, five_node_truth):
        c = orientation_confusion(five_node_truth, five_node_truth)
        m = five_node_truth.m
        assert (c.tp, c.fp, c.fn, c.tn) == (m, 0, 0, m)

    def test_no_shared_adjacencies(self):
        a = Dag(3, frozenset({(0, 1)}))
        b = Dag(3, frozenset({(1, 2)}))
        c = orientation_confusion(a, b)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 0, 0)

    def test_undirected_counts_as_two_tails(self):
        truth = Dag(2, frozenset({(0, 1)}))
        est = Cpdag(2, frozenset(), frozenset({(0, 1)}))
        c = orientation_confusion(truth, est)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 1, 1)

    def test_total_is_twice_shared(self, five_node_truth, five_node_estimate):
        c = orientation_confusion(five_node_truth, five_node_estimate)
        shared = len(skeleton(five_node_truth) & skeleton(five_node_estimate))
        assert c.total == 2 * shared


class TestShd:
    def test_identity(self, five_node_truth):
        assert shd(five_node_truth, five_node_truth) == 0

    def test_five_node_example(self, five_node_truth, five_node_estimate):
        # pairwise enumeration: 1 addition + 2 deletions + 2 reversals
        assert shd(five_node_truth, five_node_estimate) == 5

    def test_empty_vs_truth_counts_edges(self, five_node_truth):
        assert shd(five_node_truth, Dag(5)) == 8

    def test_symmetry(self, five_node_truth, five_node_estimate):
        assert shd(five_node_truth, five_node_estimate) == shd(
            five_node_estimate, five_node_truth
        )

    def test_directed_vs_undirected_costs_one(self):
        a = Dag(2, frozenset({(0, 1)}))
        b = Cpdag(2, frozenset(), frozenset({(0, 1)}))
        assert shd(a, b) == 1

    def test_matches_per_pair_reference(self):
        # SHD by its definition: compare the edge type of every node pair.
        def edge_type(g, i, j):
            if (i, j) in g.directed or (j, i) in g.directed:
                return (i, j) if (i, j) in g.directed else (j, i)
            return "undirected" if (i, j) in skeleton(g) else None

        gen = numpy_stream(RngSeed(42).generator())
        for _ in range(200):
            d = int(gen.integers(2, 9))
            m_max = d * (d - 1) // 2
            a = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
            b = sample_er_cpdag(d, int(gen.integers(0, m_max + 1)), gen)
            for x, y in ((a, b), (b, a), (a, dag_to_cpdag(a))):
                expected = sum(
                    edge_type(x, i, j) != edge_type(y, i, j)
                    for i, j in itertools.combinations(range(d), 2)
                )
                assert shd(x, y) == expected

    def test_axioms_on_random_triples(self):
        gen = numpy_stream(RngSeed(40).generator())
        for _ in range(40):
            gs = [sample_er_dag(5, int(gen.integers(0, 11)), gen) for _ in range(3)]
            a, b, c = gs
            assert shd(a, b) == shd(b, a)
            assert shd(a, b) <= shd(a, c) + shd(c, b)
            assert (shd(a, b) == 0) == (a.edges == b.edges)
            assert shd(a, b) <= a.m + b.m


class TestVStructureRecovery:
    def test_no_truth_vstructures_gives_one(self, five_node_truth, five_node_estimate):
        assert vstructure_recovery(five_node_truth, five_node_estimate) == 1.0

    def test_exact_recovery(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        assert vstructure_recovery(g, g) == 1.0

    def test_empty_estimate(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        assert vstructure_recovery(g, Dag(3)) == 0.0

    def test_partial(self):
        truth = Dag(
            5, frozenset({(0, 1), (2, 1), (2, 3), (4, 3)})
        )  # two v-structures
        est = Dag(5, frozenset({(0, 1), (2, 1)}))  # recovers one
        assert type(vstructure_recovery(truth, est)) is float
        assert vstructure_recovery(truth, est) == 0.5

    @pytest.mark.parametrize("kind", ["dag", "cpdag", "pc"])
    def test_matches_set_intersection_on_seeded_corpus(self, kind):
        # Estimates near the truth (a subset of its edges plus extra edges in
        # its order), their CPDAGs, and PC on 10 to 200 rows of the truth's
        # data, improper CPDAGs among them.
        gen = numpy_stream(RngSeed(220, ["dag", "cpdag", "pc"].index(kind)).generator())
        values, improper = set(), 0
        for _ in range(250):
            d = int(gen.integers(3, 9))
            truth = sample_er_dag(d, int(gen.integers(d // 2, max_edges(d) + 1)), gen)
            if kind == "pc":
                n, seed = int(gen.integers(10, 201)), RngSeed(int(gen.integers(2**31)))
                try:
                    est = pc(simulate_seeded(truth, n, seed))
                except CiTestError:
                    continue
                try:
                    enumerate_extensions(est)
                except GraphError:
                    improper += 1
            else:
                rank = {v: k for k, v in enumerate(truth.topological_order())}
                pairs = itertools.combinations(range(d), 2)
                forward = [(i, j) if rank[i] < rank[j] else (j, i) for i, j in pairs]
                odds = [0.7 if e in truth.edges else 0.2 for e in forward]
                keep = gen.random(len(forward)) < odds
                est = Dag(d, frozenset(e for e, k in zip(forward, keep) if k))
                est = est if kind == "dag" else dag_to_cpdag(est)
            vs_t = v_structures(truth)
            expected = len(vs_t & v_structures(est)) / len(vs_t) if vs_t else 1.0
            assert vstructure_recovery(truth, est) == expected
            values.add(expected)
        assert 0.0 in values and 1.0 in values and any(0 < v < 1 for v in values), values
        assert (improper > 0) == (kind == "pc")

    def test_scoring_reads_only_the_truths_v_structures(self, monkeypatch):
        # No v-structure set is built for an estimate or a negative control.
        truth = Dag(5, frozenset({(0, 1), (2, 1), (2, 3), (4, 3)}))
        est = Cpdag(5, frozenset({(0, 1), (2, 1)}), frozenset({(3, 4)}))
        sets_of, colliders_of = [], []
        find_sets, find_colliders = metrics.v_structures, graphs._colliders
        monkeypatch.setattr(metrics, "v_structures", lambda g: sets_of.append(g) or find_sets(g))
        monkeypatch.setattr(
            graphs, "_colliders", lambda dr, sk: colliders_of.append(dr) or find_colliders(dr, sk)
        )
        assert vstructure_recovery(truth, est) == 0.5
        assert full_report(truth, est)["vstructure_recovery"].value == 0.5
        single_truth_nc(truth, est, ("vstructure_recovery",), b=20)
        # Once per scoring above: single_truth_nc reads the truth's set once
        # for the estimate and all 20 draws.
        assert len(sets_of) == 3 and {g.directed for g in sets_of} == {truth.directed}
        assert len(colliders_of) == 3 and set(colliders_of) == {truth.directed}


class TestValidAdjustment:
    def test_chain_no_backdoor(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        assert valid_adjustment(g, 0, 2, set())

    def test_confounder_open_backdoor(self):
        g = Dag(3, frozenset({(0, 1), (0, 2), (1, 2)}))
        assert not valid_adjustment(g, 1, 2, set())
        assert valid_adjustment(g, 1, 2, {0})

    def test_descendant_invalidates(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        assert not valid_adjustment(g, 0, 2, {1})

    def test_bad_nodes(self):
        g = Dag(3, frozenset({(0, 1)}))
        with pytest.raises(GraphError):
            valid_adjustment(g, 0, 0, set())


class TestSid:
    def test_self_comparison_is_zero(self, five_node_truth):
        assert sid(five_node_truth, five_node_truth) == SidBounds(0, 0, True)

    def test_empty_estimate_brute_force(self):
        truth = Dag(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        empty = Dag(3)
        expected = sum(
            not valid_adjustment(truth, i, j, set())
            for i, j in itertools.permutations(range(3), 2)
        )
        bounds = sid(truth, empty)
        assert bounds == SidBounds(expected, expected, True)

    def test_bounded_by_ordered_pairs(self):
        gen = numpy_stream(RngSeed(50).generator())
        for _ in range(20):
            truth = sample_er_dag(4, int(gen.integers(0, 7)), gen)
            est = sample_er_dag(4, int(gen.integers(0, 7)), gen)
            bounds = sid(truth, est)
            assert 0 <= bounds.lower <= bounds.upper <= 4 * 3

    @pytest.mark.parametrize("d", [3, 4])
    def test_cpdag_bounds_bracket_extensions(self, d):
        population = all_dags(d)
        gen = RngSeed(60).generator().numpy()
        sample = [population[int(gen.integers(0, len(population)))] for _ in range(25)]
        for truth in sample[:5]:
            for est in sample[5:10]:
                cp = dag_to_cpdag(est)
                bounds = sid(truth, cp)
                values = [sid(truth, ext).lower for ext in enumerate_extensions(cp)]
                assert bounds.lower == min(values)
                assert bounds.upper == max(values)
                for v in values:
                    assert bounds.lower <= v <= bounds.upper

    def test_cpdag_truth_is_rejected_before_any_work(self, five_node_truth):
        with pytest.raises(GraphError, match="SID is defined against a true DAG"):
            sid(dag_to_cpdag(five_node_truth), five_node_truth)
        with pytest.raises(GraphError, match="SID is defined against a true DAG"):
            sid(dag_to_cpdag(five_node_truth), Dag(3))  # before the node-count check


def _outcome(fn, *args):
    """fn(*args), or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ExtensionCapExceeded, ValueError) as exc:  # GraphError is a ValueError
        return type(exc), str(exc)


def _reference_bounds(truth, p, cap):
    values = [reference_sid(truth, ext) for ext in enumerate_extensions(p, cap)]
    return SidBounds(min(values), max(values), False)


class TestSidOverExtensionSearch:
    """sid scores the parent sets the extension search yields: it builds no
    Dag, and on every input it gives what reference_sid over the public
    enumerate_extensions gives, bounds or error, at and below the cap."""

    @pytest.mark.parametrize(
        "draw, seed, improper",
        [(_partial_orientation, 1, True), (_pc_on_small_data, 2, True), (_proper_cpdag, 3, False)],
    )
    def test_seeded_corpus(self, draw, seed, improper):
        # The inputs of test_graphs' extension corpus, and a truth for each.
        gen, truths = (numpy_stream(RngSeed(s, seed).generator()) for s in (180, 181))
        outcomes = {"improper": 0, "several": 0}
        checked = 0
        while checked < 150:
            p = draw(gen)
            if len(p.undirected) > 10:
                continue
            checked += 1
            truth = sample_er_dag(p.d, int(truths.integers(0, p.d * (p.d - 1) // 2 + 1)), truths)
            try:
                count = len(enumerate_extensions(p))
            except GraphError:
                outcomes["improper"] += 1
                caps = [SID_CAP]
            else:
                outcomes["several"] += count > 1
                caps = [count, count - 1]  # passes, then too small (or below 1)
            for cap in caps:
                expected = _outcome(_reference_bounds, truth, p, cap)
                assert _outcome(sid, truth, p, cap) == expected
                assert isinstance(expected, SidBounds) == (cap == count)
        assert outcomes["several"] >= 10
        assert (outcomes["improper"] > 0) == improper, outcomes

    def test_builds_no_dag(self, five_node_truth, five_node_estimate, monkeypatch):
        built = []
        init = Dag.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cp = dag_to_cpdag(five_node_truth)
        expected = _reference_bounds(five_node_truth, cp, SID_CAP)
        monkeypatch.setattr(Dag, "__init__", counting)
        assert sid(five_node_truth, cp) == expected
        sid(five_node_truth, five_node_estimate)
        full_report(five_node_truth, cp, ("sid_lower", "sid_upper"))
        assert built == []
        assert len(enumerate_extensions(cp)) == len(built) > 1  # the counter counts


class TestSidEquivalence:
    """The per-node reachability SID equals the per-pair definition."""

    def test_dag_estimates_match_reference(self):
        gen = numpy_stream(RngSeed(70).generator())
        pairs = 0
        descendant_parents = 0
        for d in range(2, 10):
            m_max = d * (d - 1) // 2
            for _ in range(25):
                truth = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
                est = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
                for candidate in (est, _reversed(truth)):
                    expected = reference_sid(truth, candidate)
                    assert sid(truth, candidate) == SidBounds(expected, expected, True)
                    pairs += 1
                    descendant_parents += any(
                        candidate.parents(i) & truth.descendants(i) for i in range(d)
                    )
        assert pairs >= 200
        # Estimates whose parent set of some node holds a true descendant.
        assert descendant_parents >= 100

    def test_cpdag_bounds_match_reference_over_extensions(self):
        gen = numpy_stream(RngSeed(71).generator())
        for d in range(2, 7):
            m_max = d * (d - 1) // 2
            for _ in range(10):
                truth = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
                cp = sample_er_cpdag(d, int(gen.integers(0, m_max + 1)), gen)
                values = [reference_sid(truth, ext) for ext in enumerate_extensions(cp)]
                assert sid(truth, cp) == SidBounds(min(values), max(values), False)


def _wrapped(values):
    """A scorer's {name: float | None} as full_report's {name: MetricValue}."""
    return {name: MetricValue(name, value) for name, value in values.items()}


class TestScorer:
    def test_one_scorer_reused_gives_full_reports_values(self):
        # One scorer on one truth, reused over 200 estimates: DAG and CPDAG
        # draws, random partial orientations and PC on 10 to 60 rows, with
        # improper CPDAGs and more extensions than the cap among them.
        gen = numpy_stream(RngSeed(250).generator())
        truth = sample_er_dag(7, 10, gen)
        names = sorted(METRIC_NAMES)
        score = metrics._scorer(truth, names, 12)
        sid_missing = proper = 0
        for k in range(200):
            kind, m = k % 4, int(gen.integers(0, 22))
            if kind == 0:
                est = sample_er_dag(7, m, gen)
            elif kind == 1:
                est = sample_er_cpdag(7, m, gen)
            elif kind == 2:
                marks = {e: gen.random() for e in sorted(skeleton(sample_er_dag(7, m, gen)))}
                est = Cpdag(
                    7,
                    frozenset((i, j) if u < 0.3 else (j, i) for (i, j), u in marks.items() if u < 0.6),
                    frozenset(e for e, u in marks.items() if u >= 0.6),
                )
            else:
                seed = RngSeed(int(gen.integers(2**31)))
                try:
                    est = pc(simulate_seeded(truth, int(gen.integers(10, 61)), seed))
                except CiTestError:
                    continue
            values = score(est)
            assert _wrapped(values) == full_report(truth, est, names, sid_cap=12).values
            assert _wrapped(score(est, names[:3])) == full_report(truth, est, names[:3]).values
            sid_missing += values["sid_lower"] is None
            proper += values["sid_lower"] is not None and est.kind == "cpdag"
        assert sid_missing >= 10 and proper >= 10, (sid_missing, proper)


class TestFullReport:
    def test_five_node_example(self, five_node_truth, five_node_estimate):
        rep = full_report(five_node_truth, five_node_estimate)
        assert rep["adjacency_precision"].value == pytest.approx(6 / 7)
        assert rep["adjacency_recall"].value == pytest.approx(6 / 8)

    def test_identical_graphs(self, five_node_truth):
        rep = full_report(five_node_truth, five_node_truth, sorted(METRIC_NAMES))
        assert rep["shd"].value == 0.0
        assert rep["adjacency_precision"].value == 1.0
        assert rep["orientation_recall"].value == 1.0
        assert rep["sid_upper"].value == 0.0

    def test_empty_estimate_missing_precision(self, five_node_truth):
        rep = full_report(five_node_truth, Dag(5))
        assert rep["adjacency_precision"].value is None
        assert rep["adjacency_recall"].value == 0.0


    def test_sid_enumerates_once_for_both_bounds(self, five_node_truth, monkeypatch):
        calls = []
        original = metrics._extensions

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "_extensions", counting)
        est = dag_to_cpdag(five_node_truth)
        rep = full_report(five_node_truth, est, ("sid_lower", "sid_upper"))
        assert len(calls) == 1
        bounds = sid(five_node_truth, est)
        assert (rep["sid_lower"].value, rep["sid_upper"].value) == (bounds.lower, bounds.upper)

    def test_sid_on_a_cpdag_truth_is_an_error_not_missing(self, five_node_truth):
        cp = dag_to_cpdag(five_node_truth)
        with pytest.raises(GraphError, match="SID is defined against a true DAG"):
            full_report(cp, five_node_truth, ("shd", "sid_lower"))
        assert full_report(cp, five_node_truth, ("shd",))["shd"].value == shd(cp, five_node_truth)

    def test_sid_failure_leaves_other_values(self, five_node_truth):
        cycle = Cpdag(5, frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(3, 4)}))
        rep = full_report(five_node_truth, cycle, ("shd", "sid_lower", "sid_upper"))
        assert rep["sid_lower"].value is None and rep["sid_upper"].value is None
        assert rep["shd"].value == float(shd(five_node_truth, cycle))

    def test_sid_cap_below_one_is_an_error_not_missing(self, five_node_truth):
        est = dag_to_cpdag(five_node_truth)
        with pytest.raises(ValueError, match="cap must be at least 1") as exc:
            full_report(five_node_truth, est, ("shd", "sid_lower"), sid_cap=0)
        assert exc.type is ValueError

    def test_deep_class_is_capped_without_recursion(self):
        # The complete undirected 25-node CPDAG: 25! extensions over 300 pairs.
        d = 25
        p = Cpdag(d, frozenset(), frozenset(itertools.combinations(range(d), 2)))
        truth = sample_er_dag(d, 30, RngSeed(5).generator())
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            with pytest.raises(ExtensionCapExceeded):
                enumerate_extensions(p, cap=5)
            rep = full_report(truth, p, ("shd", "sid_lower"), sid_cap=5)
        finally:
            sys.setrecursionlimit(limit)
        assert rep["sid_lower"].value is None
        assert rep["shd"].value == float(shd(truth, p))

    def test_requested_names_in_order(self, five_node_truth, five_node_estimate):
        names = ("shd", "orientation_npv", "adjacency_f1")
        rep = full_report(five_node_truth, five_node_estimate, names)
        assert tuple(rep.values) == names
        ori = orientation_confusion(five_node_truth, five_node_estimate)
        assert rep["orientation_npv"].value == metric_from_counts("npv", ori)


def test_full_report_unknown_name(five_node_truth):
    with pytest.raises(ValueError):
        full_report(five_node_truth, five_node_truth, ("nope",))


def test_full_report_rejects_a_repeated_name_before_scoring(five_node_truth, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a repeated name reached the scoring")

    monkeypatch.setattr(metrics, "_compare_pairs", must_not_run)
    monkeypatch.setattr(metrics, "_sid_terms", must_not_run)
    with pytest.raises(ValueError, match="metric 'sid_lower' is repeated"):
        full_report(five_node_truth, five_node_truth, ("sid_lower", "shd", "sid_lower"))
