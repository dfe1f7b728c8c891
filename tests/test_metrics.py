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
)
from ncbench import metrics
from ncbench.metrics import (
    METRIC_NAMES,
    SidBounds,
    adjacency_confusion,
    full_report,
    orientation_confusion,
    shd,
    sid,
    vstructure_recovery,
)
from ncbench.hypergeom import metric_from_counts
from ncbench.random_graphs import RngSeed, sample_er_cpdag, sample_er_dag

from reference import all_dags, valid_adjustment
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

    def test_node_mismatch(self, five_node_truth):
        with pytest.raises(GraphError):
            adjacency_confusion(five_node_truth, Dag(4))


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

        gen = RngSeed(42).generator()
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
        gen = RngSeed(40).generator()
        for _ in range(40):
            gs = [sample_er_dag(5, int(gen.integers(0, 11)), gen) for _ in range(3)]
            a, b, c = gs
            assert shd(a, b) == shd(b, a)
            assert shd(a, b) <= shd(a, c) + shd(c, b)
            assert (shd(a, b) == 0) == (a.edges == b.edges)
            assert shd(a, b) <= a.m + b.m


class TestVStructureRecovery:
    def test_no_truth_vstructures_gives_one(self, five_node_truth, five_node_estimate):
        assert vstructure_recovery(five_node_truth, five_node_estimate).value == 1.0

    def test_exact_recovery(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        assert vstructure_recovery(g, g).value == 1.0

    def test_empty_estimate(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        assert vstructure_recovery(g, Dag(3)).value == 0.0

    def test_partial(self):
        truth = Dag(
            5, frozenset({(0, 1), (2, 1), (2, 3), (4, 3)})
        )  # two v-structures
        est = Dag(5, frozenset({(0, 1), (2, 1)}))  # recovers one
        assert vstructure_recovery(truth, est).value == 0.5


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
        gen = RngSeed(50).generator()
        for _ in range(20):
            truth = sample_er_dag(4, int(gen.integers(0, 7)), gen)
            est = sample_er_dag(4, int(gen.integers(0, 7)), gen)
            bounds = sid(truth, est)
            assert 0 <= bounds.lower <= bounds.upper <= 4 * 3

    @pytest.mark.parametrize("d", [3, 4])
    def test_cpdag_bounds_bracket_extensions(self, d):
        population = all_dags(d)
        gen = RngSeed(60).generator()
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
        gen, truths = RngSeed(180, seed).generator(), RngSeed(181, seed).generator()
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
        post_init = Dag.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        cp = dag_to_cpdag(five_node_truth)
        expected = _reference_bounds(five_node_truth, cp, SID_CAP)
        monkeypatch.setattr(Dag, "__post_init__", counting)
        assert sid(five_node_truth, cp) == expected
        sid(five_node_truth, five_node_estimate)
        full_report(five_node_truth, cp, ("sid_lower", "sid_upper"))
        assert built == []
        assert len(enumerate_extensions(cp)) == len(built) > 1  # the counter counts


class TestSidEquivalence:
    """The per-node reachability SID equals the per-pair definition."""

    def test_dag_estimates_match_reference(self):
        gen = RngSeed(70).generator()
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
        gen = RngSeed(71).generator()
        for d in range(2, 7):
            m_max = d * (d - 1) // 2
            for _ in range(10):
                truth = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
                cp = sample_er_cpdag(d, int(gen.integers(0, m_max + 1)), gen)
                values = [reference_sid(truth, ext) for ext in enumerate_extensions(cp)]
                assert sid(truth, cp) == SidBounds(min(values), max(values), False)


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
        assert rep["adjacency_precision"].missing
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
        assert rep["sid_lower"].missing and rep["sid_upper"].missing
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
        assert rep["sid_lower"].missing
        assert rep["shd"].value == float(shd(truth, p))

    def test_requested_names_in_order(self, five_node_truth, five_node_estimate):
        names = ("shd", "orientation_npv", "adjacency_f1")
        rep = full_report(five_node_truth, five_node_estimate, names)
        assert tuple(rep.values) == names
        ori = orientation_confusion(five_node_truth, five_node_estimate)
        assert rep["orientation_npv"].value == metric_from_counts("npv", ori).value


def test_full_report_unknown_name(five_node_truth):
    with pytest.raises(ValueError):
        full_report(five_node_truth, five_node_truth, ("nope",))
