import itertools
import pickle
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbench.graphs import (
    Cpdag,
    Dag,
    ExtensionCapExceeded,
    GraphError,
    VStructure,
    _colliders,
    _compelled,
    _mask,
    _meek_close,
    _nodes,
    d_connected,
    d_separated,
    dag_to_cpdag,
    enumerate_extensions,
    is_acyclic,
    skeleton,
    v_structures,
)
from ncbench.hypergeom import ConfusionCounts, HyperParams
from ncbench.metrics import MetricReport, MetricValue, SidBounds
from ncbench.pc import CiTestError, PcConfig, pc
from ncbench.pipeline import PipelineConfig, Replication, StudyResult
from ncbench.random_graphs import RngSeed, sample_er_cpdag, sample_er_dag
from ncbench.sem import SemModel

from conftest import simulate_seeded
from reference import all_dags, all_extensions, d_connected_sets, numpy_stream, with_labels


class TestIsAcyclic:
    def test_chain(self):
        assert is_acyclic({(0, 1), (1, 2)}, 3)

    def test_two_cycle(self):
        assert not is_acyclic({(0, 1), (1, 0)}, 2)

    def test_five_node_example(self, five_node_truth):
        assert is_acyclic(five_node_truth.edges, 5)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            is_acyclic({(0, 5)}, 3)

    def test_nodes_follow_the_constructors_integer_rule(self):
        for bad in (True, 1.5):
            for edges in ({(0, bad)}, {(bad, 2)}):
                with pytest.raises(GraphError, match="node must be an integer"):
                    is_acyclic(edges, 3)
        assert is_acyclic({(0, np.int64(1)), (np.int64(1), 2)}, 3)
        assert not is_acyclic({(0, np.int64(1)), (np.int64(1), 0)}, 3)

    @pytest.mark.parametrize(
        "d, message",
        [
            (2.0, "d must be an integer, got 2.0"),
            (True, "d must be an integer, got True"),
            (-1, "d must be positive"),
        ],
    )
    def test_d_follows_the_constructors_rule(self, d, message):
        for check in (is_acyclic, lambda edges, d: Dag(d, frozenset(edges))):
            with pytest.raises(GraphError, match=f"^{message}$"):
                check([], d)
        assert is_acyclic([], np.int64(1))


class TestDagInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Dag(2, frozenset({(0, 0)}))

    def test_rejects_cycle(self):
        with pytest.raises(GraphError):
            Dag(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_rejects_double_edge(self):
        with pytest.raises(GraphError):
            Dag(2, frozenset({(0, 1), (1, 0)}))

    def test_rejects_bad_labels(self):
        with pytest.raises(GraphError):
            Dag(2, frozenset(), labels=("a", "a"))

    @pytest.mark.parametrize("d, count", [(1, 1), (2, 3), (3, 25), (4, 543)])
    def test_all_dags_counts_labeled_dags(self, d, count):
        # OEIS A003024: the number of labeled DAGs on d nodes.
        dags = all_dags(d)
        assert len(dags) == len(set(dags)) == count

    @pytest.mark.parametrize("kind", [Dag, Cpdag])
    def test_out_of_range_node_named(self, kind):
        with pytest.raises(GraphError, match="node index 7 out of range for d=3"):
            kind(3, frozenset({(0, 7)}))
        with pytest.raises(GraphError, match="node index -1 out of range"):
            kind(3, frozenset({(-1, 2)}))

    @pytest.mark.parametrize(
        "make",
        [
            lambda e: Dag(3, frozenset(e)),
            lambda e: Cpdag(3, frozenset(e)),
            lambda e: Cpdag(3, frozenset(), frozenset(e)),
        ],
        ids=["dag", "cpdag-directed", "cpdag-undirected"],
    )
    def test_only_integer_nodes(self, make):
        for node in (1.7, 1.0, True, False, "0", None, np.float64(1.0), np.True_):
            message = f"node must be an integer, got {re.escape(repr(node))}"
            with pytest.raises(GraphError, match=message):
                make({(node, 2)})
            with pytest.raises(GraphError, match="node must be an integer"):
                make({(2, node)})
        g = make({(np.int64(0), np.uint8(2)), (1, np.int32(2))})
        assert g.directed | g.undirected == {(0, 2), (1, 2)}
        assert all(type(v) is int for e in g.directed | g.undirected for v in e)

    @pytest.mark.parametrize("kind", [Dag, Cpdag])
    def test_only_integer_d(self, kind):
        for d in (2.0, True, "3", None, np.float64(3.0), np.True_):
            message = f"d must be an integer, got {re.escape(repr(d))}"
            with pytest.raises(GraphError, match=message):
                kind(d)
        g = kind(np.int64(3), frozenset({(0, 2)}))
        assert type(g.d) is int and g == kind(3, frozenset({(0, 2)}))

    def test_topological_order_is_sorted_kahn(self):
        def sorted_kahn(g):
            # Ready nodes in ascending order, children released in ascending order.
            indeg = {v: 0 for v in range(g.d)}
            for _, j in g.edges:
                indeg[j] += 1
            queue = deque(sorted(v for v in range(g.d) if indeg[v] == 0))
            order = []
            while queue:
                v = queue.popleft()
                order.append(v)
                for c in sorted(j for i, j in g.edges if i == v):
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        queue.append(c)
            return order

        gen = numpy_stream(RngSeed(81).generator())
        for d in range(1, 31):
            for _ in range(4):
                g = sample_er_dag(d, int(gen.integers(0, d * (d - 1) // 2 + 1)), gen)
                assert g.topological_order() == sorted_kahn(g)

    def test_descendants(self):
        g = Dag(4, frozenset({(0, 1), (1, 2)}))
        assert g.descendants(0) == {1, 2}
        assert g.descendants(3) == frozenset()

    def test_indexed_queries_match_edge_scans(self):
        gen = numpy_stream(RngSeed(80).generator())
        for d in range(1, 12):
            for _ in range(6):
                g = sample_er_dag(d, int(gen.integers(0, d * (d - 1) // 2 + 1)), gen)
                for v in range(d):
                    assert g.parents(v) == frozenset(i for i, j in g.edges if j == v)
                    assert g.children(v) == frozenset(j for i, j in g.edges if i == v)
                    # Fixed point of "children of the set found so far".
                    desc = {j for i, j in g.edges if i == v}
                    while True:
                        grown = desc | {j for i, j in g.edges if i in desc}
                        if grown == desc:
                            break
                        desc = grown
                    assert g.descendants(v) == desc


@pytest.mark.parametrize("kind", [Dag, Cpdag])
@pytest.mark.parametrize("labels", [(0, 1), (1, 2, 3), ("a", None), ("a", ["b"])], ids=repr)
def test_labels_that_are_not_strings_are_refused_at_the_door(kind, labels):
    # Not only by the writer, later: a file would read (1, 2, 3) back as strings.
    with pytest.raises(GraphError, match="^labels must be d distinct strings$"):
        kind(len(labels), frozenset({(0, 1)}), labels=labels)


class TestCpdagInvariants:
    def test_rejects_mixed_pair(self):
        with pytest.raises(GraphError):
            Cpdag(2, frozenset({(0, 1)}), frozenset({(0, 1)}))

    def test_undirected_canonicalized(self):
        p = Cpdag(3, frozenset(), frozenset({(2, 0)}))
        assert p.undirected == frozenset({(0, 2)})

    def test_one_pass_checks_match_one_pass_per_check(self):
        # Edge lists with repeats, reversed pairs, self-loops, out-of-range
        # nodes and mixed pairs, checked against one pass per check.
        def per_check(d, directed, undirected):
            directed = frozenset(directed)
            undirected = frozenset((min(i, j), max(i, j)) for i, j in undirected)
            edges = list(itertools.chain(directed, undirected))
            for v in (v for e in edges for v in e):
                if not 0 <= v < d:
                    return f"node index {v} out of range for d={d}"
            for i, j in edges:
                if i == j:
                    return f"self-loop at node {i}"
            pairs = frozenset((min(i, j), max(i, j)) for i, j in directed)
            if len(pairs) != len(directed):
                return "both orientations present for some pair"
            if not pairs.isdisjoint(undirected):
                return "pair appears both directed and undirected"
            return directed, undirected, pairs | undirected

        gen = RngSeed(41).generator().numpy()
        outcomes = set()
        for _ in range(3000):
            d = int(gen.integers(1, 6))
            directed, undirected = (
                [tuple(int(v) for v in gen.integers(-1, d + 1, 2)) for _ in range(k)]
                for k in gen.integers(0, 5, 2)
            )
            expected = per_check(d, directed, undirected)
            try:
                g = Cpdag(d, directed, undirected)
            except GraphError as exc:
                assert isinstance(expected, str)
                if expected.startswith(("node index", "self-loop")):
                    assert str(exc).startswith(("node index", "self-loop"))
                else:
                    assert str(exc) == expected
                outcomes.add(expected.split()[0])
            else:
                assert (g.directed, g.undirected, skeleton(g)) == expected
                outcomes.add("ok")
        assert outcomes == {"node", "self-loop", "both", "pair", "ok"}


class TestEdgeView:
    # A Dag reads like the Cpdag with the same edges, all directed.
    @pytest.mark.parametrize("seed", range(6))
    def test_dag_matches_its_all_directed_cpdag(self, seed, tmp_path):
        from ncbench.io import write_graph
        from ncbench.metrics import full_report

        gen = numpy_stream(RngSeed(seed).generator())
        truth = sample_er_dag(7, 9, gen)
        g = sample_er_dag(7, int(gen.integers(1, 15)), gen)
        c = Cpdag(g.d, g.edges, frozenset(), g.labels)
        assert (g.directed, g.undirected, g.kind) == (g.edges, frozenset(), "dag")
        assert c.kind == "cpdag"
        assert skeleton(g) == skeleton(c)
        assert v_structures(g) == v_structures(c)
        for fmt in ("edge-list", "adjacency-matrix"):
            write_graph(g, tmp_path / "g.csv", fmt)
            write_graph(c, tmp_path / "c.csv", fmt)
            assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        assert full_report(truth, g).values == full_report(truth, c).values
        labels = tuple("ABCDEFG")
        assert type(with_labels(g, labels)) is Dag
        assert type(with_labels(c, labels)) is Cpdag
        assert with_labels(g, labels).directed == g.directed
        assert with_labels(c, labels).labels == labels


class TestSkeleton:
    def test_empty(self):
        assert skeleton(Dag(3)) == frozenset()

    def test_five_node_counts(self, five_node_truth, five_node_estimate):
        assert len(skeleton(five_node_truth)) == 8
        assert len(skeleton(five_node_estimate)) == 7

    def test_matches_edge_scan(self):
        gen = numpy_stream(RngSeed(82).generator())
        for d in range(1, 16):
            for _ in range(4):
                m = int(gen.integers(0, d * (d - 1) // 2 + 1))
                for g in (sample_er_dag(d, m, gen), sample_er_cpdag(d, m, gen)):
                    scan = {(min(i, j), max(i, j)) for i, j in g.directed}
                    scan |= {(min(i, j), max(i, j)) for i, j in g.undirected}
                    assert skeleton(g) == scan
                    assert type(skeleton(g)) is frozenset


class TestVStructures:
    def test_simple_collider(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}))
        assert v_structures(g) == {VStructure(0, 1, 2)}

    def test_five_node_truth_has_none(self, five_node_truth):
        # Exhaustive triple enumeration: every collider's parents are adjacent.
        skel = skeleton(five_node_truth)
        for a, c in itertools.combinations(range(5), 2):
            for b in range(5):
                if b in (a, c):
                    continue
                if (a, b) in five_node_truth.edges and (c, b) in five_node_truth.edges:
                    assert (min(a, c), max(a, c)) in skel
        assert v_structures(five_node_truth) == frozenset()

    def test_complete_dag_has_none(self):
        g = Dag(4, frozenset((i, j) for i in range(4) for j in range(i + 1, 4)))
        assert v_structures(g) == frozenset()

    def test_cpdag_needs_both_edges_directed(self):
        p = Cpdag(3, frozenset({(0, 2)}), frozenset({(1, 2)}))
        assert v_structures(p) == frozenset()

    def test_kept_set_is_outside_eq_hash_and_repr(self):
        g = Dag(3, frozenset({(0, 2), (1, 2)}), labels=("a", "b", "c"))
        for graph in (g, dag_to_cpdag(g)):
            before = repr(graph), hash(graph)
            vs = v_structures(graph)
            assert vs == {VStructure(0, 1, 2)}
            assert (repr(graph), hash(graph)) == before
            copy = with_labels(graph, graph.labels)
            assert copy == graph and hash(copy) == hash(graph) and repr(copy) == repr(graph)
            assert v_structures(with_labels(graph, None)) == vs

    def test_fields_match_colliders(self):
        gen = numpy_stream(RngSeed(83).generator())
        for d in range(3, 12):
            for _ in range(4):
                g = sample_er_dag(d, int(gen.integers(0, d * (d - 1) // 2 + 1)), gen)
                vs = v_structures(g)
                assert {(v.a, v.c, v.b) for v in vs} == set(_colliders(g.directed, skeleton(g)))
                for v in vs:
                    assert type(v) is VStructure and v.a < v.c
                    assert (v.a, v.b) in g.edges and (v.c, v.b) in g.edges


def _paths(g, i, j):
    """All simple undirected paths from i to j (brute-force oracle helper)."""
    skel = skeleton(g)
    adj = {v: set() for v in range(g.d)}
    for a, b in skel:
        adj[a].add(b)
        adj[b].add(a)
    paths = []

    def walk(path):
        last = path[-1]
        if last == j:
            paths.append(list(path))
            return
        for nxt in adj[last]:
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([i])
    return paths


def _blocked(g, path, z):
    """Standard blocking check for one path (oracle)."""
    for idx in range(1, len(path) - 1):
        prev, mid, nxt = path[idx - 1], path[idx], path[idx + 1]
        into_left = (prev, mid) in g.edges
        into_right = (nxt, mid) in g.edges
        if into_left and into_right:
            # collider: blocked unless mid or a descendant is conditioned on
            if mid not in z and not (g.descendants(mid) & z):
                return True
        else:
            if mid in z:
                return True
    return False


def d_separated_oracle(g, i, j, z):
    z = frozenset(z)
    return all(_blocked(g, path, z) for path in _paths(g, i, j))


def node_lists(g):
    """Dag g's parent and child masks decoded to ascending node lists, the
    index d_connected_sets reads."""
    return [list(map(_nodes, side)) for side in g._index]


class TestDSeparation:
    def test_chain_blocked(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        assert d_separated(g, 0, 2, {1})

    def test_collider_opened(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        assert not d_separated(g, 0, 2, {1})
        assert d_separated(g, 0, 2, set())

    def test_descendant_of_collider_opens(self):
        g = Dag(4, frozenset({(0, 1), (2, 1), (1, 3)}))
        assert not d_separated(g, 0, 2, {3})

    def test_invalid_nodes(self):
        g = Dag(3, frozenset({(0, 1)}))
        with pytest.raises(GraphError):
            d_separated(g, 0, 0, set())
        with pytest.raises(GraphError):
            d_separated(g, 0, 1, {1})

    def test_nodes_follow_the_constructors_integer_rule(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        for bad in (True, 1.5):
            for i, j, z in ((0, 2, [bad]), (bad, 2, []), (0, bad, [])):
                with pytest.raises(GraphError, match="node must be an integer"):
                    d_separated(g, i, j, z)
        one = np.int64(1)
        assert d_separated(g, 0, 2, [one])
        assert d_separated(g, np.int64(0), np.int64(2), {one})
        assert not d_separated(g, 0, one, [])
        assert not d_separated(g, one, 2, frozenset())
        with pytest.raises(GraphError):
            d_separated(g, 0, 1, [one])

    def test_dag_queries_follow_the_constructors_integer_rule(self):
        # parents, children and descendants check their node as d_separated does.
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        for query in (g.parents, g.children, g.descendants):
            for bad in (True, False, 1.0, 1.5, "1", None, np.True_):
                with pytest.raises(GraphError, match="node must be an integer"):
                    query(bad)
            for bad in (-1, 3, np.int64(-1), np.int64(3)):
                with pytest.raises(GraphError, match=f"node index {bad} out of range for d=3"):
                    query(bad)
        one = np.int64(1)
        assert g.parents(one) == {0} and g.children(one) == {2} and g.descendants(one) == {2}
        assert g.parents(np.uint8(0)) == frozenset() and g.descendants(0) == {1, 2}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_path_oracle_exhaustive(self, d):
        for g in all_dags(d):
            for i, j in itertools.combinations(range(d), 2):
                rest = [v for v in range(d) if v not in (i, j)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert d_separated(g, i, j, z) == d_separated_oracle(
                            g, i, j, z
                        ), (g.edges, i, j, z)

    def test_mask_reach_matches_set_reference(self):
        # Seeded ER DAGs, d = 1..30: the bitmask search's reach is the set
        # search's, and with a stop node both agree on whether it is reached,
        # the mask holding no node outside the full reach. Clearing only
        # children[source], as SID does, reaches what the set search reaches
        # in the DAG without the source's outgoing edges.
        triples = stopped = 0
        for d in range(1, 31):
            for rep in range(12):
                gen = numpy_stream(RngSeed(41, 100 * d + rep).generator())
                g = sample_er_dag(d, int(gen.integers(0, min(2 * d, d * (d - 1) // 2) + 1)), gen)
                parents, children = g._index
                for _ in range(10):
                    source = int(gen.integers(d))
                    z = {v for v in range(d) if v != source and gen.random() < gen.random()}
                    full = d_connected_sets(*node_lists(g), source, z)
                    mask = d_connected(parents, children, source, _mask(z))
                    assert mask == _mask(full), (g.edges, source, z)
                    back_children = list(children)
                    back_children[source] = 0
                    cut = Dag(d, {(i, j) for i, j in g.edges if i != source})
                    mask = d_connected(parents, back_children, source, _mask(z))
                    expected = d_connected_sets(*node_lists(cut), source, z)
                    assert mask == _mask(expected), (g.edges, z)
                    triples += 1
                    if d > 1 and gen.random() < 0.3:
                        stop = int(gen.choice([v for v in range(d) if v != source]))
                        mask = d_connected(parents, children, source, _mask(z), stop)
                        partial = d_connected_sets(*node_lists(g), source, z, stop)
                        assert bool(mask >> stop & 1) == (stop in partial) == (stop in full)
                        assert mask & ~_mask(full) == 0 and mask >> source & 1
                        stopped += 1
        assert triples >= 3000 and stopped >= 500

    def test_matches_path_oracle_d5_sample(self):
        from ncbench.random_graphs import RngSeed, sample_er_dag

        for rep in range(30):
            rng = RngSeed(11, rep)
            gen = numpy_stream(rng.generator())
            g = sample_er_dag(5, int(gen.integers(0, 11)), gen)
            for i, j in itertools.combinations(range(5), 2):
                rest = [v for v in range(5) if v not in (i, j)]
                for r in range(len(rest) + 1):
                    for z in itertools.combinations(rest, r):
                        assert d_separated(g, i, j, z) == d_separated_oracle(g, i, j, z)


def brute_force_cpdag(g, population):
    """MEC oracle: union of orientations over all DAGs sharing (skeleton, v-structures)."""
    key = (skeleton(g), v_structures(g))
    union = set()
    for other in population:
        if (skeleton(other), v_structures(other)) == key:
            union |= other.edges
    directed = frozenset((i, j) for i, j in union if (j, i) not in union)
    undirected = frozenset(
        (min(i, j), max(i, j)) for i, j in union if (j, i) in union
    )
    return directed, undirected


class TestDagToCpdag:
    def test_chain_becomes_undirected(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        cp = dag_to_cpdag(g)
        assert cp.directed == frozenset()
        assert cp.undirected == frozenset({(0, 1), (1, 2)})

    def test_collider_stays_directed(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}))
        cp = dag_to_cpdag(g)
        assert cp.directed == g.edges
        assert cp.undirected == frozenset()

    def test_preserves_skeleton_and_vstructures(self, five_node_truth):
        cp = dag_to_cpdag(five_node_truth)
        assert skeleton(cp) == skeleton(five_node_truth)
        assert v_structures(cp) == v_structures(five_node_truth)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_force_mec(self, d):
        population = all_dags(d)
        for g in population:
            cp = dag_to_cpdag(g)
            directed, undirected = brute_force_cpdag(g, population)
            assert cp.directed == directed
            assert cp.undirected == undirected

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_meek_construction_exhaustive(self, d):
        for g in all_dags(d):
            assert dag_to_cpdag(g) == meek_cpdag(g)

    @pytest.mark.parametrize("density", [0.15, 0.6])
    def test_matches_meek_construction_seeded(self, density):
        gen = numpy_stream(RngSeed(97).generator())
        for d in range(5, 26):
            for _ in range(12):
                m = int(gen.binomial(d * (d - 1) // 2, density))
                g = sample_er_dag(d, m, gen)
                assert dag_to_cpdag(g) == meek_cpdag(g)

    def test_keeps_labels_and_rejects_a_cpdag(self):
        g = Dag(3, frozenset({(0, 1), (2, 1)}), labels=("a", "b", "c"))
        assert dag_to_cpdag(g).labels == ("a", "b", "c")
        with pytest.raises(GraphError):
            dag_to_cpdag(dag_to_cpdag(g))


def _assert_same_as_checked(g):
    """g, built with no door check, is what the checked constructor makes of
    its parts, on == and on every kept field, with int nodes throughout."""
    if g.kind == "dag":
        checked, kept = Dag(g.d, g.edges, g.labels), ("_skeleton", "_index", "_order")
    else:
        checked, kept = Cpdag(g.d, g.directed, g.undirected, g.labels), ("_skeleton",)
    assert g == checked and type(g) is type(checked)
    assert type(g.d) is int and g.labels == checked.labels
    assert g.directed == checked.directed and g.undirected == checked.undirected
    for name in kept:
        assert getattr(g, name) == getattr(checked, name), name
    assert all(type(v) is int for e in g._skeleton | g.directed for v in e)
    if g.kind == "dag":
        for index in (g._index, checked._index):  # masks a caller cannot change
            assert type(index) is tuple and len(index) == 2
            for side in index:
                assert type(side) is tuple and len(side) == g.d
                assert all(type(mask) is int for mask in side)


def _unchecked_corpus():
    """(d, m) for d = 1..15 and m in {0, 1, m_max // 2, m_max}."""
    for d in range(1, 16):
        m_max = d * (d - 1) // 2
        for m in sorted({0, 1, m_max // 2, m_max}):
            if m <= m_max:
                yield d, m


class TestUncheckedBuilds:
    """sample_er_dag, sample_er_cpdag and dag_to_cpdag build graphs from parts
    they hold valid, with no door check."""

    def test_each_build_matches_the_checked_constructor(self):
        gen = RngSeed(240).generator()
        for d, m in _unchecked_corpus():
            for _ in range(3):
                g = sample_er_dag(d, m, gen)
                for built in (g, dag_to_cpdag(g), sample_er_cpdag(d, m, gen)):
                    _assert_same_as_checked(built)
            labels = tuple(f"v{k}" for k in range(d))
            cp = dag_to_cpdag(with_labels(g, labels))
            _assert_same_as_checked(cp)
            assert cp.labels == labels

    def test_cpdag_sampler_labels_the_dag_samplers_draw(self):
        # The same RNG calls in the same order: equal graphs, and the two
        # generators end in the same state.
        for d, m in _unchecked_corpus():
            for rep in range(4):
                gen_cpdag, gen_dag = (numpy_stream(RngSeed(241, rep).child(100 * d + m)) for _ in range(2))
                assert sample_er_cpdag(d, m, gen_cpdag) == dag_to_cpdag(
                    sample_er_dag(d, m, gen_dag)
                )
                assert gen_cpdag.random() == gen_dag.random()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_every_topological_order_gives_the_same_cpdag(self, d):
        for g in all_dags(d):
            expected = dag_to_cpdag(g)
            for order in itertools.permutations(range(d)):
                position = {v: k for k, v in enumerate(order)}
                if all(position[i] < position[j] for i, j in g.edges):
                    assert _compelled(d, g.edges, position, g._skeleton, None) == expected


def meek_cpdag(g):
    """The construction dag_to_cpdag replaced: direct the v-structure edges,
    close under the Meek rules, leave the rest undirected."""
    skel = skeleton(g)
    seeds = set()
    for a, c, b in _colliders(g.directed, skel):
        seeds |= {(a, b), (c, b)}
    directed = _meek_close(g.d, skel, seeds)
    undirected = frozenset(
        p for p in skel if p not in directed and (p[1], p[0]) not in directed
    )
    return Cpdag(g.d, frozenset(directed), undirected, g.labels)


def reference_meek_close(d, skel, directed):
    """The Meek closure by a scan over all d nodes per rule: the reference
    for the indexed _meek_close, which must make every decision in the same
    order and so return the same set for any input."""
    directed = set(directed)

    def adjacent(i, j):
        return (min(i, j), max(i, j)) in skel

    def oriented(i, j):
        return (i, j) in directed

    def und(i, j):
        return adjacent(i, j) and not oriented(i, j) and not oriented(j, i)

    half_edges = [(a, b) for (a, b) in skel] + [(b, a) for (a, b) in skel]
    changed = True
    while changed:
        changed = False
        for x, y in half_edges:
            if not und(x, y):
                continue
            orient = False
            for z in range(d):  # R1
                if oriented(z, x) and z != y and not adjacent(z, y):
                    orient = True
                    break
            if not orient:  # R2
                for z in range(d):
                    if oriented(x, z) and oriented(z, y):
                        orient = True
                        break
            if not orient:  # R3
                pointing = [z for z in range(d) if oriented(z, y) and und(x, z)]
                for z1, z2 in itertools.combinations(pointing, 2):
                    if not adjacent(z1, z2):
                        orient = True
                        break
            if not orient:  # R4
                for z1 in range(d):
                    if z1 in (x, y) or not adjacent(x, z1) or adjacent(z1, y):
                        continue
                    for z2 in range(d):
                        if oriented(z1, z2) and oriented(z2, y):
                            orient = True
                            break
                    if orient:
                        break
            if orient:
                directed.add((x, y))
                changed = True
    return directed


class TestMeekClose:
    def test_matches_node_scan_reference(self):
        # Random skeletons with random partial orientations: consistent or
        # not (cycles, both orientations of a pair), as PC's orientation phase
        # passes them, plus v-structure seeds of DAGs.
        gen = numpy_stream(RngSeed(91).generator())
        closed_more = 0
        for trial in range(2400):
            d = 2 + trial % 12
            m_max = d * (d - 1) // 2
            g = sample_er_dag(d, int(gen.integers(0, m_max + 1)), gen)
            skel = skeleton(g)
            if trial % 3 == 0:
                seed_edges = {(vs.a, vs.b) for vs in v_structures(g)}
                seed_edges |= {(vs.c, vs.b) for vs in v_structures(g)}
            else:
                keep = gen.random()
                seed_edges = set()
                for i, j in sorted(skel):
                    u = gen.random()
                    if u < keep / 2:
                        seed_edges.add((i, j))
                    elif u < keep:
                        seed_edges.add((j, i))
                    elif u < keep + 0.05:
                        seed_edges |= {(i, j), (j, i)}
            closed = _meek_close(d, skel, seed_edges)
            assert closed == reference_meek_close(d, skel, seed_edges)
            closed_more += closed != seed_edges
        assert closed_more > 500  # the rules fired, not just passed inputs through


class TestEnumerateExtensions:
    def test_fully_directed_is_itself(self):
        p = Cpdag(3, frozenset({(0, 1), (2, 1)}), frozenset())
        exts = enumerate_extensions(p)
        assert len(exts) == 1
        assert exts[0].edges == p.directed

    def test_undirected_chain_has_three(self):
        p = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2)}))
        exts = enumerate_extensions(p)
        assert len(exts) == 3
        assert frozenset({(0, 1), (2, 1)}) not in {e.edges for e in exts}

    def test_undirected_triangle_has_six(self):
        p = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2), (0, 2)}))
        assert len(enumerate_extensions(p)) == 6

    def test_cap_exceeded(self):
        p = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2), (0, 2)}))
        with pytest.raises(ExtensionCapExceeded) as exc:
            enumerate_extensions(p, cap=2)
        assert exc.value.cap == 2

    @pytest.mark.parametrize("cap", [-1, 0])
    def test_cap_below_one_is_rejected(self, cap):
        # A plain ValueError: neither the cap being exceeded nor a graph fault,
        # so full_report passes it on instead of reporting SID as MISSING.
        p = Cpdag(3, frozenset(), frozenset({(0, 1), (1, 2), (0, 2)}))
        with pytest.raises(ValueError, match=f"cap must be at least 1, got {cap}") as exc:
            enumerate_extensions(p, cap=cap)
        assert exc.type is ValueError

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_roundtrip_membership(self, d):
        for g in all_dags(d):
            exts = enumerate_extensions(dag_to_cpdag(g))
            assert g.edges in {e.edges for e in exts}

    def test_matches_mec_exactly(self):
        population = all_dags(4)
        classes = {}
        for g in population:
            classes.setdefault((skeleton(g), v_structures(g)), []).append(g)
        for members in classes.values():
            exts = enumerate_extensions(dag_to_cpdag(members[0]))
            assert len(exts) == len(members)
            assert {e.edges for e in exts} == {m.edges for m in members}


def _partial_orientation(gen):
    """A random skeleton with each pair directed either way or left
    undirected at random: directed cycles and new colliders included."""
    d = int(gen.integers(3, 9))
    g = sample_er_dag(d, int(gen.integers(0, min(d * (d - 1) // 2, 12) + 1)), gen)
    directed, undirected = set(), set()
    keep = gen.random()
    for i, j in sorted(skeleton(g)):
        u = gen.random()
        if u < keep:
            directed.add((i, j) if u < keep / 2 else (j, i))
        else:
            undirected.add((i, j))
    return Cpdag(d, frozenset(directed), frozenset(undirected))


def _pc_on_small_data(gen):
    """PC's estimate on 10 to 60 rows, which can be an improper CPDAG."""
    while True:
        d = int(gen.integers(4, 9))
        g = sample_er_dag(d, int(gen.integers(d // 2, min(2 * d, d * (d - 1) // 2 + 1))), gen)
        n, seed = int(gen.integers(10, 61)), RngSeed(int(gen.integers(2**31)))
        try:
            return pc(simulate_seeded(g, n, seed))
        except CiTestError:
            continue


def _proper_cpdag(gen):
    d = int(gen.integers(2, 10))
    return sample_er_cpdag(d, int(gen.integers(0, d * (d - 1) // 2 + 1)), gen)


class TestExtensionsMatchBruteForce:
    """Per input, enumerate_extensions gives exactly the brute-force set, or
    raises GraphError where that set is empty; the cap bounds the count."""

    @pytest.mark.parametrize(
        "draw, seed, faults",
        [
            (_partial_orientation, 1, {"cyclic", "colliding"}),
            (_pc_on_small_data, 2, {"cyclic", "colliding"}),
            (_proper_cpdag, 3, set()),
        ],
    )
    def test_seeded_corpus(self, draw, seed, faults):
        gen = numpy_stream(RngSeed(180, seed).generator())
        # Inputs with no extension: a cycle among p's own directed edges, or
        # acyclic but every completion adds a collider.
        outcomes = {"cyclic": 0, "colliding": 0, "several": 0}
        checked = 0
        while checked < 150:
            p = draw(gen)
            if len(p.undirected) > 10:
                continue
            checked += 1
            expected = all_extensions(p)
            if not expected:
                outcomes["colliding" if is_acyclic(p.directed, p.d) else "cyclic"] += 1
                with pytest.raises(GraphError, match="admits no consistent DAG extension"):
                    enumerate_extensions(p)
                continue
            outcomes["several"] += len(expected) > 1
            exts = enumerate_extensions(p, cap=len(expected))
            assert len(exts) == len(expected)
            assert {e.edges for e in exts} == expected
            cap = len(expected) - 1  # a cap below 1 is rejected as such
            with pytest.raises(ExtensionCapExceeded if cap else ValueError):
                enumerate_extensions(p, cap=cap)
        assert outcomes["several"] >= 30
        assert {fault for fault in ("cyclic", "colliding") if outcomes[fault]} == faults, outcomes


def _behind_complete(n, directed, undirected):
    """A complete undirected graph on 0..n-1, whose pairs sort first, next to
    a gadget whose nodes are shifted up by n."""
    complete = frozenset(itertools.combinations(range(n), 2))
    return Cpdag(
        n + 1 + max(max(e) for e in directed | undirected),
        frozenset((a + n, b + n) for a, b in directed),
        complete | {(a + n, b + n) for a, b in undirected},
    )


class TestExtensionSearchIsBounded:
    """A fault that p's Meek closure shows fails at the start, a proper CPDAG
    meets no dead end whatever its labels, and any other search stops after
    (cap + 1) * (pairs + 1) settled states. A search that walked the 10!
    orientations of a complete 10-node part would instead run for hours; at
    cap=1 the state bound turns such a regression into a fast wrong error."""

    @pytest.mark.parametrize(
        "directed, undirected",
        [
            # R1 forces 2 -> 3 (0, 3 non-adjacent), which closes 3 -> 1 -> 2 -> 3.
            ({(0, 2), (1, 2), (3, 1)}, {(2, 3)}),
            # Faults only after R3/R4 steps: the closure orients 1 -> 0 or 1 -> 5 first.
            (
                {(4, 5), (5, 0), (5, 6)},
                {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                 (2, 4), (2, 5), (3, 4), (3, 5), (4, 6)},
            ),
            (
                {(2, 5), (4, 0)},
                {(0, 3), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (3, 5),
                 (3, 6), (3, 7), (5, 6), (5, 7)},
            ),
        ],
    )
    def test_closure_fault_fails_at_start(self, directed, undirected):
        p = _behind_complete(10, directed, undirected)
        with pytest.raises(GraphError, match="admits no consistent DAG extension"):
            enumerate_extensions(p, cap=1)

    def test_tree_with_interleaved_labels(self):
        # Leaves 0..29 hang off the path 30 - 31 - ... - 59, so all leaf pairs
        # sort first. Without propagation each of their 2^30 orientations is
        # tried before any path pair; a tree has one extension per source.
        m = 30
        p = Cpdag(
            2 * m,
            frozenset(),
            frozenset({(i, m + i) for i in range(m)} | {(m + i, m + i + 1) for i in range(m - 1)}),
        )
        exts = enumerate_extensions(p, cap=2 * m)
        sources = {(set(range(2 * m)) - {j for _, j in e.edges}).pop() for e in exts}
        assert len(exts) == len(sources) == 2 * m

    def test_state_bound(self):
        # A chordless 4-cycle has no extension, and no rule shows it before the
        # search reaches its pairs: behind K_5 that search ends, behind K_10 it
        # would take 10! orientations and the state bound stops it.
        c4 = {(0, 1), (1, 2), (2, 3), (0, 3)}
        with pytest.raises(GraphError):
            enumerate_extensions(_behind_complete(5, set(), c4))
        with pytest.raises(ExtensionCapExceeded):
            enumerate_extensions(_behind_complete(10, set(), c4), cap=5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 15))
def test_cpdag_preserves_skeleton_and_vstructures(seed, m):
    from ncbench.random_graphs import RngSeed, sample_er_dag

    g = sample_er_dag(6, m, RngSeed(seed).generator())
    cp = dag_to_cpdag(g)
    assert skeleton(cp) == skeleton(g)
    assert v_structures(cp) == v_structures(g)


def test_vstructure_is_a_named_tuple():
    v = VStructure._make((0, 2, 1))
    assert isinstance(v, tuple) and v == (0, 2, 1)
    assert VStructure._fields == ("a", "c", "b") and (v.a, v.c, v.b) == (0, 2, 1)
    assert VStructure.__doc__.startswith("Collider a -> b <- c")


_DAG = Dag(3, frozenset({(0, 1), (2, 1)}), ("a", "b", "c"))
_CFG = PipelineConfig(b=2, d=3, m_true=1, seed=4)
_CFG_REPR = (
    "PipelineConfig(b=2, d=3, m_true=1, n=400, alpha=0.05, metrics=('shd', "
    "'adjacency_precision', 'adjacency_recall', 'orientation_precision', "
    "'orientation_recall', 'vstructure_recovery'), nc_kind='cpdag', seed=4, "
    "weight_range=(0.5, 2.0), variance_range=(0.5, 1.5), sid_cap=10000, algorithm=None)"
)
_DAG_REPR = "Dag(d=3, edges=frozenset({(0, 1), (2, 1)}), labels=('a', 'b', 'c'))"

# One instance of each record class; its repr as recorded when the records
# were dataclasses; and a _replace, with the error its checks raise (None for
# a class that checks nothing).
RECORDS = [
    (_DAG, _DAG_REPR, {"edges": {(0, 1), (1, 2), (2, 0)}},
     (GraphError, "edge set contains a directed cycle")),
    (Cpdag(3, frozenset({(0, 1)}), frozenset({(1, 2)})),
     "Cpdag(d=3, directed=frozenset({(0, 1)}), undirected=frozenset({(1, 2)}), "
     "labels=('X1', 'X2', 'X3'))",
     {"labels": ("a", "a", "b")}, (GraphError, "labels must be d distinct strings")),
    (HyperParams(10, 8, 7), "HyperParams(m_max=10, m_true=8, m_est=7)",
     {"m_est": 11}, (ValueError, "m_true and m_est cannot exceed m_max")),
    (ConfusionCounts(6, 1, 2, 1), "ConfusionCounts(tp=6, fp=1, fn=2, tn=1)",
     {"fn": -1}, (ValueError, "confusion counts must be non-negative")),
    (SidBounds(1, 3, False), "SidBounds(lower=1, upper=3, exact=False)",
     {"exact": True}, (ValueError, "exact bounds must coincide")),
    (MetricValue("shd", 2.0), "MetricValue(name='shd', value=2.0)", {"value": None}, None),
    (MetricReport({"shd": MetricValue("shd", 2.0)}),
     "MetricReport(values={'shd': MetricValue(name='shd', value=2.0)})", {"values": {}}, None),
    (PcConfig(0.01, 2), "PcConfig(alpha=0.01, max_cond_size=2)",
     {"alpha": 1.5}, (ValueError, "alpha must be in (0, 1)")),
    (RngSeed(5, 1), "RngSeed(seed=5, stream=1)",
     {"stream": -1}, (ValueError, "stream index must be non-negative")),
    (SemModel(Dag(2, frozenset({(0, 1)})), {(0, 1): 0.5}, (1.0, 1.5)),
     "SemModel(graph=Dag(d=2, edges=frozenset({(0, 1)}), labels=('X1', 'X2')), "
     "weights={(0, 1): 0.5}, variances=(1.0, 1.5))",
     {"variances": (2.0, 2.0)}, None),
    (_CFG, _CFG_REPR, {"b": 0}, (ValueError, "b must be at least 1")),
    (Replication(0, _DAG, None, None, None, {"shd": None}, {}),
     f"Replication(index=0, truth={_DAG_REPR}, estimate=None, nc=None, m_est=None, "
     "algo_values={'shd': None}, nc_values={}, error=None)",
     {"nc_values": {"shd": 1.0}}, None),
    (StudyResult(_CFG, [], {"m_est": {}}),
     f"StudyResult(config={_CFG_REPR}, replications=[], summary={{'m_est': {{}}}})",
     {"replications": [None]}, None),
]


@pytest.mark.parametrize(
    "record, shown, changes, error", RECORDS, ids=[type(case[0]).__name__ for case in RECORDS]
)
def test_records_are_immutable_values(record, shown, changes, error):
    cls = type(record)
    fields = record._fields
    kwargs = {name: getattr(record, name) for name in fields}
    assert record == cls(**kwargs) and not record != cls(**kwargs)
    other = type("Other", (cls,), {})(**kwargs)  # the same fields, another class
    assert record != other and other != record
    values = tuple(getattr(record, name) for name in fields)
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    assert repr(record) == shown
    for name in fields:
        with pytest.raises(AttributeError, match=re.escape(f"cannot assign to field {name!r}")):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=re.escape(f"cannot delete field {name!r}")):
            delattr(record, name)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    if error is not None:
        with pytest.raises(error[0], match=re.escape(error[1])):
            record._replace(**changes)
    else:
        replaced = record._replace(**changes)
        assert type(replaced) is cls and replaced != record
        assert {name: getattr(replaced, name) for name in fields} == {**kwargs, **changes}
    assert record._replace() == record and tuple(getattr(record, name) for name in fields) == values
