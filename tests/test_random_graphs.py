import itertools
from collections import Counter

import numpy as np
import pytest

from ncbench.graphs import GraphError, dag_to_cpdag, is_acyclic, skeleton
from ncbench.hypergeom import HyperParams, pmf
from ncbench.random_graphs import RngSeed, max_edges, sample_er_cpdag, sample_er_dag


class TestRngSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, -1)

    def test_streams_differ(self):
        a = sample_er_dag(6, 7, RngSeed(5, 0).generator())
        b = sample_er_dag(6, 7, RngSeed(5, 1).generator())
        assert a.edges != b.edges  # overwhelmingly likely by construction


class TestSampleErDag:
    def test_empty(self):
        assert sample_er_dag(5, 0, RngSeed(1).generator()).edges == frozenset()

    def test_full_graph_is_tournament(self):
        g = sample_er_dag(5, 10, RngSeed(2).generator())
        assert g.m == 10
        assert len(skeleton(g)) == 10

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            sample_er_dag(5, 11, RngSeed(0).generator())

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_exact_edge_count_and_acyclic(self, m):
        for rep in range(50):
            g = sample_er_dag(5, m, RngSeed(3, rep).generator())
            assert g.m == m
            assert is_acyclic(g.edges, 5)

    def test_determinism(self):
        a = sample_er_dag(8, 12, RngSeed(123, 4).generator())
        b = sample_er_dag(8, 12, RngSeed(123, 4).generator())
        assert a.edges == b.edges

    def test_skeleton_marginal_uniform(self):
        # each unordered pair included with relative frequency m/m_max
        gen = RngSeed(10).generator()
        counts = Counter()
        n_draws = 10_000
        for _ in range(n_draws):
            counts.update(skeleton(sample_er_dag(5, 7, gen)))
        for pair in itertools.combinations(range(5), 2):
            assert counts[pair] / n_draws == pytest.approx(0.7, abs=0.02)

    def test_tp_count_follows_hypergeometric(self, five_node_truth):
        # total-variation distance to the exact null below 0.02 over 10k draws
        gen = RngSeed(20).generator()
        truth_skel = skeleton(five_node_truth)
        n_draws = 10_000
        counts = Counter()
        for _ in range(n_draws):
            counts[len(truth_skel & skeleton(sample_er_dag(5, 7, gen)))] += 1
        params = HyperParams(10, 8, 7)
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / n_draws - pmf(k, params)) for k in range(11)
        )
        assert tv < 0.02


class TestSampleErCpdag:
    def test_empty(self):
        p = sample_er_cpdag(3, 0, RngSeed(0).generator())
        assert p.directed == frozenset() and p.undirected == frozenset()

    def test_single_edge_is_undirected(self):
        p = sample_er_cpdag(2, 1, RngSeed(0).generator())
        assert p.undirected == frozenset({(0, 1)})
        assert p.directed == frozenset()

    def test_matches_underlying_dag_class(self):
        # three-node two-edge draws: either an undirected chain or a collider
        for rep in range(40):
            dag = sample_er_dag(3, 2, RngSeed(30, rep).generator())
            cp = sample_er_cpdag(3, 2, RngSeed(30, rep).generator())
            expected = dag_to_cpdag(dag)
            assert cp.directed == expected.directed
            assert cp.undirected == expected.undirected
            assert len(cp.directed) == 2 or len(cp.undirected) == 2


@pytest.mark.parametrize("sampler", [sample_er_dag, sample_er_cpdag])
class TestSamplerDoors:
    def test_numpy_d_is_stored_as_an_int(self, sampler):
        plain = sampler(4, 3, RngSeed(7).generator())
        for d in (np.int64(4), np.uint8(4)):
            g = sampler(d, 3, RngSeed(7).generator())
            assert type(g.d) is int and g == plain

    @pytest.mark.parametrize(
        "d, m, error, message",
        [
            (0, 0, GraphError, "d must be positive"),
            (0, 1, ValueError, "m=1 out of range [0, 0] for d=0"),
            (-1, 0, ValueError, "node count d=-1 must be non-negative"),
            (-1, 1, ValueError, "node count d=-1 must be non-negative"),
        ],
    )
    def test_no_nodes_is_an_error(self, sampler, d, m, error, message):
        with pytest.raises(ValueError) as raised:
            sampler(d, m, RngSeed(0).generator())
        assert type(raised.value) is error and str(raised.value) == message


def test_max_edges():
    assert max_edges(5) == 10
    assert max_edges(22) == 231
    assert max_edges(1) == max_edges(0) == 0
    with pytest.raises(ValueError, match="d=-3 must be non-negative"):
        max_edges(-3)
