import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbench.graphs import Dag, GraphError, dag_to_cpdag, is_acyclic, skeleton
from ncbench.hypergeom import HyperParams, pmf
from ncbench.random_graphs import RngSeed, Stream, max_edges, sample_er_cpdag, sample_er_dag
from ncbench.sem import draw_sem, simulate


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


def _numpy_generator(seed, stream, index=None):
    """numpy's own Generator for RngSeed(seed, stream).generator() or .child(index)."""
    entropy = [seed, stream] + ([] if index is None else [index])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


_SEEDS = st.integers(0, 2**64 - 1) | st.integers(0, 1000)
# Indices past 2**32 take a seed's 64-bit words past the pool's four.
_INDICES = st.none() | st.integers(0, 1000) | st.integers(2**32, 2**70)


class TestStreamMatchesNumpy:
    """The stream against numpy's SeedSequence, PCG64, permutation and
    choice, draw for draw and state for state."""

    @settings(max_examples=150, deadline=None)
    @given(seed=_SEEDS, stream=st.integers(0, 2**40), index=_INDICES,
           d=st.integers(1, 40), data=st.data())
    def test_small_draws(self, seed, stream, index, d, data):
        ours = RngSeed(seed, stream)
        ours = ours.generator() if index is None else ours.child(index)
        theirs = _numpy_generator(seed, stream, index)
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state
        n = max_edges(d)
        m = data.draw(st.integers(0, n))
        pool = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=6))
        assert ours.permutation(d) == theirs.permutation(d).tolist()
        assert ours.sample(n, m) == theirs.choice(n, m, replace=False).tolist()
        assert ours.choice(pool) == theirs.choice(pool)
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state

    @staticmethod
    def _assert_same_draws(seed, index, d, m):
        ours = RngSeed(seed).generator() if index is None else RngSeed(seed).child(index)
        theirs = _numpy_generator(seed, 0, index)
        assert ours.permutation(d) == theirs.permutation(d).tolist()
        assert ours.sample(max_edges(d), m) == theirs.choice(max_edges(d), m, replace=False).tolist()
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "seed, index, d, m",
        [
            (2**64 - 1, 2**40, 143, 203),  # n = 10153 and m = n // 50: Floyd's sample
            (2**64 - 1, 2**40, 143, 204),  # one more: the tail shuffle
            (5, None, 141, 9870),  # n = 9870 < 10000, all of it: Floyd's sample
            (7, 3, 500, 124750),  # all of n = 124750: the tail shuffle down to 1
        ],
    )
    def test_choice_branch_edges(self, seed, index, d, m):
        self._assert_same_draws(seed, index, d, m)

    @settings(max_examples=8, deadline=None)
    @given(seed=_SEEDS, index=_INDICES, d=st.integers(142, 500), data=st.data())
    def test_large_draws(self, seed, index, d, data):
        n = max_edges(d)
        m = data.draw(st.integers(0, n) | st.integers(n // 50 - 2, n // 50 + 2))
        self._assert_same_draws(seed, index, d, m)

    def test_a_pool_of_one_takes_no_draw(self):
        ours, theirs = RngSeed(3).generator(), _numpy_generator(3, 0)
        assert ours.choice(["only"]) == "only" and theirs.choice(["only"]) == "only"
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, index=st.integers(0, 2**40), words=st.integers(0, 5))
    def test_hand_overs_keep_the_state(self, seed, index, words):
        # Each choice from three takes one 32-bit word, so an odd count leaves
        # the high half of a 64-bit draw buffered in the state.
        ours, theirs = RngSeed(seed).child(index), _numpy_generator(seed, 0, index)
        for _ in range(words):
            assert ours.choice([0, 1, 2]) == theirs.choice([0, 1, 2])
        assert theirs.bit_generator.state["has_uint32"] == words % 2
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state
        # A sampler given numpy's Generator leaves it where the stream ends.
        g = sample_er_dag(6, 5, theirs)
        assert g == sample_er_dag(6, 5, ours)
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state
        # The SEM given the stream leaves it where numpy's Generator ends.
        assert draw_sem(g, ours) == draw_sem(g, theirs)
        assert simulate(draw_sem(g, ours), 3, ours).tolist() == simulate(
            draw_sem(g, theirs), 3, theirs).tolist()
        assert ours.numpy().bit_generator.state == theirs.bit_generator.state


def test_stream_draws_are_pinned():
    # The package's own draws, so that a numpy release that changes
    # permutation or choice fails only the comparisons with numpy above.
    cases = [(0, 0, None, 11, 20), (2**64 - 1, 1, 2**33, 30, 200), (9, 4, 17, 150, 300),
             (123, 0, 5, 2, 1), (77, 2, 0, 143, 10153)]
    draws = []
    for seed, stream, index, d, m in cases:
        rng = RngSeed(seed, stream)
        rng = rng.generator() if index is None else rng.child(index)
        draws.append([rng.permutation(d), rng.sample(max_edges(d), m), rng.choice([0, 1, 2])])
        draws.append([rng.state, rng.inc, rng.has_uint32, rng.uinteger])
    digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
    assert digest == "ac796a4687f2edd2a198f44fd3f4e8385a529bc2b31e78db748c68c8cdccd123"


def test_seeds_give_streams():
    assert type(RngSeed(0).generator()) is Stream and type(RngSeed(0).child(1)) is Stream
    with pytest.raises(ValueError, match="index must be non-negative"):
        RngSeed(0).child(-1)


@pytest.mark.parametrize(
    "rng",
    [np.random.Generator(np.random.MT19937(0)), np.random.RandomState(0), 7],
    ids=["MT19937", "RandomState", "int"],
)
def test_other_generators_are_refused(rng):
    message = "rng must be a Stream or a numpy Generator on PCG64"
    with pytest.raises(TypeError, match=message):
        sample_er_dag(4, 2, rng)
    with pytest.raises(TypeError, match=message):
        draw_sem(Dag(2, frozenset({(0, 1)})), rng)


def test_populations_of_2_to_the_32_are_refused():
    with pytest.raises(ValueError, match=r"^cannot take 1 of 4294967296 without replacement"):
        RngSeed(0).generator().sample(2**32, 1)
    # The first d with 2**32 node pairs fails before any pair is listed or drawn.
    gen = RngSeed(0).generator().numpy()
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match=r"^d=92683 has 4295022903 node pairs, too many"):
        sample_er_dag(92683, 1, gen)
    assert gen.bit_generator.state == before
