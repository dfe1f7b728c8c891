import importlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from ncbench.graphs import (
    Cpdag, Dag, _index, _mask, _meek_close, _nodes, d_separated, dag_to_cpdag
)
from ncbench.pc import CiTestError, FisherZTest, PcConfig, pc
from ncbench.random_graphs import RngSeed, sample_er_dag

from conftest import simulate_seeded
from reference import all_dags, fisher_z_test, level_plan_by_pair, per_call_decide

pc_module = importlib.import_module("ncbench.pc")


def _gaussian_pair(n, r, seed):
    gen = RngSeed(seed).generator().numpy()
    x = gen.normal(size=n)
    y = r * x + math.sqrt(1 - r * r) * gen.normal(size=n)
    return np.column_stack([x, y])


class TestFisherZ:
    def test_formula_against_normal_cdf(self):
        # n=100, |z|=0, r=0.3: statistic ~3.048, p ~0.0023
        r, n = 0.3, 100
        stat = math.sqrt(n - 3) * abs(0.5 * math.log((1 + r) / (1 - r)))
        expected = 2 * norm.sf(stat)
        assert expected == pytest.approx(0.0023, abs=2e-4)
        # check the implementation reproduces the formula on data with that
        # exact sample correlation structure
        data = _gaussian_pair(2000, 0.3, 1)
        emp_r = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        emp_stat = math.sqrt(2000 - 3) * abs(
            0.5 * math.log((1 + emp_r) / (1 - emp_r))
        )
        assert fisher_z_test(data, 0, 1, []) == pytest.approx(
            2 * norm.sf(emp_stat), rel=1e-9
        )

    def test_sign_symmetry(self):
        pos = _gaussian_pair(500, 0.4, 2)
        neg = pos.copy()
        neg[:, 1] = -neg[:, 1]
        assert fisher_z_test(pos, 0, 1, []) == pytest.approx(
            fisher_z_test(neg, 0, 1, []), rel=1e-12
        )

    def test_too_few_samples(self):
        data = np.zeros((4, 3))
        with pytest.raises(CiTestError):
            fisher_z_test(data, 0, 1, [2])

    def test_singular_covariance(self):
        gen = RngSeed(3).generator().numpy()
        x = gen.normal(size=100)
        data = np.column_stack([x, x, gen.normal(size=100)])
        with pytest.raises(CiTestError):
            fisher_z_test(data, 0, 2, [1])

    def test_conditioning_removes_dependence(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        data = simulate_seeded(g, 5000, RngSeed(4))
        assert fisher_z_test(data, 0, 2, []) < 0.01
        assert fisher_z_test(data, 0, 2, [1]) > 0.05


class PerCallFisherZ:
    """PC's CI test through the per-call reference fisher_z_test, asked one
    triple at a time up to each pair's first independent set."""

    def __init__(self, data, alpha):
        self.data = np.asarray(data, dtype=float)
        self.alpha = alpha
        self.d = self.data.shape[1]

    def independent(self, i, j, z):
        return fisher_z_test(self.data, i, j, z) >= self.alpha

    decide = per_call_decide


def _study_data(d, m_true, rep):
    stream = 100 * d + rep
    g = sample_er_dag(d, m_true, RngSeed(20 + m_true, stream).generator())
    return simulate_seeded(g, 400, RngSeed(21 + m_true, stream))


def _count_referee(monkeypatch):
    """Count the calls to the inverse that decides a level elimination
    cannot vouch for."""
    original = pc_module._inverted

    def inverted(idx, sub):
        inverted.calls += 1
        return original(idx, sub)

    inverted.calls = 0
    monkeypatch.setattr(pc_module, "_inverted", inverted)
    return inverted


def _decided_by_inverse(test, plan, size):
    """Per row of a plan with one set per pair, 0 if the r from the inverse
    of its correlation submatrix passes the p-value test, else -1."""
    out = []
    for i, j, (s,) in plan:
        prec = np.linalg.inv(test.corr[np.ix_([i, j, *s], [i, j, *s])])
        r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
        out.append(0 if pc_module._fisher_z_p(r, test.n, size) >= test.alpha else -1)
    return out


class TestFisherZEngine:
    @pytest.mark.parametrize("d,m_true", [(5, 4), (10, 15), (10, 30)])
    def test_pc_matches_per_call_reference(self, d, m_true, monkeypatch):
        for rep in range(8):
            data = _study_data(d, m_true, rep)
            engine = pc(data)
            with monkeypatch.context() as m:
                m.setattr(pc_module, "FisherZTest", PerCallFisherZ)
                reference = pc(data)
            assert engine.directed == reference.directed
            assert engine.undirected == reference.undirected

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 0.5])
    def test_decisions_match_reference(self, alpha):
        data = _study_data(10, 30, 0)
        test = FisherZTest(data, alpha)
        gen = RngSeed(22).generator().numpy()
        answers = []
        for size in range(5):
            triples = []
            for _ in range(20):
                i, j, *s = (int(v) for v in gen.choice(10, size + 2, replace=False))
                triples.append((min(i, j), max(i, j), tuple(sorted(s))))
            expected = [fisher_z_test(data, i, j, s) >= alpha for i, j, s in triples]
            # One set per pair: every triple is decided, 0 if independent.
            singles = [0 if out else -1 for out in expected]
            assert test.decide([(i, j, [s]) for i, j, s in triples], size) == singles
            # The same candidates grouped by pair, once from each set on: the
            # first indices of a pair's suffixes give every one of its flags.
            by_pair = {}
            for (i, j, s), out in zip(triples, expected):
                by_pair.setdefault((i, j), []).append((s, out))
            plan, suffix_flags = [], []
            for (i, j), rows in by_pair.items():
                for start in range(len(rows)):
                    plan.append((i, j, [s for s, _ in rows[start:]]))
                    suffix_flags.append([out for _, out in rows[start:]])
            firsts = [next((k for k, out in enumerate(f) if out), -1) for f in suffix_flags]
            assert test.decide(plan, size) == firsts
            answers += expected
        assert 0 < sum(answers) < len(answers)

    @pytest.mark.parametrize("n", [30, 60, 400, 2000])
    def test_bounds_decide_as_p_values(self, n):
        # Every double within 4096 ulps of each bound is decided as the
        # p-value test decides it.
        steps = np.arange(-4096, 4097)
        for size in range(5):
            for alpha in (0.01, 0.05, 0.2, 0.5):
                lo, hi = pc_module._accept_bounds(n, size, alpha)
                assert -1 < lo < 0 < hi < 1
                for bound in (lo, hi):
                    bits = np.array(abs(bound)).view(np.int64) + steps
                    rs = math.copysign(1.0, bound) * bits.view(np.float64)
                    expected = [
                        pc_module._fisher_z_p(r, n, size) >= alpha for r in rs.tolist()
                    ]
                    assert pc_module._accepted(rs, n, size, alpha).tolist() == expected

    def test_bounds_at_extreme_levels(self):
        # p at the clamped |r| = 1 - 1e-12 is ~1e-46 for n = 4, |S| = 0, so
        # every correlation passes alpha = 1e-50, and none passes alpha > 1.
        rs = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        assert pc_module._accepted(rs, 4, 0, 1e-50).all()
        assert not pc_module._accepted(rs, 4, 0, 1.5).any()

    def test_constant_column_raises(self):
        data = _study_data(5, 4, 0)
        data[:, 2] = 1.5
        with pytest.raises(CiTestError):
            pc(data)

    def test_duplicated_column_raises(self):
        data = _study_data(5, 4, 0)
        data[:, 3] = data[:, 1]
        with pytest.raises(CiTestError):
            pc(data)

    def test_error_messages(self):
        # n = 4 passes the marginal tests and fails at level 1.
        gen = RngSeed(3).generator().numpy()
        x = gen.normal(size=4)
        data = np.column_stack([x + 0.01 * gen.normal(size=4) for _ in range(3)])
        with pytest.raises(CiTestError, match=re.escape("need n > |z| + 3 (n=4, |z|=1)")):
            pc(data)
        # Integer data over 64 samples make every correlation exact, so the
        # copied column's 2 x 2 block is exactly singular.
        data = RngSeed(3).generator().numpy().integers(-5, 6, size=(64, 5)).astype(float)
        data[:, 3] = data[:, 1]
        with pytest.raises(
            CiTestError, match=re.escape("singular conditioning correlation for [1, 3]")
        ):
            pc(data)
        # A correlation matrix that is not positive semi-definite: the level-1
        # precision of (0, 1 | 2) has diagonal entries of opposite signs.
        test = FisherZTest(_study_data(3, 2, 0), 0.05)
        test.corr = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(
            CiTestError, match=re.escape("undefined partial correlation for [0, 1, 2]")
        ):
            pc_module._skeleton_phase(test, 3, None)

    def test_rows_at_the_bounds_are_decided_by_the_inverse(self, monkeypatch):
        # Pair (2t, 2t+1) has partial correlation r_t given the set, in exact
        # arithmetic, up to 8 ulps either side of lo or hi: each set node
        # correlates 0.3 with both ends of every pair, and a pair's own
        # correlation is k * 0.09 + r_t * (1 - k * 0.09) for a set of k. The
        # kernel's r and the inverse's round apart, some across a bound, so
        # elimination must hand every such level to the inverse.
        referee = _count_referee(monkeypatch)
        n, steps, c = 400, np.arange(-8, 9), 0.3
        for size in range(3):
            for alpha in (0.05, 0.2):
                rs = []
                for bound in pc_module._accept_bounds(n, size, alpha):
                    bits = np.array(abs(bound)).view(np.int64) + steps
                    rs += (math.copysign(1.0, bound) * bits.view(np.float64)).tolist()
                d = 2 * len(rs) + size
                cond = tuple(range(2 * len(rs), d))
                corr = np.eye(d)
                for t, r in enumerate(rs):
                    ends = [2 * t, 2 * t + 1]
                    corr[ends, ends[::-1]] = size * c * c + r * (1 - size * c * c)
                    corr[np.ix_(ends, cond)] = corr[np.ix_(cond, ends)] = c
                test = FisherZTest(_study_data(3, 2, 0), alpha)
                test.n, test.corr = n, corr
                plan = [(2 * t, 2 * t + 1, [cond]) for t in range(len(rs))]
                got = test.decide(plan, size)
                assert got == _decided_by_inverse(test, plan, size)
                assert 0 in got and -1 in got
        assert referee.calls == 6

    def test_near_collinear_levels_are_decided_by_the_inverse(self, monkeypatch):
        # Column 2 copies column 0 up to 1e-6 noise. The pair 0 - 2 itself is
        # left out, so only the pivots near 1e-12 (0 given 2, or 2 given 0)
        # stop elimination. Every candidate, one set per row, is decided as
        # the inverse of its submatrix decides it.
        referee = _count_referee(monkeypatch)
        data = _study_data(6, 8, 0)
        data[:, 2] = data[:, 0] + 1e-6 * RngSeed(23).generator().numpy().normal(size=len(data))
        for alpha in (0.05, 0.2):
            test = FisherZTest(data, alpha)
            for size in range(1, 4):
                plan = [
                    (i, j, [s])
                    for i, j in itertools.combinations(range(6), 2)
                    if (i, j) != (0, 2)
                    for s in itertools.combinations(sorted(set(range(6)) - {i, j}), size)
                ]
                calls = referee.calls
                assert test.decide(plan, size) == _decided_by_inverse(test, plan, size)
                assert referee.calls == calls + 1

    def test_study_data_never_reaches_the_inverse(self, monkeypatch):
        # So the elimination kernel is what a study times.
        referee = _count_referee(monkeypatch)
        levels = []
        original = pc_module._eliminated
        monkeypatch.setattr(
            pc_module, "_eliminated", lambda *args: levels.append(args[1]) or original(*args)
        )
        for rep in range(8):
            pc(_study_data(10, 30, rep))
        assert referee.calls == 0
        assert max(levels) >= 3

    @pytest.mark.parametrize("shape", [(5,), (4, 3, 2), ()])
    def test_data_must_be_a_matrix(self, shape):
        expected = f"2-D array (n samples x d variables), got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            pc(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_column_raises_first(self, bad):
        # Checked before any correlation, so numpy warns of nothing.
        data = _study_data(5, 4, 0)
        data[:, 4] = np.nan
        data[7, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CiTestError, match=r"^non-finite data column 2$"):
                pc(data)
            # Even with no pair to test.
            with pytest.raises(CiTestError, match=r"^non-finite data column 0$"):
                pc(np.full((5, 1), bad))


class TestOraclePc:
    def test_empty_graph(self):
        out = pc(Dag(4))
        assert out.directed == frozenset() and out.undirected == frozenset()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exhaustive_small(self, d):
        for g in all_dags(d):
            est = pc(g)
            cp = dag_to_cpdag(g)
            assert est.directed == cp.directed
            assert est.undirected == cp.undirected

    def test_random_d8(self):
        for rep in range(60):
            rng = RngSeed(7, rep)
            gen = rng.generator().numpy()
            g = sample_er_dag(8, int(gen.integers(8, 21)), gen)
            est = pc(g)
            cp = dag_to_cpdag(g)
            assert est.directed == cp.directed
            assert est.undirected == cp.undirected

    def test_order_independence(self):
        # relabeling nodes must relabel the output identically (stable PC)
        g = sample_er_dag(6, 8, RngSeed(8).generator())
        perm = [3, 1, 5, 0, 2, 4]
        relabeled = Dag(6, frozenset((perm[i], perm[j]) for i, j in g.edges))
        out = pc(g)
        out_rel = pc(relabeled)
        assert out_rel.directed == frozenset(
            (perm[i], perm[j]) for i, j in out.directed
        )
        assert out_rel.undirected == frozenset(
            (min(perm[i], perm[j]), max(perm[i], perm[j]))
            for i, j in out.undirected
        )


class TestDataPc:
    def test_collider_recovery_rate(self):
        # strong weights, large n: the collider class in >= 92% of 200 runs
        collider = Dag(3, frozenset({(0, 1), (2, 1)}))
        hits = 0
        for rep in range(200):
            data = simulate_seeded(collider, 10_000, RngSeed(100, rep), weight_range=(1.0, 2.0))
            est = pc(data, PcConfig(alpha=0.05))
            if est.directed == collider.edges and not est.undirected:
                hits += 1
        assert hits >= 184

    @pytest.mark.parametrize("size", [-1, 1.5, True, "2", 2.0])
    def test_max_cond_size_rejected(self, size):
        with pytest.raises(ValueError, match="max_cond_size"):
            PcConfig(max_cond_size=size)

    @pytest.mark.parametrize("size", [None, 0, 3, np.int64(2)])
    def test_max_cond_size_accepted(self, size):
        assert PcConfig(max_cond_size=size).max_cond_size == size

    def test_max_cond_size_limits_search(self):
        g = sample_er_dag(5, 8, RngSeed(9).generator())
        data = simulate_seeded(g, 500, RngSeed(10))
        out = pc(data, PcConfig(alpha=0.05, max_cond_size=0))
        assert len(out.directed) + len(out.undirected) <= 10

    def test_sparsity_bias_when_dense(self):
        # d=10, m_true=30, n=400: estimated edge counts fall well below 30
        total = 0
        reps = 10
        for rep in range(reps):
            g = sample_er_dag(10, 30, RngSeed(11, rep).generator())
            data = simulate_seeded(g, 400, RngSeed(12, rep))
            est = pc(data, PcConfig(alpha=0.05))
            total += len(est.directed) + len(est.undirected)
        assert total / reps < 20


def reference_skeleton_phase(test, d, max_cond_size):
    """The skeleton phase with a level-wide memo of decided triples, over
    each pair's candidate sets with repeats: the reference for the
    deduplicated plan, which must ask the same triples in the same order."""
    adj = {v: set(range(d)) - {v} for v in range(d)}
    sepsets = {}
    level = 0
    while True:
        if max_cond_size is not None and level > max_cond_size:
            break
        if all(len(adj[v]) - 1 < level for v in range(d)):
            break
        plan = [
            (i, j, [
                frozenset(s)
                for a, b in ((i, j), (j, i))
                for s in itertools.combinations(sorted(adj[a] - {b}), level)
            ])
            for i in range(d)
            for j in sorted(adj[i])
            if i < j
        ]
        decided = {}
        to_remove = []
        for i, j, sets in plan:
            for s in sets:
                key = (i, j, s)
                if key not in decided:
                    decided[key] = test.independent(i, j, s)
                if decided[key]:
                    sepsets[(i, j)] = s
                    to_remove.append((i, j))
                    break
        for i, j in to_remove:
            adj[i].discard(j)
            adj[j].discard(i)
        level += 1
    skel = frozenset((i, j) for i in range(d) for j in adj[i] if i < j)
    return skel, sepsets


def decoded(phase):
    """The skeleton phase's (adj, sepsets) masks in the reference's set form:
    the skeleton's pairs i < j, and each separating set as a frozenset."""
    adj, sepsets = phase
    skel = frozenset((i, j) for i, a in enumerate(adj) for j in _nodes(a) if i < j)
    return skel, {pair: frozenset(_nodes(m)) for pair, m in sepsets.items()}


def encoded(d, skel, sepsets):
    """The reference's (skel, sepsets) sets as the skeleton phase's masks."""
    return (
        [p | c for p, c in zip(*_index(skel, d))],
        {pair: _mask(s) for pair, s in sepsets.items()},
    )


def reference_orient_v_structures(d, skel, sepsets):
    """The v-structure votes by a scan over every non-adjacent pair and every
    middle node: the reference for the collider scan over half-edges."""

    def adjacent(i, j):
        return (min(i, j), max(i, j)) in skel

    votes = set()
    for i, k in itertools.combinations(range(d), 2):
        if adjacent(i, k):
            continue
        sep = sepsets.get((i, k))
        if sep is None:
            continue
        for b in range(d):
            if b in (i, k):
                continue
            if adjacent(i, b) and adjacent(k, b) and b not in sep:
                votes.add((i, b))
                votes.add((k, b))
    conflicted = {(i, j) for (i, j) in votes if (j, i) in votes}
    return votes - conflicted


def reference_pc(test, max_cond_size):
    """PC from the reference phases, with the 2-cycle repair after closure."""
    d = test.d
    skel, sepsets = reference_skeleton_phase(test, d, max_cond_size)
    directed = _meek_close(d, skel, reference_orient_v_structures(d, skel, sepsets))
    directed -= {(i, j) for (i, j) in directed if (j, i) in directed}
    oriented = {(min(i, j), max(i, j)) for i, j in directed}
    return Cpdag(d, frozenset(directed), skel - oriented)


class DSeparationOracle:
    """The d-separation oracle asked one triple at a time through the public,
    checked d_separated, as the reference skeleton phase asks; records each
    (i, j, S, answer)."""

    def __init__(self, graph):
        self.graph = graph
        self.d = graph.d
        self.calls = []

    def independent(self, i, j, z):
        out = d_separated(self.graph, i, j, z)
        self.calls.append((i, j, z, out))
        return out


def _record_searches(monkeypatch):
    """Record the (source, z, stop) of every d_connected search pc starts, in
    call order, with the conditioning mask z read back as a frozenset."""
    searches = []
    original = pc_module.d_connected

    def d_connected(parents, children, source, z, stop=None):
        searches.append((source, frozenset(v for v in range(z.bit_length()) if z >> v & 1), stop))
        return original(parents, children, source, z, stop)

    monkeypatch.setattr(pc_module, "d_connected", d_connected)
    return searches


class PerTripleFisherZ:
    """FisherZTest asked one triple at a time through its batch method, as
    the reference skeleton phase asks; records each (i, j, S, answer)."""

    def __init__(self, data, alpha):
        self.engine = FisherZTest(data, alpha)
        self.d = self.engine.d
        self.calls = []

    def independent(self, i, j, z):
        (k,) = self.engine.decide([(min(i, j), max(i, j), [tuple(sorted(z))])], len(z))
        assert k in (0, -1)
        self.calls.append((i, j, z, k == 0))
        return k == 0


def _record_levels(monkeypatch, cls=FisherZTest):
    """Record (plan, size, first indices) of every cls.decide, in call order."""
    levels = []
    original = cls.decide

    def decide(self, plan, size):
        firsts = original(self, plan, size)
        levels.append((plan, size, firsts))
        return firsts

    monkeypatch.setattr(cls, "decide", decide)
    return levels


def _consulted(levels, d):
    """The (i, j, S, answer) sequence the recorded levels stand for: each
    pair's sets before its first index, answered False, then the set at that
    index, answered True; all its sets, answered False, for -1. Checks that
    each plan lists every pair once, i < j, with distinct sorted sets of the
    level's size drawn from the other nodes, and one int index or -1 per
    pair."""
    calls = []
    for plan, size, firsts in levels:
        assert len(firsts) == len(plan)
        assert len({(i, j) for i, j, _ in plan}) == len(plan)
        for (i, j, sets), k in zip(plan, firsts):
            assert 0 <= i < j < d and len(set(sets)) == len(sets)
            for s in sets:
                assert len(s) == size and list(s) == sorted(set(s) - {i, j})
                assert all(0 <= v < d for v in s)
            assert type(k) is int and -1 <= k < len(sets)
            asked = sets if k == -1 else sets[:k + 1]
            calls += [(i, j, frozenset(s), n == k) for n, s in enumerate(asked)]
    return calls


class TestMatchesReferencePc:
    @pytest.mark.parametrize("max_cond_size", [None, 1])
    @pytest.mark.parametrize(
        "d, n, alpha", [(6, 30, 0.5), (10, 60, 0.2), (10, 400, 0.05), (15, 200, 0.1)]
    )
    def test_data(self, d, n, alpha, max_cond_size, monkeypatch):
        levels = _record_levels(monkeypatch)
        cfg = PcConfig(alpha=alpha, max_cond_size=max_cond_size)
        for rep in range(4):
            gen = RngSeed(23, 100 * d + rep).generator().numpy()
            g = sample_er_dag(d, int(gen.integers(d, 2 * d + 1)), gen)
            data = simulate_seeded(g, n, RngSeed(24, 100 * d + rep))
            est = pc(data, cfg)
            got = _consulted(levels, d)
            reference = PerTripleFisherZ(data, alpha)
            assert est == reference_pc(reference, max_cond_size)
            assert got == reference.calls
            assert decoded(pc_module._skeleton_phase(
                FisherZTest(data, alpha), d, max_cond_size
            )) == reference_skeleton_phase(PerTripleFisherZ(data, alpha), d, max_cond_size)
            levels.clear()

    @pytest.mark.parametrize("d", [5, 10, 30])
    def test_oracle(self, d, monkeypatch):
        levels = _record_levels(monkeypatch, pc_module.OracleTest)
        for rep in range(8 if d < 30 else 1):
            gen = RngSeed(25, 100 * d + rep).generator().numpy()
            g = sample_er_dag(d, int(gen.integers(d, 2 * d + 1)), gen)
            est = pc(g)
            got = _consulted(levels, d)
            reference = DSeparationOracle(g)
            assert est == reference_pc(reference, None)
            assert got == reference.calls
            assert est == dag_to_cpdag(g)
            levels.clear()

    def test_level_plan_matches_pair_by_pair_plan(self):
        # Seeded adjacency states, from empty to complete, at levels 0-4: the
        # plan from per-node combinations equals, row for row, the plan
        # built pair by pair with a dict.fromkeys per pair.
        gen = RngSeed(28).generator().numpy()
        rows = 0
        for trial in range(400):
            d = 2 + trial % 13
            adj = {v: set() for v in range(d)}
            density = gen.random()
            for i, j in itertools.combinations(range(d), 2):
                if gen.random() < density:
                    adj[i].add(j)
                    adj[j].add(i)
            for level in range(5):
                plan = pc_module._level_plan([_mask(adj[v]) for v in range(d)], level)
                assert plan == level_plan_by_pair(adj, d, level)
                rows += sum(map(len, (sets for _, _, sets in plan)))
        assert rows > 100_000

    def test_v_structure_votes_on_random_inputs(self):
        # Random skeletons, each non-adjacent pair given a random separating
        # set, as the skeleton phase guarantees.
        gen = RngSeed(26).generator().numpy()
        voted = 0
        for trial in range(1500):
            d = 3 + trial % 10
            skel = frozenset(
                p for p in itertools.combinations(range(d), 2) if gen.random() < 0.5
            )
            sepsets = {
                (a, c): frozenset(
                    v for v in range(d) if v not in (a, c) and gen.random() < 0.3
                )
                for a, c in itertools.combinations(range(d), 2)
                if (a, c) not in skel
            }
            votes = pc_module._orient_v_structures(*encoded(d, skel, sepsets))
            assert votes == reference_orient_v_structures(d, skel, sepsets)
            closed = _meek_close(d, skel, votes)
            assert not any((j, i) in closed for i, j in closed)
            voted += bool(votes)
        assert voted > 700


    def test_separating_set_of_every_removed_pair(self):
        # Seeded oracle runs, d = 3..12: the neighbourhood masks are
        # symmetric with no self bit, every pair the skeleton phase removes
        # has a separating set, and that set, decoded, is the reference's for
        # the pair and d-separates it in the truth.
        removed = 0
        for d in range(3, 13):
            for rep in range(6):
                gen = RngSeed(29, 100 * d + rep).generator().numpy()
                g = sample_er_dag(d, int(gen.integers(0, min(2 * d, d * (d - 1) // 2) + 1)), gen)
                adj, masks = pc_module._skeleton_phase(pc_module.OracleTest(g), d, None)
                _, reference = reference_skeleton_phase(DSeparationOracle(g), d, None)
                assert all(adj[i] >> j & 1 == adj[j] >> i & 1 for i in range(d) for j in range(d))
                assert not any(a >> v & 1 for v, a in enumerate(adj))
                skel, sepsets = decoded((adj, masks))
                pairs = sorted(set(itertools.combinations(range(d), 2)) - skel)
                assert sorted(sepsets) == pairs == sorted(reference)
                for i, j in pairs:
                    assert sepsets[(i, j)] == reference[(i, j)]
                    assert d_separated(g, i, j, sepsets[(i, j)])
                removed += len(pairs)
        assert removed > 500


class TestDecideContract:
    """Both backends on one hand-built level-1 plan over 0 -> 1 -> 2 with 3
    and 4 isolated: a pair with two separating sets, a pair whose only one is
    its last, a pair with none, a pair with no sets and a last pair with two."""

    GRAPH = Dag(5, frozenset({(0, 1), (1, 2)}))
    PLAN = [
        (0, 3, [(1,), (2,)]),
        (0, 2, [(3,), (4,), (1,)]),
        (1, 2, [(0,), (3,)]),
        (3, 4, []),
        (2, 4, [(1,), (3,)]),
    ]
    FIRSTS = [0, 2, -1, -1, 0]

    def test_oracle(self, monkeypatch):
        searches = _record_searches(monkeypatch)
        oracle = pc_module.OracleTest(self.GRAPH)
        assert oracle.decide(self.PLAN, 1) == self.FIRSTS
        # One full search per (source, set), none for the pair 1 - 2 that the
        # truth joins, and (2, 4) given {1} answered by 2's search for (0, 2).
        assert searches == [
            (3, frozenset({1}), None),
            (2, frozenset({3}), None),
            (2, frozenset({4}), None),
            (2, frozenset({1}), None),
        ]
        searches.clear()
        assert oracle.decide([(0, 1, [(2,), (3,)]), (1, 2, [(0,), (3,), (4,)])], 1) == [-1, -1]
        assert searches == []

    def test_oracle_corpus(self, monkeypatch):
        # Seeded ER DAGs, d = 3..20 and m = 0..2d, most of them small since
        # the reference's per-triple searches grow steeply with d: the
        # oracle's skeleton phase equals the reference's, sepsets included.
        # Every decide searches no (source, set) twice and starts no search
        # for a pair the truth joins.
        searches = _record_searches(monkeypatch)
        original = pc_module.OracleTest.decide

        def decide(self, plan, size):
            searches.clear()
            firsts = original(self, plan, size)
            assert len(set(searches)) == len(searches)
            assert all(stop is None for _, _, stop in searches)
            searches.clear()
            joined = [(i, j, sets) for i, j, sets in plan if (i, j) in self.graph._skeleton]
            assert original(self, joined, size) == [-1] * len(joined)
            assert searches == []
            return firsts

        monkeypatch.setattr(pc_module.OracleTest, "decide", decide)
        corpus = [(d, rep) for d in range(3, 21) for rep in range(max(8, 1500 // d**2))]
        assert len(corpus) >= 500
        for d, rep in corpus:
            gen = RngSeed(27, 100 * d + rep).generator().numpy()
            g = sample_er_dag(d, int(gen.integers(0, min(2 * d, d * (d - 1) // 2) + 1)), gen)
            got = decoded(pc_module._skeleton_phase(pc_module.OracleTest(g), d, None))
            assert got == reference_skeleton_phase(DSeparationOracle(g), d, None)
            assert pc(g) == dag_to_cpdag(g)

    def test_fisher_z(self):
        data = simulate_seeded(self.GRAPH, 1000, RngSeed(1))
        flags = [[fisher_z_test(data, i, j, s) >= 0.05 for s in sets] for i, j, sets in self.PLAN]
        assert flags == [[True, True], [False, False, True], [False, False], [], [True, True]]
        assert FisherZTest(data, 0.05).decide(self.PLAN, 1) == self.FIRSTS
