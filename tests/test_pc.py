import importlib
import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from ncbench.graphs import Cpdag, Dag, _meek_close, all_dags, dag_to_cpdag
from ncbench.pc import CiTestError, FisherZTest, PcConfig, fisher_z_test, pc
from ncbench.random_graphs import RngSeed, sample_er_dag
from ncbench.sem import SemConfig, simulate_from_dag

pc_module = importlib.import_module("ncbench.pc")


def _gaussian_pair(n, r, seed):
    gen = RngSeed(seed).generator()
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
        gen = RngSeed(3).generator()
        x = gen.normal(size=100)
        data = np.column_stack([x, x, gen.normal(size=100)])
        with pytest.raises(CiTestError):
            fisher_z_test(data, 0, 2, [1])

    def test_conditioning_removes_dependence(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        data = simulate_from_dag(g, SemConfig(n=5000, seed=RngSeed(4)))
        assert fisher_z_test(data, 0, 2, []) < 0.01
        assert fisher_z_test(data, 0, 2, [1]) > 0.05


class PerCallFisherZ:
    """PC's CI test through the per-call reference fisher_z_test."""

    def __init__(self, data, alpha):
        self.data = np.asarray(data, dtype=float)
        self.alpha = alpha
        self.d = self.data.shape[1]

    def independent(self, i, j, z):
        return fisher_z_test(self.data, i, j, z) >= self.alpha


def _study_data(d, m_true, rep):
    stream = 100 * d + rep
    g = sample_er_dag(d, m_true, RngSeed(20 + m_true, stream))
    return simulate_from_dag(g, SemConfig(n=400, seed=RngSeed(21 + m_true, stream)))


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

    def test_p_values_match_reference(self):
        data = _study_data(10, 30, 0)
        test = FisherZTest(data, 0.05)
        gen = RngSeed(22).generator()
        for size in range(5):
            triples = []
            for _ in range(20):
                i, j, *s = (int(v) for v in gen.choice(10, size + 2, replace=False))
                triples.append((min(i, j), max(i, j), frozenset(s)))
            for (i, j, s), p in zip(triples, test.p_values(triples)):
                assert p == pytest.approx(fisher_z_test(data, i, j, s), rel=1e-9, abs=1e-15)

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
            gen = rng.generator()
            g = sample_er_dag(8, int(gen.integers(8, 21)), gen)
            est = pc(g)
            cp = dag_to_cpdag(g)
            assert est.directed == cp.directed
            assert est.undirected == cp.undirected

    def test_order_independence(self):
        # relabeling nodes must relabel the output identically (stable PC)
        g = sample_er_dag(6, 8, RngSeed(8))
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
            cfg = SemConfig(
                n=10_000, weight_range=(1.0, 2.0), seed=RngSeed(100, rep)
            )
            data = simulate_from_dag(collider, cfg)
            est = pc(data, PcConfig(alpha=0.05))
            if est.directed == collider.edges and not est.undirected:
                hits += 1
        assert hits >= 184

    def test_max_cond_size_limits_search(self):
        g = sample_er_dag(5, 8, RngSeed(9))
        data = simulate_from_dag(g, SemConfig(n=500, seed=RngSeed(10)))
        out = pc(data, PcConfig(alpha=0.05, max_cond_size=0))
        assert len(out.directed) + len(out.undirected) <= 10

    def test_sparsity_bias_when_dense(self):
        # d=10, m_true=30, n=400: estimated edge counts fall well below 30
        total = 0
        reps = 10
        for rep in range(reps):
            rng = RngSeed(11, rep)
            g = sample_er_dag(10, 30, rng)
            data = simulate_from_dag(g, SemConfig(n=400, seed=RngSeed(12, rep)))
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
        if hasattr(test, "prepare"):
            triples = dict.fromkeys((i, j, s) for i, j, sets in plan for s in sets)
            test.prepare(list(triples))
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


def _record_calls(monkeypatch, cls):
    """Record every (i, j, S, answer) of cls.independent, in call order."""
    calls = []
    original = cls.independent

    def independent(self, i, j, z):
        out = original(self, i, j, z)
        calls.append((i, j, z, out))
        return out

    monkeypatch.setattr(cls, "independent", independent)
    return calls


class TestMatchesReferencePc:
    @pytest.mark.parametrize("max_cond_size", [None, 1])
    @pytest.mark.parametrize(
        "d, n, alpha", [(6, 30, 0.5), (10, 60, 0.2), (10, 400, 0.05), (15, 200, 0.1)]
    )
    def test_data(self, d, n, alpha, max_cond_size, monkeypatch):
        calls = _record_calls(monkeypatch, FisherZTest)
        cfg = PcConfig(alpha=alpha, max_cond_size=max_cond_size)
        for rep in range(4):
            gen = RngSeed(23, 100 * d + rep).generator()
            g = sample_er_dag(d, int(gen.integers(d, 2 * d + 1)), gen)
            data = simulate_from_dag(g, SemConfig(n=n, seed=RngSeed(24, 100 * d + rep)))
            est = pc(data, cfg)
            got = calls[:]
            calls.clear()
            assert est == reference_pc(FisherZTest(data, alpha), max_cond_size)
            assert got == calls
            calls.clear()

    @pytest.mark.parametrize("d", [5, 10, 30])
    def test_oracle(self, d, monkeypatch):
        calls = _record_calls(monkeypatch, pc_module.OracleTest)
        for rep in range(8 if d < 30 else 1):
            gen = RngSeed(25, 100 * d + rep).generator()
            g = sample_er_dag(d, int(gen.integers(d, 2 * d + 1)), gen)
            est = pc(g)
            got = calls[:]
            calls.clear()
            assert est == reference_pc(pc_module.OracleTest(g), None)
            assert got == calls
            assert est == dag_to_cpdag(g)
            calls.clear()

    def test_v_structure_votes_on_random_inputs(self):
        # Random skeletons, each non-adjacent pair given a random separating
        # set, as the skeleton phase guarantees.
        gen = RngSeed(26).generator()
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
            votes = pc_module._orient_v_structures(skel, sepsets)
            assert votes == reference_orient_v_structures(d, skel, sepsets)
            closed = _meek_close(d, skel, votes)
            assert not any((j, i) in closed for i, j in closed)
            voted += bool(votes)
        assert voted > 700
