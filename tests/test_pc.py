import importlib
import math

import numpy as np
import pytest
from scipy.stats import norm

from ncbench.graphs import Dag, all_dags, dag_to_cpdag
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
