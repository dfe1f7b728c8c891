import numpy as np
import pytest

from ncbench.graphs import Dag
from ncbench.random_graphs import RngSeed
from ncbench.sem import SemConfig, draw_sem, simulate, simulate_from_dag

from reference import population_covariance


class TestSemConfig:
    def test_invalid_weight_range(self):
        with pytest.raises(ValueError):
            SemConfig(n=10, weight_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SemConfig(n=10, weight_range=(2.0, 1.0))

    @pytest.mark.parametrize("name", ["weight_range", "variance_range"])
    @pytest.mark.parametrize("pair", [(1.0, np.inf), (np.nan, 1.0), (1.0, np.nan), (1, 10**400)])
    def test_non_finite_range(self, name, pair):
        with pytest.raises(ValueError, match=name):
            SemConfig(n=10, **{name: pair})

    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            SemConfig(n=0)


class TestDrawSem:
    def test_empty_graph(self):
        model = draw_sem(Dag(4), SemConfig(n=1, seed=RngSeed(1)))
        assert model.weights == {}
        assert len(model.variances) == 4

    def test_determinism(self):
        g = Dag(4, frozenset({(0, 1), (1, 2), (0, 3)}))
        cfg = SemConfig(n=1, seed=RngSeed(9))
        a = draw_sem(g, cfg)
        b = draw_sem(g, cfg)
        assert a.weights == b.weights
        assert a.variances == b.variances

    def test_degenerate_ranges(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        cfg = SemConfig(n=1, weight_range=(1.0, 1.0), variance_range=(1.0, 1.0))
        model = draw_sem(g, cfg)
        assert all(abs(w) == pytest.approx(1.0) for w in model.weights.values())
        assert model.variances == pytest.approx((1.0, 1.0, 1.0))


class TestSimulate:
    def test_single_node_variance(self):
        model = draw_sem(
            Dag(1), SemConfig(n=1, variance_range=(1.0, 1.0), seed=RngSeed(2))
        )
        data = simulate(model, 100_000, RngSeed(3))
        assert np.var(data[:, 0]) == pytest.approx(1.0, rel=0.03)

    def test_regression_identity(self):
        g = Dag(2, frozenset({(0, 1)}))
        cfg = SemConfig(n=1, seed=RngSeed(4))
        model = draw_sem(g, cfg)
        w = model.weights[(0, 1)]
        data = simulate(model, 100_000, RngSeed(5))
        slope = np.cov(data[:, 0], data[:, 1])[0, 1] / np.var(data[:, 0])
        se = np.sqrt(model.variances[1] / (100_000 * np.var(data[:, 0])))
        assert abs(slope - w) < 3 * se

    def test_no_edges_gives_independence(self):
        model = draw_sem(Dag(3), SemConfig(n=1, seed=RngSeed(6)))
        data = simulate(model, 50_000, RngSeed(7))
        corr = np.corrcoef(data, rowvar=False)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.03)

    def test_empirical_matches_population_covariance(self):
        g = Dag(4, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
        model = draw_sem(g, SemConfig(n=1, seed=RngSeed(8)))
        pop = population_covariance(model)
        data = simulate(model, 100_000, RngSeed(9))
        emp = np.cov(data, rowvar=False)
        assert np.all(np.abs(emp - pop) <= 0.05 * np.maximum(np.abs(pop), 0.1))

    def test_determinism(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        cfg = SemConfig(n=50, seed=RngSeed(10))
        assert np.array_equal(simulate_from_dag(g, cfg), simulate_from_dag(g, cfg))

    def test_column_order_follows_nodes(self):
        # child column must reflect its parent regardless of topological position
        g = Dag(2, frozenset({(1, 0)}))
        cfg = SemConfig(n=1, weight_range=(2.0, 2.0), variance_range=(0.01, 0.01))
        model = draw_sem(g, cfg)
        data = simulate(model, 10_000, RngSeed(11))
        corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        # implied correlation is w*sigma_p/sigma_c = 2/sqrt(5)
        assert abs(corr) == pytest.approx(2 / np.sqrt(5), abs=0.02)
