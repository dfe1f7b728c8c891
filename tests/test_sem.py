import numpy as np
import pytest

from ncbench.graphs import Dag
from ncbench.random_graphs import RngSeed, sample_er_dag
from ncbench.sem import draw_sem, simulate

from conftest import simulate_seeded
from reference import draw_sem_per_call, population_covariance, simulate_per_call


class TestRanges:
    def test_invalid_weight_range(self):
        with pytest.raises(ValueError):
            draw_sem(Dag(1), RngSeed(0).child(0), weight_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            draw_sem(Dag(1), RngSeed(0).child(0), weight_range=(2.0, 1.0))

    @pytest.mark.parametrize("name", ["weight_range", "variance_range"])
    @pytest.mark.parametrize("pair", [(1.0, np.inf), (np.nan, 1.0), (1.0, np.nan), (1, 10**400)])
    def test_non_finite_range(self, name, pair):
        with pytest.raises(ValueError, match=name):
            draw_sem(Dag(1), RngSeed(0).child(0), **{name: pair})

    def test_invalid_sample_size(self):
        model = draw_sem(Dag(1), RngSeed(0).child(0))
        with pytest.raises(ValueError):
            simulate(model, 0, RngSeed(0).generator())


class TestDrawSem:
    def test_empty_graph(self):
        model = draw_sem(Dag(4), RngSeed(1).child(0))
        assert model.weights == {}
        assert len(model.variances) == 4

    def test_determinism(self):
        g = Dag(4, frozenset({(0, 1), (1, 2), (0, 3)}))
        a = draw_sem(g, RngSeed(9).child(0))
        b = draw_sem(g, RngSeed(9).child(0))
        assert a.weights == b.weights
        assert a.variances == b.variances

    def test_degenerate_ranges(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        model = draw_sem(g, RngSeed(0).child(0), (1.0, 1.0), (1.0, 1.0))
        assert all(abs(w) == pytest.approx(1.0) for w in model.weights.values())
        assert model.variances == pytest.approx((1.0, 1.0, 1.0))


class TestSimulate:
    def test_single_node_variance(self):
        model = draw_sem(Dag(1), RngSeed(2).child(0), variance_range=(1.0, 1.0))
        data = simulate(model, 100_000, RngSeed(3).generator())
        assert np.var(data[:, 0]) == pytest.approx(1.0, rel=0.03)

    def test_regression_identity(self):
        g = Dag(2, frozenset({(0, 1)}))
        model = draw_sem(g, RngSeed(4).child(0))
        w = model.weights[(0, 1)]
        data = simulate(model, 100_000, RngSeed(5).generator())
        slope = np.cov(data[:, 0], data[:, 1])[0, 1] / np.var(data[:, 0])
        se = np.sqrt(model.variances[1] / (100_000 * np.var(data[:, 0])))
        assert abs(slope - w) < 3 * se

    def test_no_edges_gives_independence(self):
        model = draw_sem(Dag(3), RngSeed(6).child(0))
        data = simulate(model, 50_000, RngSeed(7).generator())
        corr = np.corrcoef(data, rowvar=False)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.03)

    def test_empirical_matches_population_covariance(self):
        g = Dag(4, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
        model = draw_sem(g, RngSeed(8).child(0))
        pop = population_covariance(model)
        data = simulate(model, 100_000, RngSeed(9).generator())
        emp = np.cov(data, rowvar=False)
        assert np.all(np.abs(emp - pop) <= 0.05 * np.maximum(np.abs(pop), 0.1))

    def test_determinism(self):
        g = Dag(3, frozenset({(0, 1), (1, 2)}))
        assert np.array_equal(simulate_seeded(g, 50, RngSeed(10)), simulate_seeded(g, 50, RngSeed(10)))

    def test_column_order_follows_nodes(self):
        # child column must reflect its parent regardless of topological position
        g = Dag(2, frozenset({(1, 0)}))
        model = draw_sem(g, RngSeed(0).child(0), (2.0, 2.0), (0.01, 0.01))
        data = simulate(model, 10_000, RngSeed(11).generator())
        corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        # implied correlation is w*sigma_p/sigma_c = 2/sqrt(5)
        assert abs(corr) == pytest.approx(2 / np.sqrt(5), abs=0.02)


class TestMatchesPerCallDraws:
    """draw_sem and simulate each draw from one numpy call; the per-call form,
    one call per value or node, gives the same bits and leaves the stream at
    the same state."""

    def test_seeded_replications(self):
        for rep in range(300):
            d = 1 + rep % 12
            g = sample_er_dag(d, rep % (d * (d - 1) // 2 + 1), RngSeed(5, rep).generator())
            ranges = [((0.5, 2.0), (0.5, 1.5)), ((1.0, 1.0), (0.1, 3.0)), ((0.2, 0.3), (2.0, 2.0))][rep % 3]
            model = draw_sem(g, RngSeed(6).child(rep), *ranges)
            gen = RngSeed(6).child(rep).numpy()
            expected = draw_sem_per_call(g, gen, *ranges)
            assert model.weights == expected.weights
            assert model.variances == expected.variances
            n = (1, 7, 400)[rep // 3 % 3]
            stream = RngSeed(7).child(rep)
            data = simulate(model, n, stream)
            gen = RngSeed(7).child(rep).numpy()
            assert np.array_equal(data, simulate_per_call(model, n, gen))
            assert data.flags.c_contiguous
            assert stream.numpy().random(3).tolist() == gen.random(3).tolist()

    def test_uniform_is_lo_plus_range_times_u(self):
        for lo, hi in [(0.5, 2.0), (0.5, 1.5), (1e-3, 7.0)]:
            drawn = RngSeed(8).generator().numpy().uniform(lo, hi, size=200_000)
            u = RngSeed(8).generator().numpy().random(200_000)
            assert np.array_equal(drawn, lo + (hi - lo) * u)
