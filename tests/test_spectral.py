import tracemalloc

import numpy as np
import pytest

from gfclust import (
    MultiViewGraph,
    compare_spectra,
    graphs,
    largest_gap,
    random_walk_normalize,
    spectrum,
)
from gfclust.autograd import Tensor
from gfclust.errors import ConfigError

from helpers import tiny_two_view
from oracles import oracle_joint_aggregation_t

RNG = np.random.default_rng(55)


def random_adjacency(n, rng, p=0.5):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


def with_isolated(a, n_isolated):
    """``a`` with ``n_isolated`` edgeless nodes appended."""
    n = a.shape[0] + n_isolated
    out = np.zeros((n, n))
    out[: a.shape[0], : a.shape[0]] = a
    return out


def exact_real_parts(m):
    """Sorted real parts of a general eigensolver's eigenvalues of ``m``."""
    return np.sort(np.linalg.eigvals(m).real)


class TestSpectrum:
    def test_identity_all_ones(self):
        report = spectrum(np.eye(5))
        assert np.allclose(report.eigenvalues, 1.0)
        assert report.summary["spread"] == 0.0

    def test_swap_matrix(self):
        report = spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(report.eigenvalues, [-1.0, 1.0])
        assert report.summary["largest_gap"] == pytest.approx(2.0)

    def test_perron_eigenvalue_of_symmetric_stochastic(self):
        # a walk's eigenvalues lie in [-1, 1], with 1 the largest
        for seed in range(4):
            b = random_adjacency(10, np.random.default_rng(seed)) + np.eye(10)
            report = spectrum(b)
            assert report.summary["max"] == pytest.approx(1.0, abs=1e-12)
            assert np.abs(report.eigenvalues).max() <= 1.0 + 1e-12

    def test_eigenvalue_sum_equals_trace(self):
        # the trace of the walk D^-1 B is sum_i b_ii / d_i
        for seed in range(5):
            rng = np.random.default_rng(seed)
            b = rng.random((12, 12))
            b = b + b.T
            trace = float((np.diag(b) / b.sum(axis=1)).sum())
            report = spectrum(b)
            assert report.eigenvalues.sum() == pytest.approx(trace, abs=1e-12 * 12)

    def test_low_high_pass_duality(self):
        # the high-pass kernel I - M, shifted by I, is the walk of 2D - B:
        # its eigenvalues are 1 + (1 - lambda)
        b = random_adjacency(9, RNG) + np.eye(9)
        eig_m = spectrum(b.copy()).eigenvalues
        eig_complement = spectrum(2.0 * np.diag(b.sum(axis=1)) - b).eigenvalues
        assert np.abs(np.sort(2.0 - eig_m) - eig_complement).max() < 1e-12

    def test_sorted_ascending(self):
        b = RNG.random((8, 8))
        report = spectrum(b + b.T)
        assert (np.diff(report.eigenvalues) >= 0).all()

    def test_matches_a_general_eigensolver_on_the_walk(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            b = rng.random((15, 15))
            b = b @ b.T
            m = b / b.sum(axis=1, keepdims=True)
            assert np.abs(spectrum(b).eigenvalues - exact_real_parts(m)).max() < 1e-10

    def test_scales_b_in_place(self):
        b = np.array([[1.0, 1.0], [1.0, 3.0]])
        spectrum(b)
        # D^-1/2 B D^-1/2 with D = diag(2, 4)
        assert np.allclose(b, [[0.5, 1.0 / np.sqrt(8.0)], [1.0 / np.sqrt(8.0), 0.75]])

    def test_nonpositive_row_sum_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            spectrum(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite and positive"):
            spectrum(np.array([[1.0, -2.0], [-2.0, 3.0]]))

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            m = np.eye(3)
            m[0, 0] = bad
            with pytest.raises(ValueError, match="finite and positive"):
                spectrum(m)

    def test_largest_gap_handles_tiny_inputs(self):
        assert largest_gap(np.array([0.7])) == 0.0
        assert largest_gap(np.array([0.0, 0.25, 1.0])) == pytest.approx(0.75)


class TestCompareSpectra:
    def test_identity_pair_degenerate_spectrum(self):
        g = tiny_two_view()
        rep_a, rep_s = compare_spectra(g, 0, np.eye(g.n_nodes), np.eye(g.n_nodes))
        assert rep_s.matrix_tag == "joint_aggregation_rw"
        assert rep_s.summary["spread"] == pytest.approx(0.0, abs=1e-12)
        assert rep_a.matrix_tag == "adjacency_rw"

    def test_csv_round_trip(self, tmp_path):
        g = tiny_two_view(seed=2)
        z_x, z_a = RNG.normal(size=(g.n_nodes, 4)), RNG.normal(size=(g.n_nodes, 4))
        rep_a, rep_s = compare_spectra(g, 1, z_x, z_a, out_dir=tmp_path)
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 2
        for report, path in [(rep_a, tmp_path / "spectrum_view1_adjacency_rw.csv"),
                             (rep_s, tmp_path / "spectrum_view1_joint_aggregation_rw.csv")]:
            reloaded = np.array([float(v) for v in path.read_text().split()])
            assert np.abs(reloaded - report.eigenvalues).max() < 1e-12
            assert path.with_suffix(".json").exists()

    def test_over_budget_raises_before_any_dense_matrix(self, monkeypatch):
        # 3 n x n arrays at n=24 are 13.8 kB
        g = tiny_two_view()
        eye = np.eye(g.n_nodes)
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 12_000)
        with pytest.raises(ConfigError, match=r"compare_spectra needs about 0\.0 GB \(3 dense"):
            compare_spectra(g, 0, eye, eye)
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 14_000)
        compare_spectra(g, 0, eye, eye)

    def test_runs_with_between_three_and_five_dense_arrays_free(self, monkeypatch):
        g = tiny_two_view()
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 4 * 8 * g.n_nodes**2)
        rep_a, rep_s = compare_spectra(g, 0, g.features, g.features)
        assert rep_a.summary["max"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_on_random_graphs_with_isolated_nodes(self, seed):
        rng = np.random.default_rng(seed)
        n_linked, n_isolated = int(rng.integers(2, 30)), int(rng.integers(1, 4))
        a = with_isolated(random_adjacency(n_linked, rng, p=0.3), n_isolated)
        g = MultiViewGraph(features=rng.normal(size=(a.shape[0], 3)), adjacencies=[a],
                           n_clusters=2)
        z_x, z_a = rng.normal(size=(a.shape[0], 4)), rng.normal(size=(a.shape[0], 4))
        rep_a, rep_s = compare_spectra(g, 0, z_x, z_a)
        m_a = random_walk_normalize(a).toarray()
        m_s = oracle_joint_aggregation_t(Tensor(z_a), Tensor(z_x)).data
        for report, m in ((rep_a, m_a), (rep_s, m_s)):
            assert np.abs(report.eigenvalues - exact_real_parts(m)).max() < 1e-10
            assert report.summary["max"] == pytest.approx(1.0, abs=1e-12)

    def test_peak_is_one_dense_matrix(self):
        # both dense walks at once and the symmetrized (M + M^T)/2 peaked at
        # 3.0 n x n of traced memory; one B and two 128-row Gram blocks peak
        # at 1.45 (the eigensolver's copy is not traced)
        g = tiny_two_view(n=600, p_in=0.05, p_out=0.005)
        rng = np.random.default_rng(3)
        z_x, z_a = rng.normal(size=(600, 8)), rng.normal(size=(600, 8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            compare_spectra(g, 0, z_x, z_a)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 600**2
