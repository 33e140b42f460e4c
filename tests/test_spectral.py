import numpy as np
import pytest

from gfclust import (
    compare_spectra,
    graphs,
    largest_gap,
    random_walk_normalize,
    spectrum,
)
from gfclust.errors import ConfigError

from helpers import tiny_two_view

RNG = np.random.default_rng(55)


def symmetric_stochastic(n, rng):
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    a = (upper | upper.T).astype(float)
    # regularize so every node has the same degree-ish structure via self loops
    return random_walk_normalize(a + np.eye(n)).toarray()


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
        for seed in range(4):
            m = symmetric_stochastic(10, np.random.default_rng(seed))
            sym = 0.5 * (m + m.T)
            if not np.allclose(sym.sum(axis=1), 1.0):
                continue
            report = spectrum(sym, symmetrize=False)
            assert report.summary["max"] == pytest.approx(1.0, abs=1e-9)
            assert np.abs(report.eigenvalues).max() <= 1.0 + 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = rng.normal(size=(12, 12))
            report = spectrum(m, symmetrize=True)
            assert report.eigenvalues.sum() == pytest.approx(np.trace(m), abs=1e-8 * 12)

    def test_low_high_pass_duality(self):
        m = RNG.normal(size=(9, 9))
        m = 0.5 * (m + m.T)
        eig_m = spectrum(m, symmetrize=False).eigenvalues
        eig_complement = spectrum(np.eye(9) - m, symmetrize=False).eigenvalues
        assert np.abs(np.sort(1.0 - eig_m) - eig_complement).max() < 1e-9

    def test_sorted_ascending(self):
        report = spectrum(RNG.normal(size=(8, 8)))
        assert (np.diff(report.eigenvalues) >= 0).all()

    def test_nonfinite_rejected(self):
        m = np.eye(3)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
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
        # 5 n x n arrays at n=24 are 23 kB
        g = tiny_two_view()
        eye = np.eye(g.n_nodes)
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 20_000)
        with pytest.raises(ConfigError, match=r"compare_spectra needs about 0\.0 GB \(5 dense"):
            compare_spectra(g, 0, eye, eye)
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 30_000)
        compare_spectra(g, 0, eye, eye)
