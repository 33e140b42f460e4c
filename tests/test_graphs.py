import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import (
    MultiViewGraph,
    homophily_ratio,
    one_hot,
    random_walk_normalize,
    true_homophily_report,
)

from helpers import ratio_graph, two_ratio_fixture
from oracles import oracle_homophily_ratio


def path3():
    return np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


class TestRandomWalkNormalize:
    def test_path_graph_rows(self):
        a_rw = random_walk_normalize(path3())
        # D = diag(1, 2, 1)
        assert np.allclose(a_rw[1], [0.5, 0.0, 0.5])
        assert np.allclose(a_rw[0], [0.0, 1.0, 0.0])
        assert np.allclose(a_rw[2], [0.0, 1.0, 0.0])

    def test_identity_only_graph_with_self_loops(self):
        assert np.array_equal(random_walk_normalize(np.eye(4)), np.eye(4))

    def test_two_node_single_edge(self):
        a_rw = random_walk_normalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(a_rw, [[0.0, 1.0], [1.0, 0.0]])

    def test_isolated_node_gets_self_row(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        a_rw = random_walk_normalize(a)
        assert np.allclose(a_rw[2], [0.0, 0.0, 1.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            random_walk_normalize(np.zeros((2, 3)))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            random_walk_normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
    def test_rows_sum_to_one(self, n, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        a = (upper | upper.T).astype(float)
        a_rw = random_walk_normalize(a)
        assert np.abs(a_rw.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(a_rw @ np.ones(n) - 1.0).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_csr_input_gives_the_dense_entries(self, n_linked, n_isolated, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n_linked, n_linked)) < 0.4, k=1)
        a = np.zeros((n_linked + n_isolated,) * 2)
        a[:n_linked, :n_linked] = upper | upper.T
        if a.size == 0:
            return
        a_rw = random_walk_normalize(sparse.csr_array(a))
        assert a_rw.format == "csr"
        assert np.array_equal(a_rw.toarray(), random_walk_normalize(a))

    def test_csr_input_rejects_what_dense_rejects(self):
        with pytest.raises(ValueError):
            random_walk_normalize(sparse.csr_array(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            random_walk_normalize(sparse.csr_array(np.array([[0.0, -1.0], [-1.0, 0.0]])))


class TestHomophilyRatio:
    def test_hand_enumerated_path(self):
        # edges (0,1) intra-class, (1,2) inter-class
        assert homophily_ratio(path3(), one_hot([0, 0, 1], 2)) == pytest.approx(0.5)

    def test_single_class_is_one(self):
        rng = np.random.default_rng(3)
        upper = np.triu(rng.random((8, 8)) < 0.5, k=1)
        a = (upper | upper.T).astype(float)
        assert homophily_ratio(a, one_hot(np.zeros(8, int), 1)) == 1.0

    def test_complete_bipartite_is_zero(self):
        labels = np.array([0, 0, 1, 1])
        a = np.zeros((4, 4))
        for i in range(2):
            for j in range(2, 4):
                a[i, j] = a[j, i] = 1.0
        assert homophily_ratio(a, one_hot(labels, 2)) == 0.0

    def test_edgeless_graph_raises(self):
        with pytest.raises(ValueError, match="edgeless"):
            homophily_ratio(np.zeros((3, 3)), one_hot([0, 1, 0], 2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_invariant_under_class_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n, c = 14, 4
        labels = rng.integers(0, c, size=n)
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        a = (upper | upper.T).astype(float)
        if a.sum() == 0:
            return
        perm = rng.permutation(c)
        assert homophily_ratio(a, one_hot(labels, c)) == pytest.approx(
            homophily_ratio(a, one_hot(perm[labels], c)), abs=1e-12
        )

    def test_complementary_partition_sums_to_one(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 3, size=20)
        a = ratio_graph(labels, 12, 20, rng)
        p = one_hot(labels, 3)
        hr = homophily_ratio(a, p)
        hetero = 1.0 - hr
        assert hr + hetero == pytest.approx(1.0)
        assert hr == pytest.approx(12 / 32)

    def test_matches_brute_force_edge_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 50))
            labels = rng.integers(0, 3, size=n)
            upper = np.triu(rng.random((n, n)) < 0.3, k=1)
            a = (upper | upper.T).astype(float)
            if a.sum() == 0:
                continue
            agree, total = 0, 0
            for i in range(n):
                for j in range(i + 1, n):
                    if a[i, j]:
                        total += 1
                        agree += labels[i] == labels[j]
            assert homophily_ratio(a, one_hot(labels, 3)) == pytest.approx(agree / total)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_matches_dense_formula_with_weights_and_self_loops(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        a[np.diag_indices(n)] = rng.random(n)  # self-loops are ignored by both
        labels = rng.integers(0, 3, size=n)
        if (a * ~np.eye(n, dtype=bool)).sum() == 0:
            return
        p = one_hot(labels, 3)
        assert homophily_ratio(a, p) == pytest.approx(oracle_homophily_ratio(a, p), abs=1e-12)
        # the stored entries of a CSR view come in the same row-major order
        assert homophily_ratio(sparse.csr_array(a), p) == homophily_ratio(a, p)


class TestTrueHomophilyReport:
    def test_constructed_ratio_fixture(self):
        g = two_ratio_fixture()
        report = true_homophily_report(g)
        assert report[0] == pytest.approx(0.82, abs=1e-12)
        assert report[1] == pytest.approx(0.64, abs=1e-12)

    def test_texas_like_ratios(self):
        g = two_ratio_fixture(ratios=(0.09, 0.09), n_edges=100, seed=3)
        assert true_homophily_report(g) == pytest.approx([0.09, 0.09], abs=1e-12)

    def test_missing_labels_raise(self):
        g = two_ratio_fixture()
        unlabeled = MultiViewGraph(
            features=g.features, adjacencies=g.adjacencies, n_clusters=3
        )
        with pytest.raises(ValueError):
            true_homophily_report(unlabeled)


class TestMultiViewGraphValidation:
    def test_rejects_asymmetric(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            MultiViewGraph(features=np.zeros((3, 2)), adjacencies=[a], n_clusters=2)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            MultiViewGraph(features=np.zeros((2, 2)), adjacencies=[np.eye(2)], n_clusters=2)

    def test_rejects_nonbinary(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="0 or 1"):
            MultiViewGraph(features=np.zeros((2, 2)), adjacencies=[a], n_clusters=2)

    def test_rejects_label_out_of_range(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="range"):
            MultiViewGraph(
                features=np.zeros((2, 2)), adjacencies=[a], n_clusters=2, labels=[0, 2]
            )

    def test_rejects_view_size_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            MultiViewGraph(
                features=np.zeros((3, 2)), adjacencies=[np.zeros((2, 2))], n_clusters=1
            )


class TestCsrViews:
    def test_built_on_first_use_and_kept(self):
        g = two_ratio_fixture()
        assert "csr_adjacencies" not in vars(g)  # construction converts nothing
        views = g.csr_adjacencies
        assert views is g.csr_adjacencies
        for a, csr in zip(g.adjacencies, views):
            assert csr.format == "csr"
            assert np.array_equal(csr.toarray(), a)

    def test_homophily_ratio_reads_the_stored_entries(self):
        g = two_ratio_fixture()
        p = one_hot(g.labels, 3)
        for a, csr in zip(g.adjacencies, g.csr_adjacencies):
            assert homophily_ratio(csr, p) == homophily_ratio(a, p)
