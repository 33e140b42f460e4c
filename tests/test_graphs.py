import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import (
    MultiViewGraph,
    SyntheticSpec,
    generate_synthetic,
    graphs,
    homophily_ratio,
    one_hot,
    random_walk_normalize,
    true_homophily_report,
)
from gfclust.datasets import entry_chunks
from gfclust.errors import ConfigError

from helpers import ratio_graph, two_ratio_fixture
from oracles import oracle_homophily_ratio, oracle_loop_isolated, oracle_random_walk_normalize


def path3():
    return np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


class TestRandomWalkNormalize:
    def test_path_graph_rows(self):
        a_rw = random_walk_normalize(path3()).toarray()
        # D = diag(1, 2, 1)
        assert np.allclose(a_rw[1], [0.5, 0.0, 0.5])
        assert np.allclose(a_rw[0], [0.0, 1.0, 0.0])
        assert np.allclose(a_rw[2], [0.0, 1.0, 0.0])

    def test_identity_only_graph_with_self_loops(self):
        assert np.array_equal(random_walk_normalize(np.eye(4)).toarray(), np.eye(4))

    def test_two_node_single_edge(self):
        a_rw = random_walk_normalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(a_rw.toarray(), [[0.0, 1.0], [1.0, 0.0]])

    def test_isolated_node_gets_self_row(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        a_rw = random_walk_normalize(a).toarray()
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
        assert np.array_equal(a_rw.toarray(), oracle_random_walk_normalize(a))
        assert (random_walk_normalize(a) != a_rw).nnz == 0

    def test_csr_input_rejects_what_dense_rejects(self):
        with pytest.raises(ValueError):
            random_walk_normalize(sparse.csr_array(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            random_walk_normalize(sparse.csr_array(np.array([[0.0, -1.0], [-1.0, 0.0]])))


def with_isolated(a, n_isolated=2):
    """``a`` with ``n_isolated`` edgeless nodes appended."""
    n = a.shape[0] + n_isolated
    out = np.zeros((n, n))
    out[:a.shape[0], :a.shape[0]] = a
    return out


def random_graph(seed, n=40, p=0.2):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
    return (upper | upper.T).astype(float)


def same_storage(got, expected):
    return all(
        getattr(got, part).dtype == getattr(expected, part).dtype
        and getattr(got, part).tobytes() == getattr(expected, part).tobytes()
        for part in ("data", "indices", "indptr")
    )


LOOP_GRAPHS = {
    "path": path3(),
    "path-isolated": with_isolated(path3()),
    "random": random_graph(5),
    "random-isolated": with_isolated(random_graph(6), 3),
    "self-loops": np.eye(4),
}


class TestLoopIsolated:
    @pytest.mark.parametrize("name", sorted(LOOP_GRAPHS))
    def test_the_storage_matches_the_sum_with_a_diagonal(self, name):
        a = sparse.csr_array(LOOP_GRAPHS[name])
        assert same_storage(graphs._loop_isolated(a), oracle_loop_isolated(a))

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
    @pytest.mark.parametrize("name", sorted(LOOP_GRAPHS))
    def test_the_walk_matrix_storage_is_unchanged(self, monkeypatch, name, dense):
        a = LOOP_GRAPHS[name] if dense else sparse.csr_array(LOOP_GRAPHS[name])
        got = random_walk_normalize(a)
        monkeypatch.setattr(graphs, "_loop_isolated", oracle_loop_isolated)
        assert same_storage(got, random_walk_normalize(a))

    def test_a_graph_view_with_no_isolated_node_is_copied_with_no_sum(self, monkeypatch):
        g = generate_synthetic(SyntheticSpec(n_nodes=60, n_clusters=3, n_views=2, p_in=0.5,
                                             seed=1))
        expected = [oracle_loop_isolated(a) for a in g.adjacencies]

        def no_diagonal(*args, **kwargs):
            raise AssertionError("no diagonal is added when no row sums to 0")

        monkeypatch.setattr(sparse, "diags_array", no_diagonal)
        for a, want in zip(g.adjacencies, expected):
            assert (a.sum(axis=1) > 0).all()
            got = graphs._loop_isolated(a)
            assert got.data is not a.data and same_storage(got, want)

    def test_a_row_of_stored_zeros_gets_its_loop(self):
        # row 2 stores an explicit zero: it sums to 0, so the node is isolated
        a = sparse.csr_array((np.array([1.0, 1.0, 0.0]), np.array([1, 0, 0]),
                              np.array([0, 1, 2, 3])), shape=(3, 3))
        got = graphs._loop_isolated(a)
        assert np.array_equal(got.toarray(), [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert same_storage(got, oracle_loop_isolated(a))


class TestHomophilyRatio:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
    def test_chunked_reads_give_the_exact_ratio_on_a_binary_graph(self, chunk):
        # on 0/1 entries both sums are integer counts, so the ratio is exact,
        # also on the view put back together from entry_chunks' pieces
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1, 2], 8)
        a = ratio_graph(labels, 20, 30, rng)
        a[np.diag_indices(24)] = 1.0  # the trace leaves both sums
        view = sparse.csr_array(a)
        rows, cols, data = map(np.concatenate, zip(*entry_chunks(view, chunk)))
        read = sparse.csr_array((data, (rows, cols)), shape=view.shape)
        assert (read != view).nnz == 0
        assert homophily_ratio(read, one_hot(labels, 3)) == 0.4

    def test_reads_a_large_view_in_bounded_memory(self):
        # 110k stored entries; the whole-view edge arrays took about 40 bytes an entry
        rng = np.random.default_rng(0)
        upper = sparse.triu(sparse.random_array((1200, 1200), density=0.08, rng=rng), k=1)
        a = sparse.csr_array((upper + upper.T) != 0, dtype=np.float64)
        p = one_hot(rng.integers(0, 4, size=1200), 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            homophily_ratio(a, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / a.nnz < 25.0

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
        # a graph of self-loops alone has no edge either
        for a in (np.zeros((3, 3)), sparse.csr_array(np.diag([1.0, 0.5, 2.0]))):
            with pytest.raises(ValueError, match="edgeless"):
                homophily_ratio(a, one_hot([0, 1, 0], 2))

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


def build_graph(features, view, **kwargs):
    return MultiViewGraph(features=features, adjacencies=[view], **kwargs)


def both_forms(a):
    """A dense view and the same view as CSR."""
    return [a, sparse.csr_array(a)]


class TestMultiViewGraphValidation:
    def test_rejects_asymmetric(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        for view in both_forms(a):
            with pytest.raises(ValueError, match="symmetric"):
                build_graph(np.zeros((3, 2)), view, n_clusters=2)

    def test_rejects_self_loops(self):
        for view in both_forms(np.eye(2)):
            with pytest.raises(ValueError, match="self-loops"):
                build_graph(np.zeros((2, 2)), view, n_clusters=2)

    def test_rejects_nonbinary(self):
        for view in both_forms(np.array([[0.0, 0.5], [0.5, 0.0]])):
            with pytest.raises(ValueError, match="0 or 1"):
                build_graph(np.zeros((2, 2)), view, n_clusters=2)

    def test_rejects_label_out_of_range(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="range"):
            MultiViewGraph(
                features=np.zeros((2, 2)), adjacencies=[a], n_clusters=2, labels=[0, 2]
            )

    def test_rejects_view_size_mismatch(self):
        for view in both_forms(np.zeros((2, 2))):
            with pytest.raises(ValueError, match="does not match"):
                build_graph(np.zeros((3, 2)), view, n_clusters=1)

    @pytest.mark.parametrize("labels", [
        [0.9, 1.7, 0.2], [0, float("nan"), 1], [-1, 0, 1], [[0], [1], [1]], [True, False, True],
    ], ids=["fractions", "nan", "negative", "2-d", "bool"])
    def test_rejects_labels_that_are_not_class_ids(self, labels):
        with pytest.raises(ValueError, match="labels must be"):
            build_graph(np.zeros((3, 2)), path3(), n_clusters=2, labels=labels)

    def test_rejects_a_label_count_that_is_not_the_node_count(self):
        with pytest.raises(ValueError, match="2 labels for 3 nodes"):
            build_graph(np.zeros((3, 2)), path3(), n_clusters=2, labels=[0, 1])

    def test_takes_integral_float_labels_as_int64(self):
        g = build_graph(np.zeros((3, 2)), path3(), n_clusters=2, labels=[1.0, 0.0, 1.0])
        assert g.labels.dtype == np.int64 and g.labels.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("n_clusters", [2.5, True, 0, np.float64(2.0)])
    def test_n_clusters_is_a_positive_integer(self, n_clusters):
        with pytest.raises(ConfigError, match="n_clusters must be"):
            build_graph(np.zeros((3, 2)), path3(), n_clusters=n_clusters)

    def test_one_hot_checks_its_labels(self):
        assert one_hot([1.0, 0.0], 2).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        for labels in ([0.5, 1.0], [-1, 0], [0, 2]):
            with pytest.raises(ValueError, match="labels must be"):
                one_hot(labels, 2)


def assert_same_storage(a, b):
    assert a.format == b.format == "csr"
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def stored_view(view):
    n = view.shape[0]
    return build_graph(np.zeros((n, 1)), view, n_clusters=1).adjacencies[0]


class TestCanonicalViews:
    def test_repeated_entries_collapse_to_one_edge(self):
        rows, cols = [0, 1, 0, 1, 1, 2], [1, 0, 1, 0, 2, 1]
        repeated = sparse.coo_array((np.ones(6), (rows, cols)), shape=(3, 3))
        assert_same_storage(stored_view(repeated), stored_view(path3()))

    def test_stored_zeros_are_dropped(self):
        rows, cols = [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0]
        padded = sparse.csr_array(([1.0, 1.0, 1.0, 1.0, 0.0, 0.0], (rows, cols)), shape=(3, 3))
        assert padded.nnz == 6
        assert_same_storage(stored_view(padded), stored_view(path3()))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.sampled_from([np.int32, np.int64]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_dense_and_sparse_input_store_the_same_arrays(self, n, index, seed):
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < rng.random(), k=1)
        a = (upper | upper.T).astype(float)
        rows, cols = np.nonzero(a)
        order = rng.permutation(rows.size)  # unsorted entries
        coo = sparse.coo_array(
            (np.ones(rows.size), (rows[order].astype(index), cols[order].astype(index))),
            shape=(n, n),
        )
        dense = stored_view(a)
        assert dense.has_sorted_indices
        assert dense.indices.dtype == sparse.csr_array(a).indices.dtype
        for view in (sparse.csr_array(a), coo, coo.tocsc()):
            assert_same_storage(stored_view(view), dense)

    def test_a_canonical_csr_view_is_stored_without_a_copy(self):
        canonical = stored_view(path3())
        assert stored_view(canonical) is canonical

    @pytest.mark.parametrize(
        "change",
        [
            lambda a: sparse.csr_matrix(a),  # not a csr_array
            lambda a: sparse.csr_array(  # unsorted column indices
                (a.data[::-1].copy(), np.array([1, 2, 0, 1], dtype=np.int32), a.indptr),
                shape=a.shape,
            ),
            lambda a: sparse.csr_array(  # int64 indices for a small view
                (a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)), shape=a.shape
            ),
        ],
    )
    def test_a_near_canonical_csr_view_is_rebuilt(self, change):
        canonical = stored_view(path3())
        view = change(canonical)
        stored = stored_view(view)
        assert stored is not view
        assert_same_storage(stored, canonical)

    def test_symmetry_check_transposes_one_byte_data(self):
        # on view 0 of an AC1 graph at n=3000, a float64 transpose peaked at
        # 1.08 of the view's bytes, a boolean one at 0.50
        spec = SyntheticSpec(n_nodes=3000, n_clusters=4, n_views=1, n_features=8,
                             p_in=0.1, p_out=0.005, seed=0)
        view = generate_synthetic(spec).adjacencies[0]
        view_bytes = view.data.nbytes + view.indices.nbytes + view.indptr.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert graphs._canonical_view(view, 3000, 0) is view
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * view_bytes

    def test_asymmetry_is_reported_before_nonbinary_entries(self):
        a = np.array([[0.0, 0.5], [0.0, 0.0]])
        for view in both_forms(a):
            with pytest.raises(ValueError, match="symmetric"):
                build_graph(np.zeros((2, 2)), view, n_clusters=1)


class TestCheckDenseFits:
    def test_over_budget_raises_with_the_estimate(self, monkeypatch):
        monkeypatch.setattr(graphs, "_available_bytes", lambda: 2 * 10**9)
        with pytest.raises(ConfigError, match=r"x needs about 3\.2 GB \(1 dense 20000 x 20000"):
            graphs.check_dense_fits(20_000, 1, "x")
        graphs.check_dense_fits(10_000, 2, "x")  # 1.6 GB fits

    def test_unknown_budget_checks_nothing(self, monkeypatch):
        monkeypatch.setattr(graphs, "_available_bytes", lambda: None)
        graphs.check_dense_fits(10**6, 100, "x")

    def test_available_bytes_is_positive_or_unknown(self):
        available = graphs._available_bytes()
        assert available is None or available > 0
