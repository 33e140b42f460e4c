import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import (
    MultiViewGraph,
    SyntheticSpec,
    generate_synthetic,
    homophily_ratio,
    load_dataset,
    load_embedding,
    one_hot,
    save_dataset,
    save_embedding,
    save_report,
    true_homophily_report,
)
from gfclust import datasets, graphs
from gfclust.errors import ConfigError, DataRepairWarning
from oracles import (
    oracle_edge_text,
    oracle_embedding_text,
    oracle_generate_synthetic,
    oracle_load_edges,
)

RNG = np.random.default_rng(2)


def write_tiny3(tmp_path, edges=("0 1", "1 2"), labels=("0", "0", "1"), n_nodes=3):
    (tmp_path / "features.csv").write_text("0.5,1\n1,0\n0,0.25")
    (tmp_path / "labels.csv").write_text("\n".join(labels))
    (tmp_path / "g0.txt").write_text("\n".join(edges))
    (tmp_path / "g1.txt").write_text("0 2")
    manifest = {
        "name": "tiny3",
        "n_nodes": n_nodes,
        "n_views": 2,
        "n_features": 2,
        "n_clusters": 2,
        "feature_file": "features.csv",
        "label_file": "labels.csv",
        "graph_files": ["g0.txt", "g1.txt"],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestLoadDataset:
    def test_tiny3_fixture(self, tmp_path):
        g = load_dataset(write_tiny3(tmp_path))
        assert g.n_views == 2
        assert g.n_nodes == 3
        assert g.name == "tiny3"
        assert g.adjacencies[0][0, 1] == 1.0
        assert np.array_equal(g.labels, [0, 0, 1])

    def test_feature_row_mismatch_is_dimension_error(self, tmp_path):
        path = write_tiny3(tmp_path, n_nodes=4)
        with pytest.raises(ValueError, match="shape"):
            load_dataset(path)

    def test_duplicate_edges_equal_deduplicated(self, tmp_path):
        a = load_dataset(write_tiny3(tmp_path, edges=("0 1", "0 1", "1 0", "1 2")))
        b_path = tmp_path / "b"
        b_path.mkdir()
        b = load_dataset(write_tiny3(b_path, edges=("0 1", "1 2")))
        assert (a.adjacencies[0] != b.adjacencies[0]).nnz == 0

    def test_self_loop_line_repaired_with_warning(self, tmp_path):
        path = write_tiny3(tmp_path, edges=("0 0", "0 1"))
        with pytest.warns(DataRepairWarning, match="self-loop"):
            g = load_dataset(path)
        assert g.adjacencies[0][0, 0] == 0.0

    def test_label_out_of_range(self, tmp_path):
        path = write_tiny3(tmp_path, labels=("0", "0", "5"))
        with pytest.raises(ValueError, match="range"):
            load_dataset(path)

    @pytest.mark.parametrize("labels, message", [
        (("0", "0.5", "1"), "labels must be finite whole numbers"),
        (("0", "-1", "1"), "labels must be finite whole numbers"),
        (("0", "1"), "2 labels for 3 nodes"),
    ], ids=["fraction", "negative", "short"])
    def test_bad_labels_are_refused_by_the_graph(self, tmp_path, labels, message):
        with pytest.raises(ValueError, match=message):
            load_dataset(write_tiny3(tmp_path, labels=labels))

    @pytest.mark.parametrize("text", ["0,1\n1,0", "0,1,1,0"], ids=["two-rows", "one-row"])
    def test_a_label_file_of_several_columns_is_refused(self, tmp_path, text):
        # four labels in either layout, which flattening would have read as 0 1 1 0
        g = MultiViewGraph(np.eye(4), [sparse.csr_array(np.ones((4, 4)) - np.eye(4))], 2,
                           np.array([0, 1, 1, 0]))
        manifest_path = save_dataset(g, tmp_path)
        (tmp_path / "labels.csv").write_text(text)
        with pytest.raises(ValueError, match=r"labels file .*labels\.csv has [24] columns"):
            load_dataset(manifest_path)

    def test_integral_float_labels_load_as_int64(self, tmp_path):
        g = load_dataset(write_tiny3(tmp_path, labels=("0.0", "1e0", "1")))
        assert g.labels.dtype == np.int64 and g.labels.tolist() == [0, 1, 1]

    def test_node_id_out_of_range(self, tmp_path):
        path = write_tiny3(tmp_path, edges=("0 7",))
        with pytest.raises(ValueError, match="out of range"):
            load_dataset(path)

    def test_weighted_edge_line_rejected(self, tmp_path):
        path = write_tiny3(tmp_path, edges=("0 1 0.5",))
        with pytest.raises(ValueError, match="expected 'i j'"):
            load_dataset(path)

    def test_missing_manifest_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValueError, match="missing fields"):
            load_dataset(path)

    @pytest.mark.parametrize("key, value, message", [
        ("n_clusters", 2.9, "n_clusters must be an integer, got 2.9"),
        ("n_nodes", "3", "n_nodes must be an integer"),
        ("feature_file", 7, "feature_file must be a string"),
        ("label_file", ["labels.csv"], "label_file must be a string"),
        ("graph_files", "g0.txt", "graph_files must be a list of strings"),
        ("graph_files", ["g0.txt", 1], "graph_files must be a list of strings"),
        ("weights", 1.0, "unknown manifest keys: weights"),
        ("n_nodes", -2, "n_nodes must be >= 1, got -2"),
        ("n_views", 0, "n_views must be >= 1, got 0"),
        ("n_features", 0, "n_features must be >= 1, got 0"),
        ("n_clusters", 0, "n_clusters must be >= 1, got 0"),
    ])
    def test_bad_manifest_value_is_a_config_error(self, tmp_path, key, value, message):
        path = write_tiny3(tmp_path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        for data_file in tmp_path.glob("*.*"):
            if data_file != path:
                data_file.unlink()  # refused before any data file is read
        with pytest.raises(ConfigError, match=message):
            load_dataset(path)

    def test_non_finite_feature_is_a_data_error(self, tmp_path):
        path = write_tiny3(tmp_path)
        (tmp_path / "features.csv").write_text("0.5,1\nnan,0\n0,inf")
        with pytest.raises(ValueError, match="features hold 2 non-finite values"):
            load_dataset(path)

    def test_manifest_round_trips_through_save(self, tmp_path):
        g = load_dataset(write_tiny3(tmp_path))
        manifest = json.loads(save_dataset(g, tmp_path / "out").read_text())
        assert manifest == {
            "name": "tiny3", "n_nodes": 3, "n_views": 2, "n_features": 2, "n_clusters": 2,
            "feature_file": "features.csv", "graph_files": ["graph_0.txt", "graph_1.txt"],
            "label_file": "labels.csv",
        }

    def test_unlabeled_dataset(self, tmp_path):
        path = write_tiny3(tmp_path)
        payload = json.loads(path.read_text())
        payload["label_file"] = None
        path.write_text(json.dumps(payload))
        assert load_dataset(path).labels is None


    def test_load_forms_no_n_by_n_array(self, tmp_path):
        # a two-view AC1 graph at n=1200; a dense adjacency per view would be
        # 2 n x n arrays kept and more at the peak
        n = 1200
        spec = SyntheticSpec(
            n_nodes=n, n_clusters=4, n_views=2, n_features=32, mean_separation=6.0,
            p_in=0.1, p_out=0.005, seed=0,
        )
        manifest_path = save_dataset(generate_synthetic(spec), tmp_path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = load_dataset(manifest_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_nodes == n
        assert (peak - base) / (8.0 * n * n) < 1.0
        assert (kept - base) / (8.0 * n * n) < 0.25


class TestSaveLoadRoundTrip:
    def test_generate_save_load_identical(self, tmp_path):
        spec = SyntheticSpec(n_nodes=40, n_clusters=3, n_views=2, p_in=0.4, p_out=0.05, seed=5)
        g = generate_synthetic(spec)
        manifest_path = save_dataset(g, tmp_path / "ds")
        reloaded = load_dataset(manifest_path)
        for a, b in zip(g.adjacencies, reloaded.adjacencies):
            assert (a != b).nnz == 0
        assert np.abs(g.features - reloaded.features).max() < 1e-12
        assert np.array_equal(g.labels, reloaded.labels)
        assert reloaded.n_clusters == 3

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        n_views=st.integers(min_value=1, max_value=3),
        n_clusters=st.integers(min_value=1, max_value=4),
        labelled=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_graphs_round_trip(self, n, n_views, n_clusters, labelled, seed):
        rng = np.random.default_rng(seed)
        isolated = rng.random(n) < 0.3
        adjacencies = []
        for _ in range(n_views):
            upper = np.triu(rng.random((n, n)) < rng.random(), k=1)
            a = (upper | upper.T).astype(float)
            a[isolated] = 0.0
            a[:, isolated] = 0.0
            adjacencies.append(a)
        g = MultiViewGraph(
            features=rng.normal(size=(n, int(rng.integers(1, 4)))) * 10.0 ** rng.integers(-5, 6),
            adjacencies=adjacencies,
            n_clusters=n_clusters,
            labels=rng.integers(n_clusters, size=n) if labelled else None,
        )
        with tempfile.TemporaryDirectory() as tmp:
            reloaded = load_dataset(save_dataset(g, Path(tmp)))
        assert np.array_equal(reloaded.features, g.features)
        assert len(reloaded.adjacencies) == n_views
        for a, b in zip(g.adjacencies, reloaded.adjacencies):
            assert (a != b).nnz == 0
        if labelled:
            assert np.array_equal(reloaded.labels, g.labels)
        else:
            assert reloaded.labels is None
        assert reloaded.n_clusters == n_clusters


class TestGenerateSynthetic:
    def test_homophilous_regime(self):
        spec = SyntheticSpec(n_nodes=500, n_clusters=4, n_views=1, p_in=0.2, p_out=0.01, seed=0)
        g = generate_synthetic(spec)
        assert true_homophily_report(g)[0] > 0.8

    def test_heterophilous_regime(self):
        spec = SyntheticSpec(n_nodes=500, n_clusters=4, n_views=1, p_in=0.01, p_out=0.2, seed=0)
        g = generate_synthetic(spec)
        assert true_homophily_report(g)[0] < 0.2

    def test_equal_probabilities_match_pair_fraction(self):
        spec = SyntheticSpec(n_nodes=400, n_clusters=4, n_views=1, p_in=0.1, p_out=0.1, seed=1)
        g = generate_synthetic(spec)
        sizes = spec.class_sizes()
        intra = float((sizes * (sizes - 1) / 2).sum())
        total = spec.n_nodes * (spec.n_nodes - 1) / 2
        assert true_homophily_report(g)[0] == pytest.approx(intra / total, abs=0.02)
        assert spec.expected_hr()[0] == pytest.approx(intra / total)

    def test_measured_hr_converges_to_expected(self):
        spec = SyntheticSpec(
            n_nodes=2000, n_clusters=4, n_views=1, p_in=0.05, p_out=0.01, seed=3
        )
        g = generate_synthetic(spec)
        assert true_homophily_report(g)[0] == pytest.approx(spec.expected_hr()[0], abs=0.03)

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(n_nodes=60, n_clusters=3, n_views=2, seed=9)
        g1, g2 = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(g1.features, g2.features)
        for a, b in zip(g1.adjacencies, g2.adjacencies):
            assert (a != b).nnz == 0

    def test_zero_expected_edges_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            generate_synthetic(
                SyntheticSpec(n_nodes=20, n_clusters=2, n_views=1, p_in=0.0, p_out=0.0)
            )

    def test_per_view_probabilities(self):
        spec = SyntheticSpec(
            n_nodes=300, n_clusters=3, n_views=2, p_in=(0.3, 0.01), p_out=(0.01, 0.3), seed=2
        )
        g = generate_synthetic(spec)
        hr = true_homophily_report(g)
        assert hr[0] > 0.8 and hr[1] < 0.2

    def test_paired_layout_collapses_pair_means(self):
        spec = SyntheticSpec(
            n_nodes=200, n_clusters=4, n_views=1, mean_layout="paired",
            pair_separation=0.2, mean_separation=5.0, noise_scale=0.5, seed=4,
        )
        g = generate_synthetic(spec)
        means = np.stack([g.features[g.labels == k].mean(axis=0) for k in range(4)])
        within_pair = np.linalg.norm(means[0] - means[1])
        across = np.linalg.norm(means[0] - means[2])
        assert within_pair < 0.4 * across

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_nodes=10, n_clusters=2, n_views=1, p_in=1.2)


def assert_bit_identical(g, h):
    """Same features, labels, name and every CSR array with its dtype."""
    assert g.features.dtype == h.features.dtype
    assert g.features.tobytes() == h.features.tobytes()
    assert np.array_equal(g.labels, h.labels) and g.labels.dtype == h.labels.dtype
    assert (g.name, g.n_clusters, g.n_views) == (h.name, h.n_clusters, h.n_views)
    for a, b in zip(g.adjacencies, h.adjacencies):
        assert type(a) is type(b) and a.shape == b.shape
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def ac_spec(n, seed=0, **extra):
    fields = dict(n_nodes=n, n_clusters=4, n_views=2, n_features=32, mean_separation=6.0,
                  p_in=0.1, p_out=0.005, seed=seed)
    return SyntheticSpec(**{**fields, **extra})


class TestRowBlockedGenerator:
    """``generate_synthetic`` draws each view in row blocks; the dense n x n
    draw it replaced is ``oracle_generate_synthetic``."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [4, 5, 100, 128, 129, 300])
    def test_matches_the_dense_draw_bit_for_bit(self, n, seed):
        for extra in ({}, {"p_in": 0.005, "p_out": 0.1, "mean_layout": "paired"}):
            spec = ac_spec(n, seed, **extra)
            assert_bit_identical(generate_synthetic(spec), oracle_generate_synthetic(spec))

    def test_views_with_probability_zero_and_one(self):
        # view 0 joins exactly the cross-class pairs, view 1 exactly the
        # same-class pairs, view 2 every pair
        spec = ac_spec(150, 3, n_views=3, p_in=(0.0, 1.0, 1.0), p_out=(1.0, 0.0, 1.0))
        g = generate_synthetic(spec)
        assert_bit_identical(g, oracle_generate_synthetic(spec))
        same = g.labels[:, None] == g.labels[None, :]
        off = ~np.eye(150, dtype=bool)
        assert np.array_equal(g.adjacencies[0].toarray(), (~same).astype(float))
        assert np.array_equal(g.adjacencies[1].toarray(), (same & off).astype(float))
        assert np.array_equal(g.adjacencies[2].toarray(), off.astype(float))

    def test_per_view_probability_tuples(self):
        spec = ac_spec(200, 2, n_views=3, p_in=(0.3, 0.01, 0.2), p_out=(0.01, 0.3, 0.2))
        assert_bit_identical(generate_synthetic(spec), oracle_generate_synthetic(spec))

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_block_size_changes_nothing_but_memory(self, block, monkeypatch):
        spec = ac_spec(257, 5, p_in=0.2, p_out=0.05)
        monkeypatch.setattr(datasets, "_BLOCK_ROWS", block)
        assert_bit_identical(generate_synthetic(spec), oracle_generate_synthetic(spec))

    def test_peak_memory_is_a_fraction_of_one_n_by_n_array(self):
        # the dense draw peaked at 2.56 n x n; row blocks and the O(|E|) edge
        # lists measure 0.26 at this size
        n = 2000
        spec = ac_spec(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_nodes == n
        assert (peak - base) / (8.0 * n * n) < 0.5


class TestSaveDatasetEdges:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 1 << 14])
    def test_edge_files_equal_one_joined_write(self, chunk, tmp_path, monkeypatch):
        # small chunks cross row boundaries and hold lower-triangle entries only
        spec = ac_spec(60, 4, n_views=3, p_in=(0.3, 0.02, 0.5), p_out=(0.05, 0.0, 0.5))
        g = generate_synthetic(spec)
        monkeypatch.setattr(datasets, "_EDGE_CHUNK", chunk)
        save_dataset(g, tmp_path)
        for view, a in enumerate(g.adjacencies):
            assert (tmp_path / f"graph_{view}.txt").read_text() == oracle_edge_text(a)

    def test_edgeless_view_writes_an_empty_file(self, tmp_path):
        g = MultiViewGraph(features=np.zeros((3, 1)), adjacencies=[np.zeros((3, 3))],
                           n_clusters=1)
        save_dataset(g, tmp_path)
        assert (tmp_path / "graph_0.txt").read_bytes() == b""

    def test_edge_lines_are_held_in_bounded_chunks(self, tmp_path):
        # 57k edges a view: all lines at once cost about 90 bytes an edge
        g = generate_synthetic(ac_spec(2000, n_features=4))
        edges = max(a.nnz // 2 for a in g.adjacencies)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_dataset(g, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / edges < 35.0


def refuse_copy(*args):
    raise AssertionError("graphs._to_canonical copied a view")


def stored_bytes(g):
    arrays = [g.features] + [getattr(a, k) for a in g.adjacencies
                             for k in ("data", "indices", "indptr")]
    return sum(x.nbytes for x in arrays)


# lines of an edge file: ids in and out of range [0, 5), blanks, a comment
# mark, a float and a word, with one to three fields
EDGE_LINES = st.lists(st.one_of(
    st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda t: f"{t[0]} {t[1]}"),
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(lambda t: f" {t[0]}\t{t[1]} "),
    st.sampled_from(["", "  ", "\t", "#", "# 0 1", "0", "0 1 2", "1.0 2", "0 x", "+1 02"]),
), max_size=12)


class TestOneParseLoader:
    """``load_dataset`` parses each file with one ``np.loadtxt`` call and
    builds each view as the generator does; ``oracle_load_edges`` is the
    per-line reader it replaced."""

    def test_isolated_nodes_and_an_edgeless_view_round_trip_bit_for_bit(self, tmp_path):
        # p_out=0 and p_in=0.005 leave most nodes isolated; view 1 is drawn by
        # the generator's view builder at p_in = p_out = 0
        g = generate_synthetic(ac_spec(300, 6, p_in=0.005, p_out=0.0))
        edgeless = datasets._sbm_view(np.random.default_rng(0), g.labels, 0.0, 0.0)
        g = MultiViewGraph(g.features, [g.adjacencies[0], edgeless], g.n_clusters, g.labels,
                           name=g.name)
        assert (np.diff(g.adjacencies[0].indptr) == 0).any() and edgeless.nnz == 0
        assert_bit_identical(load_dataset(save_dataset(g, tmp_path)), g)

    def test_repeated_reversed_and_blank_lines_change_nothing(self, tmp_path):
        g = generate_synthetic(ac_spec(200, 2))
        manifest_path = save_dataset(g, tmp_path)
        upper = sparse.triu(g.adjacencies[0], k=1).tocoo()
        pairs = list(zip(upper.row.tolist(), upper.col.tolist()))
        extra = [f"{j} {i}" for i, j in pairs[::5]] + [f"{i}  {j}" for i, j in pairs[::9]]
        with open(tmp_path / "graph_0.txt", "a") as out:
            out.write("\n\n" + "\n   \n".join(extra) + "\n\t\n")
        assert_bit_identical(load_dataset(manifest_path), g)

    def test_loaded_views_are_stored_without_a_copy(self, tmp_path, monkeypatch):
        manifest_path = save_dataset(generate_synthetic(ac_spec(150, 1)), tmp_path)
        monkeypatch.setattr(graphs, "_to_canonical", refuse_copy)
        assert all(a.nnz for a in load_dataset(manifest_path).adjacencies)

    @pytest.mark.parametrize("text", ["", "\n\n", " \n\t\n"],
                             ids=["empty", "blank-lines", "whitespace-lines"])
    def test_empty_edge_file_is_an_edgeless_view_without_warnings(self, text, tmp_path,
                                                                 monkeypatch):
        path = write_tiny3(tmp_path)
        (tmp_path / "g0.txt").write_text(text)
        monkeypatch.setattr(graphs, "_to_canonical", refuse_copy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = load_dataset(path)
        assert g.adjacencies[0].nnz == 0 and g.adjacencies[1].nnz == 2

    @pytest.mark.parametrize("lines", [
        ("# edges", "0 1"),
        ("0 1", "1.5 2"),
        ("0 1", "-1 2"),
        ("0 1", "0 1 2", "1 2"),
        ("0 1", "0", "1 2"),
        ("0", "1"),
    ], ids=["comment", "float-id", "negative-id", "three-fields-mid-file", "one-field",
            "one-column"])
    def test_bad_edge_lines_raise_naming_the_file(self, lines, tmp_path):
        path = write_tiny3(tmp_path, edges=lines)
        with pytest.raises(ValueError, match=r"g0\.txt"):
            load_dataset(path)

    @pytest.mark.parametrize("name, text", [
        ("features.csv", "0.5,1\n1,a\n0,0.25"),
        ("labels.csv", "0\nx\n1"),
    ], ids=["features", "labels"])
    def test_non_numeric_cell_names_the_file(self, name, text, tmp_path):
        path = write_tiny3(tmp_path)
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            load_dataset(path)

    def test_non_numeric_embedding_cell_names_the_file(self, tmp_path):
        (tmp_path / "emb.csv").write_text("1,0\n0,a")
        with pytest.raises(ValueError, match=r"emb\.csv"):
            load_embedding(tmp_path / "emb.csv")

    @pytest.mark.parametrize("text", ["", "\n", "0.5,1\n1\n0,0.25"],
                             ids=["empty", "blank-line", "ragged"])
    def test_empty_or_ragged_features_raise(self, text, tmp_path):
        path = write_tiny3(tmp_path)
        (tmp_path / "features.csv").write_text(text)
        with pytest.raises(ValueError, match="empty or ragged"):
            load_dataset(path)

    @settings(max_examples=200, deadline=None)
    @given(lines=EDGE_LINES)
    def test_matches_the_per_line_reader(self, lines):
        text = "\n".join(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_text(text)
            try:
                edges, loops = oracle_load_edges(text, 5)
            except ValueError:
                with pytest.raises(ValueError, match=r"g\.txt"):
                    datasets._load_edges(path, 5, 0)
                return
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                a = datasets._load_edges(path, 5, 0)
        assert graphs._is_canonical(a, 5)
        assert (a != a.T).nnz == 0
        upper = sparse.triu(a, k=1).tocoo()
        assert set(zip(upper.row.tolist(), upper.col.tolist())) == edges
        expected = [f"view 0 (g.txt): dropped {loops} self-loop lines"] if loops else []
        assert [str(w.message) for w in caught] == expected

    def test_load_peak_is_a_small_multiple_of_the_stored_arrays(self, tmp_path):
        # the per-line reader peaked at 4.72 times the views and features it
        # returns; one parse and the generator's view builder measure 1.62
        manifest_path = save_dataset(generate_synthetic(ac_spec(3000)), tmp_path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = load_dataset(manifest_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / stored_bytes(g) < 2.5


class TestSaveEmbeddingChunks:
    @pytest.mark.parametrize("shape, chunk", [
        ((1, 5), 2),  # one row wider than a chunk
        ((7, 1), 3),  # one column, chunks of three rows
        ((9, 4), 8),  # chunks of two rows, the last one short
        ((9, 4), 36),  # exactly one chunk
        ((4, 3), 1 << 14),
    ])
    def test_bytes_equal_one_joined_write(self, shape, chunk, tmp_path, monkeypatch):
        m = RNG.normal(size=shape) * 10.0 ** RNG.integers(-300, 300, size=shape)
        m.flat[0] = -0.0
        monkeypatch.setattr(datasets, "_VALUE_CHUNK", chunk)
        save_embedding(m, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == oracle_embedding_text(m).encode()

    def test_values_are_formatted_in_bounded_chunks(self, tmp_path):
        # 160k values: one joined string costs about 47 bytes a value, a chunk
        # about 1.4 MB in all
        m = RNG.normal(size=(20000, 8))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_embedding(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - base) / m.size < 15.0


class TestFlatFiles:
    def test_identity_embedding_bytes(self, tmp_path):
        path = tmp_path / "emb.csv"
        save_embedding(np.eye(2), path)
        assert path.read_text() == "1,0\n0,1"

    def test_report_passthrough(self, tmp_path):
        path = tmp_path / "report.json"
        save_report({"final": {"nmi": 0.5}}, path)
        assert json.loads(path.read_text())["final"]["nmi"] == 0.5

    def test_round_trip_precision(self, tmp_path):
        m = RNG.normal(size=(10, 4))
        path = tmp_path / "m.csv"
        save_embedding(m, path)
        assert np.abs(load_embedding(path) - m).max() < 1e-12

    def test_io_failure_has_path_context(self, tmp_path):
        missing = tmp_path / "no" / "dir" / "f.csv"
        with pytest.raises(OSError, match="f.csv"):
            save_embedding(np.eye(2), missing)


def test_synthetic_fixture_ratio_helpers():
    # sanity for the constructed-ratio helper used elsewhere
    from helpers import ratio_graph

    labels = np.repeat([0, 1, 2], 8)
    a = ratio_graph(labels, 20, 30, np.random.default_rng(0))
    assert homophily_ratio(a, one_hot(labels, 3)) == pytest.approx(0.4, abs=1e-12)
