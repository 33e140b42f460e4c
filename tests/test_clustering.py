import warnings
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfclust import accuracy, ari, kmeans, macro_f1, nmi, one_hot
from gfclust.clustering import _assignment, _kmeanspp_init, _matched, class_means, match_clusters

from oracles import (
    oracle_accuracy,
    oracle_ari,
    oracle_class_means,
    oracle_f1_candidates,
    oracle_kmeans,
    oracle_kmeanspp_init,
    oracle_matched_accuracy,
    oracle_matched_macro_f1,
    oracle_nmi,
)

RNG = np.random.default_rng(33)


class TestKmeans:
    def test_single_cluster_center_is_mean(self):
        points = RNG.normal(size=(9, 3))
        result = kmeans(points, 1, seed=0)
        assert np.allclose(result.centers[0], points.mean(axis=0))
        assert (result.labels == 0).all()

    def test_two_separated_pairs(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = kmeans(points, 2, seed=0)
        # brute force over all 2-partitions: the split {0,0.1} | {10,10.1}
        # uniquely minimizes inertia
        best_inertia, best_split = np.inf, None
        for size in range(1, 4):
            for subset in combinations(range(4), size):
                mask = np.zeros(4, bool)
                mask[list(subset)] = True
                inertia = sum(
                    ((points[m] - points[m].mean(axis=0)) ** 2).sum() for m in (mask, ~mask)
                )
                if inertia < best_inertia:
                    best_inertia, best_split = inertia, mask
        assert result.inertia == pytest.approx(best_inertia)
        assert len({result.labels[0], result.labels[1]}) == 1
        assert len({result.labels[2], result.labels[3]}) == 1
        assert result.labels[0] != result.labels[2]

    def test_c_equals_n_zero_inertia(self):
        points = RNG.normal(size=(6, 2))
        result = kmeans(points, 6, seed=1)
        assert result.inertia == 0.0
        assert np.unique(result.labels).size == 6

    def test_inertia_history_non_increasing(self):
        for seed in range(5):
            points = np.random.default_rng(seed).normal(size=(40, 3))
            result = kmeans(points, 4, seed=seed)
            history = np.array(result.inertia_history)
            assert (np.diff(history) <= 1e-9).all()

    def test_warm_start_on_converged_state_is_fixpoint(self):
        points = RNG.normal(size=(30, 2))
        first = kmeans(points, 3, seed=5)
        again = kmeans(points, 3, seed=99, warm_centers=first.centers)
        assert np.array_equal(first.labels, again.labels)

    def test_deterministic_under_seed(self):
        points = RNG.normal(size=(25, 4))
        a = kmeans(points, 3, seed=7)
        b = kmeans(points, 3, seed=7)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)

    def test_empty_cluster_reseeded_at_farthest_point(self):
        # duplicate blob plus one extreme outlier; a warm start putting two
        # centers on the blob forces an empty cluster
        points = np.vstack([np.zeros((10, 2)), [[50.0, 0.0]]])
        warm = np.array([[0.0, 0.0], [0.1, 0.0]])
        result = kmeans(points, 2, warm_centers=warm)
        assert np.unique(result.labels).size == 2
        assert (result.labels[:10] != result.labels[10]).all()

    def test_reseed_never_takes_a_clusters_only_member(self):
        # the empty third cluster's farthest point is 10, the only member of
        # the second; taking it would empty that cluster in turn
        points = np.array([[0.0], [0.1], [0.2], [10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(points, 3, warm_centers=np.array([[0.1], [10.5], [100.0]]))
        assert np.bincount(result.labels, minlength=3).min() == 1
        assert np.isfinite(result.centers).all()
        assert len(result.inertia_history) < 300

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3)
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 0)

    def test_inertia_exact_definition(self):
        points = RNG.normal(size=(20, 3))
        result = kmeans(points, 3, seed=2)
        manual = sum(
            ((points[i] - result.centers[result.labels[i]]) ** 2).sum() for i in range(20)
        )
        assert result.inertia == pytest.approx(manual, rel=1e-15)


class TestPseudoLabels:
    def test_orthogonal_blocks(self):
        h = np.kron(np.eye(3), np.ones((4, 1)))  # 12 x 3, three exact blocks
        labels = one_hot(kmeans(h, 3, seed=0).labels, 3)
        assert labels.shape == (12, 3)
        blocks = labels.argmax(axis=1).reshape(3, 4)
        assert all(np.unique(row).size == 1 for row in blocks)

    def test_n_equals_c_distinct(self):
        h = np.diag([1.0, 2.0, 3.0])
        labels = one_hot(kmeans(h, 3, seed=0).labels, 3)
        assert np.unique(labels.argmax(axis=1)).size == 3

    def test_warm_started_call_is_stable(self):
        h = RNG.normal(size=(15, 2))
        first = kmeans(h, 3, seed=4)
        again = one_hot(kmeans(h, 3, seed=1234, warm_centers=first.centers).labels, 3)
        assert np.array_equal(again.argmax(axis=1), first.labels)


class TestClassMeans:
    def test_matches_group_means(self):
        points = RNG.normal(size=(10, 3))
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2, 0])
        means = class_means(points, labels, 3)
        for cls in range(3):
            assert np.allclose(means[cls], points[labels == cls].mean(axis=0))

    def test_empty_class_falls_back_to_global_mean(self):
        points = RNG.normal(size=(4, 2))
        means = class_means(points, np.zeros(4, int), 2)
        assert np.allclose(means[1], points.mean(axis=0))


def blobs(n, d, c, seed):
    """``n`` seeded normal points around ``c`` random centers in ``d`` dimensions."""
    rng = np.random.default_rng(seed)
    means = 3.0 * rng.normal(size=(c, d))
    return means[rng.integers(c, size=n)] + rng.normal(size=(n, d))


def assert_same_clustering(fast, loop):
    """The labels agree exactly, the centers and the inertia to 1e-12 relative,
    the inertia history to 1e-9."""
    assert np.array_equal(fast.labels, loop.labels)
    scale = np.abs(loop.centers).max()
    np.testing.assert_allclose(fast.centers, loop.centers, rtol=1e-12, atol=1e-12 * scale)
    assert fast.inertia == pytest.approx(loop.inertia, rel=1e-12, abs=1e-12 * loop.inertia)
    assert fast.inertia_history == pytest.approx(loop.inertia_history, rel=1e-9)


SHAPES = [(1, 3, 1), (9, 3, 1), (40, 3, 4), (25, 2, 25), (60, 1, 3), (200, 8, 5),
          (500, 16, 10), (1200, 32, 4)]


class TestKmeansAgainstTheLoop:
    """The few-call Lloyd steps against the per-cluster loop they replaced."""

    @pytest.mark.parametrize("n, d, c", SHAPES)
    def test_kmeanspp_seeds_the_same_centers(self, n, d, c):
        for seed in range(3):
            points = blobs(n, d, c, seed)
            sq_norms = (points * points).sum(axis=1)
            fast = _kmeanspp_init(points, sq_norms, c, np.random.default_rng(seed))
            loop = oracle_kmeanspp_init(points, sq_norms, c, np.random.default_rng(seed))
            assert np.array_equal(fast, loop)

    @pytest.mark.parametrize("n, d, c", SHAPES)
    def test_seeded_runs_agree(self, n, d, c):
        for seed in range(3):
            points = blobs(n, d, c, seed)
            assert_same_clustering(kmeans(points, c, seed=seed), oracle_kmeans(points, c, seed=seed))

    @pytest.mark.parametrize("n, d, c", SHAPES)
    def test_warm_started_runs_agree(self, n, d, c):
        rng = np.random.default_rng(n * d * c)
        points = blobs(n, d, c, 7)
        warm = points[rng.choice(n, size=c, replace=False)] + 0.1 * rng.normal(size=(c, d))
        assert_same_clustering(kmeans(points, c, warm_centers=warm),
                               oracle_kmeans(points, c, warm_centers=warm))

    @pytest.mark.parametrize("n, d, c", [(40, 3, 4), (200, 8, 5), (500, 16, 10)])
    def test_a_forced_empty_cluster_is_reseeded_alike(self, n, d, c):
        points = blobs(n, d, c, 11)
        warm = points[:c].copy()
        warm[-1] = 1e3  # no point is closest to this center at the first step
        fast = kmeans(points, c, warm_centers=warm)
        loop = oracle_kmeans(points, c, warm_centers=warm)
        assert_same_clustering(fast, loop)
        assert np.unique(fast.labels).size == c

    @pytest.mark.parametrize("n, d, c", [(40, 3, 4), (200, 8, 5), (60, 1, 3)])
    def test_class_means_agree_with_an_empty_class(self, n, d, c):
        points = blobs(n, d, c, 5)
        labels = np.random.default_rng(5).integers(c - 1, size=n)  # class c - 1 is empty
        loop = oracle_class_means(points, labels, c)
        np.testing.assert_allclose(class_means(points, labels, c), loop,
                                   rtol=1e-12, atol=1e-12 * np.abs(loop).max())
        assert np.array_equal(class_means(points, labels, c)[-1], points.mean(axis=0))


class TestMetricExamples:
    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        assert accuracy(truth, truth) == 1.0
        assert nmi(truth, truth) == pytest.approx(1.0)
        assert ari(truth, truth) == 1.0
        assert macro_f1(truth, truth) == 1.0

    def test_permuted_labels_score_perfectly(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        permuted = (truth + 1) % 3
        assert accuracy(permuted, truth) == 1.0
        assert nmi(permuted, truth) == pytest.approx(1.0)
        assert ari(permuted, truth) == 1.0
        assert macro_f1(permuted, truth) == 1.0

    def test_macro_f1_counts_only_the_ids_the_labels_use(self):
        assert macro_f1([0, 0, 2], [0, 0, 2]) == 1.0
        assert macro_f1([2, 1], [0, 1]) == 1.0

    def test_three_quarters_accuracy(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_checkerboard_case_matches_oracles(self):
        pred, truth = [0, 0, 1, 1], [0, 1, 0, 1]
        assert ari(pred, truth) == pytest.approx(oracle_ari(pred, truth), abs=1e-12)
        assert nmi(pred, truth) == pytest.approx(oracle_nmi(pred, truth), abs=1e-12)
        assert ari(pred, truth) < 0  # worse than chance: the range admits negatives

    def test_metrics_invariant_under_prediction_relabeling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            truth = rng.integers(0, 3, size=10)
            pred = rng.integers(0, 3, size=10)
            perm = rng.permutation(3)
            relabeled = perm[pred]
            assert accuracy(pred, truth) == pytest.approx(accuracy(relabeled, truth))
            assert nmi(pred, truth) == pytest.approx(nmi(relabeled, truth))
            assert ari(pred, truth) == pytest.approx(ari(relabeled, truth))
            assert macro_f1(pred, truth) == pytest.approx(macro_f1(relabeled, truth))

    def test_degenerate_truth_nmi_warns_zero(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert nmi([0, 1, 0, 1], [0, 0, 0, 0]) == 0.0

    def test_random_labelings_match_oracles(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            c = int(rng.integers(1, 5))
            pred = rng.integers(0, c, size=n)
            truth = rng.integers(0, c, size=n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert nmi(pred, truth) == pytest.approx(oracle_nmi(pred, truth), abs=1e-12)
            assert ari(pred, truth) == pytest.approx(oracle_ari(pred, truth), abs=1e-12)
            assert accuracy(pred, truth) == pytest.approx(
                oracle_accuracy(pred, truth), abs=1e-12
            )
            # the implementation tie-breaks toward the best F1 among all
            # agreement-optimal bijections
            f1 = macro_f1(pred, truth)
            assert f1 == pytest.approx(max(oracle_f1_candidates(pred, truth)), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])


METRICS = [accuracy, nmi, ari, macro_f1]


class TestMetricInputs:
    """Every score takes its labels through ``check_labels``."""

    @pytest.mark.parametrize("score", METRICS)
    @pytest.mark.parametrize("pred, truth, message", [
        ([-1, 0, 1, 1], [0, 0, 1, 1], "pred must be"),  # -1 used to wrap to the last row
        ([1.5, 0.2], [1, 0], "pred must be"),  # fractions used to be truncated
        ([0, 1], [0, float("nan")], "truth must be"),
        ([[0, 1]], [[0, 1]], "pred must be"),
        ([True, False], [1, 0], "pred must be"),
        ([], [], "nonzero length"),
        ([0, 1], [0, 1, 1], "nonzero length"),
    ], ids=["negative", "fractions", "nan", "2-d", "bool", "empty", "unequal"])
    def test_refuses_what_is_not_a_labeling(self, score, pred, truth, message):
        with pytest.raises(ValueError, match=message):
            score(pred, truth)

    @pytest.mark.parametrize("score", METRICS)
    def test_integral_floats_score_as_integers(self, score):
        pred, truth = [0, 0, 1, 2, 2, 1], [1, 1, 0, 2, 0, 0]
        as_floats = (np.array(labels, dtype=float) for labels in (pred, truth))
        assert score(*as_floats) == score(pred, truth)


class TestMatchedTableScores:
    """ACC and macro-F1 from the matched contingency table, bit for bit the
    parent formulas over ``match_clusters``'s relabeled predictions."""

    def test_random_labelings_equal_the_relabeling_formulas(self):
        rng = np.random.default_rng(29)
        for _ in range(1500):
            n = int(rng.integers(1, 60))
            # 1-6 labels a side, drawn from an offset range, so some labels go unused
            pred = rng.integers(0, rng.integers(1, 7), size=n) + rng.integers(0, 3)
            truth = rng.integers(0, rng.integers(1, 7), size=n)
            assert accuracy(pred, truth) == oracle_matched_accuracy(pred, truth)
            assert macro_f1(pred, truth) == oracle_matched_macro_f1(pred, truth)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40))
    def test_any_labeling_equals_the_relabeling_formulas(self, pairs):
        pred, truth = (np.array(side) for side in zip(*pairs))
        assert accuracy(pred, truth) == oracle_matched_accuracy(pred, truth)
        assert macro_f1(pred, truth) == oracle_matched_macro_f1(pred, truth)

    def test_the_matched_table_rows_are_the_relabeled_clusters(self):
        pred, truth = np.array([2, 2, 0, 1, 1, 1]), np.array([0, 0, 1, 2, 2, 1])
        matched = _matched(pred, truth)[1]
        relabeled = match_clusters(pred, truth)
        for c in range(3):
            assert matched[c].tolist() == [
                np.count_nonzero((relabeled == c) & (truth == t)) for t in range(3)
            ]


def assignment_cost(cost, cols):
    assert sorted(cols.tolist()) == list(range(cost.shape[0]))
    return cost[np.arange(cost.shape[0]), cols].sum()


class TestAssignment:
    """The in-package Hungarian solver against exhaustive search and scipy."""

    def test_matches_brute_force_on_small_tables(self):
        rng = np.random.default_rng(12)
        tables = [np.zeros((1, 1)), np.array([[4.0]]), np.zeros((4, 4)), np.ones((3, 3))]
        for k in range(1, 7):
            for _ in range(6):
                tables.append(rng.integers(0, 3, size=(k, k)))  # integers, many ties
                tables.append(rng.integers(-20, 20, size=(k, k)))
                tables.append(rng.normal(size=(k, k)))
        for cost in tables:
            k = cost.shape[0]
            best = min(cost[np.arange(k), perm].sum() for perm in permutations(range(k)))
            assert assignment_cost(cost, _assignment(cost)) == pytest.approx(best, abs=1e-12)

    def test_matches_scipy_on_random_costs(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(40)
        for k in (1, 2, 5, 13, 27, 40):
            for scale in (1.0, 1e3):
                cost = scale * rng.normal(size=(k, k))
                rows, cols = linear_sum_assignment(cost)
                best = cost[rows, cols].sum()
                ours = assignment_cost(cost, _assignment(cost))
                assert abs(ours - best) <= 1e-9 * abs(best)
