import warnings
from itertools import combinations, permutations

import numpy as np
import pytest

from gfclust import accuracy, ari, kmeans, macro_f1, nmi, one_hot
from gfclust.clustering import _assignment, class_means

from oracles import oracle_accuracy, oracle_ari, oracle_f1_candidates, oracle_nmi

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
