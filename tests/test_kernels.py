"""Unit + property tests for the pure numeric kernels.

The central check: the incremental ``delta_I`` of Eqn. 3 must equal the
brute-force recomputation of the objective I (Eqn. 2) before/after the
move — if this holds, every boost move in the Spark layers is exact.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import kernels as K


def brute_I(X: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Direct Eqn. 2: sum over clusters of ||D_r||^2 / n_r."""
    total = 0.0
    for r in range(k):
        m = labels == r
        if m.any():
            D = X[m].sum(axis=0)
            total += float(D @ D) / m.sum()
    return total


class TestSquaredDistances:
    def test_vs_naive(self):
        rng = np.random.default_rng(1)
        X, C = rng.standard_normal((20, 5)), rng.standard_normal((7, 5))
        naive = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(K.squared_distances(X, C), naive, atol=1e-9)

    def test_self_distance_zero(self):
        X = np.random.default_rng(2).standard_normal((10, 4))
        d2 = K.squared_distances(X, X)
        np.testing.assert_allclose(np.diag(d2), 0.0, atol=1e-9)

    def test_non_negative(self):
        X = np.random.default_rng(3).standard_normal((50, 3)) * 1e-8
        assert K.squared_distances(X, X).min() >= 0.0


class TestAssignNearest:
    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_matches_argmin(self, block):
        rng = np.random.default_rng(4)
        X, C = rng.standard_normal((30, 6)), rng.standard_normal((5, 6))
        lab, dist = K.assign_nearest(X, C, block=block)
        naive = K.squared_distances(X, C)
        np.testing.assert_array_equal(lab, naive.argmin(1))
        np.testing.assert_allclose(dist, naive.min(1), atol=1e-9)

    def test_empty(self):
        lab, dist = K.assign_nearest(np.empty((0, 3)), np.ones((2, 3)))
        assert len(lab) == 0 and len(dist) == 0


class TestObjectiveTerms:
    def test_empty_cluster_zero(self):
        D = np.array([[1.0, 2.0], [0.0, 0.0]])
        counts = np.array([2, 0])
        terms = K.objective_terms(D, counts)
        assert terms[1] == 0.0
        assert terms[0] == pytest.approx(5.0 / 2)


class TestBoostDeltaI:
    def _delta_via_kernel(self, X, labels, i, v, D, counts):
        cand = np.full((len(X), 1), -1, dtype=np.int64)
        cand[i, 0] = v
        tgt, delta = K.boost_delta_I(X, labels, cand, D, counts)
        return tgt[i], delta[i]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(4, 12))
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(2, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        X = rng.standard_normal((n, d))
        labels = rng.integers(0, k, n)
        i = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, k - 1))
        u = labels[i]
        if v == u or (labels == u).sum() < 2 or (labels == v).sum() < 1:
            return  # covered by dedicated edge-case tests below
        D = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        for r in range(k):
            m = labels == r
            counts[r] = m.sum()
            D[r] = X[m].sum(axis=0)
        _, delta = self._delta_via_kernel(X, labels, i, v, D, counts)
        after = labels.copy()
        after[i] = v
        expected = brute_I(X, after, k) - brute_I(X, labels, k)
        assert delta == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_singleton_source_forbidden(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = np.array([0, 1, 1])
        D = np.array([X[0], X[1] + X[2]])
        counts = np.array([1, 2])
        cand = np.array([[1], [-1], [-1]])
        _, delta = K.boost_delta_I(X, labels, cand, D, counts)
        assert delta[0] == -np.inf

    def test_padding_and_self_candidates_ignored(self):
        X = np.random.default_rng(5).standard_normal((6, 3))
        labels = np.array([0, 0, 0, 1, 1, 1])
        D = np.stack([X[:3].sum(0), X[3:].sum(0)])
        counts = np.array([3, 3])
        cand = np.tile(np.array([[-1, 0, -1]]), (6, 1))
        cand[0] = [-1, -1, -1]
        _, delta = K.boost_delta_I(X, labels, cand, D, counts)
        assert delta[0] == -np.inf  # all padding
        assert delta[3] > -np.inf  # cluster 0 is a real option for pts in 1

    def test_obvious_good_move_is_positive(self):
        """A point sitting inside another cluster must want to move there."""
        rng = np.random.default_rng(6)
        a = rng.standard_normal((10, 2)) * 0.1
        b = rng.standard_normal((10, 2)) * 0.1 + 100.0
        X = np.vstack([a, b])
        labels = np.array([0] * 10 + [1] * 10)
        labels[0] = 1  # misplace one point of cluster a into b
        D = np.stack([X[labels == 0].sum(0), X[labels == 1].sum(0)])
        counts = np.array([9, 11])
        cand = np.tile(np.array([[0, 1]]), (20, 1))
        tgt, delta = K.boost_delta_I(X, labels, cand, D, counts)
        assert tgt[0] == 0 and delta[0] > 0

    def test_empty_input(self):
        t, d = K.boost_delta_I(
            np.empty((0, 2)), np.empty(0, np.int64), np.empty((0, 1), np.int64),
            np.ones((2, 2)), np.ones(2, np.int64),
        )
        assert len(t) == 0 and len(d) == 0


class TestBoostBestMoveFull:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_agrees_with_candidate_kernel(self, seed):
        """Full-candidate kernel == boost_delta_I given all clusters."""
        rng = np.random.default_rng(seed)
        n, d, k = 40, 4, 5
        X = rng.standard_normal((n, d))
        labels = rng.integers(0, k, n)
        D = np.zeros((k, d))
        counts = np.bincount(labels, minlength=k)
        for r in range(k):
            D[r] = X[labels == r].sum(axis=0)
        cand = np.tile(np.arange(k), (n, 1))
        t1, d1 = K.boost_delta_I(X, labels, cand, D, counts)
        t2, d2 = K.boost_best_move_full(X, labels, D, counts)
        keep = counts[t1] > 0  # full kernel excludes empty clusters
        np.testing.assert_allclose(d1[keep], d2[keep], rtol=1e-9, atol=1e-9)

    def test_never_targets_empty_cluster(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 3))
        labels = rng.integers(0, 2, 20)  # clusters 2,3 empty
        D = np.zeros((4, 3))
        counts = np.zeros(4, dtype=np.int64)
        for r in range(2):
            m = labels == r
            counts[r], D[r] = m.sum(), X[m].sum(0)
        tgt, delta = K.boost_best_move_full(X, labels, D, counts)
        assert np.all(tgt[delta > -np.inf] < 2)


class TestNearestAmongCandidates:
    def test_restricted_argmin(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((15, 4))
        C = rng.standard_normal((6, 4))
        labels = rng.integers(0, 6, 15)
        cand = rng.integers(0, 6, (15, 3))
        out = K.nearest_among_candidates(X, labels, cand, C)
        for i in range(15):
            opts = np.unique(np.r_[labels[i], cand[i]])
            dists = ((X[i] - C[opts]) ** 2).sum(1)
            assert ((X[i] - C[out[i]]) ** 2).sum() == pytest.approx(dists.min())

    def test_all_padding_keeps_label(self):
        X = np.ones((3, 2))
        C = np.zeros((2, 2))
        labels = np.array([1, 0, 1])
        cand = np.full((3, 2), -1, dtype=np.int64)
        np.testing.assert_array_equal(
            K.nearest_among_candidates(X, labels, cand, C), labels
        )


class TestLocalTwoMeans:
    @pytest.mark.parametrize("n", [2, 3, 10, 101, 500])
    def test_balanced(self, n):
        X = np.random.default_rng(n).standard_normal((n, 3))
        side = K.local_two_means(X, seed=1)
        assert (side == 0).sum() == (n + 1) // 2
        assert (side == 1).sum() == n // 2

    def test_separates_two_blobs(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.standard_normal((25, 2)),
                       rng.standard_normal((25, 2)) + 50])
        side = K.local_two_means(X, seed=3)
        assert len(np.unique(side[:25])) == 1
        assert len(np.unique(side[25:])) == 1
        assert side[0] != side[25]

    def test_single_point(self):
        assert K.local_two_means(np.ones((1, 2)), 0).tolist() == [0]

    def test_identical_points_still_balanced(self):
        n = 11
        side = K.local_two_means(np.ones((n, 2)), seed=5)
        assert (side == 0).sum() == (n + 1) // 2
        assert (side == 1).sum() == n // 2

    def test_deterministic(self):
        X = np.random.default_rng(10).standard_normal((30, 4))
        np.testing.assert_array_equal(
            K.local_two_means(X, 7), K.local_two_means(X, 7)
        )


class TestRpSplit:
    @pytest.mark.parametrize("n", [2, 9, 100])
    def test_balanced(self, n):
        X = np.random.default_rng(n).standard_normal((n, 4))
        side = K.rp_split(X, seed=2)
        assert (side == 0).sum() == (n + 1) // 2
        assert (side == 1).sum() == n // 2

    def test_deterministic_in_seed(self):
        X = np.random.default_rng(11).standard_normal((40, 5))
        np.testing.assert_array_equal(K.rp_split(X, 9), K.rp_split(X, 9))
        assert not np.array_equal(K.rp_split(X, 9), K.rp_split(X, 10))


class TestPairwiseTopk:
    def test_vs_naive(self):
        rng = np.random.default_rng(12)
        ids = np.arange(100, 112)
        X = rng.standard_normal((12, 3))
        src, nbr, dist = K.pairwise_topk(ids, X, kappa=4)
        d2 = K.squared_distances(X, X)
        np.fill_diagonal(d2, np.inf)
        for i in range(12):
            mine = dist[src == ids[i]]
            expected = np.sort(d2[i])[:4]
            np.testing.assert_allclose(np.sort(mine), expected, atol=1e-9)

    def test_no_self_edges(self):
        ids = np.arange(8)
        X = np.random.default_rng(13).standard_normal((8, 2))
        src, nbr, _ = K.pairwise_topk(ids, X, kappa=3)
        assert np.all(src != nbr)

    def test_kappa_larger_than_cluster(self):
        ids = np.arange(3)
        X = np.random.default_rng(14).standard_normal((3, 2))
        src, nbr, _ = K.pairwise_topk(ids, X, kappa=10)
        assert len(src) == 3 * 2  # each point gets the other 2

    def test_tiny_inputs(self):
        src, nbr, dist = K.pairwise_topk(np.array([5]), np.ones((1, 2)), 3)
        assert len(src) == 0


class TestCandidateMatrix:
    def test_example(self):
        labels = np.array([4, 4, 1, 0, 1])
        cand = K.candidate_matrix([[0, 1, 2], None, [3, 4, 2, 3], []], labels)
        assert cand.tolist() == [[1, 4], [-1, -1], [0, 1], [-1, -1]]

    def test_no_rows(self):
        assert K.candidate_matrix([], np.array([0, 1])).shape == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=12)),
                 max_size=15),
    )))
    def test_rows_are_sorted_distinct_neighbour_labels(self, case):
        labels, nbrs = np.array(case[0]), case[1]
        cand = K.candidate_matrix(nbrs, labels)
        assert cand.shape[0] == len(nbrs) and cand.shape[1] >= 1
        for row, ids in zip(cand, nbrs):
            q = row[row >= 0]
            assert np.all(row[len(q):] == -1)  # padding only after Q
            assert q.tolist() == sorted(set(labels[ids or []].tolist()))
