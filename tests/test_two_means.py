"""Tests for the two-means tree (Alg. 1)."""
from __future__ import annotations

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.common.kernels import local_two_means
from repro.common.stats import distortion_from_state
from repro.common.vectors import to_matrix
from repro.core.two_means import _group_seed, two_means_tree


def _replay_tree(ids, X, k, seed, local_iters=8):
    """Alg. 1 level-wise in numpy, sizes counted from the labels.

    Each level splits the ``k - #labels`` largest clusters (ties: lower
    label first); the i-th chosen gets new label ``#labels + i`` and its
    rows are taken in id order.
    """
    order = np.argsort(ids)
    ids, X = ids[order], X[order]
    labels = np.zeros(len(ids), dtype=np.int64)
    level = 0
    while (c := labels.max() + 1) < k:
        counts = np.bincount(labels)
        chosen = np.lexsort((np.arange(c), -counts))[: k - c]
        for new, parent in enumerate(chosen, start=c):
            rows = np.flatnonzero(labels == parent)
            seed_ = _group_seed(seed, int(parent), level)
            side = local_two_means(X[rows], seed_, iters=local_iters)
            labels[rows[side == 1]] = new
        level += 1
    return dict(zip(ids.tolist(), labels.tolist()))


def _labels(state):
    pdf = state.select("id", "label").toPandas()
    return dict(zip(pdf["id"].tolist(), pdf["label"].tolist()))


class TestTwoMeansTree:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 50])
    def test_exactly_k_clusters(self, spark, feats_small, k):
        state = two_means_tree(spark, feats_small, k, seed=1)
        labels = state.select("label").distinct().toPandas()["label"]
        assert sorted(labels) == list(range(k))

    @pytest.mark.parametrize("k", [2, 8, 24])
    def test_balanced_sizes(self, spark, feats_small, k):
        """Alg. 1's equal-size adjustment: sizes within 2x of each other."""
        state = two_means_tree(spark, feats_small, k, seed=2)
        sizes = state.groupBy("label").count().toPandas()["count"]
        assert sizes.max() <= 2 * sizes.min() + 1

    def test_covers_all_points_once(self, spark, feats_small):
        state = two_means_tree(spark, feats_small, 10, seed=3)
        ids = state.select("id").toPandas()["id"]
        assert len(ids) == feats_small.count()
        assert ids.is_unique

    def test_deterministic(self, spark, feats_small):
        a = two_means_tree(spark, feats_small, 6, seed=9).toPandas()
        b = two_means_tree(spark, feats_small, 6, seed=9).toPandas()
        merged = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert (merged["label_a"] == merged["label_b"]).all()

    def test_independent_of_row_order(self, spark, feats_small):
        """Same labels whatever the partitioning and row order of the input."""
        shuffled = feats_small.repartition(7, F.col("features")[0])
        a = _labels(two_means_tree(spark, feats_small, 24, seed=1))
        b = _labels(two_means_tree(spark, shuffled, 24, seed=1))
        assert a == b

    @pytest.mark.parametrize("k", [7, 24])
    def test_matches_numpy_replay(self, spark, feats_small, k):
        """Split order, sizes and per-group seeds match a numpy replay."""
        pdf = feats_small.select("id", "features").toPandas()
        want = _replay_tree(pdf["id"].to_numpy(), to_matrix(pdf["features"]), k, seed=3)
        assert _labels(two_means_tree(spark, feats_small, k, seed=3)) == want

    def test_seed_matters(self, spark, feats_small):
        a = two_means_tree(spark, feats_small, 8, seed=1).toPandas()
        b = two_means_tree(spark, feats_small, 8, seed=2).toPandas()
        merged = a.merge(b, on="id", suffixes=("_a", "_b"))
        assert (merged["label_a"] != merged["label_b"]).any()

    def test_better_than_random_partition(self, spark, feats_mid):
        """Spatial bisection must beat a random partition on distortion."""
        from repro.core.bkm import random_partition

        k = 16
        tree = two_means_tree(spark, feats_mid, k, seed=4)
        rand = random_partition(feats_mid, k, seed=4)
        assert distortion_from_state(tree, k) < 0.8 * distortion_from_state(rand, k)

    def test_k_equals_n(self, spark, feats_small):
        n = feats_small.count()
        state = two_means_tree(spark, feats_small.limit(16), 16, seed=5)
        sizes = state.groupBy("label").count().toPandas()["count"]
        assert (sizes == 1).all()

    def test_k_too_large_raises(self, spark, feats_small):
        with pytest.raises(ValueError, match="exceeds"):
            two_means_tree(spark, feats_small.limit(5), 6, seed=0)

    def test_k_below_one_raises(self, spark, feats_small):
        with pytest.raises(ValueError):
            two_means_tree(spark, feats_small, 0, seed=0)

    def test_separated_modes_recovered(self, spark):
        """With k = #modes, well-separated GMM modes map ~1:1 to clusters."""
        from repro import synth_data as sd

        feats = sd.feature_dataset(
            spark, n=400, d=6, n_modes=4, sigma=0.15, center_scale=8.0, seed=8
        ).localCheckpoint(eager=True)
        state = two_means_tree(spark, feats, 4, seed=6)
        joined = state.join(feats.select("id", "mode"), on="id").toPandas()
        # each cluster should be dominated by a single true mode
        purity = (
            joined.groupby("label")["mode"]
            .agg(lambda s: s.value_counts().iloc[0] / len(s))
            .min()
        )
        assert purity > 0.85
