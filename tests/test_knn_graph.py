"""Tests for Alg. 3 — the intertwined KNN-graph construction."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.knn_graph import (
    build_knn_graph,
    in_cluster_pairs,
    random_graph,
    top_kappa,
)


class TestRandomGraph:
    def test_no_self_loops(self, spark, feats_small):
        g = random_graph(spark, feats_small, 6, seed=1).toPandas()
        assert (g["id"] != g["nbr"]).all()

    def test_at_most_kappa_per_id(self, spark, feats_small):
        g = random_graph(spark, feats_small, 6, seed=2).toPandas()
        assert g.groupby("id").size().max() <= 6

    def test_every_id_has_neighbours(self, spark, feats_small):
        g = random_graph(spark, feats_small, 6, seed=3).toPandas()
        assert g["id"].nunique() == feats_small.count()

    def test_nbrs_in_universe(self, spark, feats_small):
        n = feats_small.count()
        g = random_graph(spark, feats_small, 4, seed=4).toPandas()
        assert g["nbr"].between(0, n - 1).all()

    def test_initial_dist_inf(self, spark, feats_small):
        g = random_graph(spark, feats_small, 4, seed=5).toPandas()
        assert np.isinf(g["dist"]).all()

    def test_deterministic(self, spark, feats_small):
        a = random_graph(spark, feats_small, 5, seed=6).toPandas()
        b = random_graph(spark, feats_small, 5, seed=6).toPandas()
        key = lambda df: df.sort_values(["id", "nbr"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(key(a)[["id", "nbr"]], key(b)[["id", "nbr"]])

    def test_kappa_clamped_for_tiny_n(self, spark, feats_small):
        g = random_graph(spark, feats_small.limit(3), 10, seed=7).toPandas()
        assert g.groupby("id").size().max() <= 2

    @pytest.mark.parametrize("ids", ["id + 1", "id * 2"])
    def test_rejects_ids_other_than_0_to_n_minus_1(self, spark, feats_small, ids):
        with pytest.raises(ValueError, match="0..n-1"):
            random_graph(spark, feats_small.withColumn("id", F.expr(ids)), 4, seed=8)


class TestTopKappa:
    def test_keeps_k_smallest_distinct(self, spark):
        pdf = pd.DataFrame(
            {
                "id": [1, 1, 1, 1, 2, 2],
                "nbr": [5, 6, 5, 7, 8, 9],
                "dist": [3.0, 1.0, 2.0, 9.0, 0.5, np.inf],
            }
        )
        out = top_kappa(spark.createDataFrame(pdf), 2).toPandas()
        one = out[out["id"] == 1].sort_values("dist")
        assert one["nbr"].tolist() == [6, 5]  # dup (1,5) deduped to min=2.0
        assert one["dist"].tolist() == [1.0, 2.0]
        assert len(out[out["id"] == 2]) == 2  # inf edges kept if room

    def test_idempotent(self, spark, feats_small):
        g = random_graph(spark, feats_small, 5, seed=1)
        once = top_kappa(g, 5).toPandas().sort_values(["id", "nbr"])
        twice = top_kappa(top_kappa(g, 5), 5).toPandas().sort_values(["id", "nbr"])
        pd.testing.assert_frame_equal(
            once.reset_index(drop=True), twice.reset_index(drop=True)
        )


class TestInClusterPairs:
    def test_pairs_only_within_clusters(self, spark, feats_small):
        from repro.core.two_means import two_means_tree

        state = two_means_tree(spark, feats_small, 6, seed=1)
        pairs = in_cluster_pairs(state, kappa=4, max_cluster=1000)
        lab = state.select("id", "label")
        joined = (
            pairs.join(lab, on="id")
            .join(
                lab.select(F.col("id").alias("nbr"),
                           F.col("label").alias("nbr_label")),
                on="nbr",
            )
        )
        cross = joined.filter(F.col("label") != F.col("nbr_label")).count()
        assert cross == 0

    def test_distances_correct(self, spark, feats_small):
        from repro.core.two_means import two_means_tree

        state = two_means_tree(spark, feats_small, 6, seed=2)
        pairs = in_cluster_pairs(state, kappa=3, max_cluster=1000).toPandas()
        pdf = feats_small.toPandas().set_index("id")
        X = {i: np.asarray(f) for i, f in zip(pdf.index, pdf["features"])}
        sample = pairs.sample(50, random_state=0)
        for _, r in sample.iterrows():
            expected = float(((X[r["id"]] - X[r["nbr"]]) ** 2).sum())
            assert r["dist"] == pytest.approx(expected, rel=1e-9)

    def test_max_cluster_guard(self, spark, feats_small):
        state = feats_small.select("id", "features").withColumn(
            "label", F.lit(0).cast("long")
        )
        pairs = in_cluster_pairs(state, kappa=2, max_cluster=50).toPandas()
        assert pairs["id"].nunique() <= 50


class TestBuildKnnGraph:
    @pytest.fixture(scope="class")
    def built(self, spark, feats_small, truth_small):
        return build_knn_graph(
            spark, feats_small, kappa=6, xi=20, tau=3, seed=1, truth=truth_small
        )

    def test_recall_improves_over_random(self, built):
        _, hist = built
        assert hist[-1]["recall"] > hist[0]["recall"] + 0.3

    def test_recall_history_monotone_ish(self, built):
        _, hist = built
        recalls = [h["recall"] for h in hist]
        assert recalls[-1] == max(recalls)

    def test_graph_invariants(self, built, feats_small):
        g, _ = built
        pdf = g.toPandas()
        assert (pdf["id"] != pdf["nbr"]).all()
        assert pdf.groupby("id").size().max() <= 6
        assert not pdf.duplicated(["id", "nbr"]).any()
        assert pdf["id"].nunique() == feats_small.count()

    def test_xi_distortion_falls(self, built):
        """Fig. 2: the ξ-clustering improves as the graph improves."""
        _, hist = built
        xs = [h["xi_E"] for h in hist if h["xi_E"] is not None]
        assert xs[-1] <= xs[0]

    def test_real_distances_dominate(self, built):
        g, _ = built
        pdf = g.toPandas()
        assert np.isfinite(pdf["dist"]).mean() > 0.95

    def test_final_recall_strong_at_small_scale(self, built):
        _, hist = built
        assert hist[-1]["recall"] > 0.6
