"""Tests for GK-means (Alg. 2) — the paper's primary contribution.

Key claims under test: candidate sets really are the neighbour-cluster
sets Q (checked against a DuckDB SQL oracle); graph and state ids
outside 0..n-1 are rejected; with a good graph the
quality approaches full BKM while each point visits far fewer than k
clusters; the boost mode beats the traditional mode (Fig. 4's claim).
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.bkm import boost_kmeans
from repro.common.kernels import candidate_matrix
from repro.core.gkmeans import gk_means, label_vector, mean_candidates, neighbour_lists
from repro.core.knn_graph import random_graph
from repro.oracle import assert_equivalent


def _q_sizes(spark, state, graph):
    """|Q| per id as the move forms it: neighbour lists, label vector and
    ``candidate_matrix``, as an (id, q) Spark frame."""
    n = state.count()
    nbrs = neighbour_lists(graph.select("id", "nbr"), n).toPandas()
    labels = label_vector(state, n)
    q = (candidate_matrix(nbrs["nbrs"], labels) >= 0).sum(axis=1)
    return spark.createDataFrame(pd.DataFrame({"id": nbrs["id"], "q": q}))


class TestCandidateLabels:
    def test_matches_sql_oracle(self, spark, feats_small, exact_graph):
        """|Q| per point == DuckDB's count(distinct neighbour label)."""
        from repro.core.two_means import two_means_tree

        state = two_means_tree(spark, feats_small, 8, seed=1)
        got = _q_sizes(spark, state, exact_graph)
        edges = exact_graph.select("id", "nbr").toPandas()
        labels = state.select("id", "label").toPandas()
        assert_equivalent(
            got,
            """SELECT e.id, count(DISTINCT l.label) AS q
               FROM e JOIN l ON e.nbr = l.id GROUP BY e.id""",
            e=edges, l=labels,
        )

    def test_q_at_most_kappa(self, spark, feats_small, exact_graph):
        from repro.core.two_means import two_means_tree

        state = two_means_tree(spark, feats_small, 8, seed=2)
        sizes = _q_sizes(spark, state, exact_graph).toPandas()["q"]
        assert sizes.max() <= 5  # kappa of the exact graph

    def test_mean_candidates_is_mean_q(self, spark, feats_small, exact_graph):
        from repro.core.two_means import two_means_tree

        state = two_means_tree(spark, feats_small, 8, seed=3)
        nbrs = neighbour_lists(exact_graph.select("id", "nbr"), 600)
        labels = label_vector(state, 600)
        want = _q_sizes(spark, state, exact_graph).toPandas()["q"].mean()
        assert mean_candidates(nbrs, labels) == pytest.approx(want, rel=1e-12)


class TestIdValidation:
    @pytest.mark.parametrize("bad_nbr", [-1, 600])
    def test_nbr_outside_0_to_n_minus_1_raises(self, spark, feats_small, exact_graph, bad_nbr):
        bad = exact_graph.withColumn(
            "nbr", F.when(F.col("id") == 7, F.lit(bad_nbr)).otherwise(F.col("nbr"))
        )
        with pytest.raises(ValueError, match="graph ids"):
            gk_means(spark, feats_small, 8, bad, iters=1, seed=1)

    def test_graph_id_outside_0_to_n_minus_1_raises(self, spark, feats_small, exact_graph):
        bad = exact_graph.withColumn("id", F.col("id") + 1)
        with pytest.raises(ValueError, match="graph ids"):
            gk_means(spark, feats_small, 8, bad, iters=1, seed=1)

    def test_state_ids_other_than_0_to_n_minus_1_raise(self, spark, feats_small):
        state = feats_small.select((F.col("id") * 2).alias("id"), F.lit(0).alias("label"))
        with pytest.raises(ValueError, match="state ids"):
            label_vector(state, 600)


class TestGKMeans:
    def test_tracks_bkm_quality_with_exact_graph(
        self, spark, feats_small, exact_graph
    ):
        """Fig. 5's claim: GK-means lands near BKM despite visiting few
        clusters — here with the exact KNN graph, at small scale."""
        k = 12
        gk = gk_means(spark, feats_small, k, exact_graph, iters=10, seed=3)
        bkm = boost_kmeans(spark, feats_small, k, iters=10, seed=3, init="2m")
        assert gk.final_E <= bkm.final_E * 1.15

    def test_beats_init(self, spark, feats_small, exact_graph):
        run = gk_means(spark, feats_small, 10, exact_graph, iters=6, seed=4)
        assert run.final_E < run.history[0]["E"]

    def test_mean_candidates_well_below_k(self, spark, feats_small, exact_graph):
        run = gk_means(
            spark, feats_small, 20, exact_graph, iters=2, seed=5,
            track_candidates=True,
        )
        assert 0 < run.extra["mean_candidates"] <= 5 < 20

    def test_traditional_mode_runs_and_boost_wins(
        self, spark, feats_mid, truth_small
    ):
        """Fig. 4: boost-based GK-means reaches lower E than GK-means-."""
        from repro.baselines.brute_knn import exact_knn

        truth = exact_knn(spark, feats_mid, 5, n_queries=2000, seed=1)
        g = spark.createDataFrame(truth[["id", "nbr", "dist"]]).localCheckpoint(
            eager=True
        )
        k = 40
        boost = gk_means(spark, feats_mid, k, g, mode="boost", iters=8, seed=6)
        trad = gk_means(spark, feats_mid, k, g, mode="traditional", iters=8, seed=6)
        assert boost.final_E <= trad.final_E * 1.02

    def test_random_graph_still_improves(self, spark, feats_small):
        g = random_graph(spark, feats_small, 5, seed=7)
        run = gk_means(spark, feats_small, 10, g, iters=5, seed=7)
        assert run.final_E <= run.history[0]["E"]

    def test_init_state_bypass(self, spark, feats_small, exact_graph):
        from repro.core.two_means import two_means_tree

        state0 = two_means_tree(spark, feats_small, 6, seed=8)
        run = gk_means(
            spark, feats_small, 6, exact_graph, iters=3, seed=8,
            init_state_df=state0,
        )
        assert run.init_s < 0.5  # no 2M tree built inside
        assert run.final_E <= run.history[0]["E"]

    def test_sq_norms_shortcut_same_result(self, spark, feats_small, exact_graph):
        from repro.common.stats import sum_sq_norms

        sq = sum_sq_norms(feats_small)
        a = gk_means(spark, feats_small, 8, exact_graph, iters=3, seed=9)
        b = gk_means(
            spark, feats_small, 8, exact_graph, iters=3, seed=9, sq_norms=sq
        )
        assert a.final_E == pytest.approx(b.final_E, rel=1e-9)

    def test_bad_mode_raises(self, spark, feats_small, exact_graph):
        with pytest.raises(ValueError, match="unknown mode"):
            gk_means(spark, feats_small, 4, exact_graph, mode="x")

    def test_bad_init_raises(self, spark, feats_small, exact_graph):
        with pytest.raises(ValueError, match="unknown init"):
            gk_means(spark, feats_small, 4, exact_graph, init="x")

    def test_all_points_retained(self, spark, feats_small, exact_graph):
        run = gk_means(spark, feats_small, 8, exact_graph, iters=4, seed=10)
        ids = run.state.select("id").toPandas()["id"]
        assert len(ids) == feats_small.count() and ids.is_unique
