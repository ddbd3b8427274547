"""Extra DuckDB oracle checks for query-shaped Spark computations used
throughout the reproduction (joins, aggregations, windows)."""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.oracle import assert_equivalent


class TestGraphQueriesOracle:
    def test_top_kappa_window_matches_sql(self, spark, feats_small):
        """The Alg.-3 merge (groupBy-min + row_number window) vs DuckDB."""
        from repro.core.knn_graph import random_graph, top_kappa
        from repro.baselines.nn_descent import edge_distances

        g = edge_distances(
            feats_small, random_graph(spark, feats_small, 8, seed=3)
        )
        got = top_kappa(g, 3).select("id", "nbr", F.round("dist", 6).alias("dist"))
        gpdf = g.toPandas()
        assert_equivalent(
            got,
            """WITH dedup AS (
                   SELECT id, nbr, min(dist) AS dist FROM g GROUP BY id, nbr
               ), ranked AS (
                   SELECT id, nbr, round(dist, 6) AS dist,
                          row_number() OVER (PARTITION BY id
                                             ORDER BY dist, nbr) AS rk
                   FROM dedup
               )
               SELECT id, nbr, dist FROM ranked WHERE rk <= 3""",
            g=gpdf,
        )

    def test_two_hop_expansion_matches_sql(self, spark, feats_small):
        """NN-Descent's neighbour-of-neighbour join vs DuckDB."""
        from repro.core.knn_graph import random_graph

        B = random_graph(spark, feats_small.limit(60), 3, seed=4).select("id", "nbr")
        got = (
            B.alias("a")
            .join(B.alias("b"), F.col("a.nbr") == F.col("b.id"))
            .select(F.col("a.id").alias("id"), F.col("b.nbr").alias("nbr"))
            .filter(F.col("id") != F.col("nbr"))
            .distinct()
        )
        bp = B.toPandas()
        assert_equivalent(
            got,
            """SELECT DISTINCT a.id AS id, b.nbr AS nbr
               FROM b a JOIN b b ON a.nbr = b.id
               WHERE a.id <> b.nbr""",
            b=bp,
        )

    def test_closure_candidates_match_sql(self, spark, feats_small):
        """Closure sizes from ``cell_neighbours`` + the label vector vs
        DuckDB's two joins."""
        import pandas as pd

        from repro.baselines.closure import build_rp_trees, cell_neighbours
        from repro.common.kernels import candidate_matrix
        from repro.core.bkm import random_partition
        from repro.core.gkmeans import label_vector

        cells = build_rp_trees(spark, feats_small, n_trees=2, leaf_size=20, seed=5)
        lab = random_partition(feats_small, 6, seed=5).select("id", "label")
        nbrs = cell_neighbours(cells, 600).toPandas()
        cand = candidate_matrix(nbrs["nbrs"], label_vector(lab, 600))
        got = spark.createDataFrame(
            pd.DataFrame({"id": nbrs["id"], "n_cand": (cand >= 0).sum(axis=1)})
        )
        assert_equivalent(
            got,
            """WITH cl AS (
                   SELECT DISTINCT c.tree, c.cell, l.label
                   FROM cells c JOIN lab l USING (id)
               )
               SELECT c.id, count(DISTINCT cl.label) AS n_cand
               FROM cells c JOIN cl ON c.tree = cl.tree AND c.cell = cl.cell
               GROUP BY c.id""",
            cells=cells.toPandas(), lab=lab.toPandas(),
        )

    def test_cell_neighbours_match_sql(self, spark, feats_small):
        """``cell_neighbours`` lists every (id, peer) pair sharing a cell,
        once per tree, self included (cells ⋈ cells)."""
        from repro.baselines.closure import build_rp_trees, cell_neighbours

        cells = build_rp_trees(spark, feats_small, n_trees=3, leaf_size=15, seed=6)
        got = cell_neighbours(cells, 600).select("id", F.explode("nbrs").alias("nbr"))
        assert_equivalent(
            got,
            """SELECT a.id, b.id AS nbr
               FROM cells a JOIN cells b ON a.tree = b.tree AND a.cell = b.cell""",
            cells=cells.toPandas(),
        )
