"""NN-Descent / KGraph (Dong et al., WWW 2011 [32]) — the baseline KNN-graph
constructor for the "KGraph+GK-means" configuration (Fig. 4, Tab. 2).

Principle: "a neighbour of a neighbour is also likely to be a
neighbour".  Starting from a random graph, each round proposes every
two-hop pair (over the graph united with its reverse), evaluates the
true distances, and keeps each point's top-κ.  Per-id neighbour
sampling (``sample`` per direction, as in the original's ρ-sampling)
bounds the candidate join to ``n·sample²`` rows.

All steps are DataFrame dataflow: the two-hop expansion is a self-join,
distance evaluation joins the feature table twice and runs a rowwise
``mapInPandas`` kernel, and the top-κ merge reuses
``core.knn_graph.top_kappa``.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.common.vectors import to_matrix
from repro.core.knn_graph import GRAPH_SCHEMA, random_graph, recall_or_none, top_kappa


def edge_distances(feats_df: DataFrame, pairs: DataFrame) -> DataFrame:
    """Attach squared L2 distances to an (id, nbr) pair table."""
    f_src = feats_df.select("id", F.col("features").alias("f_src"))
    f_nbr = feats_df.select(
        F.col("id").alias("nbr"), F.col("features").alias("f_nbr")
    )
    joined = pairs.select("id", "nbr").join(f_src, on="id").join(f_nbr, on="nbr")

    def dist(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            A = to_matrix(pdf["f_src"])
            B = to_matrix(pdf["f_nbr"])
            diff = A - B
            yield pd.DataFrame(
                {
                    "id": pdf["id"].to_numpy(np.int64),
                    "nbr": pdf["nbr"].to_numpy(np.int64),
                    "dist": np.einsum("ij,ij->i", diff, diff),
                }
            )

    return joined.mapInPandas(dist, GRAPH_SCHEMA)


def _sample_per_id(edges: DataFrame, sample: int, seed: int) -> DataFrame:
    w = Window.partitionBy("id").orderBy(F.xxhash64("nbr", F.lit(seed)))
    return (
        edges.withColumn("r", F.row_number().over(w))
        .filter(F.col("r") <= sample)
        .drop("r")
    )


def nn_descent(
    spark: SparkSession,
    feats_df: DataFrame,
    kappa: int,
    *,
    rounds: int = 4,
    sample: int = 8,
    seed: int = 0,
    truth: pd.DataFrame | None = None,
) -> tuple[DataFrame, list[dict]]:
    """Build a κ-NN graph by NN-Descent; returns ``(graph, history)``.

    ``truth`` as in ``core.knn_graph.build_knn_graph`` enables per-round
    recall tracking (excluded from the timed path).  The returned graph
    has the same (id, nbr, dist) schema as Alg. 3's, so GK-means can
    consume either interchangeably.
    """
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)

    t0 = time.perf_counter()
    G = edge_distances(
        feats, random_graph(spark, feats, kappa, seed=seed)
    ).localCheckpoint(eager=True)
    elapsed = time.perf_counter() - t0

    history: list[dict] = [{"round": 0, "elapsed": elapsed, "recall": recall_or_none(G, truth)}]
    for r in range(1, rounds + 1):
        t0 = time.perf_counter()
        fwd = G.select("id", "nbr")
        undirected = fwd.unionByName(
            fwd.select(F.col("nbr").alias("id"), F.col("id").alias("nbr"))
        ).distinct()
        B = _sample_per_id(undirected, sample, seed + 97 * r)
        two_hop = (
            B.alias("a")
            .join(B.alias("b"), F.col("a.nbr") == F.col("b.id"))
            .select(F.col("a.id").alias("id"), F.col("b.nbr").alias("nbr"))
            .filter(F.col("id") != F.col("nbr"))
            .distinct()
        )
        cand = edge_distances(feats, two_hop)
        newG = top_kappa(G.unionByName(cand), kappa).localCheckpoint(eager=True)
        G.unpersist()
        G = newG
        elapsed += time.perf_counter() - t0
        history.append({"round": r, "elapsed": elapsed, "recall": recall_or_none(G, truth)})
    return G, history
