"""KNN-graph construction with fast k-means — Alg. 3, the paper's second
contribution.

Start from a *random* KNN graph; repeat τ times: (1) call GK-means
(Alg. 2, one boost pass, fresh 2M-tree init per round — Alg. 2 line 3)
to partition the data into ``k0 = n/ξ`` tiny clusters guided by the
current graph; (2) exhaustively compare points inside each cluster and
merge the discovered pairs into every member's top-κ list.  Graph and
clustering evolve together (Fig. 3); graph quality (recall) rises with
τ while the ξ-clustering distortion falls (Fig. 2).

Graph representation: a long-format DataFrame ``(id, nbr, dist)`` where
``dist`` is the *squared* L2 distance (monotone in L2, so rankings and
recall are unaffected).  Random initial edges carry ``dist = +inf`` so
any genuinely compared pair displaces them in the top-κ merge; until
then they serve as the exploration edges Alg. 3 needs.

The per-round merge is pure Catalyst: union, ``groupBy(id, nbr).min``
dedup, then a ``row_number`` window keeps the κ best per id.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.common.kernels import pairwise_topk
from repro.common.vectors import hash_uniforms, to_matrix
from repro.core.gkmeans import gk_means
from repro.common.stats import sum_sq_norms

GRAPH_SCHEMA = "id long, nbr long, dist double"


def random_graph(
    spark: SparkSession, feats_df: DataFrame, kappa: int, *, seed: int = 0
) -> DataFrame:
    """κ random distinct neighbours per id (≠ self), dist = +inf.

    Requires contiguous ids ``0..n-1`` (as produced by
    ``synth_data.feature_dataset``) so neighbours can be sampled without
    materialising the id universe.  Raises ``ValueError`` when the row
    count, smallest and largest id do not fit that layout.
    """
    row = feats_df.agg(F.count("*"), F.min("id"), F.max("id")).collect()[0]
    n, lo, hi = row[0], row[1], row[2]
    if n < 2:
        raise ValueError("need at least 2 points for a graph")
    if lo != 0 or hi != n - 1:
        raise ValueError(f"ids must be 0..n-1: {n} rows with ids in [{lo}, {hi}]")
    kap = min(kappa, n - 1)

    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy(dtype=np.int64)
            m = len(ids)
            if m == 0:
                continue
            counters = (
                ids.astype(np.uint64)[:, None] * np.uint64(kap)
                + np.arange(kap, dtype=np.uint64)[None, :]
            )
            u = hash_uniforms(counters, seed + 31_337)
            nbr = np.minimum((u * (n - 1)).astype(np.int64), n - 2)
            nbr = nbr + (nbr >= ids[:, None])  # skip self
            src = np.repeat(ids, kap)
            flat = nbr.ravel()
            pairs = pd.DataFrame({"id": src, "nbr": flat})
            pairs = pairs.drop_duplicates()  # rare within-row collisions
            pairs["dist"] = np.inf
            yield pairs

    return feats_df.select("id").mapInPandas(gen, GRAPH_SCHEMA)


def top_kappa(graph_df: DataFrame, kappa: int) -> DataFrame:
    """Keep each id's κ best (smallest-dist) distinct neighbours."""
    dedup = graph_df.groupBy("id", "nbr").agg(F.min("dist").alias("dist"))
    w = Window.partitionBy("id").orderBy(F.col("dist").asc(), F.col("nbr").asc())
    return (
        dedup.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= kappa)
        .drop("rank")
    )


def in_cluster_pairs(state: DataFrame, kappa: int, max_cluster: int) -> DataFrame:
    """Alg. 3 lines 8-13: per cluster, each member's in-cluster top-κ.

    ``max_cluster`` is an engineering guard (DESIGN.md §3): a cluster
    bloated by a batch boost round is deterministically subsampled so
    the O(s²·d) comparison stays bounded; balanced 2M-tree clusters
    never hit it.  Rows are sorted by ``id``: distances must not depend on row order.
    """

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("id", ignore_index=True)
        if len(pdf) > max_cluster:
            u = hash_uniforms(pdf["id"].to_numpy(dtype=np.uint64), 4_242)
            pdf = pdf.iloc[np.argsort(u)[:max_cluster]]
        ids = pdf["id"].to_numpy(dtype=np.int64)
        X = to_matrix(pdf["features"])
        src, nbr, dist = pairwise_topk(ids, X, kappa)
        return pd.DataFrame({"id": src, "nbr": nbr, "dist": dist})

    return state.groupBy("label").applyInPandas(pairs, GRAPH_SCHEMA)


def build_knn_graph(
    spark: SparkSession,
    feats_df: DataFrame,
    kappa: int,
    *,
    xi: int = 50,
    tau: int = 8,
    seed: int = 0,
    boost_iters: int = 1,
    truth: pd.DataFrame | None = None,
) -> tuple[DataFrame, list[dict]]:
    """Run Alg. 3; returns ``(graph, history)``.

    ``truth`` (optional): pandas (id, nbr) with each sampled id's exact
    nearest neighbour; when given, per-round graph recall is recorded in
    the history (evaluation time excluded from ``elapsed``).
    ``history[t]`` = {round, elapsed, xi_E (distortion of the round's
    ξ-clustering), recall}.
    """
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)
    sq = sum_sq_norms(feats)
    n = sq[1]
    k0 = max(1, n // xi)
    max_cluster = max(4 * xi, 200)

    t0 = time.perf_counter()
    G = random_graph(spark, feats, kappa, seed=seed).localCheckpoint(eager=True)
    elapsed = time.perf_counter() - t0

    history: list[dict] = [
        {"round": 0, "elapsed": elapsed, "xi_E": None,
         "recall": recall_or_none(G, truth)}
    ]
    for t in range(1, tau + 1):
        t0 = time.perf_counter()
        run = gk_means(
            spark, feats, k0, G,
            iters=boost_iters, seed=seed * 1009 + t, init="2m", sq_norms=sq,
        )
        pairs = in_cluster_pairs(run.state, kappa, max_cluster)
        newG = top_kappa(G.unionByName(pairs), kappa).localCheckpoint(eager=True)
        run.state.unpersist()
        G.unpersist()
        G = newG
        elapsed += time.perf_counter() - t0
        history.append(
            {"round": t, "elapsed": elapsed, "xi_E": run.final_E,
             "recall": recall_or_none(G, truth)}
        )
    return G, history


def recall_or_none(graph_df: DataFrame, truth: pd.DataFrame | None) -> float | None:
    """``metrics.graph_recall``, or ``None`` without a ``truth`` sample."""
    if truth is None:
        return None
    from repro.core.metrics import graph_recall

    return graph_recall(graph_df, truth)
