"""Traditional k-means (Lloyd, 1982) on DataFrames — the paper's "k-means".

Assignment is an argmin kernel against the (k, d) centroid matrix: a
``mapInPandas`` for the start state, then the per-batch ``relabel`` of
each iteration's treeAggregate-style ``cluster_stats`` pass, which also
reduces the statistics of the next centroids.  Per-iteration cost is
``O(n·d·k)`` — the bottleneck the paper attacks.  Initial centroids are
k distinct samples picked by a seeded hash order (the classical Forgy
init).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import assign_nearest
from repro.common.result import ClusterRun
from repro.common.stats import centroids_from_stats, sum_sq_norms
from repro.common.vectors import to_matrix
from repro.core.bkm import iterate
from repro.core.two_means import STATE_SCHEMA


def sample_rows(feats_df: DataFrame, k: int, seed: int) -> np.ndarray:
    """k distinct feature rows in deterministic hash order -> (k, d) matrix."""
    pdf = (
        feats_df.select("id", "features")
        .orderBy(F.xxhash64(F.col("id"), F.lit(seed)))
        .limit(k)
        .toPandas()
    )
    if len(pdf) < k:
        raise ValueError(f"k={k} exceeds n={len(pdf)}")
    return to_matrix(pdf["features"])


def assign_to_centroids(feats_df: DataFrame, centroids: np.ndarray) -> DataFrame:
    """(id, features) -> (id, features, label) by nearest-centroid argmin."""
    C = np.ascontiguousarray(centroids, dtype=np.float64)

    def assign(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            lab, _ = assign_nearest(X, C)
            out = pdf[["id", "features"]].copy()
            out["label"] = lab
            yield out

    return feats_df.select("id", "features").mapInPandas(assign, STATE_SCHEMA)


def lloyd_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    seed: int = 0,
    rel_tol: float = 1e-9,
    init_centroids: np.ndarray | None = None,
) -> ClusterRun:
    """Standard Lloyd iterations; history tracks E of each assignment.

    ``init_centroids`` (k, d) overrides the Forgy sampling — used by
    tests and for controlled-initialisation comparisons.  Init includes
    the first assignment; ``extra["centroids"]`` are the centroids the
    returned labels were assigned to.
    """
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)
    centroids: list[np.ndarray] = []  # [i]: what history row i's labels are nearest to

    def start():
        if init_centroids is not None:
            C = np.ascontiguousarray(init_centroids, dtype=np.float64)
            if C.shape[0] != k:
                raise ValueError(f"init_centroids has {C.shape[0]} rows, need k={k}")
        else:
            C = sample_rows(feats, k, seed)
        centroids.append(C)
        return assign_to_centroids(feats, C).localCheckpoint(eager=True)

    def reassign(labels, counts, sums):
        newC, nonempty = centroids_from_stats(counts, sums)
        # an empty cluster keeps its previous centroid
        C = np.where(nonempty[:, None], newC, centroids[-1])
        centroids.append(C)
        return lambda pdf, X: assign_nearest(X, C)[0]

    run = iterate(start, k, sum_sq_norms(feats), iters=iters, rel_tol=rel_tol, step=reassign)
    run.extra["centroids"] = centroids[len(run.history) - 1]
    return run
