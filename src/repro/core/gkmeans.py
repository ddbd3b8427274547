"""GK-means — Alg. 2, the paper's primary contribution.

Boost k-means whose assignment step only considers the clusters where a
point's κ nearest neighbours (from an approximate KNN graph) currently
live.  Per-iteration cost drops from ``O(n·d·k)`` to ``O(n·d·κ)``,
κ ≪ k, which is the paper's speed-up.

Dataflow: once per call, the graph's edges become ``(id, nbrs
array<long>)`` lists (``neighbour_lists``) joined onto the 2M-tree start
state; every pass of ``core.bkm.iterate`` reads these checkpointed rows.
An iteration is one ``cluster_stats`` pass, whose ``relabel`` is the move
(``candidate_move``): against the last pass's frozen composite vectors,
sizes and label n-vector, it forms Q of Alg. 2 lines 6-11, the distinct
labels of a row's ``nbrs`` (``kernels.candidate_matrix``; ``|Q|`` is
usually well below κ), and picks the best move: Eqn. 3 (``mode="boost"``)
or the nearest candidate centroid (``mode="traditional"``, the paper's
"GK-means−").  The pass then reduces the new labels.

Initialisation is the two-means tree, as in Alg. 2 line 3.  The
sequential-to-batch adaptation is the same as in ``core.bkm``
(DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import boost_delta_I, candidate_matrix, nearest_among_candidates
from repro.common.result import ClusterRun
from repro.common.stats import centroids_from_stats, sum_sq_norms
from repro.core.bkm import iterate
# Called by this module-level name, which perfbench/spans.py patches.
from repro.core.two_means import two_means_tree

# Not called here; kept importable because perfbench/spans.py patches it in this module.
from repro.common.stats import cluster_stats  # noqa: F401


def neighbour_lists(pairs: DataFrame, n: int) -> DataFrame:
    """``(id, nbr)`` pairs -> checkpointed ``(id, nbrs array<long>)`` per id.  Raises
    ``ValueError`` unless all ids are 0..n-1, observed on the same Spark job."""
    ids = Observation("neighbour ids")
    lists = (
        pairs.observe(ids, F.min(F.least("id", "nbr")).alias("lo"),
                      F.max(F.greatest("id", "nbr")).alias("hi"))
        .groupBy("id").agg(F.collect_list("nbr").alias("nbrs"))
        .localCheckpoint(eager=True)
    )
    lo, hi = ids.get["lo"], ids.get["hi"]
    if lo is not None and (lo < 0 or hi >= n):
        raise ValueError(f"graph ids must be in 0..{n - 1}, found ids in [{lo}, {hi}]")
    return lists


def mean_candidates(df: DataFrame, labels: np.ndarray) -> float:
    """Average |Q| over the rows of ``df`` that have ``nbrs`` (one Spark job)."""

    def sizes(batches):
        for pdf in batches:
            yield pd.DataFrame({"q": (candidate_matrix(pdf["nbrs"], labels) >= 0).sum(axis=1)})

    q = df.select("nbrs").dropna().mapInPandas(sizes, "q long").toPandas()["q"]
    return float(q.mean()) if len(q) else 0.0


def candidate_move(labels: np.ndarray, counts: np.ndarray, sums: np.ndarray, boost: bool):
    """The move in which each point only considers the clusters Q of its
    row's ``nbrs``, formed from the label vector ``labels``.

    ``boost``: the best positive Eqn.-3 move (GK-means); otherwise the
    nearest candidate centroid (GK-means−, closure k-means).  A point
    without ``nbrs`` keeps its label.  Returns ``cluster_stats``' per-batch
    ``relabel`` function.
    """
    C = None if boost else centroids_from_stats(counts, sums)[0]

    def relabel(pdf, X):
        lab = labels[pdf["id"].to_numpy()]
        cand = candidate_matrix(pdf["nbrs"], labels)
        if boost:
            tgt, delta = boost_delta_I(X, lab, cand, sums, counts)
            return np.where(delta > 0, tgt, lab)
        return nearest_among_candidates(X, lab, cand, C)

    return relabel


def with_neighbours(state: DataFrame, nbrs_df: DataFrame) -> DataFrame:
    """Checkpointed ``state`` rows, each with its ``nbrs`` (null for none);
    unpersists both inputs."""
    rows = state.join(nbrs_df, on="id", how="left").localCheckpoint(eager=True)
    state.unpersist()
    nbrs_df.unpersist()
    return rows


def gk_means(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    graph_df: DataFrame,
    *,
    mode: str = "boost",
    iters: int = 20,
    seed: int = 0,
    rel_tol: float = 1e-9,
    track_candidates: bool = False,
    sq_norms: tuple[float, int] | None = None,
) -> ClusterRun:
    """Cluster ``feats_df`` into k clusters guided by ``graph_df`` (id, nbr);
    all ids must be 0..n-1, or ``ValueError`` is raised before the first move.

    ``history`` as in ``core.bkm``; ``extra["mean_candidates"]`` (with
    ``track_candidates=True``) is the average |Q| at the first move, the
    paper's "number of clusters one sample actually visits".  ``sq_norms``:
    precomputed ``(sum ||x||^2, n)`` — Alg. 3 passes it to skip
    re-materialising and re-scanning an already-checkpointed ``feats_df``.
    """
    if mode not in ("boost", "traditional"):
        raise ValueError(f"unknown mode {mode!r}")
    if sq_norms is None:
        feats = feats_df.select("id", "features").localCheckpoint(eager=True)
        sq_norms = sum_sq_norms(feats)
    else:
        feats = feats_df.select("id", "features")
    n = sq_norms[1]
    extra: dict = {}
    rows: list[DataFrame] = []  # the pass rows, which the |Q| average reads

    def start():
        nbrs_df = neighbour_lists(graph_df.select("id", "nbr"), n)
        rows.append(with_neighbours(two_means_tree(spark, feats, k, seed=seed), nbrs_df))
        return rows[0]

    def move(labels, counts, sums):
        if track_candidates and "mean_candidates" not in extra:
            extra["mean_candidates"] = mean_candidates(rows[0], labels)
        return candidate_move(labels, counts, sums, boost=mode == "boost")

    return iterate(start, k, sq_norms, iters=iters, rel_tol=rel_tol, step=move, extra=extra)
