"""GK-means — Alg. 2, the paper's primary contribution.

Boost k-means whose assignment step only considers the clusters where a
point's κ nearest neighbours (from an approximate KNN graph) currently
live.  Per-iteration cost drops from ``O(n·d·k)`` to ``O(n·d·κ)``,
κ ≪ k, which is the paper's speed-up.

Dataflow per iteration (all DataFrame/Catalyst):

1. ``cluster_stats`` — frozen composite vectors/sizes (treeAggregate).
2. candidate collection: graph edges ``(id, nbr)`` joined with the
   current assignment on ``nbr`` then ``collect_set(label)`` per id —
   the set ``Q`` of Alg. 2 lines 6-11 (duplicates collapse, so ``|Q|``
   is usually well below κ, as the paper notes).
3. a ``mapInPandas`` kernel picks the best move per point: Eqn. 3
   (``mode="boost"``) or nearest-centroid-among-candidates
   (``mode="traditional"`` — the paper's "GK-means−" ablation).

Initialisation is the two-means tree, as in Alg. 2 line 3.  The
sequential-to-batch adaptation is the same as in ``core.bkm``
(DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import boost_delta_I, nearest_among_candidates
from repro.common.result import ClusterRun
from repro.common.stats import centroids_from_stats, sum_sq_norms
from repro.common.vectors import to_matrix
from repro.core.bkm import initial_partition, iterate
from repro.core.two_means import STATE_SCHEMA

# Not called here; kept importable because perfbench/spans.py patches them in this module.
from repro.common.stats import cluster_stats  # noqa: F401
from repro.core.two_means import two_means_tree  # noqa: F401


def _pad_candidates(cands) -> np.ndarray:
    """Ragged candidate lists -> (m, cmax) int64 matrix, -1 padded."""
    lists = [np.asarray(c, dtype=np.int64) if c is not None else np.empty(0, np.int64)
             for c in cands]
    cmax = max((len(c) for c in lists), default=0)
    out = np.full((len(lists), max(cmax, 1)), -1, dtype=np.int64)
    for i, c in enumerate(lists):
        out[i, : len(c)] = c
    return out


def candidate_labels(state: DataFrame, edges: DataFrame) -> DataFrame:
    """Alg. 2's Q per point: distinct labels of each id's graph neighbours."""
    nbr_labels = state.select(F.col("id").alias("nbr"), "label")
    return (
        edges.join(nbr_labels, on="nbr")
        .groupBy("id")
        .agg(F.collect_set("label").alias("cands"))
    )


def mean_candidates(cand_df: DataFrame) -> float:
    """Average |Q| of an ``(id, cands)`` relation (one Spark job)."""
    row = cand_df.select(F.avg(F.size("cands")).alias("m")).collect()[0]
    return float(row["m"] or 0.0)


def candidate_move(
    state: DataFrame, cand_df: DataFrame, counts: np.ndarray, sums: np.ndarray, boost: bool
) -> DataFrame:
    """One move pass in which each point only considers its ``cands`` clusters.

    ``boost``: the best positive Eqn.-3 move (GK-means); otherwise the
    nearest candidate centroid (GK-means−, closure k-means).  A point
    with no candidate row keeps its label.  Returns the lazy next state.
    """
    C = None if boost else centroids_from_stats(counts, sums)[0]

    def move(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            lab = pdf["label"].to_numpy(dtype=np.int64)
            cand = _pad_candidates(pdf["cands"])
            if boost:
                tgt, delta = boost_delta_I(X, lab, cand, sums, counts)
                new = np.where(delta > 0, tgt, lab)
            else:
                new = nearest_among_candidates(X, lab, cand, C)
            out = pdf[["id", "features"]].copy()
            out["label"] = new
            yield out

    return state.join(cand_df, on="id", how="left").mapInPandas(move, STATE_SCHEMA)


def gk_means(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    graph_df: DataFrame,
    *,
    mode: str = "boost",
    iters: int = 20,
    seed: int = 0,
    init: str = "2m",
    init_state_df: DataFrame | None = None,
    rel_tol: float = 1e-9,
    track_candidates: bool = False,
    sq_norms: tuple[float, int] | None = None,
) -> ClusterRun:
    """Cluster ``feats_df`` into k clusters guided by ``graph_df`` (id, nbr).

    ``init_state_df`` (id, features, label) bypasses initialisation —
    used by Alg. 3's rounds and by tests.  ``history`` as in
    ``core.bkm``; ``extra["mean_candidates"]`` (with
    ``track_candidates=True``) is the average |Q|, the paper's "number
    of clusters one sample actually visits".  ``sq_norms``: precomputed
    ``(sum ||x||^2, n)`` — callers that invoke gk_means in a loop
    (Alg. 3) pass it to skip re-materialising an already-checkpointed
    ``feats_df`` and re-scanning it.
    """
    if mode not in ("boost", "traditional"):
        raise ValueError(f"unknown mode {mode!r}")
    if sq_norms is None:
        feats = feats_df.select("id", "features").localCheckpoint(eager=True)
        sq_norms = sum_sq_norms(feats)
    else:
        feats = feats_df.select("id", "features")
    edges = graph_df.select("id", "nbr")
    extra: dict = {}

    def move(state, counts, sums):
        cand_df = candidate_labels(state, edges)
        if track_candidates and "mean_candidates" not in extra:
            extra["mean_candidates"] = mean_candidates(cand_df)
        return candidate_move(state, cand_df, counts, sums, boost=mode == "boost")

    def start():
        if init_state_df is not None:
            return init_state_df
        return initial_partition(spark, feats, k, init, seed)

    return iterate(start, k, sq_norms, iters=iters, rel_tol=rel_tol, step=move, extra=extra)
