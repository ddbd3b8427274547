"""GK-means — Alg. 2, the paper's primary contribution.

Boost k-means whose assignment step only considers the clusters where a
point's κ nearest neighbours (from an approximate KNN graph) currently
live.  Per-iteration cost drops from ``O(n·d·k)`` to ``O(n·d·κ)``,
κ ≪ k, which is the paper's speed-up.

Dataflow: once per call, the graph's edges become checkpointed
``(id, nbrs array<long>)`` lists (``neighbour_lists``).  Per iteration:

1. ``cluster_stats`` — frozen composite vectors/sizes (treeAggregate).
2. ``label_vector`` — the state's labels as an n-vector indexed by id.
3. one join, state ⋈ nbrs on id; a ``mapInPandas`` kernel forms Q of
   Alg. 2 lines 6-11, the distinct labels of a point's neighbours
   (``kernels.candidate_matrix``; ``|Q|`` is usually well below κ), and
   picks the best move: Eqn. 3 (``mode="boost"``) or the nearest
   candidate centroid (``mode="traditional"``, the paper's "GK-means−").

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
from repro.common.vectors import to_matrix
from repro.core.bkm import initial_partition, iterate
from repro.core.two_means import STATE_SCHEMA

# Not called here; kept importable because perfbench/spans.py patches them in this module.
from repro.common.stats import cluster_stats  # noqa: F401
from repro.core.two_means import two_means_tree  # noqa: F401


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


def label_vector(state: DataFrame, n: int) -> np.ndarray:
    """The state's labels indexed by id (one small Spark job); ids must be 0..n-1."""
    pdf = state.select("id", "label").toPandas().sort_values("id")
    if not np.array_equal(pdf["id"].to_numpy(), np.arange(n)):
        raise ValueError(f"state ids must be exactly 0..{n - 1}")
    return pdf["label"].to_numpy(dtype=np.int64)


def mean_candidates(nbrs_df: DataFrame, labels: np.ndarray) -> float:
    """Average |Q| over the ids of ``nbrs_df``, which all have a neighbour (one Spark job)."""

    def sizes(batches):
        for pdf in batches:
            yield pd.DataFrame({"q": (candidate_matrix(pdf["nbrs"], labels) >= 0).sum(axis=1)})

    q = nbrs_df.mapInPandas(sizes, "q long").toPandas()["q"]
    return float(q.mean()) if len(q) else 0.0


def candidate_move(
    state: DataFrame, nbrs_df: DataFrame, labels: np.ndarray, counts: np.ndarray,
    sums: np.ndarray, boost: bool,
) -> DataFrame:
    """One move pass in which each point only considers the clusters Q of
    its ``nbrs``, formed from the label vector ``labels``.

    ``boost``: the best positive Eqn.-3 move (GK-means); otherwise the
    nearest candidate centroid (GK-means−, closure k-means).  A point
    with no ``nbrs_df`` row keeps its label.  Returns the lazy next state.
    """
    C = None if boost else centroids_from_stats(counts, sums)[0]

    def move(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            lab = pdf["label"].to_numpy(dtype=np.int64)
            cand = candidate_matrix(pdf["nbrs"], labels)
            if boost:
                tgt, delta = boost_delta_I(X, lab, cand, sums, counts)
                new = np.where(delta > 0, tgt, lab)
            else:
                new = nearest_among_candidates(X, lab, cand, C)
            out = pdf[["id", "features"]].copy()
            out["label"] = new
            yield out

    return state.join(nbrs_df, on="id", how="left").mapInPandas(move, STATE_SCHEMA)


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
    """Cluster ``feats_df`` into k clusters guided by ``graph_df`` (id, nbr);
    all ids must be 0..n-1, or ``ValueError`` is raised before the first move.

    ``init_state_df`` (id, features, label) bypasses initialisation (tests).
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
    nbrs_df = None

    def start():
        nonlocal nbrs_df
        nbrs_df = neighbour_lists(graph_df.select("id", "nbr"), n)
        if init_state_df is not None:
            return init_state_df
        return initial_partition(spark, feats, k, init, seed)

    def move(state, counts, sums):
        labels = label_vector(state, n)
        if track_candidates and "mean_candidates" not in extra:
            extra["mean_candidates"] = mean_candidates(nbrs_df, labels)
        return candidate_move(state, nbrs_df, labels, counts, sums, boost=mode == "boost")

    run = iterate(start, k, sq_norms, iters=iters, rel_tol=rel_tol, step=move, extra=extra)
    nbrs_df.unpersist()
    return run
