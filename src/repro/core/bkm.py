"""Boost k-means (BKM) — the paper's quality-reference baseline [16] — and
the iteration driver every batch method shares.

Stochastic maximisation of ``I = sum_r D_r'D_r / n_r`` (Eqn. 2): each
point seeks the move with the largest positive ``delta_I`` (Eqn. 3).
The paper's version moves one random sample at a time with immediate
``D, n`` updates; this distributed version is the batch-synchronous
adaptation (DESIGN.md §3): every iteration computes all deltas against
frozen statistics, applies all positive best moves, then recomputes the
statistics.  Per-iteration cost is ``O(n·d·k)`` — the same level as
traditional k-means, which is exactly why the paper needs GK-means.

:func:`iterate` is the loop of BKM, GK-means (Alg. 2), closure k-means
and Lloyd: they differ only in their start rows and their move, which
relabels each batch of an iteration's one ``cluster_stats`` pass.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.common.kernels import boost_best_move_full
from repro.common.result import ClusterRun
# Called by these module-level names, which perfbench/spans.py patches to trace every method.
from repro.common.stats import cluster_stats, objective_from_stats, sum_sq_norms
from repro.common.vectors import hash_choice
from repro.core.two_means import STATE_SCHEMA, two_means_tree


def iterate(
    start: Callable[[], DataFrame],
    k: int,
    sq_norms: tuple[float, int],
    *,
    iters: int,
    rel_tol: float,
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], Callable],
    extra: dict | None = None,
) -> ClusterRun:
    """Run ``step`` from the rows ``start()`` builds; returns a :class:`ClusterRun`.

    ``sq_norms`` is ``(S, n)`` with ``S = sum ||x||^2``.  ``start()`` runs
    after ``k <= n`` is checked, is timed as Init and returns checkpointed
    ``(id, features, label, ...)`` rows, read-only, unpersisted at the end.
    Each iteration is one ``cluster_stats`` pass over them: the first
    reduces their labels, later ones move with ``relabel=step(labels,
    counts, sums)`` from the last pass (``labels[i]`` is id ``i``'s label).
    Each pass records a history row ``{iter, elapsed, E, nonempty}`` (E
    from ``(S - I) / n``, ``nonempty`` from the counts); the run stops
    after ``iters`` moves or when I rose by at most ``rel_tol`` (relative).
    If a move lowered I, the labels before it are kept and the history
    ends at their row.  The returned state is built from the kept labels.
    """
    S, n = sq_norms
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    t0 = time.perf_counter()
    rows = start()
    init_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats = cluster_stats(rows, k)
    iter_s = time.perf_counter() - t0
    history: list[dict] = []
    kept, prev_I = stats, -np.inf
    for it in range(iters + 1):
        counts, sums, labels = stats
        I = objective_from_stats(counts, sums)
        if I < prev_I:  # the last move made it worse: keep the labels before it
            break
        kept = stats
        history.append({"iter": it, "elapsed": iter_s, "E": (S - I) / n,
                        "nonempty": int(np.count_nonzero(counts))})
        if it == iters or I - prev_I <= rel_tol * max(1.0, abs(I)):
            break
        prev_I = I

        t0 = time.perf_counter()
        stats = cluster_stats(rows, k, relabel=step(labels, counts, sums))
        iter_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    state = label_rows(rows, lambda ids: kept[2][ids]).localCheckpoint(eager=True)
    rows.unpersist()
    iter_s += time.perf_counter() - t0
    return ClusterRun(state=state, k=k, history=history, init_s=init_s, iter_s=iter_s,
                      extra={} if extra is None else extra)


def label_rows(df: DataFrame, label_of: Callable[[np.ndarray], np.ndarray]) -> DataFrame:
    """Lazy ``(id, features, label)`` rows of ``df``, labelled ``label_of(ids)`` per batch."""

    def gen(batches):
        for pdf in batches:
            out = pdf[["id", "features"]].copy()
            out["label"] = label_of(pdf["id"].to_numpy(dtype=np.int64))
            yield out

    return df.select("id", "features").mapInPandas(gen, STATE_SCHEMA)


def random_partition(feats_df: DataFrame, k: int, seed: int) -> DataFrame:
    """Balanced-in-expectation random k-partition: label = hash(id) mod-ish k."""
    return label_rows(feats_df, lambda ids: hash_choice(ids, k, seed + 7_777))


def boost_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    seed: int = 0,
    init: str = "2m",
    rel_tol: float = 1e-9,
) -> ClusterRun:
    """Run batch boost k-means; returns a :class:`ClusterRun`.

    ``history[i]["E"]`` is the distortion of the assignment entering
    iteration ``i`` (``history[0]`` = the initial partition), computed
    for free from the identity ``E = (S - I) / n``.

    Default init is the 2M tree: the sequential BKM of [16] recovers
    from a random partition via immediate updates, but the batch (BSP)
    adaptation moves points en masse against frozen statistics and can
    stall in merged-mode optima from a structureless start — a balanced
    spatial init restores the paper's "BKM = best quality" behaviour
    (DESIGN.md §3).
    """
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)

    def move(labels, counts, sums):
        def relabel(pdf, X):
            lab = labels[pdf["id"].to_numpy()]
            tgt, delta = boost_best_move_full(X, lab, sums, counts)
            return np.where(delta > 0, tgt, lab)

        return relabel

    def start():
        if init == "random":
            return random_partition(feats, k, seed).localCheckpoint(eager=True)
        if init == "2m":
            return two_means_tree(spark, feats, k, seed=seed)
        raise ValueError(f"unknown init {init!r}")

    return iterate(
        start, k, sum_sq_norms(feats),
        iters=iters, rel_tol=rel_tol, step=move,
    )
