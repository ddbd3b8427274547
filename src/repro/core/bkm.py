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
and Lloyd: they differ only in their start state and their move step.
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
from repro.common.vectors import hash_choice, to_matrix
from repro.core.two_means import STATE_SCHEMA, two_means_tree


def iterate(
    start: Callable[[], DataFrame],
    k: int,
    sq_norms: tuple[float, int],
    *,
    iters: int,
    rel_tol: float,
    step: Callable[[DataFrame, np.ndarray, np.ndarray], DataFrame],
    extra: dict | None = None,
) -> ClusterRun:
    """Run ``step`` from the state ``start()`` builds; returns a :class:`ClusterRun`.

    ``sq_norms`` is ``(S, n)`` with ``S = sum ||x||^2``.  ``start()`` runs
    after ``k <= n`` is checked and is timed as Init.  Each iteration
    reduces the cluster statistics of the current state, records a
    history row ``{iter, elapsed, E, nonempty}`` (E from ``(S - I) / n``,
    ``nonempty`` from the counts) and stops after ``iters`` moves or when
    I rose by at most ``rel_tol`` (relative).  Otherwise the next state is
    ``step(state, counts, sums)``, checkpointed.  If a step lowered I, the
    previous state is still cached: it is returned, and the history ends
    at its row, so ``final_E`` is the E of the returned state.
    """
    S, n = sq_norms
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")
    t0 = time.perf_counter()
    state = start()
    init_s = time.perf_counter() - t0

    history: list[dict] = []
    iter_s = 0.0
    prev_state, prev_I = None, -np.inf
    for it in range(iters + 1):
        t0 = time.perf_counter()
        counts, sums = cluster_stats(state, k)
        I = objective_from_stats(counts, sums)
        iter_s += time.perf_counter() - t0
        if I < prev_I:  # the last step made it worse: keep the state before it
            state.unpersist()
            state = prev_state
            break
        if prev_state is not None:
            prev_state.unpersist()
        history.append({"iter": it, "elapsed": iter_s, "E": (S - I) / n,
                        "nonempty": int(np.count_nonzero(counts))})
        if it == iters or I - prev_I <= rel_tol * max(1.0, abs(I)):
            break
        prev_I = I

        t0 = time.perf_counter()
        prev_state = state
        state = step(state, counts, sums).localCheckpoint(eager=True)
        iter_s += time.perf_counter() - t0

    return ClusterRun(state=state, k=k, history=history, init_s=init_s, iter_s=iter_s,
                      extra={} if extra is None else extra)


def random_partition(feats_df: DataFrame, k: int, seed: int) -> DataFrame:
    """Balanced-in-expectation random k-partition: label = hash(id) mod-ish k."""

    def gen(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy(dtype=np.int64)
            out = pdf[["id", "features"]].copy()
            out["label"] = hash_choice(ids, k, seed + 7_777)
            yield out

    return feats_df.select("id", "features").mapInPandas(gen, STATE_SCHEMA)


def initial_partition(
    spark: SparkSession, feats_df: DataFrame, k: int, init: str, seed: int
) -> DataFrame:
    """Checkpointed start state of BKM and GK-means: ``"random"`` or ``"2m"`` tree."""
    if init == "random":
        return random_partition(feats_df, k, seed).localCheckpoint(eager=True)
    if init == "2m":
        return two_means_tree(spark, feats_df, k, seed=seed)
    raise ValueError(f"unknown init {init!r}")


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

    def move(state, counts, sums):
        def best_moves(batches):
            for pdf in batches:
                if len(pdf) == 0:
                    continue
                X = to_matrix(pdf["features"])
                lab = pdf["label"].to_numpy(dtype=np.int64)
                tgt, delta = boost_best_move_full(X, lab, sums, counts)
                out = pdf.copy()
                out["label"] = np.where(delta > 0, tgt, lab)
                yield out

        return state.mapInPandas(best_moves, STATE_SCHEMA)

    return iterate(
        lambda: initial_partition(spark, feats, k, init, seed), k, sum_sq_norms(feats),
        iters=iters, rel_tol=rel_tol, step=move,
    )
