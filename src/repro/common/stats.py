"""Distributed cluster statistics over (id, features, label) DataFrames.

The reductions every method needs: composite vectors ``D_r`` and sizes
``n_r`` (boost k-means, Eqn. 2), centroids, the paper's distortion ``E``
(Eqn. 4), and the objective ``I``.  All use the treeAggregate pattern: a
``mapInPandas`` pre-aggregation emits one partial row per (Arrow batch,
label) and the tiny partials are combined on the driver with numpy — the
same structure MLlib's k-means uses.  ``cluster_stats``' partials also
carry their member ids, so one pass returns every id's label, and with
``relabel`` that pass is an iteration's move too (``core.bkm.iterate``).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.common.vectors import to_matrix

_PARTIAL_SCHEMA = "label long, n long, s array<double>, ids array<long>"


def cluster_stats(
    df: DataFrame, k: int, relabel: Callable | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sizes, composite vectors and labels for clusters ``0..k-1``, in one Spark job.

    ``df`` needs columns ``id`` (exactly ``0..n-1``, else ``ValueError``),
    ``label`` and ``features``.  With ``relabel``, an Arrow batch ``pdf``
    (all of ``df``'s columns) with feature matrix ``X`` is labelled
    ``relabel(pdf, X)`` instead.  Returns ``(counts, sums, labels)``,
    shaped ``(k,)``, ``(k, d)`` and ``(n,)``: ``labels[i]`` is the label of
    id ``i``, and clusters with no member get zero rows.
    """

    def agg(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            lab = pdf["label"] if relabel is None else relabel(pdf, X)
            lab = np.asarray(lab, dtype=np.int64)
            uniq, inv = np.unique(lab, return_inverse=True)
            sums = np.zeros((len(uniq), X.shape[1]), dtype=np.float64)
            np.add.at(sums, inv, X)
            n = np.bincount(inv)
            ids = pdf["id"].to_numpy(dtype=np.int64)[np.argsort(inv, kind="stable")]
            yield pd.DataFrame(
                {
                    "label": uniq,
                    "n": n.astype(np.int64),
                    "s": [row for row in sums],
                    "ids": np.split(ids, np.cumsum(n)[:-1]),
                }
            )

    rows = df if relabel is not None else df.select("id", "label", "features")
    part = rows.mapInPandas(agg, _PARTIAL_SCHEMA).toPandas()
    if len(part) == 0:
        raise ValueError("cluster_stats on an empty DataFrame")
    lab = part["label"].to_numpy(dtype=np.int64)
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(f"labels outside [0, {k}): [{lab.min()}, {lab.max()}]")
    n_r = part["n"].to_numpy(dtype=np.int64)
    ids = np.concatenate(part["ids"].to_numpy())
    order = np.argsort(ids, kind="stable")
    if not np.array_equal(ids[order], np.arange(len(ids))):
        raise ValueError(f"state ids must be exactly 0..{len(ids) - 1}")
    d = len(part["s"].iloc[0])
    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, d), dtype=np.float64)
    np.add.at(counts, lab, n_r)
    np.add.at(sums, lab, np.stack(part["s"].to_numpy()))
    return counts, sums, np.repeat(lab, n_r)[order]


def centroids_from_stats(
    counts: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Centroids ``D_r / n_r`` and a boolean non-empty mask (empty rows = 0)."""
    nonempty = counts > 0
    C = np.zeros_like(sums)
    C[nonempty] = sums[nonempty] / counts[nonempty, None]
    return C, nonempty


def objective_from_stats(counts: np.ndarray, sums: np.ndarray) -> float:
    """Boost-k-means objective ``I = sum_r ||D_r||^2 / n_r`` (Eqn. 2)."""
    from repro.common.kernels import objective_terms

    return float(objective_terms(sums, counts).sum())


def sum_sq_norms(df: DataFrame) -> tuple[float, int]:
    """``(sum_i ||x_i||^2, n)`` — with I this gives E = (S - I)/n."""

    def agg(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            yield pd.DataFrame({"s": [float(np.einsum("ij,ij->", X, X))],
                                "n": [len(pdf)]})

    part = df.select("features").mapInPandas(agg, "s double, n long").toPandas()
    return float(part["s"].sum()), int(part["n"].sum())


def distortion(df: DataFrame, centroids: np.ndarray) -> float:
    """Paper's E (Eqn. 4): mean squared distance to the assigned centroid.

    ``df`` needs ``label`` and ``features``; ``centroids`` is (k, d).
    """
    C = np.ascontiguousarray(centroids, dtype=np.float64)

    def agg(batches):
        for pdf in batches:
            if len(pdf) == 0:
                continue
            X = to_matrix(pdf["features"])
            lab = pdf["label"].to_numpy(dtype=np.int64)
            diff = X - C[lab]
            yield pd.DataFrame({"s": [float(np.einsum("ij,ij->", diff, diff))],
                                "n": [len(pdf)]})

    part = df.select("label", "features").mapInPandas(agg, "s double, n long").toPandas()
    n = int(part["n"].sum())
    if n == 0:
        raise ValueError("distortion on an empty DataFrame")
    return float(part["s"].sum()) / n


def distortion_from_state(df: DataFrame, k: int) -> float:
    """E computed against the *current* cluster means of ``df`` itself."""
    counts, sums, _ = cluster_stats(df, k)
    C, _ = centroids_from_stats(counts, sums)
    return distortion(df, C)
