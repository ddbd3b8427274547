"""Output checks run on every timed clustering call (outside the timing).

Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

E_RTOL = 1e-9
DIST_SAMPLE = 500


def collect_features(feats_df) -> np.ndarray:
    """The input as an (n, d) matrix whose row i is the point with id i."""
    pdf = feats_df.select("id", "features").toPandas().sort_values("id")
    ids = pdf["id"].to_numpy(dtype=np.int64)
    if not np.array_equal(ids, np.arange(len(ids))):
        raise ValueError("benchmark data must have ids 0..n-1")
    return np.stack(pdf["features"].to_numpy()).astype(np.float64)


def check_labels(labels: pd.DataFrame, n: int, k: int) -> list[str]:
    """Every id 0..n-1 labelled exactly once, with a label in [0, k)."""
    errs = []
    ids = np.sort(labels["id"].to_numpy(dtype=np.int64))
    if not np.array_equal(ids, np.arange(n)):
        errs.append(f"ids are not each labelled exactly once ({len(ids)} rows, n={n})")
    lab = labels["label"].to_numpy(dtype=np.int64)
    if len(lab) and (lab.min() < 0 or lab.max() >= k):
        errs.append(f"labels outside [0, {k}): [{lab.min()}, {lab.max()}]")
    return errs


def labels_by_id(labels: pd.DataFrame, n: int) -> np.ndarray:
    """The label of each id 0..n-1 (after :func:`check_labels` passed)."""
    lab = np.empty(n, dtype=np.int64)
    lab[labels["id"].to_numpy(dtype=np.int64)] = labels["label"].to_numpy(dtype=np.int64)
    return lab


def distortion(X: np.ndarray, lab: np.ndarray, k: int) -> float:
    """Eqn. 4 recomputed in numpy: mean squared distance to the own centroid."""
    counts = np.bincount(lab, minlength=k).astype(np.float64)
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, lab, X)
    nz = counts > 0
    C = np.zeros_like(sums)
    C[nz] = sums[nz] / counts[nz, None]
    diff = X - C[lab]
    return float(np.einsum("ij,ij->", diff, diff)) / len(X)


def check_distortion(X: np.ndarray, lab: np.ndarray, k: int, reported: float) -> list[str]:
    e = distortion(X, lab, k)
    if not abs(e - reported) <= E_RTOL * abs(e):
        return [f"reported E {reported!r} != recomputed E {e!r}"]
    return []


def check_counts_oracle(spark, counts: np.ndarray, labels: pd.DataFrame) -> list[str]:
    """The program's per-label counts (``stats.cluster_stats`` over the final
    state) agree with DuckDB counting the collected labels."""
    from repro.oracle import assert_equivalent

    nz = np.flatnonzero(counts)
    got = spark.createDataFrame(
        pd.DataFrame({"label": nz.astype(np.int64), "cnt": counts[nz].astype(np.int64)}))
    try:
        assert_equivalent(
            got, "SELECT label, count(*) AS cnt FROM labels GROUP BY label",
            labels=labels[["id", "label"]],
        )
    except AssertionError as exc:
        return [f"per-label counts differ from the DuckDB oracle: {exc}"]
    return []


def check_graph(X: np.ndarray, graph: pd.DataFrame, kappa: int, seed: int) -> list[str]:
    """At most kappa distinct neighbours per id, no self-loops, and on a
    sample of scored edges the stored dist is the recomputed squared L2.

    Edges from the random start graph that no round replaced carry
    ``dist = +inf`` by design (``knn_graph.random_graph``); they are checked
    to be exactly that, and the distance check samples the finite ones.
    """
    errs = []
    ids = graph["id"].to_numpy(dtype=np.int64)
    nbr = graph["nbr"].to_numpy(dtype=np.int64)
    dist = graph["dist"].to_numpy(dtype=np.float64)
    n = len(X)
    if np.any((ids < 0) | (ids >= n) | (nbr < 0) | (nbr >= n)):
        return [f"graph ids or neighbours outside [0, {n})"]
    if np.any(ids == nbr):
        errs.append(f"{int(np.sum(ids == nbr))} self-loops")
    per_id = graph.drop_duplicates(["id", "nbr"]).groupby("id").size()
    if len(per_id) and per_id.max() > kappa:
        errs.append(f"an id has {per_id.max()} > kappa={kappa} neighbours")
    if len(graph) != len(graph.drop_duplicates(["id", "nbr"])):
        errs.append("duplicate (id, nbr) edges")
    finite = np.isfinite(dist)
    if np.any(~finite & (dist != np.inf)):
        errs.append("non-finite dist other than +inf")
    idx = np.flatnonzero(finite)
    if len(idx) == 0:
        errs.append("no scored edge in the graph")
        return errs
    pick = np.random.default_rng(seed).choice(idx, size=min(DIST_SAMPLE, len(idx)), replace=False)
    diff = X[ids[pick]] - X[nbr[pick]]
    want = np.einsum("ij,ij->i", diff, diff)
    if not np.allclose(dist[pick], want, rtol=1e-9, atol=1e-9):
        bad = int(np.sum(~np.isclose(dist[pick], want, rtol=1e-9, atol=1e-9)))
        errs.append(f"{bad}/{len(pick)} sampled edge distances differ from squared L2")
    return errs


def check_timings(init_s: float, iter_s: float, total_s: float) -> list[str]:
    if init_s + iter_s > total_s:
        return [f"init_s + iter_s = {init_s + iter_s:.6f} exceeds measured total_s {total_s:.6f}"]
    return []
