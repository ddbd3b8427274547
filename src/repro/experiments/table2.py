"""Tab. 2 — the challenge experiment: partition VLAD-style data into
k = n/10 clusters (the paper's VLAD10M → 1M clusters), reporting the
init / iteration / total time split, the distortion E, and the KNN-graph
recall, for KGraph+GK-means, GK-means, and closure k-means — plus the
paper's "3 years for traditional k-means" extrapolation.

Claims: GK-means has the lowest E and iterates (``iter_s``) faster than
KGraph+GK-means; its Alg.-3 graph has lower recall yet clusters better;
closure k-means inits fastest but iterates slowest and ends worst; plain
k-means is orders of magnitude off the chart.  Total time is reported,
not claimed (Alg. 3's init wall-clock is noisy at this scale).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro import synth_data as sd
from repro.baselines.brute_knn import exact_knn
from repro.experiments.harness import (
    extrapolated_lloyd_hours,
    run_method,
    summary_row,
)

PARAMS = {
    "test": dict(n=2000, d=16, k=200, kappa=8, xi=25, tau=2, iters=3,
                 nnd_rounds=2, nnd_sample=6, n_queries=300, probe_k=32),
    # tau=6: at this scale Alg. 3's recall saturates by ~tau=4 (Fig. 2
    # harness), matching the paper's "tau=10 suffices" at 10M points.
    # NN-Descent gets sample=12 x 5 rounds so it does work comparable to
    # the paper's KGraph runs rather than an over-thinned token pass.
    "bench": dict(n=20000, d=64, k=2000, kappa=20, xi=50, tau=6, iters=12,
                  nnd_rounds=5, nnd_sample=12, n_queries=500, probe_k=512),
}

METHODS = ["kgraph_gkmeans", "gkmeans", "closure"]


def run(spark: SparkSession, scale: str = "bench", seed: int = 0) -> pd.DataFrame:
    p = PARAMS[scale]
    feats = sd.vlad_like(spark, n=p["n"], d=p["d"], seed=seed + 13).localCheckpoint(
        eager=True
    )
    truth = exact_knn(spark, feats, 1, n_queries=p["n_queries"], seed=seed)

    rows = []
    for m in METHODS:
        r = run_method(
            spark, feats, p["k"], m, iters=p["iters"], seed=seed,
            kappa=p["kappa"], xi=p["xi"], tau=p["tau"],
            nnd_rounds=p["nnd_rounds"], nnd_sample=p["nnd_sample"], truth=truth,
        )
        rows.append(summary_row(m, r, n=p["n"], k=p["k"]))

    est_h = extrapolated_lloyd_hours(
        spark, feats, p["k"], p["iters"], k_probe=p["probe_k"], seed=seed
    )
    rows.append(
        {
            "method": "k-means (extrapolated)",
            "init_s": None, "iter_s": None,
            "total_s": round(est_h * 3600.0, 1),
            "E": None, "n": p["n"], "k": p["k"],
        }
    )
    return pd.DataFrame(rows)
