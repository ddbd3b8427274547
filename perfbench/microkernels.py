"""Single-threaded timings of the numpy kernels at a workload's batch shape.

The Spark layers call these kernels once per Arrow batch inside
``mapInPandas``/``applyInPandas``; here each runs on the driver, on one
batch cut from the workload's own data and final clustering, so its time
can be set against the Spark pass around it.  ``gflop`` and ``mb`` are
computed from the array sizes with the formulas in each entry (counted,
not measured with hardware counters); ``mb`` counts each named array read
or written once.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.common import kernels
from repro.common.vectors import to_matrix

MIN_SECONDS = 0.2
MAX_CALLS = 50


def _median_call_s(fn) -> float:
    times = []
    t_end = time.perf_counter() + MIN_SECONDS
    while len(times) < MAX_CALLS and (len(times) < 3 or time.perf_counter() < t_end):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def kernel_metrics(X: np.ndarray, labels: np.ndarray, k: int, *, batch_rows: int,
                   kappa: int, xi: int, seed: int) -> dict[str, float]:
    """``{kernel.metric: value}`` for the kernels and ``vectors.to_matrix``.

    ``X``/``labels`` are the workload's points and final labels; the
    candidate width is kappa, the most distinct labels a point's kappa
    neighbours can carry.
    """
    n, d = X.shape
    b = max(1, min(batch_rows, n))
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(n, size=b, replace=False))
    Xb, lb = X[rows], labels[rows]
    counts = np.bincount(labels, minlength=k).astype(np.int64)
    D = np.zeros((k, d))
    np.add.at(D, labels, X)
    cand = rng.integers(0, k, size=(b, kappa))
    group = X[rng.choice(n, size=min(xi, n), replace=False)]
    series = pd.Series(list(Xb))
    f8 = 8 / 1e6

    shapes = {
        # G = X D^T is 2bkd; ~8 elementwise passes over (b, k) build delta.
        "boost_best_move_full": (
            lambda: kernels.boost_best_move_full(Xb, lb, D, counts),
            2 * b * k * d + 8 * b * k,
            f8 * (b * d + k * d + 4 * b * k),
        ),
        # Gathers D over the (b, c) candidates: 2bcd for x.D_v, 4bd for the
        # leave term, ~8 elementwise passes over (b, c).
        "boost_delta_I": (
            lambda: kernels.boost_delta_I(Xb, lb, cand, D, counts),
            2 * b * kappa * d + 4 * b * d + 8 * b * kappa,
            f8 * (b * d + b * kappa * d + 4 * b * kappa),
        ),
        # 8 Lloyd steps plus the final margin: each 4bd for the distances to
        # 2 centroids and 2bd for the means.
        "local_two_means": (
            lambda: kernels.local_two_means(Xb, seed, iters=8),
            9 * 6 * b * d,
            f8 * 9 * 2 * b * d,
        ),
        # One xi-sized cluster of Alg. 3: s^2 distances of 2d flops each.
        "pairwise_topk": (
            lambda: kernels.pairwise_topk(np.arange(len(group)), group, kappa),
            2 * len(group) ** 2 * d,
            f8 * (len(group) * d + 3 * len(group) ** 2),
        ),
    }
    out: dict[str, float] = {}
    for name, (fn, flop, mb) in shapes.items():
        s = _median_call_s(fn)
        out[f"kernels.{name}.s"] = s
        out[f"kernels.{name}.gflop"] = flop / 1e9
        out[f"kernels.{name}.mb"] = mb
        out[f"kernels.{name}.flop_per_byte"] = flop / (mb * 1e6)
    out["vectors.to_matrix.s"] = _median_call_s(lambda: to_matrix(series))
    out["vectors.to_matrix.mb"] = f8 * b * d
    return out
