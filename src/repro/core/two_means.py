"""Two-means (2M) tree — Alg. 1 of the paper.

Balanced hierarchical bisecting: recursively split clusters with a
local 2-means whose result is adjusted to equal halves, until exactly
``k`` clusters exist.  The paper pops the largest cluster one at a
time; we split *level-wise* — one ``applyInPandas`` pass over all labels
bisects the largest clusters still needed and passes the others through
— which yields the same balanced partition in ``O(log k)`` Spark rounds
instead of ``k-1`` (DESIGN.md §3).  Sizes are tracked on the driver, and
groups are sorted by ``id`` so labels do not depend on row order.

Each bisection runs a short local Lloyd 2-means then the equal-size
adjustment of Alg. 1 step 9 (rank by ``d(x,c0) - d(x,c1)``, smaller
half to side 0).  The paper's optional boost refinement of the bisection
is not done: the equal-size step overrides fine-grained assignment.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import local_two_means
from repro.common.vectors import splitmix64, to_matrix

STATE_SCHEMA = "id long, features array<double>, label long"


def _group_seed(seed: int, label: int, level: int) -> int:
    raw = ((seed * 1_000_003 + label) * 31 + level) & 0xFFFFFFFFFFFFFFFF
    mix = splitmix64(np.array([raw], dtype=np.uint64))[0]
    return int(mix & np.uint64(0x7FFFFFFF))


def two_means_tree(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    seed: int = 0,
    local_iters: int = 8,
) -> DataFrame:
    """Partition ``feats_df`` (id, features, ...) into ``k`` balanced clusters.

    Returns a cached, checkpointed state DataFrame
    ``(id, features, label)`` with labels in ``0..k-1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    state = feats_df.select("id", "features").withColumn(
        "label", F.lit(0).cast("long")
    )
    state = state.localCheckpoint(eager=True)
    n = state.count()
    if k > n:
        raise ValueError(f"k={k} exceeds n={n}")

    # A bisection of s rows keeps (s + 1) // 2 (kernels.balanced_halves).
    # All labels share one depth at the top of a level, so sizes differ by
    # at most 1 and k <= n leaves enough clusters of size >= 2 to split.
    sizes = [n]
    level = 0
    while len(sizes) < k:
        largest = sorted(range(len(sizes)), key=lambda l: (-sizes[l], l))
        new_label = {}
        for parent in largest[: k - len(sizes)]:
            s = sizes[parent]
            new_label[parent] = len(sizes)
            sizes[parent] = (s + 1) // 2
            sizes.append(s // 2)

        def bisect(pdf: pd.DataFrame) -> pd.DataFrame:
            parent = int(pdf["label"].iloc[0])
            if parent not in new_label:
                return pdf
            out = pdf.sort_values("id", ignore_index=True)
            X = to_matrix(out["features"])
            side = local_two_means(X, _group_seed(seed, parent, level), iters=local_iters)
            out.loc[side == 1, "label"] = new_label[parent]
            return out

        # Hash by label into one partition per core: the groupBy reuses this
        # exchange, and later passes' batches stay a core's share of the rows.
        new_state = (
            state.repartition(spark.sparkContext.defaultParallelism, "label")
            .groupBy("label").applyInPandas(bisect, STATE_SCHEMA)
            .localCheckpoint(eager=True)
        )
        state.unpersist()
        state = new_state
        level += 1
    return state
