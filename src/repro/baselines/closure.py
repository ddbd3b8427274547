"""Closure k-means (Wang et al., CVPR 2012 [27]) — the paper's strongest
published competitor for very large k.

Idea: an ensemble of random-projection partition trees groups each
point with its likely neighbours; a cluster's *closure* is the union of
the tree cells its members touch, and the assignment step compares a
point only against clusters whose closure contains it.  Like GK-means
this makes the iteration cost nearly independent of k, but the
candidate sets come from static random partitions instead of an evolving
KNN graph — which is why the paper finds its distortion worse (Tab. 2,
Figs. 5-7).

Implementation: trees are built level-wise (one ``applyInPandas`` group
per (tree, cell), balanced median splits on hashed random directions);
at init the ids sharing a cell with each point (``cell_neighbours``) are
joined onto the start rows, and GK-means' ``candidate_move`` forms the
closure from them.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.common.kernels import rp_split
from repro.common.result import ClusterRun
from repro.common.stats import sum_sq_norms
from repro.common.vectors import splitmix64, to_matrix
from repro.core.bkm import iterate
from repro.core.gkmeans import candidate_move, mean_candidates, neighbour_lists, with_neighbours

_TREE_SCHEMA = "id long, features array<double>, tree int, cell long"


def _cell_seed(seed: int, tree: int, cell: int, depth: int) -> int:
    raw = (((seed * 131 + tree) * 1_000_003 + cell) * 31 + depth) & 0xFFFFFFFFFFFFFFFF
    return int(splitmix64(np.array([raw], dtype=np.uint64))[0] & np.uint64(0x7FFFFFFF))


def build_rp_trees(
    spark: SparkSession,
    feats_df: DataFrame,
    *,
    n_trees: int,
    leaf_size: int,
    seed: int = 0,
) -> DataFrame:
    """``n_trees`` balanced random-projection trees; returns (id, tree, cell).

    Every cell ends with at most ``leaf_size`` members; cell ids are the
    binary root-to-leaf paths, so sorted cells are spatially coherent.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    trees = F.explode(F.array(*[F.lit(t) for t in range(n_trees)])).alias("tree")
    state = (
        feats_df.select("id", "features")
        .select("id", "features", trees)
        .withColumn("cell", F.lit(0).cast("long"))
        .localCheckpoint(eager=True)
    )
    # Splits keep (s + 1) // 2 (kernels.balanced_halves): the largest cell
    # at depth d holds ceil(n / 2**d) points.
    biggest = state.filter(F.col("tree") == 0).count()
    depth = 0
    while biggest > leaf_size:
        def split(pdf: pd.DataFrame) -> pd.DataFrame:
            out = pdf.copy()
            cell = int(pdf["cell"].iloc[0])
            if len(pdf) <= leaf_size:
                out["cell"] = cell * 2  # keep ids unique across the level
                return out
            tree = int(pdf["tree"].iloc[0])
            side = rp_split(to_matrix(pdf["features"]), _cell_seed(seed, tree, cell, depth))
            out["cell"] = cell * 2 + side
            return out

        new_state = (
            state.groupBy("tree", "cell")
            .applyInPandas(split, _TREE_SCHEMA)
            .localCheckpoint(eager=True)
        )
        state.unpersist()
        state = new_state
        biggest = (biggest + 1) // 2
        depth += 1
    return state.select("id", "tree", "cell").localCheckpoint(eager=True)


def initial_labels_from_tree(cells: DataFrame, k: int) -> DataFrame:
    """Initial k-partition: bucket tree-0's sorted cells into k groups.

    Cells are balanced and path-ordered, so contiguous buckets give a
    coherent, balanced coarse clustering — the closure paper's
    "random partition" initialisation.
    """
    c0 = cells.filter(F.col("tree") == 0).select("id", "cell")
    uniq = sorted(r["cell"] for r in c0.select("cell").distinct().collect())
    if len(uniq) < k:
        raise ValueError(f"only {len(uniq)} cells for k={k}; lower leaf_size")
    mapping = {c: (i * k) // len(uniq) for i, c in enumerate(uniq)}
    mdf = c0.sparkSession.createDataFrame(
        pd.DataFrame({"cell": list(mapping), "label": list(mapping.values())})
    )
    return c0.join(mdf, on="cell").select("id", "label")


def cell_neighbours(cells: DataFrame, n: int) -> DataFrame:
    """Checkpointed ``(id, nbrs)``: each id's cell mates in every tree, itself
    included and repeated per tree (Q keeps distinct labels only)."""
    peers = cells.withColumnRenamed("id", "nbr")
    return neighbour_lists(cells.join(peers, on=["tree", "cell"]).select("id", "nbr"), n)


def closure_kmeans(
    spark: SparkSession,
    feats_df: DataFrame,
    k: int,
    *,
    iters: int = 20,
    n_trees: int = 3,
    leaf_size: int | None = None,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> ClusterRun:
    """Closure k-means; ``leaf_size`` defaults to ~n/k clamped to [2, 64].

    ``extra["mean_candidates"]`` is the mean closure size of the first
    move — the paper's "comparisons per sample" (cf. GK-means' |Q|).
    """
    feats = feats_df.select("id", "features").localCheckpoint(eager=True)
    S, n = sum_sq_norms(feats)
    if leaf_size is None:
        leaf_size = int(np.clip(round(n / k), 2, 64))
    leaf_size = min(leaf_size, max(1, n // k))  # ensure >= k cells exist
    extra: dict = {"leaf_size": leaf_size, "n_trees": n_trees}
    rows: list[DataFrame] = []  # the pass rows, which the first move's |Q| average reads

    def start():
        cells = build_rp_trees(
            spark, feats, n_trees=n_trees, leaf_size=leaf_size, seed=seed
        )
        state = feats.join(initial_labels_from_tree(cells, k), on="id")
        rows.append(with_neighbours(state, cell_neighbours(cells, n)))
        cells.unpersist()
        return rows[0]

    def move(labels, counts, sums):
        if "mean_candidates" not in extra:
            extra["mean_candidates"] = mean_candidates(rows[0], labels)
        return candidate_move(labels, counts, sums, boost=False)

    return iterate(start, k, (S, n), iters=iters, rel_tol=rel_tol, step=move, extra=extra)
