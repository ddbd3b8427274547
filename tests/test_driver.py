"""Tests for the shared iteration driver (``core.bkm.iterate``) and the
contract every method it drives keeps: Lloyd, BKM, GK-means in both
modes and closure k-means."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.baselines.closure import closure_kmeans
from repro.baselines.lloyd import lloyd_kmeans
from repro.common.stats import distortion_from_state, sum_sq_norms
from repro.core.bkm import boost_kmeans, iterate
from repro.core.gkmeans import gk_means
from repro.core.two_means import two_means_tree


METHODS = {
    "lloyd": lambda spark, feats, k, g: lloyd_kmeans(spark, feats, k, iters=4, seed=1),
    "bkm": lambda spark, feats, k, g: boost_kmeans(spark, feats, k, iters=4, seed=1),
    "gkmeans": lambda spark, feats, k, g: gk_means(spark, feats, k, g, iters=4, seed=1),
    "gkmeans_trad": lambda spark, feats, k, g: gk_means(
        spark, feats, k, g, mode="traditional", iters=4, seed=1),
    "closure": lambda spark, feats, k, g: closure_kmeans(spark, feats, k, iters=4, seed=1),
}


@pytest.mark.parametrize("method", sorted(METHODS))
def test_method_contract(spark, feats_small, exact_graph, method):
    """Every id labelled once in [0, k); final_E is the E of the returned
    state; each history row counts the non-empty clusters of its state."""
    k = 10
    run = METHODS[method](spark, feats_small, k, exact_graph)
    lab = run.state.select("id", "label").toPandas()
    assert sorted(lab["id"]) == list(range(feats_small.count()))
    assert lab["label"].between(0, k - 1).all()
    assert run.final_E == pytest.approx(distortion_from_state(run.state, k), rel=1e-9)
    assert all(1 <= h["nonempty"] <= k for h in run.history)
    assert run.history[-1]["nonempty"] == lab["label"].nunique()


class TestIterate:
    def test_step_that_lowers_I_is_undone(self, spark, feats_small):
        """A step that scrambles a good partition lowers I: the driver
        returns the state before it and ends the history at its row."""
        k = 8
        state0 = two_means_tree(spark, feats_small, k, seed=3)
        want = state0.select("id", "label").toPandas().sort_values("id")
        calls = []

        def scramble(state, counts, sums):
            calls.append(1)
            return state.withColumn("label", F.pmod(F.xxhash64("id"), F.lit(k)))

        run = iterate(lambda: state0, k, sum_sq_norms(feats_small),
                      iters=3, rel_tol=0.0, step=scramble)
        got = run.state.select("id", "label").toPandas().sort_values("id")
        assert len(calls) == 1
        assert len(run.history) == 1
        assert got["label"].tolist() == want["label"].tolist()
        assert run.final_E == pytest.approx(distortion_from_state(run.state, k), rel=1e-9)

    def test_k_above_n_raises_before_start(self):
        def start():
            raise AssertionError("start must not run")

        with pytest.raises(ValueError, match="exceeds"):
            iterate(start, 11, (1.0, 10), iters=1, rel_tol=0.0, step=None)

    def test_gk_means_random_init_k_above_n_raises(self, spark, feats_small, exact_graph):
        small = feats_small.limit(5).localCheckpoint(eager=True)
        with pytest.raises(ValueError, match="exceeds"):
            gk_means(spark, small, 10, exact_graph, init="random", iters=1)
