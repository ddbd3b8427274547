"""Tests for the shared iteration driver (``core.bkm.iterate``) and the
contract every method it drives keeps: Lloyd, BKM, GK-means in both
modes and closure k-means."""
from __future__ import annotations

import itertools

import pytest

from repro.baselines.closure import closure_kmeans
from repro.baselines.lloyd import lloyd_kmeans
from repro.common.stats import distortion_from_state, sum_sq_norms
from repro.common.vectors import hash_choice
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

        def scramble(labels, counts, sums):
            calls.append(1)
            return lambda pdf, X: hash_choice(pdf["id"].to_numpy(), k, 11)

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


_GROUPS = itertools.count()


def _jobs_of(spark, call):
    """``(call(), Spark jobs it ran)``, counted in a job group of its own
    after the listener bus has delivered every event."""
    sc = spark.sparkContext
    group = f"test-driver-{next(_GROUPS)}"
    sc.setJobGroup(group, "one call")
    try:
        run = call()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return run, len(sc.statusTracker().getJobIdsForGroup(group))


ONE_PASS = {
    "bkm": lambda spark, feats, g, iters: boost_kmeans(spark, feats, 20, iters=iters, seed=1),
    "gkmeans": lambda spark, feats, g, iters: gk_means(spark, feats, 20, g, iters=iters, seed=1),
    "closure": lambda spark, feats, g, iters: closure_kmeans(spark, feats, 20, iters=iters, seed=1),
}


@pytest.mark.parametrize("method", sorted(ONE_PASS))
def test_each_move_is_one_spark_job(spark, feats_small, exact_graph, method):
    """Two more moves cost exactly two more Spark jobs: a move and the
    statistics of its result are one ``cluster_stats`` pass."""
    def call(iters):
        return _jobs_of(spark, lambda: ONE_PASS[method](spark, feats_small, exact_graph, iters))

    run3, jobs3 = call(3)
    assert len(run3.history) == 4  # every move kept
    run1, jobs1 = call(1)
    assert len(run1.history) == 2
    assert jobs3 - jobs1 == 2
