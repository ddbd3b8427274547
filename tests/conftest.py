"""Shared fixtures for the test suite.

Session-scoped datasets amortise generation across test modules; they
are localCheckpoint-ed so every consumer starts from materialised data.
"""
from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def feats_small(spark):
    """600 x 12 SIFT-like points — the workhorse for fast Spark tests."""
    from repro import synth_data as sd

    df = sd.sift_like(spark, n=600, d=12, seed=42).localCheckpoint(eager=True)
    df.count()
    return df


@pytest.fixture(scope="session")
def feats_mid(spark):
    """2000 x 16 SIFT-like points — for algorithm-quality assertions."""
    from repro import synth_data as sd

    df = sd.sift_like(spark, n=2000, d=16, seed=43).localCheckpoint(eager=True)
    df.count()
    return df


@pytest.fixture(scope="session")
def truth_small(spark, feats_small):
    """Exact top-5 neighbours for every point of feats_small (pandas)."""
    from repro.baselines.brute_knn import exact_knn

    return exact_knn(spark, feats_small, 5)


@pytest.fixture(scope="session")
def exact_graph(spark, truth_small):
    """Exact top-5 KNN graph of feats_small as a Spark (id, nbr, dist) DF."""
    return spark.createDataFrame(
        truth_small[["id", "nbr", "dist"]]
    ).localCheckpoint(eager=True)


@pytest.fixture(scope="session")
def gmm_numpy():
    """Tiny deterministic numpy GMM for pure-kernel tests: (X, labels)."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((4, 8)) * 3.0
    lab = np.repeat(np.arange(4), 25)
    X = centers[lab] + 0.3 * rng.standard_normal((100, 8))
    return X, lab
