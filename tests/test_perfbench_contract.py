"""The program API that ``perfbench/`` relies on.

The benchmark traces the program by patching module attributes by name
and calls the public entry points with fixed keywords.  A refactor that
renames one of them breaks only the traced benchmark, which the test
suite does not run, so these tests pin the contract.  They read
``perfbench/`` and change nothing there.
"""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    """``spans.PATCHES``, read from the source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "PATCHES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no PATCHES")


@pytest.mark.parametrize("mod_name,attr,layer", _patches())
def test_patched_names_resolve(mod_name, attr, layer):
    assert callable(getattr(importlib.import_module(mod_name), attr))


def test_gk_means_accepts_track_candidates():
    from repro.core.gkmeans import gk_means

    assert "track_candidates" in inspect.signature(gk_means).parameters


def test_build_knn_graph_returns_long_edges(spark, feats_small):
    from repro.core.knn_graph import build_knn_graph

    graph, _ = build_knn_graph(spark, feats_small, 4, xi=20, tau=1, seed=1)
    assert graph.columns == ["id", "nbr", "dist"]
