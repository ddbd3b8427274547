"""Uniform result record for every clustering method in the reproduction.

All methods (Lloyd, BKM, Mini-Batch, closure k-means, GK-means) return a
:class:`ClusterRun` so the experiment harnesses can time/compare them
identically.  ``history`` rows carry *algorithm* seconds only.  For the
methods driven by ``core.bkm.iterate`` the distortion bookkeeping is
free: each iteration's one ``cluster_stats`` pass yields I, hence
``E = (sum ||x||^2 - I) / n``, alongside the moved labels; Mini-Batch
excludes its evaluations from the timings.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame


@dataclass
class ClusterRun:
    """Outcome of one clustering run.

    state: (id, features, label) DataFrame, labels in [0, k).
    history: one dict per state the run kept, ``history[0]`` the start.
        Methods driven by ``core.bkm.iterate`` (Lloyd, BKM, GK-means,
        closure k-means) record ``{iter, elapsed, E, nonempty}``:
        ``elapsed`` is the cumulative algorithm seconds when the labels'
        statistics were reduced, ``E`` their distortion and ``nonempty``
        their count of non-empty clusters.  Mini-Batch records
        ``{iter, elapsed, E}`` at its evaluation points.  ``final_E`` is
        the last row's ``E``.
    init_s / iter_s: wall seconds split as the paper's Tab. 2 does.
    extra: method-specific diagnostics (e.g. graph recall, move counts).
    """

    state: DataFrame
    k: int
    history: list[dict] = field(default_factory=list)
    init_s: float = 0.0
    iter_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.init_s + self.iter_s

    @property
    def final_E(self) -> float:
        if not self.history:
            raise ValueError("run has no history")
        return self.history[-1]["E"]
