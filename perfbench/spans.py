"""Spans and Spark work counts, recorded from benchmark code only.

``Tracer.install`` replaces the program's public functions, in the module
namespaces their callers look them up in, with wrappers that record a
span.  Each span also tags the Spark jobs it submits with a job group of
its own (``SparkContext.setJobGroup``), so jobs, stages and tasks are
counted per span from ``statusTracker()`` after the run, with no UI.
Jobs belong to the innermost open span: counts are "self" counts, like
self times, and their sum over all spans is the traced call's total.

Functions that return lazy DataFrames (``random_graph``,
``candidate_labels``, ``in_cluster_pairs``, ``top_kappa``) do their work
where the caller materialises them, so they are not wrapped: their time
and jobs appear in the caller's self time and counts.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, layer): every name a caller resolves at call time.
PATCHES = (
    ("repro.core.gkmeans", "two_means_tree", "two_means.tree"),
    ("repro.core.bkm", "two_means_tree", "two_means.tree"),
    ("repro.core.gkmeans", "cluster_stats", "stats.cluster_stats"),
    ("repro.core.bkm", "cluster_stats", "stats.cluster_stats"),
    ("repro.core.gkmeans", "sum_sq_norms", "stats.sum_sq_norms"),
    ("repro.core.bkm", "sum_sq_norms", "stats.sum_sq_norms"),
    ("repro.core.knn_graph", "sum_sq_norms", "stats.sum_sq_norms"),
    ("repro.core.knn_graph", "gk_means", "gkmeans.gk_means"),
    ("repro.core.knn_graph", "build_knn_graph", "knn_graph.build"),
    ("repro.core.gkmeans", "gk_means", "gkmeans.gk_means"),
    ("repro.core.bkm", "boost_kmeans", "bkm.boost_kmeans"),
    ("repro.core.metrics", "graph_recall", "metrics.graph_recall"),
)


@dataclass
class Span:
    sid: int
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    result: object = None
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    children_s: float = 0.0

    @property
    def group(self) -> str:
        return f"perfbench-{self.sid}"

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.s - self.children_s


@dataclass
class Tracer:
    """Keeps spans in memory; ``install``/``uninstall`` swap the wrappers in."""

    sc: object
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _ids: itertools.count = field(default_factory=itertools.count)
    _saved: list = field(default_factory=list)

    @contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(next(self._ids), layer, parent.sid if parent else None, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.setJobGroup(sp.group, layer)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += sp.s
                self.sc.setJobGroup(parent.group, parent.layer)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as sp:
                sp.result = fn(*args, **kwargs)
                return sp.result

        return traced

    def install(self) -> None:
        for mod_name, attr, layer in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(layer, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def count_work(self) -> None:
        """Fill each span's job, stage and task counts (after the run)."""
        for sp in self.spans:
            sp.jobs, sp.stages, sp.tasks = count_group(self.sc, sp.group)


def count_group(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages run, tasks run) of one job group.

    Waits for the listener bus first: the status store is filled
    asynchronously, so a count read straight after an action can miss the
    action's last events.  Stages skipped because their shuffle output was
    reused have no completed task and are not counted.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    job_ids = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in job_ids:
        info = tracker.getJobInfo(jid)
        for st in info.stageIds if info else ():
            sinfo = tracker.getStageInfo(st)
            if sinfo is not None and sinfo.numCompletedTasks > 0:
                stages += 1
                tasks += sinfo.numCompletedTasks
    return len(job_ids), stages, tasks
