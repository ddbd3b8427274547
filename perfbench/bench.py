"""Set-up, timed clustering calls, checks and metrics of one benchmark run.

Imported by ``run.py`` after it has pinned the environment.
"""
from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import _common  # jobs/_common.py: the program's Spark session
from pyspark import SparkContext
import checks
import procmem
from microkernels import kernel_metrics
from spans import Tracer, count_group
from workloads import Workload

from repro import synth_data
from repro.baselines.brute_knn import exact_knn
from repro.common import stats
from repro.core import bkm, gkmeans, knn_graph, metrics

D = 64
SETUP_REPS = 3


@dataclass
class Call:
    """One clustering call and what the benchmark measured around it."""

    run: object  # ClusterRun
    graph: object | None
    ghist: list | None
    total_s: float
    init_s: float
    iter_s: float
    tracer: Tracer | None = None
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    errors: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    labels: np.ndarray | None = None  # label of each id, from the checks
    layers: dict = field(default_factory=dict)  # traced calls only

    def release(self) -> None:
        self.run.state.unpersist()
        if self.graph is not None:
            self.graph.unpersist()


def cluster(spark, wl: Workload, feats, seed: int, truth=None) -> Call:
    """The timed unit: Alg. 3 + GK-means, or BKM, through the public API.

    Module attributes are looked up at call time so a tracer's wrappers
    take effect.  ``truth`` (traced calls only) makes Alg. 3 record recall
    per round and GK-means record its mean candidate width.
    """
    t0 = time.perf_counter()
    graph = ghist = None
    if wl.method == "gkmeans":
        graph, ghist = knn_graph.build_knn_graph(
            spark, feats, wl.kappa, xi=wl.xi, tau=wl.tau, seed=seed, truth=truth)
        # The candidate-width aggregate costs a Spark job of its own, so
        # only traced calls ask for it; plain calls time the paper's path.
        run = gkmeans.gk_means(spark, feats, wl.k, graph, iters=wl.iters, seed=seed,
                               track_candidates=truth is not None)
        graph_s = ghist[-1]["elapsed"]
    else:
        run = bkm.boost_kmeans(spark, feats, wl.k, iters=wl.iters, seed=seed)
        graph_s = 0.0
    total_s = time.perf_counter() - t0
    return Call(run, graph, ghist, total_s, init_s=run.init_s + graph_s, iter_s=run.iter_s)


def time_to_e(call: Call, target: float) -> float | None:
    """Tab.-2 Init plus the algorithm time at the first iteration with E <= target."""
    for h in call.run.history:
        if h["E"] <= target:
            return call.init_s + h["elapsed"]
    return None  # the call fails its checks


def warm_up(spark, wl: Workload, feats, seed: int) -> float:
    """One untimed call of the workload with a single iteration: starts the
    Python workers and compiles the JVM and generated code the timed calls
    use.  Later iterations run the same jobs as the first, so one is enough."""
    t0 = time.perf_counter()
    cluster(spark, dataclasses.replace(wl, iters=1), feats, seed).release()
    return time.perf_counter() - t0


def make_inputs(spark, wl: Workload, seed: int):
    """The workload's data, checkpointed, and its exact-KNN truth sample."""
    t0 = time.perf_counter()
    feats = synth_data.vlad_like(spark, n=wl.n, d=D, seed=seed).localCheckpoint(eager=True)
    truth = None
    if wl.method == "gkmeans":
        truth = exact_knn(spark, feats, 1, n_queries=wl.n_queries, seed=seed)
    return feats, truth, time.perf_counter() - t0


class Runner:
    def __init__(self, spark, wl: Workload, seed: int, feats, truth):
        self.spark, self.sc, self.wl, self.seed = spark, spark.sparkContext, wl, seed
        self.feats, self.truth = feats, truth
        self.mem = procmem.MemorySampler()
        self.driver_peak_mb: float | None = None
        self._X = None
        self._n_calls = 0

    @property
    def X(self):
        if self._X is None:
            self._X = checks.collect_features(self.feats)
        return self._X

    def call(self, traced: bool) -> Call:
        self._n_calls += 1
        group = f"perfbench-call-{self._n_calls}"
        self.sc.setJobGroup(group, "benchmark call")
        if traced:
            tracer = Tracer(self.sc)
            tracer.install()
            try:
                with tracer.span("bench.run"):
                    c = cluster(self.spark, self.wl, self.feats, self.seed, truth=self.truth)
            finally:
                tracer.uninstall()
            c.tracer = tracer
            tracer.count_work()
            c.jobs = sum(s.jobs for s in tracer.spans)
            c.stages = sum(s.stages for s in tracer.spans)
            c.tasks = sum(s.tasks for s in tracer.spans)
        else:
            c = cluster(self.spark, self.wl, self.feats, self.seed)
            c.jobs, c.stages, c.tasks = count_group(self.sc, group)
        self.sc.setJobGroup("perfbench-checks", "benchmark checks")
        self.mem.sample()
        if self.driver_peak_mb is None:  # before the checks first collect data
            self.driver_peak_mb = procmem.driver_peak_mb()
        self.check(c)
        if traced:
            c.layers = _layers_of_call(self.wl, c)
        c.release()
        return c

    def check(self, c: Call) -> None:
        wl, run = self.wl, c.run
        labels = run.state.select("id", "label").toPandas()
        errs = checks.check_labels(labels, wl.n, wl.k)
        c.labels = np.zeros(wl.n, dtype=np.int64)
        if not errs:
            c.labels = checks.labels_by_id(labels, wl.n)
            errs += checks.check_distortion(self.X, c.labels, wl.k, run.final_E)
        try:  # the program's own counts, the ones its E and nonempty_frac come from
            counts = stats.cluster_stats(run.state, wl.k)[0]
        except ValueError as exc:
            counts = np.zeros(wl.k, dtype=np.int64)
            errs.append(f"cluster_stats failed on the final state: {exc}")
        else:
            errs += checks.check_counts_oracle(self.spark, counts, labels)
        errs += checks.check_timings(c.init_s, c.iter_s, c.total_s)
        t = time_to_e(c, wl.e_target)
        if t is None:
            errs.append(f"E never reached the target {wl.e_target}")
        recall = None
        if c.graph is not None:
            gpdf = c.graph.select("id", "nbr", "dist").toPandas()
            errs += checks.check_graph(self.X, gpdf, wl.kappa, self.seed)
            recall = metrics.graph_recall(c.graph, self.truth)
        c.errors = errs
        c.values = {
            "total_s": c.total_s, "init_s": c.init_s, "iter_s": c.iter_s,
            "time_to_E_s": t, "E": run.final_E,
            "nonempty_frac": float(np.count_nonzero(counts)) / wl.k,
            "recall": recall, "jobs": c.jobs, "stages": c.stages, "tasks": c.tasks,
            "E_curve": [h["E"] for h in run.history],
        }


FINGERPRINT_KEYS = ("E", "recall", "nonempty_frac", "jobs", "stages", "tasks")


def check_determinism(calls: list[Call], store_path, key: str) -> None:
    """Calls of one seed must agree bit for bit, within and across runs."""
    if not calls:
        return
    first = {k: calls[0].values[k] for k in FINGERPRINT_KEYS}
    for c in calls[1:]:
        diff = {k: (first[k], c.values[k]) for k in FINGERPRINT_KEYS if c.values[k] != first[k]}
        if diff:
            c.errors.append(f"not deterministic within the run: {diff}")
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    earlier = store.get(key)
    if earlier is not None and earlier != first:
        calls[0].errors.append(f"differs from an earlier run of the same seed: {earlier} vs {first}")
    elif earlier is None and not any(c.errors for c in calls):
        store[key] = first
        store_path.parent.mkdir(parents=True, exist_ok=True)
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True))


def end_to_end(runner: Runner, calls: list[Call], setup_s: float) -> dict:
    vals = [c.values for c in calls]
    ok = [v for v, c in zip(vals, calls) if not c.errors]

    def med(key):
        return statistics.median(v[key] for v in vals)

    # A call that never reaches the E target (a failed call) counts its
    # whole time: time-to-E is at least that.
    for v in vals:
        if v["time_to_E_s"] is None:
            v["time_to_E_s"] = v["total_s"]

    return {
        "setup_s": (setup_s, "s"),
        "total_s": (med("total_s"), "s"),
        "init_s": (med("init_s"), "s"),
        "iter_s": (med("iter_s"), "s"),
        "time_to_E_s": (med("time_to_E_s"), "s"),
        "E": (vals[0]["E"], "sq_l2"),
        "nonempty_frac": (vals[0]["nonempty_frac"], "fraction"),
        "py_worker_peak_mb": (runner.mem.py_worker_peak_mb, "MB"),
        "driver_peak_mb": (runner.driver_peak_mb, "MB"),
        "pass_rate": (len(ok) / len(calls), "fraction"),
    }


def layer_split(runner: Runner, traced: list[Call], plain: list[Call]) -> dict:
    """Per-layer metrics from the traced calls (medians of times over them)."""
    wl = runner.wl
    per_call = [c.layers for c in traced]
    out = {}
    for key in per_call[0]:
        xs = [p[key][0] for p in per_call]
        out[key] = (statistics.median(xs), per_call[0][key][1])
    recall_s = statistics.median([p["metrics.graph_recall.s"][0] for p in per_call])
    traced_total = statistics.median([c.tracer.spans[0].s for c in traced])
    out["trace.total_s"] = (traced_total, "s")
    out["trace.overhead_s"] = (traced_total - recall_s - statistics.median([c.total_s for c in plain]), "s")
    batch_rows = math.ceil(wl.n / max(1, out["two_means.tree.out_partitions"][0]))
    for name, v in kernel_metrics(runner.X, traced[-1].labels, wl.k, batch_rows=batch_rows, kappa=wl.kappa,
                                  xi=wl.xi, seed=runner.seed).items():
        unit = name.rsplit(".", 1)[1]
        out[name] = (v, {"s": "s", "gflop": "gflop", "mb": "MB", "flop_per_byte": "flop/B"}[unit])
    out["proc.jvm_hwm_mb"] = (runner.mem.jvm_hwm_mb, "MB")
    out["proc.py_workers"] = (runner.mem.py_workers, "count")
    return out


LAYER_STATS = {
    "two_means.tree": ("calls", "s", "jobs", "tasks"),
    "stats.cluster_stats": ("calls", "s", "jobs", "tasks"),
    "stats.sum_sq_norms": ("s", "jobs"),
    "gkmeans.gk_means": ("calls", "s", "self_s", "jobs", "tasks"),
    "knn_graph.build": ("s", "jobs", "tasks"),
    "bkm.boost_kmeans": ("s", "self_s", "jobs", "tasks"),
    "metrics.graph_recall": ("s",),
}


def _layers_of_call(wl: Workload, c: Call) -> dict:
    spans = c.tracer.spans
    out = {}
    for layer, fields in LAYER_STATS.items():
        mine = [s for s in spans if s.layer == layer]
        agg = {
            "calls": (len(mine), "count"),
            "s": (sum(s.s for s in mine), "s"),
            "self_s": (sum(s.self_s for s in mine), "s"),
            "jobs": (sum(s.jobs for s in mine), "count"),
            "tasks": (sum(s.tasks for s in mine), "count"),
        }
        for f in fields:
            out[f"{layer}.{f}"] = agg[f]
    trees = [s for s in spans if s.layer == "two_means.tree"]
    out["two_means.tree.out_partitions"] = (
        trees[-1].result.rdd.getNumPartitions() if trees else 0, "count")
    full_k = [s.result[0] for s in spans
              if s.layer == "stats.cluster_stats" and len(s.result[0]) == wl.k]
    out["stats.nonempty_min"] = (min(int(np.count_nonzero(cnt)) for cnt in full_k), "count")
    build = [s for s in spans if s.layer == "knn_graph.build"]
    out["knn_graph.merge.self_s"] = (sum(s.self_s for s in build), "s")
    gh = c.ghist or []
    steps = [b["elapsed"] - a["elapsed"] for a, b in zip(gh, gh[1:])]
    out["knn_graph.round_s"] = (statistics.median(steps) if steps else 0.0, "s")
    out["knn_graph.recall_round0"] = (gh[0]["recall"] if gh else 0.0, "fraction")
    out["knn_graph.recall_round1"] = (gh[1]["recall"] if len(gh) > 1 else 0.0, "fraction")
    out["knn_graph.recall"] = (c.values["recall"] or 0.0, "fraction")
    is_gk = wl.method == "gkmeans"
    moves = len(c.run.history) - 1
    mean_q = c.run.extra.get("mean_candidates", 0.0) if is_gk else 0.0
    out["gkmeans.mean_candidates"] = (mean_q, "count")
    out["gkmeans.evals_per_point"] = (mean_q * moves, "count")
    out["bkm.iters"] = (0 if is_gk else moves, "count")
    out["trace.unattributed_s"] = (spans[0].self_s, "s")
    return out


def worker_blas_threads(spark) -> str:
    """``OPENBLAS_NUM_THREADS`` as a pyspark Python worker sees it."""

    def read(batches):
        import os

        import pandas as pd

        for _ in batches:
            yield pd.DataFrame({"v": [os.environ.get("OPENBLAS_NUM_THREADS", "")]})

    return spark.range(1).mapInPandas(read, "v string").first()["v"]


def stop(spark) -> None:
    """Stop Spark and wait for the JVM and the Python workers to exit."""
    pids = procmem.descendants()
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
    procmem.wait_gone(pids, timeout=30)


def run(wl: Workload, seed: int, seconds: float, trace: bool, store_path, version: str):
    """Returns ``(result line, record)`` for one benchmark run.

    ``version`` (source digest and cores) keys the stored fingerprints, so
    only runs of the same code on the same core count are compared.
    """
    t0 = time.perf_counter()
    spark = _common.session()
    try:
        spark.sparkContext.setLogLevel("ERROR")
        session_s = time.perf_counter() - t0
        reps = [make_inputs(spark, wl, seed) for _ in range(SETUP_REPS)]
        for feats, _, _ in reps[:-1]:
            feats.unpersist()
        feats, truth, _ = reps[-1]
        warm_s = warm_up(spark, wl, feats, seed)
        setup_s = session_s + warm_s + statistics.median([r[2] for r in reps])
        blas = worker_blas_threads(spark)

        runner = Runner(spark, wl, seed, feats, truth)
        plain: list[Call] = []
        traced: list[Call] = []
        t_start = time.perf_counter()
        while True:
            use_trace = trace and len(traced) < len(plain)
            c = runner.call(traced=use_trace)
            (traced if use_trace else plain).append(c)
            done = time.perf_counter() - t_start >= seconds
            if done and (not trace or traced):
                break
        mode = "traced" if trace else "plain"
        calls = traced if trace else plain
        if trace:
            metrics_out = layer_split(runner, traced, plain)
        check_determinism(plain, store_path, f"{version}|{wl.name}|{seed}|plain")
        if trace:
            check_determinism(traced, store_path, f"{version}|{wl.name}|{seed}|traced")
        if not trace:
            metrics_out = end_to_end(runner, plain, setup_s)
        all_calls = plain + traced
        failed = sum(1 for c in calls if c.errors)
        result = {
            "correct": not any(c.errors for c in all_calls),
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()},
        }
        record = {
            "workload": wl.name, "seed": seed, "mode": mode,
            "session_s": session_s, "warm_up_s": warm_s, "inputs_s": [r[2] for r in reps],
            "worker_blas_threads": blas,
            "calls": [dict(c.values, traced=c.tracer is not None, errors=c.errors)
                      for c in all_calls],
        }
        return result, record
    finally:
        stop(spark)

