#!/usr/bin/env python3
"""GK-means benchmark: one workload in one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload tab2-gkmeans --seed 1 --seconds 20 --trace 0

Load shape: a closed loop with one client.  A single driver process runs
one clustering job at a time on ``local[<cores>]``; the next job starts
when the previous one has returned and been checked.  The program is used
only through its public entry points: ``synth_data.vlad_like``,
``knn_graph.build_knn_graph``, ``gkmeans.gk_means``, ``bkm.boost_kmeans``,
``metrics.graph_recall``, ``brute_knn.exact_knn`` and the Spark session of
``jobs/_common.session()``, so session tuning counts as program code.

A run has three parts:

1. Set-up (``setup_s``): the JVM and session start; three times over, the
   workload's data is generated and checkpointed and the exact-KNN truth
   for recall is computed; then one untimed warm-up call of the workload
   itself, with one iteration, is made.  ``setup_s`` is the session start, plus the median of
   the three input set-ups, plus the warm-up call.
2. Timed clustering calls, repeated until ``--seconds`` have passed.  A
   call is never cut short, so a run measures at least one.  Each call is
   checked (``checks.py``) outside its timing; the time metrics are
   medians over the calls.
3. The last line of standard output is one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
   end-to-end metrics, with ``--trace 1`` the per-layer split from spans
   recorded around the program's public functions (``spans.py``), taken
   from traced calls alternated with untraced ones so the tracing overhead
   is measured too.  The line before it records the environment, the
   source version and every call's figures.

The master, driver memory and BLAS threads are pinned, and every file the
run writes goes under ``.bench_work/`` in the working directory.  Outputs
that must repeat for a seed (E, recall, non-empty fraction and the Spark
job, stage and task counts) are compared across the calls of a run and
with earlier runs of the same seed, source digest and core count in
``.bench_work/fingerprints.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS

REQUIRED = ("src/repro/core/gkmeans.py", "jobs/_common.py")
WORK_DIR = ".bench_work"
DRIVER_MEMORY = "4g"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment(root: Path, run_dir: Path) -> dict:
    """Fix master, driver memory and BLAS threads before pyspark or numpy load.

    One BLAS thread per Python worker: OpenBLAS here is built with
    MAX_THREADS=2, so ``cores`` workers would otherwise run 2x cores
    threads.  The driver memory is fixed, never derived from the cgroup.
    """
    cores = len(os.sched_getaffinity(0))
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)  # session() default
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(run_dir / "spark")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    return {"cores": cores, "master": f"local[{cores}]",
            "driver_memory": DRIVER_MEMORY, "blas_threads": 1}


def source_version(root: Path) -> dict:
    """Git SHA when the tree is a checkout, and a digest of the program and
    benchmark files (which also keys the stored fingerprints)."""
    sha = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    h = hashlib.sha256()
    files = [*root.glob("src/repro/**/*.py"), *root.glob("jobs/*.py"), *root.glob("perfbench/*.py")]
    for p in sorted(files):
        h.update(p.relative_to(root).as_posix().encode())
        h.update(p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = root / WORK_DIR / f"run-{os.getpid()}"
    env = pin_environment(root, run_dir)
    env.update(source_version(root))
    sys.path.insert(0, str(root / "jobs"))
    try:
        import bench  # numpy and pyspark load only after the pinning above

        result, record = bench.run(wl, args.seed, args.seconds, bool(args.trace),
                                   root / WORK_DIR / "fingerprints.json",
                                   version=f"{env['src_sha256']}|{env['cores']}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["env"] = env
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
