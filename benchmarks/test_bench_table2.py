"""Bench: Tab. 2 — the k = n/10 challenge (VLAD10M -> 1M clusters, scaled).

Asserted shape (the parts that transfer to a 500x-smaller substrate):
GK-means reaches the lowest distortion; closure k-means inits fastest
but iterates slowest and ends worst; GK-means iterates faster
(``iter_s``) than KGraph+GK-means (its graph's neighbours co-cluster,
so |Q| is smaller; total time is not asserted); and the extrapolated
Lloyd iteration bill exceeds GK-means' measured iteration bill by a
large factor — the per-iteration k-independence that becomes
the paper's "3 years vs 5.2 hours" at k = 10^6.
"""
from repro.experiments import table2
from repro.experiments.harness import print_table


def test_bench_table2_million_clusters(spark, run_once):
    df = run_once(table2.run, spark, scale="bench")
    print_table(df, "Tab. 2 - partitioning VLAD-like data into k = n/10 clusters")
    real = df[df["method"] != "k-means (extrapolated)"].set_index("method")

    # quality ordering: GK-means at the top (within 1% of the best — its
    # KGraph twin can land a hair apart), closure clearly worst
    # (paper: .619 / .649 / .700)
    assert real.loc["GK-means", "E"] <= real["E"].min() * 1.01
    assert real.loc["closure k-means", "E"] >= real.loc["GK-means", "E"] * 1.01

    # time split: closure has the cheapest init (paper: 0.9h vs 2.7/27.3h)
    # but slower iterations than GK-means (paper: 9.6h vs 2.5h)
    assert real.loc["closure k-means", "init_s"] == real["init_s"].min()
    assert real.loc["closure k-means", "iter_s"] > real.loc["GK-means", "iter_s"]

    # the Alg.-3 graph clusters more cheaply than the NN-Descent one: its
    # neighbours co-cluster, so |Q| and hence the iteration bill is smaller
    # (paper: 2.5h vs 3.2h iter).  Init wall-clock is NOT asserted — Alg. 3
    # is many small Spark stages and orchestration-bound at n=2*10^4, so its
    # init time is noisy here, while in the paper (arithmetic-bound, n 500x
    # larger) NN-Descent's init is 10x costlier; see EXPERIMENTS.md.
    assert real.loc["GK-means", "iter_s"] < real.loc["KGraph+GK-means", "iter_s"]

    # per-iteration k-independence: extrapolated Lloyd iteration bill
    # clearly exceeds GK-means' measured one (the gap grows linearly in k —
    # at the paper's k = 10^6 it becomes the "3 years vs 5.2 hours" story)
    est = df.loc[df["method"] == "k-means (extrapolated)", "total_s"].iloc[0]
    assert est > 1.2 * real.loc["GK-means", "iter_s"]
