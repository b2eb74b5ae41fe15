"""Perf harness for the auto-parallelism planner (``repro plan``).

A standalone CLI (like ``bench_pp_bubble.py``) that runs the joint
TP x stages x microbatches x schedule x overlap search over one 8-GPU A800
server and emits a machine-readable ``BENCH_plan.json``:

* **search efficiency**: candidate shells, priced batches, pruned batches
  and the plan-store hit rate of the sweep (the search must serve more than
  half of its lookups from cache);
* **frontier**: the latency/memory Pareto points and their mutual
  non-domination;
* **winner gains**: the overlap-over-non-overlap speedup at the winning
  configuration, the winner's gain over the best GPipe/non-overlap
  configuration (the classic baseline) and over the worst priced
  configuration -- deterministic ratios, portable across machines;
* **soundness checks**: pruning never changes the frontier, repeated
  searches are bit-identical, and the winner replays bit-identically
  through the ``repro pp`` / ``repro e2e`` paths.

``--check`` gates every ``*speedup*`` ratio against the committed
``benchmarks/BENCH_plan_baseline.json`` (command line, report and gate rule:
``benchmarks/harness.py``).

Usage::

    python benchmarks/bench_plan_search.py            # full space (8 paper layers)
    python benchmarks/bench_plan_search.py --smoke    # CI-sized space (4 layers)
    python benchmarks/bench_plan_search.py --smoke --check
"""

from __future__ import annotations

import harness
from repro import obs
from repro.cluster import ClusterSpec
from repro.plan import dominates, search_plan, verify_replay

WORKLOAD = "llama3-training"


def _space(smoke: bool) -> dict:
    """The searched space: the CI-sized smoke grid or the paper-sized one."""
    if smoke:
        return dict(layers=4, tp_degrees=(2, 4, 8), microbatch_counts=(2, 4, 8))
    return dict(layers=8, tp_degrees=None, microbatch_counts=None)


def bench_search(smoke: bool) -> tuple[dict, dict]:
    """Run the search (plus determinism / soundness replicas); build the report."""
    space = _space(smoke)
    cluster = ClusterSpec(gpus=8)

    report = search_plan(workload=WORKLOAD, cluster=cluster, **space)
    replica = search_plan(workload=WORKLOAD, cluster=cluster, **space)
    unpruned = search_plan(workload=WORKLOAD, cluster=cluster, **space, prune=False)

    winner = report.winner
    points = report.points
    frontier = report.frontier
    step = winner.predicted["step_latency"]
    gpipe_baseline = min(
        p.step_latency for p in points
        if p.schedule == "gpipe" and p.method == "non-overlap"
    )
    worst = max(p.step_latency for p in points)
    stats = report.plan_stats

    metrics = {
        "search": {
            "shells": report.space["shells"],
            "batches": report.space["batches"],
            "evaluated": report.space["evaluated"],
            "pruned": len(report.space["pruned"]),
            "points": len(points),
            "store_hit_rate": stats["search_hit_rate"],
            "tuner_invocations": stats["tuner_invocations"],
        },
        "frontier": {
            "size": len(frontier),
            "points": [point.to_dict() for point in frontier],
        },
        "winner": {
            "config": winner.describe(),
            "step_ms": step * 1e3,
            "peak_activation_mib": winner.predicted["peak_activation_bytes"] / 2**20,
            "bubble_ratio": winner.predicted["bubble_ratio"],
            "overlap_speedup": winner.predicted["speedup"],
            "over_gpipe_non_overlap_speedup": gpipe_baseline / step,
            "over_worst_config_speedup": worst / step,
        },
    }
    checks = {
        "deterministic": report.to_json() == replica.to_json(),
        "frontier_nondominated": all(
            not dominates(a, b) for a in frontier for b in frontier
        ),
        "frontier_large_enough": len(frontier) >= (3 if smoke else 2),
        "prune_invariant_frontier": (
            {p.config_key for p in frontier} == {p.config_key for p in unpruned.frontier}
        ),
        "store_hit_rate_above_half": stats["search_hit_rate"] > 0.5,
        "winner_replays_bit_identical": verify_replay(winner)["matches"],
    }
    return metrics, checks


def collect(smoke: bool) -> dict:
    """The plan report's meta, metrics and checks."""
    with obs.span("search"):
        metrics, checks = bench_search(smoke)
    return {
        "meta": {"workload": WORKLOAD, "cluster": ClusterSpec(gpus=8).to_dict()},
        "metrics": metrics,
        "checks": checks,
    }


def summary(report: dict) -> list[str]:
    search = report["metrics"]["search"]
    return [
        f"search: {search['evaluated']}/{search['batches']} batches priced "
        f"({search['pruned']} pruned), {search['points']} points, "
        f"{search['store_hit_rate'] * 100:.1f}% store hits",
        f"winner: {report['metrics']['winner']['config']}",
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main("plan", collect, summary))
