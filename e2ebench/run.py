"""End-to-end explain benchmark of the default-configuration ExplanationService.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload loans-cold --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seconds 25        # every workload in turn

Each workload runs in its own process (``--workload all`` spawns one per
workload), as a closed loop with one client on one thread.  The run sets
up the workload several times (``setup_s`` is the median), serves its
request stream for ``--seconds`` seconds, checks every output against a
reference computed outside the timed loop, prints a readable summary and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see ``e2ebench/README.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from e2ebench.reference import DEFAULT_SEED, attach_expected  # noqa: E402
from e2ebench.workloads import REFERENCE_PROBE_S, WORKLOADS, Op, Workload, host_probe  # noqa: E402

SETUP_REPEATS = 3
# Peak RSS is read after this many steps: the resident services grow with
# every distinct labeling served, so a time-bounded run would otherwise
# report more memory on a faster host.
RSS_STEPS = 10

# Summary names of each workload's operation kinds.
OPERATION_NAMES = {
    "loans-cold": {"miss": "cold_explain", "hit": "warm_explain"},
    "loans-serve": {"miss": "drift_explain", "hit": "warm_explain", "delta": "delta_apply"},
    "university-search": {"miss": "search_explain", "hit": "warm_explain"},
}


# -- serving -----------------------------------------------------------------


def serve(workload: Workload, steps: Iterator, seconds: float, tracer=None, segment="",
          after_step=None) -> List[Op]:
    """Serve whole steps of the stream until *seconds* have passed."""
    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    served = 0
    while time.perf_counter() < deadline:
        for request in next(steps):
            if tracer is not None:
                tracer.request = f"{segment}:{request.kind}:{len(ops)}"
            ops.append(workload.execute(request))
        served += 1
        if after_step is not None:
            after_step(served)
    return ops


def setup_workload(cls, seed: int, scale: str, repeats: int):
    """Set the workload up *repeats* times; keep the last.

    Returns each set-up's seconds at the reference host speed: its wall
    time scaled by ``REFERENCE_PROBE_S`` over the host probes around it,
    so that host-wide slow phases do not read as slower set-up.
    """
    times = []
    workload = None
    for _ in range(repeats):
        workload = None
        gc.collect()
        host = host_probe()
        start = time.perf_counter()
        workload = cls(seed, scale)
        workload.setup()
        seconds = time.perf_counter() - start
        host = (host + host_probe()) / 2
        times.append(seconds * REFERENCE_PROBE_S / host)
    return workload, times


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


# -- statistics ----------------------------------------------------------------


def percentile_summary(values: List[float]) -> Dict[str, float]:
    """Median plus the highest of p90/p99 with at least ten samples beyond it."""
    summary = {"n": len(values), "p50": statistics.median(values)}
    for share, name in ((99, "p99"), (90, "p90")):
        if len(values) * (100 - share) / 100 >= 10:
            summary[name] = statistics.quantiles(values, n=100, method="inclusive")[share - 1]
            break
    return summary


def latencies(ops: List[Op], kind: Optional[str] = None, normalized: bool = False) -> List[float]:
    """Seconds (or probe durations) of the ops that completed, of one kind."""
    return [
        op.seconds / op.host if normalized else op.seconds
        for op in ops
        if (kind is None or op.request.kind == kind) and op.error is None
    ]


def end_to_end(ops: List[Op], mix: Dict[str, int], setup_times: List[float], rss_mb: float) -> Dict[str, dict]:
    medians = {kind: statistics.median(latencies(ops, kind, True)) for kind in mix}
    # Weighted by the stream's own mix, not by the ops served: a run that
    # happens to stop right after a delta must not read as slower.
    mix_cost = sum(mix[kind] * medians[kind] for kind in mix) / sum(mix.values())
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "miss_p50_norm": {"value": medians["miss"], "unit": "probe"},
        "hit_p50_norm": {"value": medians["hit"], "unit": "probe"},
        "mix_cost_norm": {"value": mix_cost, "unit": "probe"},
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, counters: Counter, overhead: float) -> Dict[str, dict]:
    self_s = tracer.self_seconds(lambda request: not request.startswith("memory:"))
    sizes = tracer.sizes_for(lambda segment: segment != "memory")
    peaks = tracer.peak_alloc_mb()
    rows_total = self_s["rows"] + self_s["rows.drift"] + self_s["rows.delta"]
    index_total = self_s["index.build"] + self_s["index.patch"]

    def hit_ratio(layer: str) -> float:
        hits, misses = counters[f"{layer}_hits"], counters[f"{layer}_misses"]
        return ratio(hits, hits + misses)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "border.self_s": metric(self_s["border"], "s"),
        "border.calls": metric(sizes["border"]["calls"], "count"),
        "border.facts_mean": metric(ratio(sizes["border"]["facts"], sizes["border"]["borders"]), "facts"),
        "retrieval.self_s": metric(self_s["retrieval"], "s"),
        "retrieval.calls": metric(sizes["retrieval"]["calls"], "count"),
        "retrieval.source_facts": metric(sizes["retrieval"]["source_facts"], "count"),
        "retrieval.abox_facts": metric(sizes["retrieval"]["abox_facts"], "count"),
        "retrieval.peak_alloc_mb": metric(peaks["retrieval"], "MB"),
        "saturation.self_s": metric(self_s["saturation"], "s"),
        "saturation.calls": metric(sizes["saturation"]["calls"], "count"),
        "rewriting.self_s": metric(self_s["rewriting"], "s"),
        "rewriting.calls": metric(sizes["rewriting"]["calls"], "count"),
        "index.build_self_s": metric(self_s["index.build"], "s"),
        "index.builds": metric(sizes["index.build"]["calls"], "count"),
        "index.facts": metric(sizes["index.build"]["facts"], "count"),
        "index.patches": metric(sizes["index.patch"]["calls"], "count"),
        "index.patch_share": metric(ratio(self_s["index.patch"], index_total), "fraction"),
        "index.peak_alloc_mb": metric(max(peaks["index.build"], peaks["index.patch"]), "MB"),
        "rows.self_s": metric(self_s["rows"], "s"),
        "rows.computed": metric(counters["verdict_row_misses"], "count"),
        "rows.reused": metric(counters["verdict_row_hits"], "count"),
        "rows.hit_ratio": metric(hit_ratio("verdict_row"), "fraction"),
        "rows.drift_share": metric(ratio(self_s["rows.drift"], rows_total), "fraction"),
        "rows.delta_share": metric(ratio(self_s["rows.delta"], rows_total), "fraction"),
        "rows.peak_alloc_mb": metric(max(peaks["rows"], peaks["rows.drift"], peaks["rows.delta"]), "MB"),
        "cache.border_abox_hit_ratio": metric(hit_ratio("border_abox"), "fraction"),
        "cache.saturation_hit_ratio": metric(hit_ratio("saturation"), "fraction"),
        "cache.subquery_hit_ratio": metric(hit_ratio("subquery"), "fraction"),
        "cache.support_hit_ratio": metric(hit_ratio("support"), "fraction"),
        "cache.evictions": metric(counters["evictions"], "count"),
        "cache.delta_invalidations": metric(counters["delta_invalidations"], "count"),
        "candidates.self_s": metric(self_s["candidates"], "s"),
        "candidates.generated": metric(sizes["candidates"]["generated"], "count"),
        "candidates.truncated": metric(sizes["candidates"]["truncated"], "count"),
        "candidates.unexplored_seeds": metric(sizes["candidates"]["unexplored_seeds"], "count"),
        "candidates.peak_alloc_mb": metric(peaks["candidates"], "MB"),
        "ranking.self_s": metric(self_s["ranking"], "s"),
        "ranking.scored": metric(sizes["ranking"]["scored"], "count"),
        "service.self_s": metric(self_s["service"], "s"),
        "service.warm_hits": metric(counters["warm_hits"], "count"),
        "service.drift_updates": metric(counters["drift_updates"], "count"),
        "service.cold_builds": metric(counters["cold_builds"], "count"),
        "service.delta_borders_touched": metric(counters["delta_borders_touched"], "count"),
        "service.delta_sessions_updated": metric(counters["delta_sessions_updated"], "count"),
        "trace.overhead_share": metric(overhead, "fraction"),
    }


def tracing_overhead(untraced: List[Op], traced: List[Op]) -> float:
    """Traced time over what the same op mix cost untraced, minus 1.

    In probe durations, so that host speed drift between the two thirds
    does not read as tracing cost.
    """
    expected = actual = 0.0
    for kind in {op.request.kind for op in traced}:
        base = latencies(untraced, kind, True)
        if base:
            done = latencies(traced, kind, True)
            expected += len(done) * statistics.mean(base)
            actual += sum(done)
    return ratio(actual, expected) - 1.0 if expected else 0.0


# -- runs ------------------------------------------------------------------------


def run_untraced(cls, seed: int, seconds: float, scale: str):
    workload, setup_times = setup_workload(cls, seed, scale, SETUP_REPEATS)
    gc.collect()
    rss = []

    def read_rss(served: int) -> None:
        if served == RSS_STEPS:
            rss.append(peak_rss_mb())

    ops = serve(workload, workload.steps(), seconds, after_step=read_rss)
    rss_mb = rss[0] if rss else peak_rss_mb()
    return workload, ops, end_to_end(ops, workload.mix(), setup_times, rss_mb)


def run_traced(cls, seed: int, seconds: float, scale: str):
    """Untraced, span-traced and tracemalloc-traced thirds of one stream.

    Self times, sizes and counters come from set-up plus the span-traced
    third, allocation peaks from the tracemalloc third; the overhead
    compares the span-traced third with the untraced one.
    """
    from e2ebench.trace import LayerTracer

    tracer = LayerTracer().install()
    try:
        tracer.recording = True
        tracer.request = "setup:setup:0"
        workload = cls(seed, scale)
        workload.setup()
        tracer.recording = False
        # Set-up requests bypass execute(): take the resident service's
        # counters as they stand (a per-request service does not exist yet).
        counters = Counter()
        if workload.service is not None:
            counters.update(workload.service.stats.as_dict())
            counters.update(workload.service.cache_stats.as_dict())
        steps = workload.steps()
        third = seconds / 3
        untraced = serve(workload, steps, third)
        before = Counter(workload.counters)
        tracer.recording = True
        traced = serve(workload, steps, third, tracer, "spans")
        counters.update(workload.counters)
        counters.subtract(before)
        tracer.start_memory()
        memory = serve(workload, steps, third, tracer, "memory")
    finally:
        tracer.uninstall()
    ops = untraced + traced + memory
    metrics = per_layer(tracer, counters, tracing_overhead(untraced, traced))
    return workload, ops, metrics, tracer


# -- reporting ---------------------------------------------------------------------


def print_summary(workload, ops: List[Op], metrics: Dict[str, dict], tracer=None) -> None:
    names = OPERATION_NAMES[workload.name]
    failed = sum(not op.ok for op in ops)
    print(f"# {workload.name} (seed {workload.seed}, scale {workload.scale}): {workload.why}")
    for kind, label in names.items():
        values = latencies(ops, kind)
        if not values:
            continue
        summary = percentile_summary(values)
        unit, scale = ("s", 1.0) if statistics.median(values) >= 0.5 else ("ms", 1e3)
        parts = [f"{label}_{stat}_{unit} = {summary[stat] * scale:.4f}" for stat in ("p50", "p90", "p99") if stat in summary]
        normalized = statistics.median(latencies(ops, kind, True))
        print(f"  {', '.join(parts)}  (n={summary['n']}; p50 = {normalized:.1f} probe)")
    probes = sorted(op.host for op in ops if op.host)
    if probes:
        print(f"  host probe = {1e3 * probes[len(probes) // 2]:.3f} ms median, {1e3 * probes[0]:.3f} ms fastest")
    print(f"  failed_share = {failed / max(1, len(ops)):.4f} fraction  ({failed} of {len(ops)})")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if tracer is not None:
        print("  self seconds by phase and layer:")
        for phase in ("setup", "miss", "hit", "delta"):
            seconds = tracer.self_seconds(
                lambda request: request.split(":")[1] == phase and not request.startswith("memory:")
            )
            if seconds:
                ranked = sorted(seconds.items(), key=lambda item: -item[1])
                print(f"    {phase:6} " + ", ".join(f"{layer}={value:.4f}" for layer, value in ranked))
    for op in ops:
        if not op.ok:
            print(f"  FAILED {op.request.kind} {op.request.key()[:80]}: {op.error or 'output differs from reference'}")
            break


def run_one(workload_name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    cls = WORKLOADS[workload_name]
    tracer = None
    if trace:
        workload, ops, metrics, tracer = run_traced(cls, seed, seconds, scale)
    else:
        workload, ops, metrics = run_untraced(cls, seed, seconds, scale)
    start = time.perf_counter()
    attach_expected(workload, ops)
    print_summary(workload, ops, metrics, tracer)
    print(f"  reference check took {time.perf_counter() - start:.1f} s")
    failed = sum(not op.ok for op in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        # One fresh process per workload, so each peak RSS is its own.
        status = 0
        for name in sorted(WORKLOADS):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--scale", args.scale]
            status |= subprocess.run(command, check=False).returncode
        return status
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
