"""The repository benchmark: one workload per process, on both clocks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), drives its closed loop for about ``--seconds`` of loop time,
checks every answer against the naive-join oracle and prints the
end-to-end metrics of ``BENCHMARK.json``.  Latencies are bounded as the
fastest run of each operation (see ``measure.best_ms``); medians, tails
and throughput go to the detail line.  ``--trace 1`` sets up once with
the span tracer installed, runs half the loop untraced and half traced,
and prints the per-layer metrics; its spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's stamp, sample counts and any mismatches.  The exit code is
0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3

#: per-layer self-time metrics -> the span names they add up
SELF_TIME_METRICS = {
    "serving.self_ms": ("serving.submit", "serving.serve"),
    "query.statistics.self_ms": ("query.statistics",),
    "query.planner.self_ms": ("query.planner",),
    "query.parser.self_ms": ("query.parser",),
    "query.engine.self_ms": ("query.engine",),
    "core.bfhm.self_ms": ("core.bfhm", "core.bfhm.prepare"),
    "core.isl.self_ms": ("core.isl", "core.isl.prepare"),
    "core.ijlmr.self_ms": ("core.ijlmr", "core.ijlmr.prepare"),
    "core.multiway.isl.self_ms": ("core.multiway.isl", "core.multiway.isl.prepare"),
    "core.multiway.hrjn.self_ms": ("core.multiway.hrjn", "core.multiway.hrjn.prepare"),
    "core.multiway.bfhm.self_ms": ("core.multiway.bfhm", "core.multiway.bfhm.prepare"),
    "baselines.hive.self_ms": ("baselines.hive", "baselines.hive.prepare"),
    "baselines.pig.self_ms": ("baselines.pig", "baselines.pig.prepare"),
    "baselines.drjn.self_ms": ("baselines.drjn", "baselines.drjn.prepare"),
    "mapreduce.self_ms": ("mapreduce",),
    "store.read_self_ms": ("store.read",),
    "store.write_self_ms": ("store.write",),
    "sketches.decode_self_ms": ("sketches.decode",),
    "maintenance.self_ms": ("maintenance",),
    "cluster.scatter_self_ms": ("cluster.scatter",),
    "bench.client_self_ms": ("op",),
}
PREPARE_LAYERS = ("core.isl", "core.bfhm", "core.ijlmr", "baselines.drjn",
                  "core.multiway.isl", "core.multiway.bfhm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- checks -------------------------------------------------------------------


def answer_problems(env, samples) -> "list[str]":
    """Reads whose score list differs from the oracle at their epoch."""
    from perfbench.oracle import scores_match

    problems = []
    for sample in samples:
        if sample.kind != "read" or not sample.ok:
            continue
        want = env.expected(sample.epoch, sample.key)
        got = [row.score for row in sample.result.tuples]
        if not scores_match(got, want):
            problems.append(
                f"{sample.key!r} at write {sample.epoch}: got {got[:5]}... "
                f"want {list(want[:5])}..."
            )
    return problems[:20]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def same_answer(first, second) -> bool:
    """Equal tuples and equal simulated metrics.  Integer meters must match
    exactly; float meters to 1e-9 relative, because a query's metrics are
    the difference of two running totals and its last digits depend on how
    large those totals already were."""
    a, b = first.metrics, second.metrics
    return (
        first.tuples == second.tuples
        and all(_close(getattr(a, f.name), getattr(b, f.name))
                for f in dataclasses.fields(a) if f.name != "counters")
        and a.counters.keys() == b.counters.keys()
        and all(_close(value, b.counters[name]) for name, value in a.counters.items())
    )


def failures(samples) -> "list[str]":
    return [f"{sample.kind} {sample.key!r}: {sample.error}"
            for sample in samples if not sample.ok][:20]


# -- untraced run ---------------------------------------------------------------


def run_untraced(name: str, seed: int, seconds: float):
    from perfbench import workloads
    from perfbench.measure import best_ms, best_per_shape_ms, latency_ms, peak_rss_mb
    from perfbench.oracle import store_mismatches

    def checked(env, runner) -> list:
        env.close()
        problems.extend(answer_problems(env, runner.samples)
                        + store_mismatches(env.platform, env.model))
        return runner.samples

    setup_times, samples, problems = [], [], []
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        start = perf_counter()
        env = workloads.setup(name)
        setup_times.append(perf_counter() - start)
        # write cycles on each discarded set-up: the same batches as on
        # the kept one, at other moments of the run
        runner = workloads.Runner(env)
        workloads.probe_writes(runner)
        samples += checked(env, runner)
    gc.collect()
    start = perf_counter()
    env = workloads.setup(name)
    setup_times.append(perf_counter() - start)
    env.refresh_oracle()
    runner = workloads.Runner(env)
    gc.collect()
    loop_s = workloads.LOOPS[name](runner, seconds, seed)
    loop_reads = [s for s in runner.samples if s.kind == "read"]
    if name != "served_mixed":
        workloads.probe_writes(runner)
    samples += checked(env, runner)

    ok_reads = [s for s in loop_reads if s.ok]
    shape_reads = [s for s in loop_reads if not s.after_write]
    after_write = [s for s in samples if s.after_write]
    writes = [s for s in samples if s.kind == "write"]
    query_best, per_shape = best_per_shape_ms(shape_reads)
    raw_best, raw_count = best_ms(after_write)
    write_best, write_count = best_ms(writes)

    def per_query(attribute):
        return sum(getattr(s.result.metrics, attribute) for s in ok_reads) / len(ok_reads)

    metrics = {
        "setup_s": statistics.median(setup_times),
        "query_best_ms": query_best,
        "sim_s_per_query": per_query("sim_time_s"),
        "kv_reads_per_query": per_query("kv_reads"),
        "net_bytes_per_query": per_query("network_bytes"),
        "index_bytes_per_base_byte": env.index_bytes_per_base_byte(),
        "peak_rss_mb": peak_rss_mb(),
    }
    # medians, tails and writes follow the host's load: reported, not
    # bounded
    p50, _, count = latency_ms(loop_reads, 0.5, loop_s)
    p90, beyond90, _ = latency_ms(loop_reads, 0.9, loop_s)
    p99, beyond99, _ = latency_ms(loop_reads, 0.99, loop_s)
    detail = {
        "setup_s_each": setup_times,
        "loop_s": loop_s,
        "samples": {
            "loop_reads": count,
            "query_best_ms_fewest_per_shape": per_shape,
            "read_after_write": raw_count,
            "writes": write_count,
        },
        "query_p50_ms": p50,
        "query_p90_ms": p90,
        "query_p90_ms_beyond": beyond90,
        "query_p99_ms": p99 if beyond99 >= 10 else None,
        "query_p99_ms_beyond": beyond99,
        "query_qps": len(ok_reads) / loop_s,
        "read_after_write_best_ms": raw_best,
        "write_best_ms": write_best,
        "read_after_write_p50_ms": latency_ms(after_write, 0.5, loop_s)[0],
        "write_p50_ms": latency_ms(writes, 0.5, loop_s)[0],
        "failed_frac": sum(1 for s in samples if not s.ok) / len(samples),
        "failures": failures(samples),
    }
    return env, samples, metrics, problems, detail


# -- traced run -----------------------------------------------------------------


def _cache_counters(env) -> dict:
    from repro.core.bfhm.blobcache import blob_cache

    counters = {"blob_hits": blob_cache.hits, "blob_misses": blob_cache.misses}
    server = getattr(env, "server", None)
    if server is not None:
        stats = server.stats()
        counters.update(
            plan_hits=server.plan_cache.hits, plan_misses=server.plan_cache.misses,
            statement_hits=stats["statement_hits"],
            statement_misses=stats["statement_misses"],
        )
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tracing_identity(env, tracer, off_samples, on_samples):
    """Answers and simulated metrics must not depend on tracing.

    Each key is read twice untraced and once traced.  The two untraced
    reads must repeat each other, except on ``workloads.UNREPEATABLE``
    (Hive, Pig and the n-way BFHM cascade on paper_grid, whose simulated
    metrics vary between identical reads): there only the answers are
    compared.  Returns
    (problems, the exempted keys whose untraced reads differed)."""
    from perfbench.workloads import UNREPEATABLE

    triples = []
    if hasattr(env, "server"):
        for key in env.keys:
            first, _ = env.read(key)
            second, _ = env.read(key)
            tracer.install(server=env.server)
            try:
                traced, _ = tracer.op(0, env.read, key)
            finally:
                tracer.uninstall()
            triples.append((key, first, second, traced))
    else:
        # paper_grid: the untraced half ran at least two whole passes
        off: "dict[object, list]" = {}
        for sample in off_samples:
            off.setdefault(sample.key, []).append(sample.result)
        on = {s.key: s.result for s in reversed(on_samples)}
        triples = [(key, *off[key][:2], on[key]) for key in env.keys]
    problems, unrepeatable = [], []
    for key, first, second, traced in triples:
        if first is None or second is None or traced is None:
            problems.append(f"{key!r}: a read failed during the identity check")
        elif key in UNREPEATABLE:
            if not same_answer(first, second):
                unrepeatable.append(repr(key))
            if not first.tuples == second.tuples == traced.tuples:
                problems.append(f"{key!r}: answer differs with tracing")
        elif not same_answer(first, second):
            problems.append(f"{key!r}: two untraced reads differ in answer or "
                            "simulated metrics")
        elif not same_answer(first, traced):
            problems.append(f"{key!r}: answer or simulated metrics differ with tracing")
    return problems, unrepeatable


def run_traced(name: str, seed: int, seconds: float):
    from perfbench import workloads
    from perfbench.oracle import store_mismatches
    from perfbench.trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        env = workloads.setup(name)
    finally:
        tracer.uninstall()
    env.refresh_oracle()
    loop = workloads.LOOPS[name]
    # paper_grid: two untraced passes (the identity check compares them)
    # and at least one traced pass
    off_extra = {"min_passes": 2} if name == "paper_grid" else {}
    on_extra = {"min_passes": 1} if name == "paper_grid" else {}

    untraced = workloads.Runner(env)
    tracer.phase = "untraced"
    gc.collect()
    off_s = loop(untraced, seconds / 2, seed, **off_extra)

    traced = workloads.Runner(env, tracer)
    before = _cache_counters(env)
    tracer.phase = "loop"
    gc.collect()
    tracer.install(server=getattr(env, "server", None))
    try:
        on_s = loop(traced, seconds / 2, seed, **on_extra)
    finally:
        tracer.uninstall()
    after = _cache_counters(env)
    tracer.phase = "identity"
    problems, unrepeatable = _tracing_identity(env, tracer, untraced.samples, traced.samples)
    env.close()
    samples = untraced.samples + traced.samples
    problems += answer_problems(env, samples) + store_mismatches(env.platform, env.model)

    ops = max(1, len(traced.samples))
    selfs = tracer.self_times("loop")
    delta = {key: after[key] - before[key] for key in after}
    reads = [s for s in traced.samples if s.ok and s.kind == "read"]
    results = [s.result for s in reads]

    def of(algorithm):
        return [r for r in results if r.algorithm == algorithm]

    def count(counter):
        return tracer.phase_count("loop", counter)

    bfhm, isl, drjn = of("BFHM"), of("ISL"), of("DRJN")
    metrics = {
        metric: 1000.0 * sum(selfs.get(span, 0.0) for span in spans) / ops
        for metric, spans in SELF_TIME_METRICS.items()
    }
    metrics.update({
        "serving.queue_wait_ms": _ratio(1000.0 * sum(s.waited_s for s in reads), len(reads)),
        "serving.plan_cache_hit_ratio": _ratio(
            delta.get("plan_hits", 0), delta.get("plan_hits", 0) + delta.get("plan_misses", 0)),
        "serving.statement_cache_hit_ratio": _ratio(
            delta.get("statement_hits", 0),
            delta.get("statement_hits", 0) + delta.get("statement_misses", 0)),
        "query.statistics.gathers": count("query.statistics.gathers"),
        "query.planner.plans": count("query.planner.calls") - delta.get("plan_hits", 0),
        "core.bfhm.repair_rounds_per_query": _ratio(
            sum(r.details.get("repair_rounds", 0) for r in bfhm), len(bfhm)),
        "core.bfhm.useful_ratio": _ratio(
            sum(len(r.tuples) for r in bfhm),
            sum(r.details.get("reverse_rows_fetched", 0) for r in bfhm)),
        "core.isl.useful_ratio": _ratio(
            sum(r.k for r in isl),
            sum(r.details.get("tuples_seen_left", 0) + r.details.get("tuples_seen_right", 0)
                for r in isl)),
        "baselines.drjn.rounds": _ratio(sum(r.details.get("rounds", 0) for r in drjn), len(drjn)),
        "mapreduce.jobs": count("mapreduce.jobs"),
        "store.read_calls": count("store.read_calls"),
        "store.write_calls": count("store.write_calls"),
        "sketches.blob_decodes": count("sketches.blob_decodes"),
        "sketches.blob_cache_hit_ratio": _ratio(
            delta["blob_hits"], delta["blob_hits"] + delta["blob_misses"]),
        "maintenance.batches": count("maintenance.batches"),
        "bench.writes": sum(1 for s in traced.samples if s.kind == "write"),
        "maintenance.rows_applied": count("maintenance.rows_applied"),
        "cluster.scatter_rounds": count("cluster.scatter_rounds"),
        "trace.overhead_ratio": _ratio(on_s / ops, off_s / max(1, len(untraced.samples))),
        "trace.spans_per_op": tracer.spans_in("loop") / ops,
    })
    build = tracer.durations("setup")
    for layer in PREPARE_LAYERS:
        metrics[f"{layer}.prepare_ms"] = 1000.0 * build.get(layer + ".prepare", 0.0)

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"{name}.spans.jsonl"))
    detail = {
        "loop_s": {"untraced": off_s, "traced": on_s},
        "ops": {"untraced": len(untraced.samples), "traced": len(traced.samples)},
        "unrepeatable": unrepeatable,
        "failed_frac": sum(1 for s in samples if not s.ok) / len(samples),
        "failures": failures(samples),
    }
    return env, samples, metrics, problems, detail


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench import workloads
    from perfbench.measure import stamp

    if args.workload not in workloads.SETUPS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.SETUPS)}", file=sys.stderr)
        return 2
    definition = load_definition()
    kind = "per_layer" if args.trace else "end_to_end"
    run = run_traced if args.trace else run_untraced
    env, samples, measured, problems, detail = run(args.workload, args.seed, args.seconds)

    missing = [m["name"] for m in definition[kind] if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail.update(stamp(ROOT, args.workload, args.seed, env.scale, env.topology))
    detail["trace"] = args.trace
    detail["problems"] = problems
    print(json.dumps(detail))
    failed = sum(1 for sample in samples if not sample.ok)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in definition[kind]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
