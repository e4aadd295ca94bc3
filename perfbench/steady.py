"""Steadiness check: two sets of benchmark runs on one commit.

Run from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads served_hot,paper_grid]
        [--trace-check]

Each of the two sets runs ``run.py`` ``--runs`` times per workload, seed
1, 2, ...  For every workload x end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles), and whether
the sets agree: every spread within the metric's bound, setup_s's too, and
the two medians apart by no more than the bound, in either direction.
``--trace-check`` adds one traced run per workload and checks the layer
predictions of ``perfbench/layers.json``.  Raw results go to
``perfbench/out/steady.json``.  The exit code is 0 when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUN_TIMEOUT_S = 900
SETS = 2


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run's result line, with its wall time added as ``wall_s``."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed "
                           f"operations: {lines[-2] if len(lines) > 1 else ''}")
    result["wall_s"] = time.monotonic() - start
    return result


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, first quartile, third quartile, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it
    (negative when it is better)."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def check_prediction(metrics: dict, prediction: dict) -> bool:
    value = metrics[prediction["metric"]]["value"]
    expect = prediction["expect"]
    if expect == "zero":
        return value == 0
    if expect == "positive":
        return value > 0
    if expect.startswith("half "):
        other = metrics[expect.split(" ", 1)[1]]["value"]
        return other > 0 and value == other / 2
    raise ValueError(f"unknown expectation {expect!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        definition = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        predictions = json.load(handle)["predictions"]
    names = ([w for w in args.workloads.split(",") if w]
             or [w["name"] for w in definition["workloads"]])
    seconds = definition["run_seconds"]

    raw: dict = {}
    ok = True
    for workload in names:
        raw[workload] = []
        for _ in range(SETS):
            raw[workload].append([
                run_once(workload, seed, seconds, 0)
                for seed in range(1, 1 + args.runs)
            ])
        walls = [run["wall_s"] for runs in raw[workload] for run in runs]
        print(f"\n{workload}  ({SETS} sets x {args.runs} runs, {seconds:g} s;"
              f" wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
              f" {'bound':>6} {'worse':>7}  verdict")
        for metric in definition["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[run["metrics"][name]["value"] for run in runs] for runs in raw[workload]]
            stats = [spread(values) for values in sets]
            for number, (median, q1, q3, share) in enumerate(stats):
                worse = worse_by(stats[0][0], median, metric["better"])
                good = abs(worse) <= bound and share <= bound
                steady = share < bound / 3
                ok = ok and good
                verdict = ("ok" if good else "FAIL") + ("" if steady else " (spread > bound/3)")
                print(f"  {name if number == 0 else '':26} {median:12.5g} {q1:12.5g}"
                      f" {q3:12.5g} {share:7.3f} {bound:6.2f} {worse:+7.3f}  {verdict}")

    if args.trace_check:
        print("\nlayer predictions (one traced run each, seed 1)")
        traced = {w: run_once(w, 1, seconds, 1) for w in names}
        for prediction in predictions:
            if prediction["workload"] not in traced:
                continue
            metrics = traced[prediction["workload"]]["metrics"]
            good = check_prediction(metrics, prediction)
            ok = ok and good
            value = metrics[prediction["metric"]]["value"]
            print(f"  {prediction['workload']:13} {prediction['metric']:30} "
                  f"{prediction['expect']:28} {value:>12.5g}  {'ok' if good else 'FAIL'}")
        raw["traced"] = traced

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    print("\nall agree" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
