"""Steadiness check: run each workload repeatedly and compare the spread
of every end-to-end metric with its bound in BENCHMARK.json.

    python3 lchbench/steady.py [--seeds 10] [--sets 1]

Each set runs every workload once per seed 1..N, for the run_seconds of
BENCHMARK.json.  For each metric it prints the median, the quartiles and
the interquartile spread as a share of the median, next to the bound and
a third of it.  With --sets 2 it also checks that the second set's median
is not worse than the first's by more than the bound.  It exits 1 when a
spread or a drift exceeds its bound.  Raw results go to
.lchbench/out/steady.json.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int) -> dict:
    argv = [sys.executable, os.path.join(ROOT, "lchbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    raw: dict = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.seeds + 1):
                result = run_once(workload, seed)
                runs.append(result)
                ok &= result["correct"] is True
                print(f"{workload} set {s + 1} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}: metric, median [q1, q3], spread vs bound/3 (bound)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                flag = "ok" if rel <= bound / 3 else "WIDE" if rel <= bound else "OVER BOUND"
                ok &= rel <= bound
                print(f"  {name:16s} {median:12.6g} {metric['unit']:5s} [{q1:.6g}, {q3:.6g}] "
                      f"spread {rel:.4f} vs {bound / 3:.4f} ({bound}) {flag}")
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], metric["better"])
                verdict = "ok" if drift <= bound else "WORSE"
                ok &= drift <= bound
                print(f"  {'':16s} second median worse by {drift:+.4f} (bound {bound}) {verdict}")
        print()
    os.makedirs(os.path.join(ROOT, ".lchbench", "out"), exist_ok=True)
    with open(os.path.join(ROOT, ".lchbench", "out", "steady.json"), "w") as handle:
        json.dump(raw, handle)
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
