"""Run one benchmark workload and print its metrics as one JSON line.

    python3 lchbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout is the directory above this file, and
lchkit is imported from its `src/`.  The seeded inputs are generated
under `.lchbench/work/` and removed afterwards; reports and trace spans
go to `.lchbench/out/`.  Details are printed to stderr.  The last line
of stdout is {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import setup_probes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "lchbench", "worker.py")
PROBES = 3  # set-up probes before the workload process, and as many after it
DEADLINE_S = 170.0


def fail(message: str, code: int = 1) -> None:
    print(f"lchbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def worker_argv(mode: str, **opts) -> list[str]:
    argv = [sys.executable, WORKER, mode]
    for key, value in opts.items():
        argv += [f"--{key}", str(value)]
    return argv


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        fail("out of time")
    return left


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    # inherited by every child: the same seed gives the same output bytes
    os.environ.pop("LCH_COLOR", None)
    os.environ["PYTHONHASHSEED"] = "0"

    if not os.path.isfile(os.path.join(ROOT, "src", "lchkit", "__init__.py")):
        fail(f"no lchkit sources under {os.path.join(ROOT, 'src')}", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}", 2)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    base = os.path.join(ROOT, ".lchbench")
    outdir = os.path.join(base, "out")
    workdir = os.path.join(base, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    try:
        # probes before, during (run by the workload process) and after the
        # workload sample the machine over the same stretch of time as the
        # workload's own metrics
        setup = [] if args.trace else setup_probes(ROOT, workdir, args.workload, PROBES)
        proc = subprocess.run(
            worker_argv("run", root=ROOT, workdir=workdir, outdir=outdir, workload=args.workload,
                        seed=args.seed, seconds=seconds, trace=args.trace, result=result_path),
            stdout=sys.stderr, cwd=ROOT, timeout=remaining(start),
        )
        if proc.returncode != 0:
            fail(f"workload process exited with {proc.returncode}")
        with open(result_path) as handle:
            result = json.load(handle)
        if not args.trace:
            setup += result["mid_setup_s"] + setup_probes(ROOT, workdir, args.workload, PROBES)
    except subprocess.TimeoutExpired:
        fail("workload did not finish in time")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = result["layer_metrics"]
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "throughput_rps": result["throughput_rps"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_tail_ms": result["latency_tail_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - len(result["failures"]) / result["attempted"],
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=seconds, setup_samples_s=setup, metrics=metrics)
    report_path = os.path.join(outdir, f"report-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    failures = result["failures"]
    print(
        f"lchbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} requests in {result['rounds']} rounds, {result['elapsed_s']:.1f} s; "
        f"failed {len(failures)} ({result['defect_requests']} built to hit documented defects); "
        f"repeated share {result['repeated_share']:.4f}; "
        f"tail p{result['tail_percentile']:g} with {result['tail_samples_beyond']} samples beyond\n"
        f"  inputs sha256 {result['inputs_sha256']}  stdout sha256 {result['stdout_sha256']} "
        f"(first {result['digest_rounds']} rounds)\n  report: {report_path}",
        file=sys.stderr,
    )
    for f in failures[:5]:
        print(f"  failed: {f['kind']} {f.get('argv')} -> {f['reason']}"
              f"{' [documented defect ' + f['defect'] + ']' if f['known'] else ''}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
