"""The workload process, started fresh by run.py for every measurement.

    worker.py probe --root R --workdir W --workload NAME
        Time the import of lchkit and all its submodules plus the
        workload's warm-up requests; print {"import_s", "warmup_s"}.

    worker.py run --root R --workdir W --outdir O --workload NAME --seed N
                  --seconds S --trace 0|1 --result FILE
        Warm up, run the closed loop, check every answer, write the
        measured values to FILE.  Untraced, the loop pauses after a third
        and after two thirds of the timed phase for MID_PROBES set-up
        probes each.  With --trace 1 every round runs traced and then
        again untraced, which measures the tracing overhead.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

MID_PROBES = 3


def import_program(root: str) -> float:
    """Import lchkit and every submodule from the checkout; return seconds.

    Runs before anything else is imported, so standard-library modules
    that lchkit pulls in are paid for here, as in a fresh `lch` process.
    """
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    package = os.path.join(src, "lchkit")
    names = sorted(f[:-3] for f in os.listdir(package) if f.endswith(".py") and f != "__init__.py")
    t0 = time.perf_counter()
    import lchkit

    for name in names:
        importlib.import_module(f"lchkit.{name}")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(lchkit.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"lchkit was imported from {lchkit.__file__}, not from {src}")
    return elapsed


def setup_probes(root: str, workdir: str, workload: str, count: int) -> list[float]:
    """Set-up seconds (import plus warm-up) of `count` fresh probe processes."""
    import json
    import subprocess

    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "probe", "--root", root,
             "--workdir", workdir, "--workload", workload],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(probe["import_s"] + probe["warmup_s"])
    return values


def main() -> None:
    # plain "--key value" pairs: argparse is not imported before lchkit
    mode, rest = sys.argv[1], sys.argv[2:]
    opts = {k.lstrip("-"): v for k, v in zip(rest[::2], rest[1::2])}
    import_s = import_program(opts["root"])
    sys.path.insert(0, opts["root"])
    import json

    from lchbench import corpus, harness

    workdir = opts["workdir"]
    workload_cls = corpus.WORKLOADS[opts["workload"]]
    if mode == "probe":
        executor = harness.Executor()
        t0 = time.perf_counter()
        harness.warm(workload_cls, os.path.join(workdir, "warmup"), executor)
        print(json.dumps({"import_s": import_s, "warmup_s": time.perf_counter() - t0}))
        return

    seed, seconds = int(opts["seed"]), float(opts["seconds"])
    executor = harness.Executor()
    harness.warm(workload_cls, os.path.join(workdir, "warmup"), executor)
    workload = workload_cls(seed, os.path.join(workdir, "loop"))
    spool = os.path.join(workdir, "outputs.jsonl")
    tracer = twin = None
    mid_setup: list[float] = []
    marks = [seconds / 3, 2 * seconds / 3]

    def pause(elapsed: float) -> None:
        # set-up probes spread over the run sample the machine at the same
        # times as the workload's own metrics
        while marks and elapsed >= marks[0]:
            marks.pop(0)
            mid_setup.extend(setup_probes(opts["root"], workdir, opts["workload"], MID_PROBES))

    if opts["trace"] == "1":
        from lchbench.trace import Tracer

        tracer = executor.tracer = Tracer()
        twin_executor = harness.Executor()
        harness.warm(workload_cls, os.path.join(workdir, "warmup"), twin_executor)
        twin = (tracer, workload_cls(seed, os.path.join(workdir, "twin")), twin_executor)
    try:
        records, elapsed, untraced, same = harness.closed_loop(
            workload, executor, seconds, spool, twin, pause=None if twin else pause
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"peak_rss_mb": harness.peak_rss_mb(), "mid_setup_s": mid_setup}
    result.update(harness.latency_metrics(records, elapsed, workload.tail_percentile))
    result.update(harness.gate(workload_cls(seed, None), records, spool))
    result.update(attempted=len(records), rounds=records[-1][0] + 1, elapsed_s=elapsed)
    if tracer is not None:
        problems = []
        if not same:
            problems.append("tracing changed the output")
        if tracer.missing:
            problems.append("targets not traced: " + ", ".join(tracer.missing))
        for reason in problems:
            result["failures"].append({"kind": "trace", "reason": reason,
                                       "known": False, "defect": None})
            result["correct"] = False
        metrics = tracer.metrics(elapsed)
        metrics["trace.overhead_frac"] = (elapsed - untraced) / untraced
        metrics["trace.requests"] = len(records)
        result["layer_metrics"] = metrics
        result["untraced_elapsed_s"] = untraced
        result["missing_targets"] = tracer.missing
        tracer.write(os.path.join(opts["outdir"], f"spans-{opts['workload']}.bin"))
    with open(opts["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
