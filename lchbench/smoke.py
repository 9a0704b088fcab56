"""Tiny-scale smoke test of the benchmark itself.

    python3 lchbench/smoke.py

Checks BENCHMARK.json against its format; runs every workload for one
second untraced and traced and checks that the last stdout line is the
result object with exactly the metric names and units of BENCHMARK.json;
and checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark's own
files.  Exits 0 when everything holds.  Not part of the test suite.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_format(bench: dict) -> list[str]:
    errors = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errors.append("top-level keys")
    if not (1 <= len(bench["paths"]) <= 16) or not all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/") for p in bench["paths"]
    ):
        errors.append("paths")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds")
    if not (2 <= len(bench["workloads"]) <= 8) or any(
        set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]
        for w in bench["workloads"]
    ):
        errors.append("workloads")
    for group, keys, limit in (("end_to_end", {"name", "unit", "better", "bound"}, 16),
                               ("per_layer", {"name", "unit", "better"}, 128)):
        items = bench[group]
        if not (1 <= len(items) <= limit):
            errors.append(f"{group} size")
        for m in items:
            if set(m) != keys or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
                errors.append(f"{group} entry {m.get('name')}")
            if group == "end_to_end" and not (0 < m["bound"] <= 0.25):
                errors.append(f"bound of {m['name']}")
    names = [x["name"] for g in ("workloads", "end_to_end", "per_layer") for x in bench[g]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        errors.append("names not unique or malformed")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s")
    elif setup[0]["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s does not have the largest bound")
    return errors


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "lchbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=180)


def check_result(bench: dict, proc, trace: int) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys")
    if result["correct"] is not True or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        errors.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']}")
    return errors


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = [f"BENCHMARK.json: {e}" for e in check_format(bench)]
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors = check_result(bench, run(ROOT, w["name"], trace), trace)
            failures += [f"{w['name']} trace={trace}: {e}" for e in errors]
            print(f"{w['name']} trace={trace}: {'ok' if not errors else 'FAILED'}", flush=True)

    bare = os.path.join(ROOT, ".lchbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("ran without the program's sources")
        print(f"without sources: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAILED {f}")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
