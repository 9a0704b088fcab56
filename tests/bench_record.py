"""Write a perf record comparing a parent checkout of lchkit with this one.

    python3 tests/bench_record.py --parent DIR --out BENCH_<n>.json

DIR is a checkout of the parent commit, for example made with
`git archive <rev> | tar -x -C DIR`.  Each side runs its own lchbench and
imports lchkit from its own `src/`.  The record is one JSON object:

- `runs`: the end-to-end metrics of `lchbench/run.py`, `PAIRS` pairs of
  parent and new runs of BENCHMARK.json's `run_seconds` for every workload
  and each of `SEEDS`, so 10 pairs per workload.  The two sides of a pair
  run back to back; the side that goes first alternates from one pair to
  the next of a seed and between the seeds, with the
  `stdout_sha256`/`inputs_sha256` of each report;
- `summary`: per workload and metric, each side's quartiles over its runs
  and the share of pairs the new side wins;
- `traced`: per workload of `TRACED`, one `--trace 1` run of
  `TRACE_SECONDS` per side, seed 1, with the calls and self seconds of
  each listed target per request and per call, and the listed metrics as
  they are (for `polytope-faces`, `polytopes.vertices.yield`: vertices
  handed out per lattice call made inside `vertices`);
- `ladder`: per kernel of `LADDERS`, one cold call per size, each in a
  fresh process, with the growth exponent of each step in the kernel's
  problem size (disks on a path for `canonical_encoding`, the 2^d
  vertices of `cube(d)` for `codim2_faces`);
- `small_types_us_per_call`: microseconds per `canonical_encoding` call on seeded
  1-4-vertex building types (the size the type enumeration encodes), by
  `timeit`;
- `strata_peak_mb`: the median tracemalloc peak of five `lch strata
  --type` runs in one process, after one untraced run that does the lazy
  imports, on the largest tree of the first 100 building-types rounds,
  seed 1 (128 disks; a 30 s run gets through about 150 rounds).
  The peak is set by the JSON output; it moves by tens of KB from one run
  to the next in one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 7)
PAIRS = 5  # per seed
TRACE_SECONDS = 30
# workload -> (targets reported per request and per call, metrics copied as they are)
TRACED = {
    "building-types": (("buildings.canonical_encoding", "rational.rat_str"), ("buildings.self_s",)),
    "polytope-faces": (("lattice.null_space", "lattice.rational_rank", "polytopes.codim2_faces"),
                       ("polytopes.vertices.yield", "polytopes.self_s", "lattice.self_s")),
}
# kernel probe -> (sizes, problem size of each, in which the exponents are fitted)
LADDERS = {
    "canonical_encoding_path": ((64, 128, 256, 512), lambda n: n),
    "codim2_faces_cube": ((4, 5, 6, 7), lambda d: 2**d),
}


# -- probes, run in a child process against one side's sources ---------------------


def path_type(B, n: int):
    """A path of n disks joined by finite Lagrangian edges, a leaf at each end."""
    vids = [f"d{i:04d}" for i in range(n)]
    edges = [B.Edge(f"e{i}", (vids[i - 1], vids[i]), "L") for i in range(1, n)]
    edges += [B.Edge("first", (vids[0],), "L"), B.Edge("last", (vids[-1],), "L")]
    return B.BuildingType(vertices=tuple(B.Vertex(v, "disk") for v in vids), edges=tuple(edges))


def small_types(B, v: int, count: int = 200) -> list:
    """Seeded single-level disk trees on v vertices with 0-5 leaves."""
    rng = random.Random(v)
    types = []
    for _ in range(count):
        vids = [f"v{x}" for x in rng.sample(range(100), v)]
        edges = [B.Edge(f"e{i}", (vids[rng.randrange(i)], vids[i]), rng.choice(("L", "white-", "white+")),
                        rng.choice(("finite", "zero"))) for i in range(1, v)]
        edges += [B.Edge(f"l{j}", (rng.choice(vids),), rng.choice(("L", "white-", "white+", "D")))
                  for j in range(rng.randrange(6))]
        rng.shuffle(edges)
        types.append(B.BuildingType(vertices=tuple(B.Vertex(x, "disk") for x in vids), edges=tuple(edges)))
    return types


def largest_corpus_tree(workdir: str) -> str:
    """Path of the largest `strata --type` tree of building-types rounds 0-99, seed 1."""
    sys.path.insert(0, REPO)
    from lchbench import corpus

    work = corpus.BuildingTypes(1, workdir)
    trees = [r.argv[-1] for i in range(100) for r in work.round(i) if r.argv and r.argv[0] == "strata"]

    def disks(path: str) -> int:
        with open(path) as handle:
            return len(json.load(handle)["vertices"])

    return max(trees, key=disks)


def probe(name: str, src: str, arg: str) -> object:
    sys.path.insert(0, src)
    import lchkit.buildings as B
    import lchkit.polytopes as P

    if name == "canonical_encoding_path":
        t = path_type(B, int(arg))
        t0 = time.perf_counter()
        B.canonical_encoding(t)
        return time.perf_counter() - t0
    if name == "codim2_faces_cube":
        p = P.cube(int(arg))
        t0 = time.perf_counter()
        P.codim2_faces(p)
        return time.perf_counter() - t0
    if name == "small":
        import timeit

        types = small_types(B, int(arg))
        number = 20
        best = min(timeit.repeat(lambda: [B.canonical_encoding(t) for t in types], number=number, repeat=7))
        return best / number / len(types) * 1e6
    if name == "strata-peak":
        import io
        import tracemalloc

        from lchkit.cli import run

        run(["strata", "--type", arg], out=io.StringIO())  # lazy imports happen here
        peaks = []
        for _ in range(5):
            tracemalloc.start()
            if run(["strata", "--type", arg], out=io.StringIO()) != 0:
                raise SystemExit(f"lch strata --type {arg} failed")
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        return statistics.median(peaks)
    raise SystemExit(f"unknown probe {name!r}")


def run_probe(side: str, name: str, arg) -> object:
    argv = [sys.executable, os.path.abspath(__file__), "--probe", name, "--src",
            os.path.join(side, "src"), "--arg", str(arg)]
    # the hash seed lchbench gives its workers
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(argv, check=True, capture_output=True, text=True, env=env)
    return json.loads(done.stdout)


# -- the record -------------------------------------------------------------------------


def run_bench(side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(side, "lchbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = os.path.join(side, ".lchbench", "out", f"report-{workload}-s{seed}-t{trace}.json")
    with open(report) as handle:
        digests = json.load(handle)
    result["digests"] = {k: digests[k] for k in ("stdout_sha256", "inputs_sha256")}
    return result


def metrics(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarise(runs: list[dict], bench: dict) -> dict:
    """Quartiles of each side and the new side's share of won pairs."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        rows = {}
        for name, direction in better.items():
            old = [r["parent"]["metrics"][name] for r in pairs]
            new = [r["new"]["metrics"][name] for r in pairs]
            sign = 1 if direction == "higher" else -1
            rows[name] = {
                "parent_q": quartiles(old),
                "new_q": quartiles(new),
                "new_wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)) / len(pairs),
            }
        digests_equal = all(r["parent"][k] == r["new"][k] for r in pairs
                            for k in ("stdout_sha256", "inputs_sha256"))
        summary[workload] = {"pairs": len(pairs), "digests_equal": digests_equal, "metrics": rows}
    return summary


def record(parent: str) -> dict:
    sides = {"parent": parent, "new": REPO}
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    runs = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for k in range(PAIRS):
            for s, seed in enumerate(SEEDS):
                pair = {"workload": workload, "seed": seed}
                order = list(sides) if (k + s) % 2 == 0 else list(sides)[::-1]
                for label in order:
                    result = run_bench(sides[label], workload, seed, seconds, 0)
                    pair[label] = {"correct": result["correct"], "attempted": result["attempted"],
                                   "failed": result["failed"], "metrics": metrics(result),
                                   **result["digests"]}
                    print(f"{workload} seed {seed} {label}: {pair[label]['metrics']}", file=sys.stderr)
                pair["first"] = order[0]
                runs.append(pair)
    traced = {}
    for workload, (targets, copied) in TRACED.items():
        traced[workload] = {"seed": 1, "seconds": TRACE_SECONDS}
        for label, side in sides.items():
            result = run_bench(side, workload, 1, TRACE_SECONDS, 1)
            m = metrics(result)
            requests = m["trace.requests"]
            row = {"correct": result["correct"], "requests": requests}
            for target in targets:
                calls, self_s = m[f"{target}.calls"], m[f"{target}.self_s"]
                row[target] = {
                    "calls": calls,
                    "self_s": self_s,
                    "calls_per_request": calls / requests,
                    "self_ms_per_request": 1e3 * self_s / requests,
                    "self_ms_per_call": 1e3 * self_s / calls if calls else None,
                }
            row.update({name: m[name] for name in copied})
            traced[workload][label] = row
    ladder = {}
    for kernel, (sizes, size_of) in LADDERS.items():
        ladder[kernel] = {}
        for label, side in sides.items():
            times = [run_probe(side, kernel, n) for n in sizes]
            ladder[kernel][label] = {
                "n": list(sizes),
                "seconds": times,
                "exponent": [math.log(times[i + 1] / times[i])
                             / math.log(size_of(sizes[i + 1]) / size_of(sizes[i]))
                             for i in range(len(sizes) - 1)],
            }
    small = {label: {} for label in sides}
    for v in (1, 2, 3, 4):
        for label, side in sides.items():
            small[label][str(v)] = run_probe(side, "small", v)
    with tempfile.TemporaryDirectory() as workdir:
        tree = largest_corpus_tree(workdir)
        peak = {label: run_probe(side, "strata-peak", tree) for label, side in sides.items()}
    return {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "seconds_per_run": seconds,
        "runs": runs,
        "summary": summarise(runs, bench),
        "traced": traced,
        "ladder": ladder,
        "small_types_us_per_call": small,
        "strata_peak_mb": peak,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--out")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--arg", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(probe(args.probe, args.src, args.arg)))
        return
    if not (args.parent and args.out):
        parser.error("--parent and --out are required")
    result = record(os.path.abspath(args.parent))
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
