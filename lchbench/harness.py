"""The closed-loop client that runs in the workload's own process.

One client, one thread: each request is sent after the previous one has
returned.  CLI requests go through `lchkit.cli.run` with stdout captured
in memory; enumeration requests build building types through the public
library API.  Every call into lchkit goes through a module attribute, so
the tracer's rebinding sees it.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time

from . import checks, corpus


class Executor:
    """Runs one request and reports (exit code, stdout, escaped exception, seconds)."""

    def __init__(self):
        import lchkit.buildings
        import lchkit.cli

        self.cli = lchkit.cli
        self.buildings = lchkit.buildings
        self.tracer = None  # set for a traced run: spans get the request id
        self.seen: tuple[int, dict] = (-1, {})

    def execute(self, req: corpus.Request, request_id: int):
        if self.tracer is not None:
            self.tracer.request = request_id
        perf = time.perf_counter
        if req.argv is not None:
            out = io.StringIO()
            saved, sys.stderr = sys.stderr, io.StringIO()
            t0 = perf()
            try:
                code, exc = self.cli.run(req.argv, out=out), None
            except Exception as err:  # counted as a failure by the gate
                code, exc = None, type(err).__name__
            finally:
                t1 = perf()
                sys.stderr = saved
            return code, out.getvalue(), exc, t1 - t0
        t0 = perf()
        try:
            summary, exc = self.enumerate_shape(*req.lib), None
        except Exception as err:  # counted as a failure by the gate
            summary, exc = None, type(err).__name__
        return 0, summary, exc, perf() - t0

    def enumerate_shape(self, pass_index: int, shape: tuple, ids: tuple) -> tuple:
        """Build every leaf decoration of one internal-tree shape.

        Returns (attempted, built, stable, new, new one-dimensional), where
        `new` counts stable types whose canonical encoding the pass had not
        seen before.
        """
        B = self.buildings
        if self.seen[0] != pass_index:
            self.seen = (pass_index, {})
        seen = self.seen[1]
        v, parents, classes, lengths = shape
        vids, eids, lids = ids
        vertices = tuple(B.Vertex(vid, "disk", 0) for vid in vids)
        internal = [
            B.Edge(eids[i], (vids[parents[i]], vids[i + 1]), classes[i], lengths[i])
            for i in range(v - 1)
        ]
        attempted = built = stable = new = new_one = 0
        for split, leaf_classes in corpus.leaf_decorations(v):
            attempted += 1
            edges = internal + [
                B.Edge(lids[j], (vids[split[j]],), leaf_classes[j]) for j in range(len(split))
            ]
            try:
                t = B.BuildingType(vertices=vertices, edges=tuple(edges))
            except ValueError:
                continue
            built += 1
            if not B.is_stable(t):
                continue
            stable += 1
            key = B.canonical_encoding(t)
            if key in seen:
                continue
            seen[key] = True
            new += 1
            if B.domain_dim(t) == 1:
                new_one += 1
        return attempted, built, stable, new, new_one


def stdout_bytes(out) -> bytes:
    if isinstance(out, tuple):
        return ("enum " + " ".join(map(str, out)) + "\n").encode()
    return (out or "").encode()


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def warm(workload_cls, workdir: str, executor: Executor) -> None:
    for i, req in enumerate(workload_cls.warmup(corpus.Writer(workdir))):
        executor.execute(req, -1 - i)


def run_round(reqs, executor: Executor, records: list, index: int):
    """Send one round's requests back to back; return (outputs, seconds)."""
    outs = []
    start = time.perf_counter()
    for req in reqs:
        code, out, exc, latency = executor.execute(req, len(records))
        records.append((index, code, exc, latency))
        outs.append(out)
    return outs, time.perf_counter() - start


def closed_loop(workload, executor: Executor, seconds: float, spool_path: str, twin=None,
                pause=None):
    """Run whole rounds back to back until `seconds` of request time have
    passed and at least the digest rounds are done.

    Round generation happens between rounds and is not timed.  Outputs go
    to the spool file after each round's clock stops, one JSON line per
    request, so the process does not grow with the number of requests.
    With `twin` = (tracer, workload, executor) each round runs traced and
    then again untraced on the twin, so that on a machine whose speed
    drifts the two timings are taken close together.  `pause(elapsed)`,
    if given, is called between rounds, outside the timed phase.

    Returns (records, timed seconds, untraced twin seconds, whether every
    twin output matched); a record is (round, exit code, escaped
    exception, latency).
    """
    records = []
    elapsed = untraced = 0.0
    same = True
    index = 0
    gc.collect()
    with open(spool_path, "w") as spool:
        while elapsed < seconds or index < workload.digest_rounds:
            reqs = workload.round(index)
            if twin is not None:
                tracer, twin_workload, twin_executor = twin
                twin_reqs = twin_workload.round(index)
                tracer.install()
            outs, took = run_round(reqs, executor, records, index)
            elapsed += took
            if twin is not None:
                tracer.uninstall()
                twin_outs, twin_took = run_round(twin_reqs, twin_executor, [], index)
                untraced += twin_took
                same = same and twin_outs == outs
            for out in outs:
                spool.write(json.dumps(out) + "\n")
            del reqs, outs
            index += 1
            if pause is not None:
                pause(elapsed)
    return records, elapsed, untraced, same


def gate(workload, records, spool_path: str) -> dict:
    """Regenerate the run's rounds and check every request against its
    spooled output; also the input and stdout digests over the first
    `digest_rounds` rounds and the share of repeated requests (by
    `Request.identity`)."""
    failures = []
    defects = 0
    seen_keys: set[str] = set()
    repeats = 0
    inputs = hashlib.sha256()
    stdout = hashlib.sha256()
    position = 0
    with open(spool_path) as spool:
        for rnd in range(records[-1][0] + 1):
            for req in workload.round(rnd):
                _, code, exc, _ = records[position]
                position += 1
                out = json.loads(spool.readline())
                if isinstance(out, list):
                    out = tuple(out)
                if rnd < workload.digest_rounds:
                    inputs.update(req.key.encode() + b"\n")
                    stdout.update(stdout_bytes(out))
                repeats += req.identity in seen_keys
                seen_keys.add(req.identity)
                defects += req.defect is not None
                reason = checks.check(req, code, out, exc)
                if reason is not None:
                    failures.append({
                        "round": rnd, "kind": req.kind, "argv": req.argv, "reason": reason,
                        "defect": req.defect, "known": checks.is_known_defect(req, code, exc),
                    })
    return {
        "failures": failures,
        "correct": all(f["known"] for f in failures),
        "defect_requests": defects,
        "repeated_share": repeats / len(records),
        "inputs_sha256": inputs.hexdigest(),
        "stdout_sha256": stdout.hexdigest(),
        "digest_rounds": workload.digest_rounds,
    }


def latency_metrics(records, elapsed: float, tail_pct: float) -> dict:
    lat = sorted(r[3] for r in records)
    tail = percentile(lat, tail_pct)
    return {
        "throughput_rps": len(records) / elapsed,
        "latency_p50_ms": percentile(lat, 50.0) * 1000,
        "latency_tail_ms": tail * 1000,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
