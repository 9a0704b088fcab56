"""The correctness gate: each request's exit code and verdict fields.

`check(req, code, out, exc)` returns None when the request behaved as
expected and a one-line reason otherwise.  `code` is the exit code from
cli.run (None when an exception escaped it), `out` the captured stdout
(or the harness's summary tuple for library requests) and `exc` the name
of an escaped exception.  Expectations come from lchbench.corpus and
lchbench.oracles only.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import oracles
from .oracles import rstr

# How each known, still unfixed input defect shows.  A request that hits
# one still counts as failed; the signature only tells a known failure
# from a new one in the run's `correct` flag.
KNOWN_DEFECTS = {
    "facets-not-a-list": lambda code, exc: exc == "TypeError",
    "edge-ends-string": lambda code, exc: code == 0 and exc is None,
}


def check(req, code, out, exc) -> str | None:
    if exc is not None:
        return f"{exc} escaped cli.run"
    handler = CHECKS[req.kind]
    try:
        return handler(req.expect, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"


def is_known_defect(req, code, exc) -> bool:
    sig = KNOWN_DEFECTS.get(req.defect)
    return sig is not None and sig(code, exc)


def _exit(code, want) -> str | None:
    return None if code == want else f"exit code {code}, expected {want}"


def _vertex_strings(points) -> list:
    return sorted([rstr(x) for x in p] for p in points)


def check_polytope(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    payload = json.loads(out)
    d, facets = expect["dim"], expect["facets"]
    verts = oracles.polytope_vertices(facets, d)
    if expect["family"] == "cube" and len(verts) != 2 ** d:
        return "oracle disagrees with the closed form 2^d"
    if expect["family"] == "simplex" and len(verts) != d + 1:
        return "oracle disagrees with the closed form d + 1"
    if sorted(payload["vertices"]) != _vertex_strings(verts):
        return "vertex set differs"
    if payload["compact"] is not True or payload["full_dimensional"] is not True:
        return "compact / full_dimensional flags wrong"
    if "codim2_faces" in payload:
        faces = oracles.codim2_faces(facets, d, verts)
        closed = {"cube": 4 * math.comb(d, 2), "simplex": math.comb(d + 1, 2) if d >= 2 else 0}
        if expect["family"] in closed and len(faces) != closed[expect["family"]]:
            return "oracle disagrees with the closed-form face count"
        got = sorted(
            (tuple(f["active"]), tuple(sorted(map(tuple, f["vertices"]))), f["dim"])
            for f in payload["codim2_faces"]
        )
        want = sorted(
            (active, tuple(sorted(tuple(rstr(x) for x in v) for v in members)), d - 2)
            for active, members in faces
        )
        if got != want:
            return f"codimension-two faces differ ({len(got)} vs {len(want)})"
    if "cone" in payload:
        rows = [oracles.primitive(list(nu) + [c]) for nu, c in facets]
        height = tuple([0] * d + [1])
        if height not in rows:
            rows.append(height)
        cone = payload["cone"]
        if cone["dim"] != d + 1 or [tuple(r) for r in cone["facets"]] != rows or cone["equations"]:
            return "cone differs"
    return None


def check_reduce(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    payload = json.loads(out)
    if payload["smooth"] is not expect["smooth"]:
        return f"smooth is {payload['smooth']}, expected {expect['smooth']}"
    if payload["test_vectors"] != expect["test_vectors"]:
        return "test vectors differ"
    line = payload["filling_line"]
    if line["t_min"] != expect["t_min"] or line["t_max"] is not None or line["empty"]:
        return "filling line differs"
    if payload["reduced_polytope"]["dim"] != 2:
        return "reduced polytope is not two-dimensional"
    return None


def check_enum(expect, code, out):
    if tuple(out) != tuple(expect["counts"]):
        return f"enumeration counts {tuple(out)}, expected {tuple(expect['counts'])}"
    return None


def check_strata(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    payload = json.loads(out)
    bad = oracles.check_strata_payload(payload, expect["source"])
    if bad:
        return bad
    counts = expect["counts"]
    if (len(payload["true"]), len(payload["fake"])) != (counts["true"], counts["fake"]):
        return "strata counts differ from the closed form"
    return None


def check_dim_type(expect, code, out):
    return _exit(code, 0) or (
        None if json.loads(out) == {"domain_dim": expect["domain_dim"]} else "domain_dim differs"
    )


def _tame_text(v) -> str:
    parts = ["tame" if v["tame"] else "not tame"]
    if v["lambda_minus"] is not None:
        parts.append(f"lambda_minus = {v['lambda_minus']}")
    if v["lambda_plus"] is not None:
        parts.append(f"lambda_plus = {v['lambda_plus']}")
    if v["p3_vacuous"]:
        parts.append("P3 vacuous")
    return "; ".join(parts)


def check_tame(expect, code, out):
    v = expect["verdict"]
    bad = _exit(code, 0 if v["tame"] else 3)
    if bad:
        return bad
    if expect["format"] == "text":
        return None if out.strip() == _tame_text(v) else "text verdict differs"
    payload = json.loads(out)
    for field, want in v.items():
        if payload[field] != want:
            return f"{field} is {payload[field]!r}, expected {want!r}"
    return None


def check_lift(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    n = expect["order"]
    if expect["format"] == "json":
        ok = json.loads(out) == {"lift": True, "fiber_order_divisor": n}
    else:
        ok = out.strip() == f"lift exists; fiber order divides {n}"
    return None if ok else "lift verdict differs"


def check_chords(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    want = [(d, m, rstr(a), 0, d) for d, m, a in expect["rows"]]
    if expect["format"] == "json":
        got = [(r["d"], r["m"], r["action"], r["start_sheet"], r["end_sheet"]) for r in json.loads(out)]
    else:
        lines = out.splitlines()
        if lines[0].split("\t") != ["d", "m", "action", "start_sheet", "end_sheet"]:
            return "bad TSV header"
        got = []
        for line in lines[1:]:
            d, m, a, s, e = line.split("\t")
            got.append((int(d), int(m), a, int(s), int(e)))
    return None if got == want else "chord rows differ"


def check_generators(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    p = json.loads(out)
    white, black = expect["white"], expect["black"]
    if (p["white_count"], p["black_count"], p["total"]) != (white, black, white + black):
        return "generator counts differ from k*A*2^rank"
    if len(p["white"]) != white or len(p["black"]) != black:
        return "generator lists differ from their counts"
    return None


def check_dim_chern(expect, code, out):
    return _exit(code, 0) or (
        None if json.loads(out) == {"sphere_stratum_dim": expect["value"]} else "dimension differs"
    )


def check_sheets(expect, code, out):
    bad = _exit(code, 0)
    if bad:
        return bad
    p = json.loads(out)
    total = sum((Fraction(s["weight"]) for s in p["sheets"]), Fraction(0))
    if p["count"] != expect["count"] or len(p["sheets"]) != expect["count"]:
        return "sheet count differs"
    if p["weight_sum"] != "1" or total != 1:
        return "sheet weights do not sum to one"
    return None


def check_malformed(expect, code, out):
    bad = _exit(code, 2)
    if bad:
        return bad
    return None if out == "" else "malformed input produced output"


CHECKS = {
    "polytope": check_polytope,
    "reduce": check_reduce,
    "enum": check_enum,
    "strata": check_strata,
    "dim-type": check_dim_type,
    "tame": check_tame,
    "lift": check_lift,
    "chords": check_chords,
    "generators": check_generators,
    "dim-chern": check_dim_chern,
    "sheets": check_sheets,
    "malformed": check_malformed,
}
