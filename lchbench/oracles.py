"""Independent expectations for the benchmark's correctness gate.

Nothing here imports lchkit.  Each function recomputes a verdict-bearing
quantity by a route of its own: integer Cramer's rule with fraction-free
(Bareiss) determinants for polytope vertices, gcds of maximal minors for
the lattice-basis test, stepping the fiber rotation for chord actions,
and brute force over vertex permutations for isomorphism of small
building types.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- integer linear algebra ---------------------------------------------------


def int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def frac_rank(rows) -> int:
    """Rank over Q of a list of rational vectors (plain forward elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def primitive(entries) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on its ray."""
    fr = [Fraction(x) for x in entries]
    den = 1
    for f in fr:
        den = den * f.denominator // math.gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints) if g else tuple(ints)


def is_lattice_basis(vectors) -> bool:
    """Basis of (span intersect Z^d): some maximal minor nonzero, their gcd 1."""
    k = len(vectors)
    if k == 0:
        return True
    d = len(vectors[0])
    if k > d:
        return False
    g = 0
    for cols in itertools.combinations(range(d), k):
        g = math.gcd(g, abs(int_det([[v[j] for j in cols] for v in vectors])))
    return g == 1


# -- polytopes ------------------------------------------------------------------


def polytope_vertices(facets, dim: int) -> list[tuple[Fraction, ...]]:
    """Vertices of {x : <x, n_i> >= -c_i} by Cramer's rule on every d-subset."""
    rows = []
    for normal, offset in facets:
        c = Fraction(offset)
        rows.append(([int(x) * c.denominator for x in normal], -c.numerator))
    found = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        a = [rows[i][0] for i in subset]
        b = [rows[i][1] for i in subset]
        det_a = int_det(a)
        if det_a == 0:
            continue
        point = tuple(
            Fraction(int_det([r[:k] + [b[i]] + r[k + 1:] for i, r in enumerate(a)]), det_a)
            for k in range(dim)
        )
        if all(sum(x * n for x, n in zip(point, normal)) + Fraction(offset) >= 0
               for normal, offset in facets):
            found.add(point)
    return sorted(found)


def tight_set(facets, point) -> frozenset[int]:
    return frozenset(
        i for i, (normal, offset) in enumerate(facets)
        if sum(x * n for x, n in zip(point, normal)) + Fraction(offset) == 0
    )


def codim2_faces(facets, dim: int, verts) -> list[tuple[tuple[int, ...], tuple]]:
    """(sorted tight facets, vertex tuple) of every codimension-two face.

    A face comes from an independent facet pair whose common vertices span
    an affine space of dimension d - 2; faces are told apart by vertex set
    and carry the facets tight at all of their vertices.
    """
    if dim < 2:
        return []
    tight = {v: tight_set(facets, v) for v in verts}
    faces = {}
    for i, j in itertools.combinations(range(len(facets)), 2):
        if frac_rank([facets[i][0], facets[j][0]]) != 2:
            continue
        members = tuple(v for v in verts if i in tight[v] and j in tight[v])
        if not members or members in faces:
            continue
        base = members[0]
        diffs = [[a - b for a, b in zip(v, base)] for v in members[1:]]
        if frac_rank(diffs) != dim - 2:
            continue
        faces[members] = tuple(sorted(frozenset.intersection(*(tight[v] for v in members))))
    return sorted((active, members) for members, active in faces.items())


def clip_line_t_min(cone_facets, lam) -> Fraction:
    """Lowest height of {lam} x R inside a cone whose facets all have c >= 0."""
    lo = Fraction(0)
    for row in cone_facets:
        nu, c = row[:-1], row[-1]
        if c > 0:
            lo = max(lo, -sum(Fraction(a) * b for a, b in zip(lam, nu)) / c)
    return lo


# -- chords and rationals ----------------------------------------------------------


def chord_rows(k: int, max_action: Fraction) -> list[tuple[int, int, Fraction]]:
    """(sheet shift, winding, action) of every chord from sheet 0, by stepping
    the fiber rotation through the lift points one 1/k at a time."""
    rows = []
    t = Fraction(1, k)
    steps = 1
    while t <= max_action:
        rows.append((steps % k, steps // k, t))
        steps += 1
        t += Fraction(1, k)
    return rows


def area_subgroup_order(areas) -> int:
    """Denominator of the positive generator of the subgroup the areas span."""
    fr = [Fraction(a) for a in areas]
    lcm = 1
    for f in fr:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    g = 0
    for f in fr:
        g = math.gcd(g, abs(f.numerator * (lcm // f.denominator)))
    if g == 0:
        return 1
    return lcm // math.gcd(g, lcm)


def rstr(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- building types as plain data ---------------------------------------------------
#
# A plain type is (vertices, internal, leaves):
#   vertices: {id: level}
#   internal: [(id, a, b, cls, length)]
#   leaves:   [(id, v, cls)]
# Every vertex is a disk.

BOUNDARY = ("L", "white-", "white+")


def plain_from_json(data) -> tuple:
    vertices = {}
    for v in data["vertices"]:
        if v["kind"] != "disk":
            raise ValueError("only disk types occur in the benchmark")
        vertices[v["id"]] = int(v.get("level", 0))
    internal, leaves = [], []
    for e in data["edges"]:
        ends = e["ends"]
        if len(ends) == 1:
            leaves.append((e["id"], ends[0], e["class"]))
        else:
            internal.append((e["id"], ends[0], ends[1], e["class"], e.get("length", "finite")))
    return vertices, internal, leaves


def _incidence(t):
    vertices, internal, leaves = t
    inc = {vid: [] for vid in vertices}
    for _, a, b, cls, _ in internal:
        inc[a].append(cls)
        inc[b].append(cls)
    for _, v, cls in leaves:
        inc[v].append(cls)
    return inc


def plain_stable(t) -> bool:
    """Disk rule #boundary + 2 #interior >= 3, or a chord cylinder off level 0."""
    levels = t[0]
    for vid, classes in _incidence(t).items():
        b = sum(1 for c in classes if c in BOUNDARY)
        i = sum(1 for c in classes if c == "D")
        if b + 2 * i >= 3:
            continue
        cylinder = len(classes) == 2 and all(c in ("white-", "white+") for c in classes)
        if not (levels[vid] != 0 and cylinder):
            return False
    return True


def plain_dim(t) -> int:
    total = 0
    for classes in _incidence(t).values():
        b = sum(1 for c in classes if c in BOUNDARY)
        i = sum(1 for c in classes if c == "D")
        total += b + 2 * i - 3
    return total + sum(1 for e in t[1] if e[4] == "finite")


def plain_canon(t) -> tuple:
    """Isomorphism invariant of a small type: minimum over vertex relabelings."""
    vertices, internal, leaves = t
    ids = sorted(vertices)
    base = min(vertices.values())
    best = None
    for perm in itertools.permutations(range(len(ids))):
        name = dict(zip(ids, perm))
        key = (
            tuple(sorted((name[v], vertices[v] - base) for v in ids)),
            tuple(sorted((name[a], name[b], cls, length) for _, a, b, cls, length in internal)),
            tuple(sorted((name[v], cls) for _, v, cls in leaves)),
        )
        if best is None or key < best:
            best = key
    return best


def _fingerprint(t) -> tuple:
    """A relabeling invariant: each disk's level above the lowest with the
    sorted classes and lengths of its edges, and each internal edge's class
    and length with the signatures of its two ends."""
    vertices, internal, leaves = t
    base = min(vertices.values())
    ends = {vid: [] for vid in vertices}
    for _, a, b, cls, length in internal:
        ends[a].append((cls, length))
        ends[b].append((cls, length))
    for _, v, cls in leaves:
        ends[v].append((cls, "leaf"))
    sig = {vid: (vertices[vid] - base, tuple(sorted(e))) for vid, e in ends.items()}
    return (
        tuple(sorted(sig.values())),
        tuple(sorted((cls, length, tuple(sorted((sig[a], sig[b]))))
                     for _, a, b, cls, length in internal)),
    )


def same_type(a, b) -> bool:
    """Isomorphism of two types: exact by `plain_canon` up to six disks, by
    the necessary `_fingerprint` condition beyond."""
    if len(a[0]) <= 6 and len(b[0]) <= 6:
        return plain_canon(a) == plain_canon(b)
    return _fingerprint(a) == _fingerprint(b)


def check_strata_payload(payload, source) -> str | None:
    """Criterion-6 invariants on `lch strata` output; a message if violated.

    Every true boundary has exactly one broken edge, is stable and has
    dimension zero; a two-level split sits on consecutive levels with the
    broken edge between them, a one-level split breaks a Lagrangian edge.
    Every fake boundary has dimension zero and exactly two adjacent
    one-dimensional stable strata: a type isomorphic to the source and a
    type with one vertex fewer.
    """
    n_source = len(source[0])
    for entry in payload["true"]:
        t = plain_from_json(entry)
        broken = [e for e in t[1] if e[4] == "broken"]
        if len(broken) != 1:
            return "true boundary without exactly one broken edge"
        if not plain_stable(t) or plain_dim(t) != 0:
            return "true boundary unstable or not of dimension zero"
        levels = sorted(set(t[0].values()))
        _, a, b, cls, _ = broken[0]
        if len(levels) == 2:
            if levels[1] - levels[0] != 1 or t[0][a] == t[0][b]:
                return "two-level split not across consecutive levels"
        elif levels != [0] or cls != "L":
            return "one-level split does not break a Lagrangian edge at level 0"
    for fake in payload["fake"]:
        stratum = plain_from_json(fake["stratum"])
        if plain_dim(stratum) != 0:
            return "fake stratum not of dimension zero"
        if len(fake["adjacent"]) != 2:
            return "fake stratum without exactly two adjacent strata"
        first, glued = (plain_from_json(x) for x in fake["adjacent"])
        for side in (first, glued):
            if not plain_stable(side) or plain_dim(side) != 1:
                return "adjacent stratum unstable or not one-dimensional"
        if not same_type(first, source) or len(glued[0]) != n_source - 1:
            return "adjacent strata are not the type and its glued neighbour"
    return None
