"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a route disjoint from the library
implementation it checks: determinantal-divisor gcds instead of the
elementary-operation Smith reduction, box enumeration instead of divisor
arithmetic, direct fiber-rotation stepping instead of the closed chord
formula, a sweep over every tight facet subset instead of the double
description.  Keep them dumb and obviously correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from lchkit.lattice import dot, null_space, primitive_from_rational, rational_rank


def det_int(rows) -> int:
    """Integer determinant by Laplace expansion (small matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def vertices_by_cramer(facets, d) -> list[tuple[Fraction, ...]]:
    """Vertices of {x : <x, nu_i> >= -c_i} by Cramer's rule on every d facets.

    Each d-subset with a nonzero integer determinant gives one point
    x_k = det(A_k) / det(A); the rows are scaled by the lcm of their offset
    denominators so every determinant is an integer.  Points satisfying
    every facet are the vertices.  No elimination and no homogenisation.
    """
    found = set()
    for subset in itertools.combinations(facets, d):
        scale = math.lcm(*(Fraction(c).denominator for _, c in subset))
        a = [[scale * x for x in nu] for nu, _ in subset]
        b = [int(-scale * Fraction(c)) for _, c in subset]
        det_a = det_int(a)
        if det_a == 0:
            continue
        x = tuple(
            Fraction(det_int([row[:k] + [b[i]] + row[k + 1:] for i, row in enumerate(a)]), det_a)
            for k in range(d)
        )
        if all(sum(xi * ni for xi, ni in zip(x, nu)) + c >= 0 for nu, c in facets):
            found.add(x)
    return sorted(found)


def snf_divisors_by_minor_gcds(rows) -> tuple[list[int], int]:
    """Smith divisors via determinantal divisors D_k = gcd of all k x k minors.

    d_k = D_k / D_{k-1}; the rank is the largest k with a nonzero minor.
    Completely independent of any row-reduction strategy.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    dets_prev = 1
    divisors = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ris in itertools.combinations(range(nrows), k):
            for cis in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = math.gcd(g, abs(det_int(sub)))
        if g == 0:
            break
        divisors.append(g // dets_prev)
        dets_prev = g
    return divisors, len(divisors)


def row_reduce_divisors(rows) -> tuple[list[int], int]:
    """Integer row/column reduction oracle for Smith divisors.

    Textbook reduction with explicit extended-euclid (Bezout) row and
    column combinations, distinct from the library's minimal-pivot
    strategy.  Each Bezout combination replaces the pivot by a gcd, so
    |pivot| strictly decreases whenever anything changes and the passes
    terminate.
    """
    m = [list(map(int, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0

    def egcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = egcd(b, a % b)
        return g, y, x - (a // b) * y

    def clear_step(t):
        # Plain elimination when the pivot divides the target (never touches
        # row/column t itself); Bezout combination otherwise, which replaces
        # the pivot by a strictly smaller gcd.  Hence the pass terminates.
        while True:
            changed = False
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    if m[i][t] % m[t][t] == 0:
                        q = m[i][t] // m[t][t]
                        m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    else:
                        g, x, y = egcd(m[t][t], m[i][t])
                        a, b = m[t][t] // g, m[i][t] // g
                        rt = [x * m[t][j] + y * m[i][j] for j in range(ncols)]
                        ri = [-b * m[t][j] + a * m[i][j] for j in range(ncols)]
                        m[t], m[i] = rt, ri
                        changed = True
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    if m[t][j] % m[t][t] == 0:
                        q = m[t][j] // m[t][t]
                        for i in range(nrows):
                            m[i][j] -= q * m[i][t]
                    else:
                        g, x, y = egcd(m[t][t], m[t][j])
                        a, b = m[t][t] // g, m[t][j] // g
                        for i in range(nrows):
                            ct = x * m[i][t] + y * m[i][j]
                            cj = -b * m[i][t] + a * m[i][j]
                            m[i][t], m[i][j] = ct, cj
                        changed = True
            if not changed and all(m[i][t] == 0 for i in range(t + 1, nrows)) and all(
                m[t][j] == 0 for j in range(t + 1, ncols)
            ):
                return

    t = 0
    divisors = []
    while t < min(nrows, ncols):
        # move any nonzero entry to (t, t)
        found = False
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0:
                    m[t], m[i] = m[i], m[t]
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    found = True
                    break
            if found:
                break
        if not found:
            break
        clear_step(t)
        # enforce divisibility by folding offending rows into row t;
        # the subsequent gcd pass strictly shrinks the pivot
        while True:
            bad = None
            for i in range(t + 1, nrows):
                if any(m[i][j] % m[t][t] != 0 for j in range(t + 1, ncols)):
                    bad = i
                    break
            if bad is None:
                break
            for jj in range(ncols):
                m[t][jj] += m[bad][jj]
            clear_step(t)
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors, len(divisors)


def lattice_basis_by_minor_gcd(vectors) -> bool:
    """Basis-of-span test: full rank and gcd of maximal minors equal to 1."""
    k = len(vectors)
    if k == 0:
        return True
    d = len(vectors[0])
    if k > d:
        return False
    g = 0
    rank_witness = False
    for cis in itertools.combinations(range(d), k):
        sub = [[v[j] for j in cis] for v in vectors]
        mdet = det_int(sub)
        if mdet != 0:
            rank_witness = True
        g = math.gcd(g, abs(mdet))
    return rank_witness and g == 1


def lattice_basis_by_enumeration(vectors, box: int = 4) -> bool:
    """Basis-of-span test by point enumeration (tiny cases only).

    Checks that every integer point of the real span inside [-box, box]^d
    is an integer combination of the vectors.  Solves the coefficient
    system by rational elimination.
    """
    k = len(vectors)
    if k == 0:
        return True
    d = len(vectors[0])
    cols = [[Fraction(v[i]) for v in vectors] for i in range(d)]  # d x k

    def solve_coeffs(point):
        aug = [cols[i] + [Fraction(point[i])] for i in range(d)]
        # gaussian elimination
        pivots = []
        r = 0
        for c in range(k):
            pr = next((i for i in range(r, d) if aug[i][c] != 0), None)
            if pr is None:
                continue
            aug[r], aug[pr] = aug[pr], aug[r]
            inv = aug[r][c]
            aug[r] = [x / inv for x in aug[r]]
            for i in range(d):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        if len(pivots) < k:
            return None  # dependent generators: not a basis of anything
        for i in range(r, d):
            if aug[i][k] != 0:
                return None  # point outside the span
        coeffs = [Fraction(0)] * k
        for i, c in enumerate(pivots):
            coeffs[c] = aug[i][k]
        return coeffs

    # independence first
    probe = solve_coeffs(vectors[0])
    if probe is None:
        return False
    for point in itertools.product(range(-box, box + 1), repeat=d):
        coeffs = solve_coeffs(point)
        if coeffs is None:
            continue  # not in the span (or dependent, caught above)
        if all(c.denominator == 1 for c in coeffs):
            continue
        return False
    return True


def chord_actions_by_rotation(k: int, max_action: Fraction) -> list[tuple[int, int, Fraction]]:
    """Fiber-rotation simulation of Reeb chords for a k-fold equally spaced lift.

    Steps the fiber angle forward in increments of 1/k from each lift point
    and records every landing on another lift point, up to the action cap.
    Returns sorted (start_sheet, end_sheet, action) triples.
    """
    out = []
    step = Fraction(1, k)
    for start in range(k):
        t = step
        while t <= max_action:
            # at time t the start point has rotated by angle t
            landing = Fraction(start, k) + t
            frac = landing - (landing.numerator // landing.denominator)
            # landing angle is j/k for some j because t is a multiple of 1/k
            j = int(frac * k)
            out.append((start, j % k, t))
            t += step
    out.sort(key=lambda triple: (triple[2], triple[0], triple[1]))
    return out


_LABEL_ESCAPES = {ord(c): "\\" + c for c in "\\:|,;()[]{}<>"}


def canonical_encoding_all_roots(m) -> str:
    """Canonical encoding of a building or map type by one full encode per root.

    Each component is encoded recursively from every vertex in turn, with
    every token rebuilt at every use, and the least rooted string is kept;
    components are sorted and joined by "||".  This is the grammar of
    `buildings.canonical_encoding`, computed without rerooting.  Recursion
    depth is the tree height, so keep it to small types.
    """
    t = getattr(m, "building", m)
    decorations = getattr(m, "decorations", {})
    labels = getattr(m, "labels", {})

    def vertex_token(v, base_level, leaf_tokens):
        deco = decorations.get(v.id)
        if deco is None:
            dtok = "-"
        else:
            dtok = f"a{deco.area}c{deco.chern}m{deco.y_minus}p{deco.y_plus}"
            if deco.maslov is not None:
                dtok += f"u{deco.maslov}"
        return f"{v.kind[0]}{v.level - base_level}[{dtok}]({','.join(sorted(leaf_tokens))})"

    def edge_token(e):
        label = labels.get(e.id)
        if label is None:
            ltok = "-"
        else:
            action = "" if label.action is None else str(label.action)
            ltok = (
                f"{label.kind}:{label.direction or ''}:{action}:"
                f"{label.name.translate(_LABEL_ESCAPES)}:{label.component.translate(_LABEL_ESCAPES)}"
            )
        return f"{e.cls}|{'leaf' if len(e.ends) == 1 else e.length}|{ltok}"

    def encode(vid, came_from, base_level):
        leaf_tokens = []
        children = []
        for e in t.edges_at(vid):
            if len(e.ends) == 1:
                leaf_tokens.append(edge_token(e))
            elif e.id != came_from:
                other = e.ends[1] if e.ends[0] == vid else e.ends[0]
                orient = ">" if e.ends[0] == vid else "<"
                children.append(f"{edge_token(e)}{orient}{encode(other, e.id, base_level)}")
        return vertex_token(t.vertex(vid), base_level, leaf_tokens) + "{" + ";".join(sorted(children)) + "}"

    components = []
    remaining = {v.id for v in t.vertices}
    while remaining:
        comp = t.component_of(next(iter(remaining)))
        remaining -= comp
        base_level = min(t.vertex(vid).level for vid in comp)
        components.append(min(encode(vid, None, base_level) for vid in comp))
    return "||".join(sorted(components))


def vrep_by_subsets(p):
    """(vertices, recession rays, lineality basis) of a Polytope by a subset sweep.

    The sweep runs on the homogenised system in (x, t): the equations
    <x, a> - t b = 0 always hold, and `need` rows are chosen tight among
    the height t >= 0 and the facets <x, nu> + t c >= 0.  A choice whose
    kernel is a line gives a vertex (t != 0, scaled to t = 1, kept if it
    lies in P) or an extreme ray (t = 0, with the sign that satisfies
    every facet).  The height row comes first, so rays appear in the
    order of their tight facet subsets.  Under lineality there are no
    vertices and the rays are None.  C(facets + 1, need) null spaces.
    """
    lineality = tuple(
        null_space([a for a, _ in p.equations] + [n for n, _ in p.facets], p.dim)
    )
    if lineality:
        return (), None, lineality
    equations = [(*a, -b) for a, b in p.equations]
    rows = [(0,) * p.dim + (1,)] + [(*n, c) for n, c in p.facets]
    need = p.dim - rational_rank([a for a, _ in p.equations])
    vertices = set()
    rays = {}
    for subset in itertools.combinations(rows, need):
        kernel = null_space(equations + list(subset), p.dim + 1)
        if len(kernel) != 1:
            continue
        *x, t = kernel[0]
        if t != 0:
            point = tuple(xi / t for xi in x)
            if point not in vertices and p.contains(point):
                vertices.add(point)
            continue
        for ray in (x, [-xi for xi in x]):
            if all(dot(ray, n) >= 0 for n, _ in p.facets):
                rays.setdefault(primitive_from_rational(ray), None)
    return (
        tuple(sorted(vertices)),
        tuple(tuple(Fraction(x) for x in ray) for ray in rays),
        lineality,
    )


def dimension_by_subsets(vrep) -> int:
    """Affine dimension from the result of `vrep_by_subsets`: rank of vertex differences and rays."""
    verts, rays, lineality = vrep
    if not verts:
        if lineality:
            raise ValueError("polytope without vertices")
        return -1
    base = verts[0]
    rows = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
    return rational_rank(rows + list(rays))


def codim2_faces_by_pairs(p, verts) -> list:
    """(active, dim, vertices) of each codimension-two face, by facet pairs.

    For every pair of independent facet normals, the vertices tight on
    both are taken with their affine rank; sets of rank d - 2 are faces,
    with every facet tight on all of them as the active set.  Incidence
    by dot products on `verts`, the vertices of `vrep_by_subsets`.
    """
    incidence = {v: p.active_facets(v) for v in verts}
    seen = {}
    for i, j in itertools.combinations(range(len(p.facets)), 2):
        if rational_rank([p.facets[i][0], p.facets[j][0]]) != 2:
            continue
        members = tuple(v for v in verts if i in incidence[v] and j in incidence[v])
        if not members:
            continue
        base = members[0]
        rows = [[v[k] - base[k] for k in range(p.dim)] for v in members[1:]]
        fdim = rational_rank(rows) if rows else 0
        if fdim != p.dim - 2 or members in seen:
            continue
        active = frozenset.intersection(*(incidence[v] for v in members))
        seen[members] = (active, fdim, members)
    return sorted(seen.values(), key=lambda f: tuple(sorted(f[0])))
