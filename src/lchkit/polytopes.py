"""Moment polytopes, cones on polytopes, and reduction slices.

Polytopes are stored in H-representation {x : <x, nu_i> >= -c_i} with
primitive integer normals and rational offsets, plus optional affine-hull
equations for presentations inside a proper subspace (e.g. a simplex in a
sum-zero hyperplane).  The V-representation (vertices, recession rays,
lineality) and the vertex-facet incidence are computed once per instance,
by one double-description pass in integers over the homogenised cone;
face dimensions are then ranks of integer rows read off the incidence.

The reduction-slice construction models a symplectic quotient of the cone
on a toric base along a codimension-two face: it builds the codimension-one
subspace through nu_1 + nu_2, slices the cone to a two-dimensional
polytope, evaluates the lattice-basis smoothness test on the homogenized
normals, and reports the vertical line that is the moment image of the
resulting Lagrangian filling.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .lattice import (
    dot,
    is_lattice_basis_of_span,
    null_space,
    primitive_from_rational,
    primitive_vector,
    rational_rank,
)
from .rational import rat_str, read

Point = tuple[Fraction, ...]


def _normalize_equation(a: Sequence[Fraction], b: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """Scale <x, a> = b to primitive integer a with sign-canonical leading entry."""
    joint = primitive_from_rational([*a, b])
    lead = next((x for x in joint[:-1] if x != 0), 0)
    if lead < 0:
        joint = tuple(-x for x in joint)
    return joint[:-1], Fraction(joint[-1])


class _VRep(NamedTuple):
    vertices: tuple[Point, ...]
    rays: Optional[tuple[Point, ...]]
    lineality: tuple[Point, ...]
    # primitive (x, t) of each vertex, then of each ray, in the orders above
    generators: tuple[tuple[int, ...], ...]
    # per vertex, the bitmask of its tight facets (bit i for facet i)
    incidence: tuple[int, ...]


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _combine(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> tuple[int, ...]:
    """The primitive vector along a u + b v."""
    return primitive_vector([a * x + b * y for x, y in zip(u, v)])


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _double_description(
    equations: Sequence[tuple[int, ...]], rows: Sequence[tuple[int, ...]], dim: int
) -> list[tuple[tuple[int, ...], int]]:
    """Extreme rays of the pointed cone {y : <y, e> = 0, <y, h> >= 0}.

    The double-description method (Motzkin et al. 1953; Fukuda & Prodon
    1996) in Python ints.  It starts from a basis of the equations'
    solution space, all of it lineality, and adds the rows in order.  A
    row that is nonzero on some lineality vector turns that vector into a
    ray and projects every other generator onto the row's hyperplane.
    Otherwise the rays on its negative side are dropped, and each adjacent
    (positive, negative) pair is combined into a ray on the hyperplane;
    two rays are adjacent when no third ray is tight on every row both
    are tight on.  Each ray is returned primitive, with the bitmask of
    the rows it is tight on (bit k for rows[k]).  The cone must be
    pointed once every row is in.
    """
    lineality = [primitive_from_rational(v) for v in null_space(equations, dim)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, h in enumerate(rows):
        bit = 1 << k
        lead = next((i for i, v in enumerate(lineality) if _idot(h, v)), None)
        if lead is not None:
            pivot = lineality.pop(lead)
            s = _idot(h, pivot)
            if s < 0:
                pivot, s = tuple(-x for x in pivot), -s
            lineality = [_combine(s, v, -_idot(h, v), pivot) for v in lineality]
            rays = [(_combine(s, r, -_idot(h, r), pivot), mask | bit) for r, mask in rays]
            rays.append((pivot, bit - 1))
            continue
        positive, negative, kept = [], [], []
        for r, mask in rays:
            s = _idot(h, r)
            if s > 0:
                positive.append((r, mask, s))
                kept.append((r, mask))
            elif s < 0:
                negative.append((r, mask, s))
            else:
                kept.append((r, mask | bit))
        masks = [mask for _, mask in rays]
        for p, pmask, ps in positive:
            for n, nmask, ns in negative:
                common = pmask & nmask
                if sum(mask & common == common for mask in masks) == 2:
                    kept.append((_combine(ps, n, -ns, p), common | bit))
        rays = kept
    return rays


@dataclass(frozen=True)
class Polytope:
    """H-representation polyhedron {x : <x, normal_i> >= -offset_i}.

    `equations` pins the affine hull: pairs (a, b) meaning <x, a> = b.
    Normals are primitivized at construction (offsets rescale along).
    """

    dim: int
    facets: tuple[tuple[tuple[int, ...], Fraction], ...]
    equations: tuple[tuple[tuple[int, ...], Fraction], ...] = ()

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        fixed = []
        for normal, offset in self.facets:
            if len(normal) != self.dim:
                raise ValueError("facet normal has wrong dimension")
            prim = primitive_from_rational(normal)
            if all(x == 0 for x in prim):
                raise ValueError("zero facet normal")
            scale = next(Fraction(b) / a for a, b in zip(prim, normal) if a != 0)
            fixed.append((prim, Fraction(offset) / scale))
        object.__setattr__(self, "facets", tuple(fixed))
        eqs = []
        for a, b in self.equations:
            if len(a) != self.dim:
                raise ValueError("equation has wrong dimension")
            if all(x == 0 for x in a):
                if Fraction(b) != 0:
                    raise ValueError("inconsistent equation 0 = b")
                continue
            eqs.append(_normalize_equation(a, b))
        object.__setattr__(self, "equations", tuple(eqs))

    # -- membership ---------------------------------------------------------

    def contains(self, point: Sequence[Fraction], strict: bool = False) -> bool:
        for a, b in self.equations:
            if dot(point, a) != b:
                return False
        for normal, offset in self.facets:
            val = dot(point, normal) + offset
            if val < 0 or (strict and val == 0):
                return False
        return True

    def active_facets(self, point: Sequence[Fraction]) -> frozenset[int]:
        return frozenset(
            i for i, (normal, offset) in enumerate(self.facets) if dot(point, normal) + offset == 0
        )

    # -- V-representation ---------------------------------------------------

    @cached_property
    def _vrep(self) -> _VRep:
        """Vertices, recession rays, lineality and incidence, from one pass.

        Under lineality there are no vertices and the rays are None.
        Otherwise the homogenised cone {(x, t) : <x, nu> + t c >= 0, t >= 0,
        <x, a> = t b} is pointed, and one double-description pass (height
        row first, then the facets in order) gives its extreme rays as
        primitive integer vectors: those with t > 0 are the vertices, those
        with t = 0 the extreme rays of the recession cone.  Vertices and
        rays are sorted.
        """
        lineality = tuple(
            null_space([a for a, _ in self.equations] + [n for n, _ in self.facets], self.dim)
        )
        if lineality:
            return _VRep((), None, lineality, (), ())
        equations = [primitive_from_rational([*a, -b]) for a, b in self.equations]
        rows = [(0,) * self.dim + (1,)] + [primitive_from_rational([*n, c]) for n, c in self.facets]
        tops, bottoms = [], []
        for y, mask in _double_description(equations, rows, self.dim + 1):
            *x, t = y
            if t:
                tops.append((tuple(Fraction(xi, t) for xi in x), y, mask >> 1))
            else:
                bottoms.append((tuple(Fraction(xi) for xi in x), y))
        tops.sort()
        bottoms.sort()
        return _VRep(
            vertices=tuple(v for v, _, _ in tops),
            rays=tuple(r for r, _ in bottoms),
            lineality=(),
            generators=tuple(y for _, y, _ in tops) + tuple(y for _, y in bottoms),
            incidence=tuple(mask for _, _, mask in tops),
        )

    def vertices(self) -> list[Point]:
        """All vertices, sorted."""
        return list(self._vrep.vertices)

    def lineality_space(self) -> list[Point]:
        """Basis of {v : <v, a_j> = 0 for equations, <v, nu_i> = 0 for facets}."""
        return list(self._vrep.lineality)

    def recession_rays(self) -> list[Point]:
        """Extreme rays of the recession cone, primitive and sorted (empty if compact)."""
        rays = self._vrep.rays
        if rays is None:
            raise ValueError("recession cone has lineality; no extreme rays")
        return list(rays)

    def is_compact(self) -> bool:
        vrep = self._vrep
        return not vrep.lineality and not vrep.rays

    def dimension(self) -> int:
        """Affine dimension (-1 for the empty polytope).

        The rank of the homogenised vertices and rays, less one.
        """
        vrep = self._vrep
        if not vrep.vertices:
            if vrep.lineality:
                raise ValueError("polytope without vertices: pin its affine hull with equations")
            return -1
        return rational_rank(vrep.generators) - 1

    def is_full_dimensional(self) -> bool:
        return self.dimension() == self.dim

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "dim": self.dim,
            "facets": [
                {"normal": list(normal), "offset": rat_str(offset)}
                for normal, offset in self.facets
            ],
        }
        if self.equations:
            out["equations"] = [
                {"normal": list(a), "value": rat_str(b)} for a, b in self.equations
            ]
        return out


def _row(normal: tuple[int, ...], rhs: Fraction) -> tuple[tuple[int, ...], Fraction]:
    return normal, rhs


# JSON key tables, read by rational.read; a facet or equation reads to a (normal, rhs) pair
FACET_JSON = (_row, {"normal": ("normal", [int], True), "offset": ("rhs", Fraction, True)})
EQUATION_JSON = (_row, {"normal": ("normal", [int], True), "value": ("rhs", Fraction, True)})
POLYTOPE_JSON = (Polytope, {
    "dim": ("dim", int, True),
    "facets": ("facets", [FACET_JSON], True),
    "equations": ("equations", [EQUATION_JSON], False),
})


@dataclass(frozen=True)
class Face:
    """A face of a polytope: tight facet indices, dimension, and vertex set."""

    active: frozenset[int]
    dim: int
    vertices: tuple[Point, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class ConePolytope:
    """Cone(P) = R_{>=0} (P x {1}) in one dimension higher.

    Facets are the homogenizations (nu_i, c_i) of the facets of P, in the
    same order, followed by the height inequality t >= 0 (it is implied for
    most bases but not when every offset vanishes).  Equations of P
    homogenize to (a, -b).
    """

    dim: int
    facets: tuple[tuple[int, ...], ...]
    equations: tuple[tuple[int, ...], ...] = ()

    def slice_at_height(self, s: Fraction) -> Polytope:
        """The polytope {x : (x, s) in Cone}; equals s * P by homogeneity."""
        s = Fraction(s)
        if s <= 0:
            raise ValueError("slice height must be positive")
        facets = []
        for normal in self.facets:
            base, c = normal[:-1], Fraction(normal[-1])
            if all(x == 0 for x in base):
                continue  # the height facet is trivial on a positive slice
            facets.append((base, s * c))
        equations = tuple((a[:-1], -s * Fraction(a[-1])) for a in self.equations)
        return Polytope(dim=self.dim - 1, facets=tuple(facets), equations=equations)

    def contains(self, point: Sequence[Fraction]) -> bool:
        if any(dot(point, a) != 0 for a in self.equations):
            return False
        return all(dot(point, normal) >= 0 for normal in self.facets)


def standard_simplex(n: int) -> Polytope:
    """Moment polytope of projective (n-1)-space, in the affine chart.

    The simplex {lambda_1 + ... + lambda_n = 1, lambda_i >= 0} projected
    along the last coordinate: full-dimensional in dimension n - 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    d = n - 1
    if d == 0:
        return Polytope(dim=0, facets=(), equations=())
    facets = [
        (tuple(int(j == i) for j in range(d)), Fraction(0)) for i in range(d)
    ]
    facets.append((tuple(-1 for _ in range(d)), Fraction(1)))
    return Polytope(dim=d, facets=tuple(facets))


def fano_simplex(n: int) -> Polytope:
    """Anticanonical moment polytope of projective (n-1)-space: offsets all 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    d = n - 1
    facets = [
        (tuple(int(j == i) for j in range(d)), Fraction(1)) for i in range(d)
    ]
    facets.append((tuple(-1 for _ in range(d)), Fraction(1)))
    return Polytope(dim=d, facets=tuple(facets))


def cube(d: int, half_width: int = 1) -> Polytope:
    """[-w, w]^d, a convenient compact test polytope."""
    facets = []
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        facets.append((e, Fraction(half_width)))
        facets.append((tuple(-x for x in e), Fraction(half_width)))
    return Polytope(dim=d, facets=tuple(facets))


def cone_on(p: Polytope) -> ConePolytope:
    """Homogenize a compact polytope containing the origin in its closure."""
    if not p.is_compact():
        raise ValueError("cone on an unbounded polytope")
    if not p.contains([Fraction(0)] * p.dim):
        raise ValueError("polytope must contain the origin")
    facets = [primitive_from_rational([*normal, offset]) for normal, offset in p.facets]
    height = tuple([0] * p.dim + [1])
    if height not in facets:
        facets.append(height)
    equations = tuple(primitive_from_rational([*a, -b]) for a, b in p.equations)
    return ConePolytope(dim=p.dim + 1, facets=tuple(facets), equations=equations)


def codim2_faces(p: Polytope) -> list[Face]:
    """All codimension-two faces of a compact full-dimensional polytope.

    Every face is the set of vertices tight on some facet pair, read off
    the cached vertex-facet incidence; its active set is every facet tight
    on all of them, and its dimension is d less the rank of their normals.
    Faces are sorted by active set.
    """
    if not p.is_compact():
        raise ValueError("codimension-two faces need a compact polytope")
    if not p.is_full_dimensional():
        raise ValueError("codimension-two faces need a full-dimensional polytope")
    verts = p.vertices()
    target = p.dim - 2
    if target < 0:
        return []
    on_facet = [0] * len(p.facets)
    for v, mask in enumerate(p._vrep.incidence):
        for i in _bits(mask):
            on_facet[i] |= 1 << v
    seen: dict[int, Optional[Face]] = {}
    for i, j in itertools.combinations(range(len(p.facets)), 2):
        members = on_facet[i] & on_facet[j]
        if not members or members in seen:
            continue
        active = [k for k, on in enumerate(on_facet) if on & members == members]
        fdim = p.dim - rational_rank([p.facets[k][0] for k in active])
        seen[members] = (
            Face(frozenset(active), fdim, tuple(verts[v] for v in _bits(members)))
            if fdim == target
            else None
        )
    return sorted((f for f in seen.values() if f), key=lambda f: tuple(sorted(f.active)))


@dataclass(frozen=True)
class FillingLine:
    """The vertical line {lambda} x R clipped to the cone.

    `t_max` is None when the line stays in the cone unbounded above.  The
    moment image of the reduction filling is this segment/ray.
    """

    base_point: Point
    t_min: Fraction
    t_max: Optional[Fraction]
    empty: bool = False

    def point_at_height(self, t: Fraction) -> Point:
        t = Fraction(t)
        if self.empty or t < self.t_min or (self.t_max is not None and t > self.t_max):
            raise ValueError("height outside the filling line")
        return self.base_point + (t,)


@dataclass(frozen=True)
class ReductionSlice:
    reduced_polytope: Polytope
    smooth: bool
    filling_line: FillingLine
    h1_basis: tuple[Point, ...]
    test_vectors: tuple[tuple[int, ...], ...]


def _relative_interior_member(points: Sequence[Point], candidate: Point) -> bool:
    """candidate in relint(conv(points)): a strictly positive convex combination.

    The feasible coefficient set is a compact polytope in the simplex; the
    candidate is interior iff that set is nonempty and not contained in any
    coordinate hyperplane (checked on its vertices).
    """
    k = len(points)
    d = len(candidate)
    facets = tuple(
        (tuple(int(i == j) for j in range(k)), Fraction(0)) for i in range(k)
    )
    equations: list[tuple[tuple[Fraction, ...], Fraction]] = [
        (tuple(Fraction(1) for _ in range(k)), Fraction(1))
    ]
    for coord in range(d):
        row = tuple(points[i][coord] for i in range(k))
        if all(x == 0 for x in row):
            if candidate[coord] != 0:
                return False
            continue
        equations.append((row, candidate[coord]))
    theta_poly = Polytope(dim=k, facets=facets, equations=tuple(equations))
    verts = theta_poly.vertices()
    if not verts:
        return False
    return all(any(v[i] > 0 for v in verts) for i in range(k))


def reduction_slice(
    cone: ConePolytope, face: Face, lam: Sequence[Fraction]
) -> ReductionSlice:
    """Slice the cone along a codimension-two face of its base.

    Follows the symplectic-quotient recipe: the reducing subspace h_1 is
    spanned by nu_1 + nu_2 together with the orthogonal complement of
    span(nu_1, nu_2) (the tie-break orthogonal to nu_1 - nu_2); the slice
    through the face's cone in the two remaining directions is returned as
    a two-dimensional polytope.  Smoothness along the face's cone is the
    lattice-basis test on {(nu_1 + nu_2, 0), (nu_1, c_1), (nu_2, c_2)}.
    The filling's moment image is the line {lambda} x R clipped to the cone.
    """
    if len(face.active) != 2:
        raise ValueError("face must be cut out by exactly two facets")
    if not face.vertices:
        raise ValueError("face must carry its vertex set")
    d = cone.dim - 1
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != d:
        raise ValueError("lambda must live in the base coordinates")
    i1, i2 = sorted(face.active)
    hom1, hom2 = cone.facets[i1], cone.facets[i2]
    nu1, c1 = hom1[:-1], hom1[-1]
    nu2, c2 = hom2[:-1], hom2[-1]
    if rational_rank([nu1, nu2]) != 2:
        raise ValueError("face normals are not independent")
    cone_affine = cone.dim - rational_rank(cone.equations)
    if face.dim != cone_affine - 3:
        raise ValueError("face is not codimension two in the base")

    hull_points = list(face.vertices) + [tuple(Fraction(0) for _ in range(d))]
    if not _relative_interior_member(hull_points, lam):
        raise ValueError("lambda is not in the interior of hull(face, 0)")

    sum_vec = tuple(a + b for a, b in zip(nu1, nu2))
    test_vectors = (
        sum_vec + (0,),
        nu1 + (int(c1),),
        nu2 + (int(c2),),
    )
    smooth = is_lattice_basis_of_span(test_vectors)

    # h_1 = span(nu_1 + nu_2) + orthogonal complement of span(nu_1, nu_2)
    perp = null_space([nu1, nu2], d)
    h1_basis = [tuple(Fraction(x) for x in sum_vec)] + perp

    # transverse direction u in span(nu_1, nu_2) orthogonal to nu_1 + nu_2
    t_coef = dot(nu1, sum_vec) / dot(sum_vec, sum_vec)
    u = tuple(a - t_coef * b for a, b in zip(nu1, sum_vec))
    if all(x == 0 for x in u):
        raise ValueError("degenerate transverse direction")

    # base point: centroid of the face at height 1
    k = len(face.vertices)
    x0 = tuple(sum(v[i] for v in face.vertices) / k for i in range(d))

    # slice coordinates (s, t): the point x0 + s u at height t
    slice_facets = []
    for normal in cone.facets:
        nu, c = normal[:-1], Fraction(normal[-1])
        coeff_s = dot(u, nu)
        const = dot(x0, nu)
        if coeff_s == 0 and c == 0:
            if const < 0:
                raise ValueError("slice misses the cone")
            continue
        slice_facets.append(((coeff_s, c), const))
    reduced = Polytope(dim=2, facets=tuple(slice_facets))

    filling = _clip_vertical_line(cone, lam)
    return ReductionSlice(
        reduced_polytope=reduced,
        smooth=smooth,
        filling_line=filling,
        h1_basis=tuple(h1_basis),
        test_vectors=test_vectors,
    )


def _clip_vertical_line(cone: ConePolytope, lam: Point) -> FillingLine:
    """Intersect {lambda} x R with the cone."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    empty = False
    for a in cone.equations:
        av = dot(lam, a[:-1])
        ct = Fraction(a[-1])
        if ct == 0:
            if av != 0:
                empty = True
        else:
            t = -av / ct
            lo = t if lo is None or t > lo else lo
            hi = t if hi is None or t < hi else hi
    for normal in cone.facets:
        nu, c = normal[:-1], Fraction(normal[-1])
        val = dot(lam, nu)
        if c == 0:
            if val < 0:
                empty = True
        elif c > 0:
            t = -val / c
            lo = t if lo is None or t > lo else lo
        else:
            t = -val / c
            hi = t if hi is None or t < hi else hi
    if lo is None:
        lo = Fraction(0)
    if hi is not None and hi < lo:
        empty = True
    return FillingLine(base_point=lam, t_min=lo, t_max=hi, empty=empty)


def polytope_to_json(p: Polytope) -> str:
    return json.dumps(p.to_json_dict(), sort_keys=True)


def polytope_from_json(text: str) -> Polytope:
    return read(json.loads(text), POLYTOPE_JSON, "polytope")


def harvey_lawson_reduction():
    """The reduction data for the standard-fibration cone over the plane.

    Base: the simplex with vertices the projections of the standard basis
    vectors to the sum-zero hyperplane, facet offsets 1; face: the vertex
    under the last basis vector, whose edge normals are (1,-2,1) and
    (-2,1,1) up to sign.  Returns (cone, face, lambda) ready for
    reduction_slice; lambda defaults to the midpoint toward the origin.
    """
    third = Fraction(1, 3)
    p1 = (2 * third, -third, -third)
    p2 = (-third, 2 * third, -third)
    p3 = (-third, -third, 2 * third)
    base = Polytope(
        dim=3,
        facets=(
            ((-1, 2, -1), Fraction(1)),  # inner normal of the edge p1 p3
            ((2, -1, -1), Fraction(1)),  # inner normal of the edge p2 p3
            ((-1, -1, 2), Fraction(1)),  # inner normal of the edge p1 p2
        ),
        equations=(((1, 1, 1), Fraction(0)),),
    )
    assert base.contains(p1) and base.contains(p2) and base.contains(p3)
    cone = cone_on(base)
    face = Face(active=frozenset({0, 1}), dim=0, vertices=(p3,))
    lam = tuple(x / 2 for x in p3)
    return cone, face, lam
