import itertools
import math
import random
from fractions import Fraction

import pytest

from lchkit.lattice import rational_rank
from lchkit.polytopes import (
    ConePolytope,
    Face,
    Polytope,
    codim2_faces,
    cone_on,
    cube,
    fano_simplex,
    harvey_lawson_reduction,
    reduction_slice,
    standard_simplex,
)

from oracles import (
    codim2_faces_by_pairs,
    dimension_by_subsets,
    vertices_by_cramer,
    vrep_by_subsets,
)


def frac(p, q=1):
    return Fraction(p, q)


# -- standard simplex ---------------------------------------------------------


def test_standard_simplex_segment():
    p = standard_simplex(2)
    assert p.dim == 1
    assert sorted(p.vertices()) == [(frac(0),), (frac(1),)]


def test_standard_simplex_triangle_vertices():
    p = standard_simplex(3)
    assert sorted(p.vertices()) == [
        (frac(0), frac(0)),
        (frac(0), frac(1)),
        (frac(1), frac(0)),
    ]


def test_standard_simplex_barycenter():
    for n in (2, 3, 4, 5):
        p = standard_simplex(n)
        verts = p.vertices()
        bary = tuple(sum(v[i] for v in verts) / len(verts) for i in range(p.dim))
        assert bary == tuple(Fraction(1, n) for _ in range(p.dim))
        assert p.contains(bary, strict=True)


def test_standard_simplex_rejects_zero():
    with pytest.raises(ValueError):
        standard_simplex(0)


# -- cones --------------------------------------------------------------------


def test_cone_on_simplex_is_orthant():
    # (x, t) -> (x, t - sum x) is a unimodular isomorphism onto the orthant
    for n in (2, 3, 4):
        c = cone_on(standard_simplex(n))
        d = n - 1
        rng = random.Random(7 * n)
        for _ in range(200):
            pt = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
            x, t = pt[:-1], pt[-1]
            image_in_orthant = all(xi >= 0 for xi in x) and t - sum(x) >= 0
            assert c.contains(pt) == image_in_orthant


def test_cone_on_point_is_ray():
    c = cone_on(standard_simplex(1))
    assert c.contains((frac(2),))
    assert c.contains((frac(0),))
    assert not c.contains((frac(-1),))


def test_cone_slice_scaling():
    p = fano_simplex(3)
    c = cone_on(p)
    for s in (Fraction(1), Fraction(2), Fraction(1, 2)):
        sliced = c.slice_at_height(s)
        # s * P: vertices scale linearly
        expect = sorted(tuple(s * x for x in v) for v in p.vertices())
        assert sorted(sliced.vertices()) == expect


def test_cone_slice_at_one_recovers_facets():
    for p in (standard_simplex(3), fano_simplex(3), cube(2), standard_simplex(4)):
        c = cone_on(p)
        back = c.slice_at_height(Fraction(1))
        assert sorted(back.facets) == sorted(p.facets)
        assert sorted(back.equations) == sorted(p.equations)


def test_cone_requires_compact():
    halfplane = Polytope(dim=2, facets=(((1, 0), frac(0)),))
    with pytest.raises(ValueError):
        cone_on(halfplane)


def test_cone_requires_origin():
    shifted = Polytope(
        dim=1, facets=(((1,), frac(-1)), ((-1,), frac(2)))
    )  # the segment [1, 2]
    with pytest.raises(ValueError):
        cone_on(shifted)


# -- V-representation readers ------------------------------------------------


def test_unbounded_wedge_has_rays():
    wedge = Polytope(dim=2, facets=(((1, 0), frac(0)), ((1, -1), frac(1))))
    assert wedge.vertices() == [(frac(0), frac(1))]
    assert sorted(wedge.recession_rays()) == [(frac(0), frac(-1)), (frac(1), frac(1))]
    assert wedge.lineality_space() == []
    assert not wedge.is_compact()
    assert wedge.dimension() == 2


def test_strip_with_lineality():
    strip = Polytope(dim=2, facets=(((1, 0), frac(1)), ((-1, 0), frac(1))))
    assert strip.lineality_space() == [(frac(0), frac(1))]
    assert strip.vertices() == []
    assert not strip.is_compact()
    with pytest.raises(ValueError):
        strip.recession_rays()
    with pytest.raises(ValueError):
        strip.dimension()


def test_empty_polytope():
    empty = Polytope(dim=1, facets=(((1,), frac(-1)), ((-1,), frac(0))))  # x >= 1, x <= 0
    assert empty.vertices() == []
    assert empty.dimension() == -1
    assert empty.is_compact()


def test_zero_dimensional_polytope():
    point = Polytope(dim=0, facets=())
    assert point.vertices() == [()]
    assert point.recession_rays() == []
    assert point.lineality_space() == []
    assert point.is_compact()
    assert point.dimension() == 0


def test_negative_dimension_rejected():
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        Polytope(dim=-1, facets=())
    with pytest.raises(ValueError, match="dimension must be nonnegative"):
        cube(-3)


def test_readers_hand_out_fresh_lists():
    p = cube(2)
    first = p.vertices()
    first.clear()
    assert len(p.vertices()) == 4
    rays = p.recession_rays()
    rays.append((frac(1), frac(0)))
    assert p.recession_rays() == []
    assert p.is_compact()


# -- codimension-two faces ----------------------------------------------------


def oracle_codim2_count(p: Polytope) -> int:
    """Count codim-2 faces from vertex tuples sharing a rank-(d-2) tight set."""
    verts = p.vertices()
    d = p.dim
    found = set()
    # group vertices by maximal common active sets of pairs and singletons
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            active = frozenset.intersection(*(p.active_facets(v) for v in combo))
            rows = [[Fraction(x) for x in p.facets[i][0]] for i in active]
            if not rows or rational_rank(rows) != 2:
                continue
            # affine dimension of the face cut out by this active set
            members = tuple(v for v in verts if active <= p.active_facets(v))
            base = members[0]
            drows = [[v[k] - base[k] for k in range(d)] for v in members[1:]]
            fdim = rational_rank(drows) if drows else 0
            if fdim == d - 2:
                found.add(members)
    return len(found)


def test_codim2_triangle():
    faces = codim2_faces(standard_simplex(3))
    assert len(faces) == 3
    assert all(len(f.active) == 2 and f.dim == 0 for f in faces)


def test_codim2_cube_edges():
    faces = codim2_faces(cube(3))
    assert len(faces) == 12
    assert all(f.dim == 1 for f in faces)


def test_codim2_tetrahedron():
    faces = codim2_faces(standard_simplex(4))
    assert len(faces) == 6


def test_codim2_matches_oracle_on_cut_boxes():
    rng = random.Random(424242)
    for trial in range(25):
        d = rng.choice([2, 3])
        facets = list(cube(d).facets)
        for _ in range(rng.randint(0, 2)):
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if all(x == 0 for x in normal):
                continue
            facets.append((normal, Fraction(rng.randint(1, 3))))
        p = Polytope(dim=d, facets=tuple(facets))
        if not p.is_full_dimensional():
            continue
        assert len(codim2_faces(p)) == oracle_codim2_count(p)


def test_vertices_match_cramer_oracle_on_cut_boxes():
    rng = random.Random(515151)
    for trial in range(30):
        d = rng.choice([2, 3])
        facets = list(cube(d).facets)
        for _ in range(rng.randint(0, 3)):
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if all(x == 0 for x in normal):
                continue
            facets.append((normal, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        p = Polytope(dim=d, facets=tuple(facets))
        assert p.vertices() == vertices_by_cramer(p.facets, d)


def theta_polytope(points, candidate) -> Polytope:
    """The convex-combination polytope that `_relative_interior_member` builds."""
    k = len(points)
    facets = tuple((tuple(int(i == j) for j in range(k)), frac(0)) for i in range(k))
    equations = [(tuple(frac(1) for _ in range(k)), frac(1))]
    for coord in range(len(candidate)):
        row = tuple(points[i][coord] for i in range(k))
        if any(row):
            equations.append((row, candidate[coord]))
    return Polytope(dim=k, facets=facets, equations=tuple(equations))


def cross_polytope(d: int) -> Polytope:
    signs = itertools.product((1, -1), repeat=d)
    return Polytope(dim=d, facets=tuple((s, frac(1)) for s in signs))


def differential_polytopes() -> list[Polytope]:
    """Seeded polytopes covering every branch of the V-representation."""
    hl_base = Polytope(
        dim=3,
        facets=(((-1, 2, -1), frac(1)), ((2, -1, -1), frac(1)), ((-1, -1, 2), frac(1))),
        equations=(((1, 1, 1), frac(0)),),
    )
    third = frac(1, 3)
    hl_face = (-third, -third, 2 * third)
    box = list(cube(3).facets)
    out = [
        Polytope(dim=0, facets=()),
        Polytope(dim=2, facets=(((1, 0), frac(0)), ((1, -1), frac(1)))),  # wedge
        Polytope(dim=2, facets=(((1, 0), frac(1)), ((-1, 0), frac(1)))),  # strip: lineality
        Polytope(dim=1, facets=(((1,), frac(-1)), ((-1,), frac(0)))),  # empty
        Polytope(dim=2, facets=(((1, 0), frac(-1)), ((-1, 0), frac(0)), ((0, 1), frac(0)))),  # empty, a ray
        Polytope(dim=1, facets=(), equations=(((1,), frac(1, 2)),)),  # a point by equation
        Polytope(dim=1, facets=(((1,), frac(0)),), equations=(((1,), frac(1)), ((2,), frac(3)))),
        hl_base,
        theta_polytope([hl_face, (0, 0, 0)], tuple(x / 2 for x in hl_face)),
        theta_polytope([(frac(1), frac(1), frac(-1)), (frac(1), frac(1), frac(1)), (0, 0, 0)],
                       (frac(1, 3), frac(1, 3), frac(0))),
        Polytope(dim=3, facets=tuple(box + box[:2])),  # repeated facets
        Polytope(dim=3, facets=tuple(box + [((1, 1, 0), frac(2)), ((1, 0, 0), frac(5))])),  # redundant
        cross_polytope(3),  # octahedron
        cross_polytope(4),
        Polytope(dim=3, facets=(((0, 0, 1), frac(0)), ((1, 0, -1), frac(1)), ((-1, 0, -1), frac(1)),
                                ((0, 1, -1), frac(1)), ((0, -1, -1), frac(1)))),  # square pyramid
        Polytope(dim=3, facets=tuple(box[:5])),  # a box open on one side
        standard_simplex(4),
    ]
    rng = random.Random(131313)
    while len(out) < 48:
        d = rng.choice([2, 3])
        if rng.random() < 0.5:
            facets = list(cube(d).facets)
            rng.shuffle(facets)
            facets = facets[: rng.randint(d, 2 * d)]
        else:
            facets = []
        for _ in range(rng.randint(0 if facets else d, 3)):
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(normal):
                facets.append((normal, Fraction(rng.randint(-2, 4), rng.randint(1, 3))))
        equations = ()
        if rng.random() < 0.2:
            equations = ((tuple(rng.randint(-1, 1) for _ in range(d)), Fraction(rng.randint(-1, 1))),)
        out.append(Polytope(dim=d, facets=tuple(facets), equations=equations))
    return out


def test_vrep_matches_subset_sweep():
    kinds = set()
    for p in differential_polytopes():
        verts, rays, lineality = ref = vrep_by_subsets(p)
        assert p.vertices() == list(verts)
        assert p.lineality_space() == list(lineality)
        if rays is None:
            kinds.add("lineality")
            with pytest.raises(ValueError):
                p.recession_rays()
            with pytest.raises(ValueError):
                p.dimension()
            continue
        assert p.recession_rays() == sorted(rays)
        assert p.dimension() == dimension_by_subsets(ref)
        kinds.add("unbounded" if rays else "compact" if verts else "empty")
        if verts and not rays and p.dimension() == p.dim:
            kinds.add("faces")
            faces = [(f.active, f.dim, f.vertices) for f in codim2_faces(p)]
            assert faces == codim2_faces_by_pairs(p, verts)
    assert kinds == {"lineality", "unbounded", "compact", "empty", "faces"}


def test_closed_form_counts_beyond_the_sweep():
    for d in range(4, 9):
        p = cube(d)
        faces = codim2_faces(p)
        assert len(p.vertices()) == 2**d
        assert len(faces) == 2 * d * (d - 1)
        assert all(f.dim == d - 2 and len(f.vertices) == 2 ** (d - 2) for f in faces)
    for n in range(3, 10):
        p = fano_simplex(n)
        faces = codim2_faces(p)
        assert len(p.vertices()) == n
        assert len(faces) == math.comb(n, 2)
        assert all(f.dim == n - 3 for f in faces)


def unimodular_image(rng, p: Polytope, translate: bool):
    """P mapped by x -> A x + b with A in GL(d, Z), its facets shuffled.

    Normals map by B = A^{-T}, a seeded signed permutation and shears as
    in lchbench's `lattice_image`; `b` is a small integer vector.  Returns
    (image, B, b, perm) with new facet k the image of old facet perm[k].
    """
    d = p.dim
    order, signs = rng.sample(range(d), d), [rng.choice((1, -1)) for _ in range(d)]
    B = [[signs[i] * int(j == order[i]) for j in range(d)] for i in range(d)]
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        B[j] = [a + s * b for a, b in zip(B[j], B[i])]
    b = tuple(rng.randint(-2, 2) if translate else 0 for _ in range(d))
    perm = rng.sample(range(len(p.facets)), len(p.facets))
    facets = []
    for k in perm:
        normal, offset = p.facets[k]
        image = tuple(sum(row[j] * normal[j] for j in range(d)) for row in B)
        facets.append((image, offset - sum(x * y for x, y in zip(b, image))))
    return Polytope(dim=d, facets=tuple(facets)), B, b, perm


def test_unimodular_images_keep_vertices_and_faces():
    rng = random.Random(6161)
    for d in (5, 6):
        for trial in range(3):
            facets = list(cube(d, rng.randint(1, 2)).facets)
            for _ in range(trial):  # cut off corners, as lchbench's cut boxes do
                corner = tuple(rng.choice((1, -1)) for _ in range(d))
                facets.append((tuple(-x for x in corner), Fraction(2 * d - 1, 2)))
            p = Polytope(dim=d, facets=tuple(facets))
            image, B, b, perm = unimodular_image(rng, p, translate=True)
            # x = B^T (y - b) inverts y = A x + b
            back = sorted(
                tuple(sum(B[i][j] * (y[i] - b[i]) for i in range(d)) for j in range(d))
                for y in image.vertices()
            )
            assert back == p.vertices()
            faces = codim2_faces(p)
            mapped = codim2_faces(image)
            assert sorted(f.dim for f in mapped) == sorted(f.dim for f in faces)
            assert {frozenset(perm[k] for k in f.active) for f in mapped} == {f.active for f in faces}


def test_unimodular_images_keep_reduce_smoothness():
    rng = random.Random(7171)
    for n in (3, 4, 5):
        p = fano_simplex(n)
        image, _, _, perm = unimodular_image(rng, p, translate=False)
        verdicts = []
        for q, relabel in ((p, list(range(len(p.facets)))), (image, perm)):
            cone = cone_on(q)
            found = {}
            for face in codim2_faces(q):
                lam = tuple(sum(x) / (len(face.vertices) + 1) for x in zip(*face.vertices))
                key = frozenset(relabel[k] for k in face.active)
                found[key] = reduction_slice(cone, face, lam).smooth
            verdicts.append(found)
        assert verdicts[0] == verdicts[1]
        assert len(verdicts[0]) == math.comb(n, 2)


def test_codim2_requires_full_dimensional():
    flat = Polytope(
        dim=2,
        facets=(((1, 0), frac(1)), ((-1, 0), frac(1))),
        equations=(((0, 1), frac(0)),),
    )
    with pytest.raises(ValueError):
        codim2_faces(flat)


# -- reduction slices ---------------------------------------------------------


def test_reduction_harvey_lawson_test_vectors():
    cone, face, lam = harvey_lawson_reduction()
    result = reduction_slice(cone, face, lam)
    # column-sign change of the recorded triple {(nu1+nu2,0),(nu1,1),(nu2,1)}
    assert result.test_vectors == ((1, 1, -2, 0), (-1, 2, -1, 1), (2, -1, -1, 1))


def test_reduction_harvey_lawson_smoothness_is_honest():
    # The homogenized triple spans an index-6 sublattice of its saturation
    # ((0,0,0,1) needs half-integer coefficients), so the lattice-basis
    # smoothness certificate does not hold for this presentation.
    cone, face, lam = harvey_lawson_reduction()
    result = reduction_slice(cone, face, lam)
    assert result.smooth is False


def test_reduction_slice_is_two_dimensional():
    cone, face, lam = harvey_lawson_reduction()
    result = reduction_slice(cone, face, lam)
    p1 = result.reduced_polytope
    assert p1.dim == 2
    assert p1.dimension() == 2
    assert not p1.is_compact()  # a slice of a cone is unbounded
    # the slice is a pointed wedge with its corner at the face point,
    # tight on the two facets that cut out the face
    corner = (frac(0), frac(1))
    assert p1.vertices() == [corner]
    assert {0, 1} <= p1.active_facets(corner)


def test_reduction_filling_line_misses_barycenter():
    # lambda lies strictly between the face vertex and the origin, so the
    # filling passes near, but not through, the barycenter of the base
    cone, face, lam = harvey_lawson_reduction()
    result = reduction_slice(cone, face, lam)
    line = result.filling_line
    assert not line.empty
    barycenter = (frac(0), frac(0), frac(0))
    assert line.base_point != barycenter
    at_one = line.point_at_height(frac(1))
    assert at_one[:-1] == lam


def test_reduction_smoothness_symmetric_in_facet_order():
    cone, face, lam = harvey_lawson_reduction()
    swapped = ConePolytope(
        dim=cone.dim,
        facets=(cone.facets[1], cone.facets[0]) + cone.facets[2:],
        equations=cone.equations,
    )
    a = reduction_slice(cone, face, lam)
    b = reduction_slice(swapped, face, lam)
    assert a.smooth == b.smooth


def test_reduction_boundary_lambda_rejected():
    cone, face, _ = harvey_lawson_reduction()
    origin = (frac(0), frac(0), frac(0))
    with pytest.raises(ValueError):
        reduction_slice(cone, face, origin)
    with pytest.raises(ValueError):
        reduction_slice(cone, face, face.vertices[0])


def test_reduction_needs_codim_two_face():
    p = fano_simplex(3)
    c = cone_on(p)
    bogus = Face(active=frozenset({0}), dim=1, vertices=tuple(p.vertices()[:2]))
    with pytest.raises(ValueError):
        reduction_slice(c, bogus, (frac(-1, 2), frac(-1, 2)))


def test_reduction_on_fano_chart():
    p = fano_simplex(3)
    c = cone_on(p)
    corner = next(f for f in codim2_faces(p) if f.vertices == ((frac(-1), frac(-1)),))
    result = reduction_slice(c, corner, (frac(-1, 2), frac(-1, 2)))
    assert result.reduced_polytope.dim == 2
    line = result.filling_line
    assert line.t_min == frac(1, 2)
    assert line.t_max is None
    # h1 meets span(nu1, nu2) exactly in the line through nu1 + nu2
    assert result.h1_basis[0] == (frac(1), frac(1))


def test_reduction_along_cube_edge():
    # a codimension-two face with more than one vertex
    box = cube(3)
    c = cone_on(box)
    edge = next(
        f
        for f in codim2_faces(box)
        if all(v[0] == 1 and v[1] == 1 for v in f.vertices)
    )
    assert len(edge.vertices) == 2
    lam = (frac(1, 3), frac(1, 3), frac(0))
    result = reduction_slice(c, edge, lam)
    assert result.reduced_polytope.dim == 2
    assert result.filling_line.t_min == frac(1, 3)
    assert result.filling_line.t_max is None
    # the structural index-two obstruction applies to this triple as well
    assert result.smooth is False
    outside = (frac(1), frac(1), frac(0))  # on the edge itself, not interior
    with pytest.raises(ValueError):
        reduction_slice(c, edge, outside)


def test_reduction_h1_span_condition():
    cone, face, lam = harvey_lawson_reduction()
    result = reduction_slice(cone, face, lam)
    i1, i2 = sorted(face.active)
    nu1 = [Fraction(x) for x in cone.facets[i1][:-1]]
    nu2 = [Fraction(x) for x in cone.facets[i2][:-1]]
    h1 = [list(map(Fraction, v)) for v in result.h1_basis]
    # h1 has codimension one
    assert rational_rank(h1) == len(nu1) - 1
    # nu1 + nu2 in h1, nu1 not in h1
    summed = [a + b for a, b in zip(nu1, nu2)]
    assert rational_rank(h1 + [summed]) == len(nu1) - 1
    assert rational_rank(h1 + [nu1]) == len(nu1)


# -- serialization --------------------------------------------------------


def test_polytope_json_roundtrip():
    from lchkit.polytopes import polytope_from_json, polytope_to_json

    hl_slice = reduction_slice(*harvey_lawson_reduction()).reduced_polytope
    for p in (standard_simplex(3), fano_simplex(3), fano_simplex(4), cube(2), hl_slice):
        text = polytope_to_json(p)
        again = polytope_from_json(text)
        assert again == p
        assert polytope_to_json(again) == text


def test_polytope_json_rejects_floats():
    from lchkit.polytopes import polytope_from_json

    with pytest.raises(ValueError):
        polytope_from_json('{"dim": 1, "facets": [{"normal": [1], "offset": "0.5"}]}')
