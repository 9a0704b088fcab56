import hashlib
import io
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lchkit.buildings import (
    EDGE_CLASSES,
    EDGE_LENGTHS,
    ActionBalance,
    BuildingType,
    Edge,
    GeneratorLabel,
    MapType,
    PerturbationSheets,
    Vertex,
    VertexDecoration,
    action_balance,
    boundary_class,
    boundary_strata,
    canonical_encoding,
    domain_dim,
    intersection_multiplicity,
    is_stable,
    map_type_from_json,
    map_type_to_json,
    merge_sheets,
    pullback_sheets,
    sphere_stratum_dim,
)
from lchkit.cli import run
from oracles import canonical_encoding_all_roots


def chord(direction, action, name="", component="L"):
    return GeneratorLabel(
        kind="chord", direction=direction, action=Fraction(action), name=name, component=component
    )


def three_leaf_disk() -> BuildingType:
    return BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("e1", ("v",), "white-"),
            Edge("e2", ("v",), "white+"),
            Edge("e3", ("v",), "L"),
        ),
    )


def two_disk_edge(cls="L", level=0) -> BuildingType:
    return BuildingType(
        vertices=(Vertex("u", "disk", level), Vertex("w", "disk", level)),
        edges=(
            Edge("in1", ("u",), "white-"),
            Edge("in2", ("u",), "white-"),
            Edge("mid", ("u", "w"), cls, "finite"),
            Edge("out1", ("w",), "white+"),
            Edge("out2", ("w",), "white+"),
        ),
    )


# -- validation ---------------------------------------------------------------


def test_empty_type_rejected():
    with pytest.raises(ValueError):
        BuildingType(vertices=(), edges=())


def test_cycle_rejected():
    with pytest.raises(ValueError):
        BuildingType(
            vertices=(Vertex("a", "disk"), Vertex("b", "disk"), Vertex("c", "disk")),
            edges=(
                Edge("e1", ("a", "b")),
                Edge("e2", ("b", "c")),
                Edge("e3", ("c", "a")),
            ),
        )


def test_level_jump_rejected():
    with pytest.raises(ValueError):
        BuildingType(
            vertices=(Vertex("a", "disk", 0), Vertex("b", "disk", 2)),
            edges=(Edge("e", ("a", "b"), "white+"),),
        )


def test_sphere_with_boundary_edge_rejected():
    with pytest.raises(ValueError):
        BuildingType(
            vertices=(Vertex("a", "disk"), Vertex("s", "sphere")),
            edges=(Edge("e", ("a", "s"), "L"),),
        )


def test_unbroken_lagrangian_edge_must_stay_level():
    with pytest.raises(ValueError):
        BuildingType(
            vertices=(Vertex("a", "disk", 0), Vertex("b", "disk", 1)),
            edges=(Edge("e", ("a", "b"), "L", "finite"),),
        )
    # broken Lagrangian edges may cross consecutive levels
    BuildingType(
        vertices=(Vertex("a", "disk", 0), Vertex("b", "disk", 1)),
        edges=(Edge("e", ("a", "b"), "L", "broken"),),
    )


# -- indexes, components and splits ------------------------------------------


def random_forest(rng: random.Random, n: int, trees: int) -> BuildingType:
    """A single-level disk forest on n vertices with `trees` components."""
    vids = [f"v{x}" for x in rng.sample(range(1000), n)]
    edges = [Edge(f"l{i}", (vid,), "L") for i, vid in enumerate(vids)]
    for i in range(trees, n):
        j = rng.randrange(i)
        if rng.random() < 0.5:
            edges.append(Edge(f"e{i}", (vids[i], vids[j]), rng.choice(("L", "white-", "white+"))))
        else:
            edges.append(Edge(f"e{i}", (vids[j], vids[i]), "L", rng.choice(("finite", "zero"))))
    rng.shuffle(vids)
    rng.shuffle(edges)
    return BuildingType(vertices=tuple(Vertex(vid, "disk") for vid in vids), edges=tuple(edges))


def closure(start: str, pairs: list[tuple[str, str]]) -> frozenset[str]:
    """Brute-force reachability: grow the set until no pair leaves it."""
    reach = {start}
    while True:
        grown = reach | {b for a, b in pairs if a in reach} | {a for a, b in pairs if b in reach}
        if grown == reach:
            return frozenset(reach)
        reach = grown


@pytest.mark.parametrize("seed", range(12))
def test_components_and_splits_match_closure(seed):
    rng = random.Random(seed)
    trees = rng.randint(1, 4)
    t = random_forest(rng, rng.randint(trees, 14), trees)
    pairs = [e.ends for e in t.internal_edges()]
    components = set()
    for v in t.vertices:
        comp = t.component_of(v.id)
        assert comp == closure(v.id, pairs)
        components.add(comp)
    assert len(components) == trees
    assert set().union(*components) == {v.id for v in t.vertices}
    assert sum(len(c) for c in components) == len(t.vertices)
    for e in t.internal_edges():
        side0, side1 = t.split_at(e.id)
        rest = [other.ends for other in t.internal_edges() if other.id != e.id]
        assert side0 == closure(e.ends[0], rest)
        assert side1 == closure(e.ends[1], rest)
        assert not side0 & side1
        assert side0 | side1 == t.component_of(e.ends[0])


def test_split_at_leaf_rejected():
    with pytest.raises(ValueError):
        two_disk_edge().split_at("in1")


def test_multi_edge_rejected():
    with pytest.raises(ValueError, match="cycle"):
        BuildingType(
            vertices=(Vertex("a", "disk"), Vertex("b", "disk")),
            edges=(Edge("e1", ("a", "b")), Edge("e2", ("b", "a"), "white+")),
        )


def test_cycle_in_second_component_rejected():
    with pytest.raises(ValueError, match="cycle"):
        BuildingType(
            vertices=tuple(Vertex(vid, "disk") for vid in "abcdef"),
            edges=(
                Edge("e1", ("a", "b")),
                Edge("e2", ("c", "d")),
                Edge("e3", ("d", "e")),
                Edge("e4", ("e", "f")),
                Edge("e5", ("f", "d")),
            ),
        )


def test_missing_ids_raise_key_error():
    t = two_disk_edge()
    with pytest.raises(KeyError):
        t.vertex("missing")
    with pytest.raises(KeyError):
        t.edge("missing")
    assert t.vertex("w") == Vertex("w", "disk")
    assert t.edge("mid") == Edge("mid", ("u", "w"), "L", "finite")
    assert [e.id for e in t.edges_at("u")] == ["in1", "in2", "mid"]


def test_indexes_are_not_fields():
    t = two_disk_edge()
    same = BuildingType(vertices=t.vertices, edges=t.edges)
    assert t == same and hash(t) == hash(same)
    assert repr(t) == repr(same)
    assert "_incident" not in repr(t)


# -- stability ----------------------------------------------------------------


def test_three_boundary_leaves_stable():
    assert is_stable(three_leaf_disk())


def test_boundary_plus_interior_stable():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(Edge("e1", ("v",), "L"), Edge("e2", ("v",), "D")),
    )
    assert is_stable(t)


def test_two_boundary_leaves_unstable():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(Edge("e1", ("v",), "L"), Edge("e2", ("v",), "L")),
    )
    result = is_stable(t)
    assert not result
    assert result.witness == "v"


def test_trivial_cylinder_neck_unstable():
    # a neck level consisting of exactly one two-punctured, area-zero
    # vertex is a trivial cylinder: unstable, witness names the vertex
    t = BuildingType(
        vertices=(Vertex("c", "disk", 1),),
        edges=(Edge("e1", ("c",), "white-"), Edge("e2", ("c",), "white+")),
    )
    assert is_stable(t)  # cylinder-shaped neck vertices are admissible domains
    result = is_stable(t, {"c": VertexDecoration(area=0)})
    assert not result
    assert result.witness == "c"
    # nonzero area: not a trivial cylinder
    assert is_stable(t, {"c": VertexDecoration(area=Fraction(1, 2))})
    # at the cobordism level the two-special disk is not admissible at all
    t0 = BuildingType(
        vertices=(Vertex("c", "disk", 0),),
        edges=(Edge("e1", ("c",), "white-"), Edge("e2", ("c",), "white+")),
    )
    assert not is_stable(t0)


def test_neck_level_with_extra_component_stable():
    t = BuildingType(
        vertices=(Vertex("c", "disk", 1), Vertex("d", "disk", 1)),
        edges=(
            Edge("e1", ("c",), "white-"),
            Edge("e2", ("c",), "white+"),
            Edge("f1", ("d",), "white-"),
            Edge("f2", ("d",), "L"),
            Edge("f3", ("d",), "L"),
        ),
    )
    decorations = {"c": VertexDecoration(area=0), "d": VertexDecoration(area=1)}
    assert is_stable(t, decorations)


# -- dimensions ---------------------------------------------------------------


def test_domain_dim_rigid_disk():
    assert domain_dim(three_leaf_disk()) == 0


def test_domain_dim_one_edge_family():
    assert domain_dim(two_disk_edge()) == 1


def test_domain_dim_broken_edge():
    t = two_disk_edge()
    edges = tuple(
        e if e.id != "mid" else Edge("mid", ("u", "w"), "L", "broken") for e in t.edges
    )
    assert domain_dim(BuildingType(vertices=t.vertices, edges=edges)) == 0


def test_domain_dim_rejects_unstable():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(Edge("e1", ("v",), "L"),),
    )
    with pytest.raises(ValueError):
        domain_dim(t)


def test_sphere_stratum_dim_plain():
    assert sphere_stratum_dim(Fraction(3), Fraction(1)) == 2
    assert sphere_stratum_dim(Fraction(2), Fraction(2)) == -2  # maximal tangency
    # blow-up fiber: chern 2, end multiplicity 1; the logarithmic pairing
    # 2 - 1 = 1 violates the no-cap bound (it must exceed 1)
    log_pairing = Fraction(2) - Fraction(1)
    assert log_pairing == 1
    assert not log_pairing > 1


def test_sphere_stratum_dim_cobordism_variant():
    val = sphere_stratum_dim(Fraction(3), Fraction(1), e_black=2, ambient_dim=6)
    assert val == 6 + 6 + 4 - 0 - 6
    with pytest.raises(ValueError):
        sphere_stratum_dim(Fraction(3), Fraction(1), e_black=2)


# -- action balance -----------------------------------------------------------


def test_balance_trivial_cylinder():
    t = BuildingType(
        vertices=(Vertex("c", "disk", 1), Vertex("x", "disk", 1), Vertex("y", "disk", 1)),
        edges=(
            Edge("in", ("c",), "white-"),
            Edge("out", ("c",), "white+"),
            Edge("s1", ("c", "x"), "L"),
            Edge("sx1", ("x",), "L"),
            Edge("sx2", ("x",), "L"),
            Edge("s2", ("c", "y"), "L"),
            Edge("sy1", ("y",), "L"),
            Edge("sy2", ("y",), "L"),
        ),
    )
    m = MapType(
        building=t,
        decorations={
            "c": VertexDecoration(area=0),
            "x": VertexDecoration(area=0),
            "y": VertexDecoration(area=0),
        },
        labels={
            "in": chord("in", Fraction(1, 2)),
            "out": chord("out", Fraction(1, 2)),
            "s1": GeneratorLabel(kind="interior"),
            "sx1": GeneratorLabel(kind="interior"),
            "sx2": GeneratorLabel(kind="interior"),
            "s2": GeneratorLabel(kind="interior"),
            "sy1": GeneratorLabel(kind="interior"),
            "sy2": GeneratorLabel(kind="interior"),
        },
    )
    balance = action_balance(m, vertices=["c"])
    assert balance == ActionBalance(Fraction(1, 2), Fraction(1, 2), Fraction(0), True)


def test_balance_area_consumes_action():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("in", ("v",), "white-"),
            Edge("out", ("v",), "white+"),
            Edge("pt", ("v",), "D"),
        ),
    )
    m = MapType(
        building=t,
        decorations={"v": VertexDecoration(area=Fraction(1, 2))},
        labels={
            "in": chord("in", 1),
            "out": chord("out", Fraction(1, 2)),
            "pt": GeneratorLabel(kind="divisor"),
        },
    )
    balance = action_balance(m)
    assert balance.consistent
    assert balance.defect == 0


def test_balance_no_incoming_flags_violation():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("o1", ("v",), "white+"),
            Edge("o2", ("v",), "white+"),
            Edge("o3", ("v",), "white+"),
        ),
    )
    m = MapType(
        building=t,
        decorations={"v": VertexDecoration(area=Fraction(1))},
        labels={
            "o1": chord("out", Fraction(1, 3)),
            "o2": chord("out", Fraction(1, 3)),
            "o3": chord("out", Fraction(1, 3)),
        },
    )
    balance = action_balance(m)
    assert not balance.consistent
    assert balance.defect == 2
    assert balance.in_sum == 0


def test_balance_unlabeled_puncture_raises():
    t = BuildingType(
        vertices=(Vertex("u", "disk", 1), Vertex("w", "disk", 2)),
        edges=(
            Edge("in", ("u",), "white-"),
            Edge("in2", ("u",), "white-"),
            Edge("mid", ("u", "w"), "white+", "broken"),
            Edge("out", ("w",), "white+"),
            Edge("out2", ("w",), "white+"),
        ),
    )
    m = MapType(
        building=t,
        decorations={"u": VertexDecoration(area=0), "w": VertexDecoration(area=0)},
        labels={
            "in": chord("in", 1),
            "in2": chord("in", 1),
            "out": chord("out", 1),
            "out2": chord("out", 1),
        },
    )
    with pytest.raises(ValueError):
        action_balance(m, level=1)


# -- intersection multiplicities -----------------------------------------------


def test_multiplicity_single_chord():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("in", ("v",), "white-"),
            Edge("b1", ("v",), "L"),
            Edge("b2", ("v",), "L"),
        ),
    )
    m = MapType(
        building=t,
        labels={
            "in": chord("in", Fraction(1, 2)),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
        },
    )
    assert intersection_multiplicity(m, "minus") == Fraction(1, 2)
    assert intersection_multiplicity(m, "plus") == 0


def test_multiplicity_orbit_sphere():
    t = BuildingType(
        vertices=(Vertex("s", "sphere"),),
        edges=(Edge("orb", ("s",), "white-"),),
    )
    m = MapType(
        building=t,
        labels={"orb": GeneratorLabel(kind="orbit", direction="in", action=Fraction(3))},
    )
    assert intersection_multiplicity(m, "minus") == 3


def test_multiplicity_matches_divisor_decorations():
    t = two_disk_edge()
    m = MapType(
        building=t,
        decorations={
            "u": VertexDecoration(area=1, y_minus=Fraction(3, 2)),
            "w": VertexDecoration(area=0, y_minus=Fraction(1, 2), y_plus=Fraction(1, 2)),
        },
        labels={
            "in1": chord("in", 1),
            "in2": chord("in", 1),
            "out1": chord("out", Fraction(1, 4)),
            "out2": chord("out", Fraction(1, 4)),
        },
    )
    total_minus = sum(d.y_minus for d in m.decorations.values())
    assert intersection_multiplicity(m, "minus") == total_minus == 2
    total_plus = sum(d.y_plus for d in m.decorations.values())
    assert intersection_multiplicity(m, "plus") == total_plus == Fraction(1, 2)


# -- boundary strata ----------------------------------------------------------


def undecorated_map(t: BuildingType) -> MapType:
    labels = {}
    for leaf in t.leaves():
        if leaf.cls == "white-":
            labels[leaf.id] = chord("in", 1, name=leaf.id)
        elif leaf.cls == "white+":
            labels[leaf.id] = chord("out", 1, name=leaf.id)
        elif leaf.cls == "D":
            labels[leaf.id] = GeneratorLabel(kind="divisor")
        else:
            labels[leaf.id] = GeneratorLabel(kind="interior", name=leaf.id)
    return MapType(building=t, labels=labels)


def test_boundary_strata_lagrangian_edge():
    m = undecorated_map(two_disk_edge("L"))
    result = boundary_strata(m)
    # an interior critical-point break and a two-level split
    assert len(result.true_boundaries) == 2
    summaries = set()
    for b in result.true_boundaries:
        levels = {v.level for v in b.building.vertices}
        broken = [e for e in b.building.internal_edges() if e.length == "broken"]
        assert len(broken) == 1
        summaries.add((len(levels), broken[0].cls))
    assert summaries == {(1, "L"), (2, "L")}
    # one fake boundary: the zero-length stratum with its two adjacent strata
    assert len(result.fake_boundaries) == 1
    fake = result.fake_boundaries[0]
    zero_edges = [e for e in fake.stratum.building.internal_edges() if e.length == "zero"]
    assert len(zero_edges) == 1
    first, second = fake.adjacent
    assert canonical_encoding(first) == canonical_encoding(m)
    assert len(second.building.vertices) == 1
    assert domain_dim(second.building) == 1  # the glued disk keeps the dimension


def test_boundary_strata_chord_edge_splits_levels():
    m = undecorated_map(two_disk_edge("white+"))
    result = boundary_strata(m)
    assert len(result.true_boundaries) == 1
    split = result.true_boundaries[0]
    assert sorted({v.level for v in split.building.vertices}) == [0, 1]
    # the incoming-side endpoint stays on the lower level
    assert split.building.vertex("u").level == 0
    assert split.building.vertex("w").level == 1


def test_boundary_strata_interior_edges_never_emitted():
    # a disk carrying a sphere bubble through a zero-length interior node;
    # the one-dimensional modulus is the disk's interior special point
    t = BuildingType(
        vertices=(Vertex("a", "disk"), Vertex("s", "sphere")),
        edges=(
            Edge("n", ("a", "s"), "D", "zero"),
            Edge("b1", ("a",), "L"),
            Edge("b2", ("a",), "L"),
            Edge("i1", ("s",), "D"),
            Edge("i2", ("s",), "D"),
        ),
    )
    m = undecorated_map(t)
    assert domain_dim(t) == 1
    result = boundary_strata(m)
    assert result.true_boundaries == ()
    assert result.fake_boundaries == ()


def test_boundary_strata_requires_dimension_one():
    with pytest.raises(ValueError):
        boundary_strata(undecorated_map(three_leaf_disk()))


def test_boundary_strata_filters_unbalanced_split():
    t = BuildingType(
        vertices=(Vertex("u", "disk", 1), Vertex("w", "disk", 1)),
        edges=(
            Edge("in1", ("u",), "white-"),
            Edge("in2", ("u",), "white-"),
            Edge("mid", ("u", "w"), "white+", "finite"),
            Edge("out1", ("w",), "white+"),
            Edge("out2", ("w",), "white+"),
        ),
    )
    labels = {
        "in1": chord("in", 1),
        "in2": chord("in", 1),
        "mid": chord("out", Fraction(1, 2)),
        "out1": chord("out", Fraction(1, 4)),
        "out2": chord("out", Fraction(1, 4)),
    }
    balanced = MapType(
        building=t,
        decorations={
            "u": VertexDecoration(area=Fraction(3, 2)),
            "w": VertexDecoration(area=0),
        },
        labels=labels,
    )
    result = boundary_strata(balanced)
    assert len(result.true_boundaries) == 1
    unbalanced = MapType(
        building=t,
        decorations={
            "u": VertexDecoration(area=Fraction(3, 2)),
            "w": VertexDecoration(area=Fraction(1, 3)),  # upper level defect
        },
        labels=labels,
    )
    result = boundary_strata(unbalanced)
    assert result.true_boundaries == ()


# -- canonical form -----------------------------------------------------------


def test_canonical_encoding_invariant_under_relabeling():
    t1 = two_disk_edge("L")
    t2 = BuildingType(
        vertices=(Vertex("B", "disk"), Vertex("A", "disk")),
        edges=(
            Edge("x1", ("A",), "white-"),
            Edge("q", ("A", "B"), "L", "finite"),
            Edge("x2", ("A",), "white-"),
            Edge("y1", ("B",), "white+"),
            Edge("y2", ("B",), "white+"),
        ),
    )
    assert canonical_encoding(t1) == canonical_encoding(t2)


def test_canonical_encoding_distinguishes_classes():
    assert canonical_encoding(two_disk_edge("L")) != canonical_encoding(
        two_disk_edge("white+")
    )


def test_canonical_encoding_sees_orientation():
    t_forward = BuildingType(
        vertices=(Vertex("a", "disk"), Vertex("b", "disk")),
        edges=(
            Edge("m", ("a", "b"), "white+", "finite"),
            Edge("l1", ("a",), "white-"),
            Edge("l2", ("a",), "white-"),
            Edge("r1", ("b",), "white+"),
            Edge("r2", ("b",), "white+"),
        ),
    )
    t_backward = BuildingType(
        vertices=t_forward.vertices,
        edges=(Edge("m", ("b", "a"), "white+", "finite"),) + t_forward.edges[1:],
    )
    assert canonical_encoding(t_forward) != canonical_encoding(t_backward)


def test_canonical_encoding_escapes_label_text():
    def leaf_disk(*labels):
        edges = tuple(Edge(f"l{i}", ("v",), "white-") for i in range(len(labels)))
        t = BuildingType(vertices=(Vertex("v", "disk"),), edges=edges)
        return MapType(building=t, labels={e.id: label for e, label in zip(edges, labels)})

    # the ":" between name and component
    assert canonical_encoding(leaf_disk(chord("in", 1, "x:L", "y"))) != canonical_encoding(
        leaf_disk(chord("in", 1, "x", "L:y"))
    )
    # a "," forging a second leaf
    assert canonical_encoding(
        leaf_disk(chord("in", 1, "a:L,white-|leaf|chord:in:1:b"))
    ) != canonical_encoding(leaf_disk(chord("in", 1, "a"), chord("in", 1, "b")))
    # a ")" closing the leaf list and forging a second component
    two = MapType(
        building=BuildingType(
            vertices=(Vertex("u", "disk"), Vertex("v", "disk")),
            edges=(Edge("l0", ("u",), "white-"), Edge("l1", ("v",), "white-")),
        ),
        labels={"l0": chord("in", 1, "a"), "l1": chord("in", 1, "b")},
    )
    one = leaf_disk(chord("in", 1, "a", "L){}||d0[-](white-|leaf|chord:in:1:b:L"))
    assert canonical_encoding(one) != canonical_encoding(two)
    # a trailing backslash cannot turn the separator into an escaped ":"
    assert canonical_encoding(leaf_disk(chord("in", 1, "a\\", "b:c"))) != canonical_encoding(
        leaf_disk(chord("in", 1, "a:b\\", "c"))
    )
    with pytest.raises(ValueError):
        chord("in", 1, None)
    # only the free text is escaped
    assert canonical_encoding(leaf_disk(chord("in", 1, "x:L"))) == (
        "d0[-](white-|leaf|chord:in:1:x\\:L:L){}"
    )


def pinned_tree() -> MapType:
    """A seeded 24-disk single-level tree of domain dimension one.

    Every disk has three boundary specials; one internal Lagrangian edge is
    finite and the other internal edges have length zero.
    """
    rng = random.Random(24)
    n = 24
    vids = [f"d{x}" for x in rng.sample(range(1000), n)]
    degree = [0] * n
    edges = []
    finite = rng.randrange(1, n)
    for i in range(1, n):
        parent = rng.choice([p for p in range(i) if degree[p] < 3])
        degree[parent] += 1
        degree[i] += 1
        cls, length = ("L", "finite") if i == finite else (rng.choice(("L", "white-", "white+")), "zero")
        edges.append(Edge(f"e{i}", (vids[parent], vids[i]), cls, length))
    labels = {}
    for i in range(n):
        for _ in range(3 - degree[i]):
            lid = f"l{len(labels)}"
            cls = rng.choice(("L", "white-", "white+"))
            edges.append(Edge(lid, (vids[i],), cls))
            if cls == "L":
                labels[lid] = GeneratorLabel(kind="interior", name=lid)
            else:
                action = rng.choice(("1", "1/2", "2"))
                name = f"c{rng.randrange(9)}"
                component = rng.choice(("L", "K"))
                labels[lid] = chord("in" if cls == "white-" else "out", action, name, component)
    rng.shuffle(vids)
    rng.shuffle(edges)
    t = BuildingType(vertices=tuple(Vertex(vid, "disk") for vid in vids), edges=tuple(edges))
    return MapType(building=t, labels=labels)


# sha256 of the canonical encoding and of the `lch strata --type` output of
# pinned_tree(); a change to either string or to the strata order changes them
PINNED_ENCODING_SHA256 = "3367cbb6da2f8ef353e8940315e6efb1d1aa95992350ba70aae68a63675bf823"
PINNED_STRATA_SHA256 = "b5b3855d4fbf6b9f6033bed6fe4f4d5dff5deb506da32256fe9c590f3c41df43"


def test_pinned_tree_bytes(tmp_path):
    m = pinned_tree()
    assert domain_dim(m.building) == 1
    assert hashlib.sha256(canonical_encoding(m).encode()).hexdigest() == PINNED_ENCODING_SHA256
    path = tmp_path / "type.json"
    path.write_text(map_type_to_json(m))
    out = io.StringIO()
    assert run(["strata", "--type", str(path)], out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_STRATA_SHA256


# -- canonical form against the all-roots oracle ---------------------------------

NAME_TEXT = "ab\\:|,;()[]{}<>"


def random_label(rng: random.Random, cls: str, leaf: bool) -> GeneratorLabel:
    name = "".join(rng.choice(NAME_TEXT) for _ in range(rng.randrange(4)))
    component = rng.choice(("L", "K", "L:K", "\\", "{L}"))
    if cls == "D":
        return GeneratorLabel(kind="divisor", name=name, component=component)
    if cls == "L":
        return GeneratorLabel(kind="interior", name=name, component=component)
    kind = "chord" if leaf or rng.random() < 0.5 else "orbit"
    action = rng.choice((None, "1", "1/2", "3/4")) if kind == "orbit" else rng.choice(("1", "2/3"))
    return GeneratorLabel(kind=kind, direction=rng.choice(("in", "out")), action=action,
                          name=name, component=component)


def random_map_type(rng: random.Random, sizes: list[int], plain: bool = False):
    """A seeded building (plain=True) or map type with one tree per entry of
    `sizes`: disks and spheres on levels 0-2, every edge class and length a
    building type allows, up to three leaves per vertex, decorations with
    and without `maslov`, and label text with every escaped delimiter.  A
    small alphabet of tokens makes equal subtrees common."""
    vertices, edges = [], []
    for c, size in enumerate(sizes):
        ids = [f"c{c}v{i}" for i in range(size)]
        vertices.append(Vertex(ids[0], rng.choice(("disk", "disk", "sphere")), rng.randrange(3)))
        for i in range(1, size):
            p = vertices[-rng.randrange(1, i + 1)]
            kind = "sphere" if rng.random() < 0.15 else "disk"
            if kind == "sphere" or p.kind == "sphere":
                v = Vertex(ids[i], kind, p.level)
                cls, length = "D", rng.choice(EDGE_LENGTHS)
            else:
                v = Vertex(ids[i], kind, min(2, max(0, p.level + rng.choice((-1, 0, 0, 1)))))
                cls = rng.choice(("L", "white-", "white+", "D") if v.level == p.level
                                 else ("L", "white-", "white+"))
                length = "broken" if cls == "L" and v.level != p.level else rng.choice(EDGE_LENGTHS)
            vertices.append(v)
            ends = (p.id, v.id) if rng.random() < 0.5 else (v.id, p.id)
            edges.append(Edge(f"c{c}e{i}", ends, cls, length))
    for v in list(vertices):
        for k in range(rng.randrange(4)):
            cls = rng.choice(("white-", "white+", "D") if v.kind == "sphere" else EDGE_CLASSES)
            edges.append(Edge(f"{v.id}l{k}", (v.id,), cls))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    t = BuildingType(vertices=tuple(vertices), edges=tuple(edges))
    if plain:
        return t
    labels = {e.id: random_label(rng, e.cls, True) for e in edges if e.is_leaf}
    labels.update(
        (e.id, random_label(rng, e.cls, False)) for e in edges if not e.is_leaf and rng.random() < 0.2
    )
    decorations = {
        v.id: VertexDecoration(
            area=rng.choice((0, 1, Fraction(1, 2))),
            chern=rng.choice((0, 1)),
            y_minus=rng.choice((0, Fraction(-3, 2))),
            maslov=rng.choice((None, 2, Fraction(1, 3))),
        )
        for v in vertices
        if rng.random() < 0.3
    }
    return MapType(building=t, decorations=decorations, labels=labels)


def star_and_caterpillar() -> list[BuildingType]:
    """A star with 40 equal spokes and a 30-disk spine with a disk on each."""
    star = BuildingType(
        vertices=tuple(Vertex(f"s{i}", "disk") for i in range(41)),
        edges=tuple(Edge(f"e{i}", ("s0", f"s{i}"), "L") for i in range(1, 41)),
    )
    spine = [Edge(f"e{i}", (f"p{i - 1}", f"p{i}"), "white+") for i in range(1, 30)]
    legs = [Edge(f"f{i}", (f"p{i}", f"q{i}"), "L", "zero") for i in range(30)]
    caterpillar = BuildingType(
        vertices=tuple(Vertex(f"{x}{i}", "disk") for x in "pq" for i in range(30)),
        edges=tuple(spine + legs),
    )
    return [star, caterpillar]


def test_canonical_encoding_matches_all_roots_oracle():
    rng = random.Random(12)
    types = star_and_caterpillar()
    for _ in range(40):
        sizes = [rng.randint(1, 24) for _ in range(rng.randint(1, 3))]
        types.append(random_map_type(rng, sizes, plain=rng.random() < 0.3))
    types.append(random_map_type(rng, [64]))
    types.append(random_map_type(rng, [40, 20, 4], plain=True))
    for m in types:
        assert canonical_encoding(m) == canonical_encoding_all_roots(m)


def relabeled(rng: random.Random, m: MapType) -> MapType:
    """m with every vertex and edge id renamed and both tuples shuffled."""
    t = m.building
    new_vid = dict(zip([v.id for v in t.vertices], random_names(rng, "x", len(t.vertices))))
    new_eid = dict(zip([e.id for e in t.edges], random_names(rng, "y", len(t.edges))))
    vertices = [replace(v, id=new_vid[v.id]) for v in t.vertices]
    edges = [replace(e, id=new_eid[e.id], ends=tuple(new_vid[x] for x in e.ends)) for e in t.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return MapType(
        building=BuildingType(vertices=tuple(vertices), edges=tuple(edges)),
        decorations={new_vid[vid]: d for vid, d in m.decorations.items()},
        labels={new_eid[eid]: label for eid, label in m.labels.items()},
    )


def random_names(rng: random.Random, prefix: str, count: int) -> list[str]:
    return [f"{prefix}{x}" for x in rng.sample(range(10 * count), count)]


@pytest.mark.parametrize("seed", range(4))
def test_canonical_encoding_invariant_under_renaming_128_disks(seed):
    rng = random.Random(seed)
    m = random_map_type(rng, [128])
    again = relabeled(rng, m)
    assert {v.id for v in again.building.vertices}.isdisjoint(v.id for v in m.building.vertices)
    assert canonical_encoding(again) == canonical_encoding(m)


def test_canonical_encoding_long_path_needs_no_recursion():
    n = 2000
    t = BuildingType(
        vertices=tuple(Vertex(f"d{i}", "disk") for i in range(n)),
        edges=tuple(Edge(f"e{i}", (f"d{i - 1}", f"d{i}"), "L") for i in range(1, n)),
    )
    link = "L|finite|-"
    disk = "d0[-](){"
    # "<" sorts before ">", so the least string is read from the last disk
    assert canonical_encoding(t) == f"{disk}{link}<" * (n - 1) + disk + "}" * n


# -- perturbation sheets --------------------------------------------------------


def test_sheets_weight_validation():
    with pytest.raises(ValueError):
        PerturbationSheets(sheets=((Fraction(1, 2), "A"),))
    with pytest.raises(ValueError):
        PerturbationSheets(sheets=((Fraction(3, 2), "A"), (Fraction(-1, 2), "B")))


def test_pullback_singletons():
    p = pullback_sheets(
        PerturbationSheets(((Fraction(1), "A"),)),
        PerturbationSheets(((Fraction(1), "B"),)),
    )
    assert p.sheets == ((Fraction(1), ("A", "B")),)


def test_pullback_product_weights():
    p1 = PerturbationSheets(((Fraction(1, 2), "A"), (Fraction(1, 2), "B")))
    p2 = PerturbationSheets(((Fraction(1, 3), "C"), (Fraction(2, 3), "D")))
    prod = pullback_sheets(p1, p2)
    assert prod.count() == 4
    assert sorted(w for w, _ in prod.sheets) == [
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 3),
    ]
    assert prod.weight_sum() == 1


def test_merge_identical_sheets():
    p = PerturbationSheets(((Fraction(1, 2), "A"), (Fraction(1, 2), "A")))
    merged = merge_sheets(p)
    assert merged.sheets == ((Fraction(1), "A"),)


# -- boundary classes -----------------------------------------------------------


def one_chord_disk(component="L") -> MapType:
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("in", ("v",), "white-"),
            Edge("b1", ("v",), "L"),
            Edge("b2", ("v",), "L"),
        ),
    )
    return MapType(
        building=t,
        labels={
            "in": chord("in", 1, component=component),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
        },
    )


def test_boundary_class_trivial():
    m = one_chord_disk()
    total = boundary_class(m, cappings={"in": ((0, 0), (0, 0))}, arcs=[("L", (0, 0))])
    assert total == {"L": (0, 0)}


def test_boundary_class_chord_contribution():
    m = one_chord_disk()
    total = boundary_class(
        m, cappings={"in": ((1, 0), (0, 2))}, arcs=[("L", (0, 1))]
    )
    assert total == {"L": (1, -1)}


def test_boundary_class_reversed_arc_changes_by_twice():
    m = one_chord_disk()
    arc = (2, -3)
    forward = boundary_class(m, cappings={"in": ((0, 0), (0, 0))}, arcs=[("L", arc)])
    backward = boundary_class(
        m, cappings={"in": ((0, 0), (0, 0))}, arcs=[("L", tuple(-x for x in arc))]
    )
    diff = tuple(a - b for a, b in zip(forward["L"], backward["L"]))
    assert diff == tuple(2 * x for x in arc)


def test_boundary_class_additive_over_levels():
    t = BuildingType(
        vertices=(Vertex("u", "disk", 1), Vertex("w", "disk", 2)),
        edges=(
            Edge("in", ("u",), "white-"),
            Edge("b1", ("u",), "L"),
            Edge("b2", ("u",), "L"),
            Edge("mid", ("u", "w"), "white+", "broken"),
            Edge("out", ("w",), "white+"),
            Edge("c1", ("w",), "L"),
            Edge("c2", ("w",), "L"),
        ),
    )
    m = MapType(
        building=t,
        labels={
            "in": chord("in", 1),
            "out": chord("out", Fraction(1, 2)),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
            "c1": GeneratorLabel(kind="interior"),
            "c2": GeneratorLabel(kind="interior"),
        },
    )
    cappings = {"in": ((1, 0), (0, 0)), "out": ((0, 0), (0, 1))}
    arcs = [("L", (1, 1)), ("L", (0, 2))]
    total = boundary_class(m, cappings=cappings, arcs=arcs)
    # compare against per-level pieces computed on their own
    upper_t = BuildingType(
        vertices=(Vertex("u", "disk", 1),),
        edges=(
            Edge("in", ("u",), "white-"),
            Edge("b1", ("u",), "L"),
            Edge("b2", ("u",), "L"),
        ),
    )
    upper_m = MapType(
        building=upper_t,
        labels={
            "in": chord("in", 1),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
        },
    )
    upper = boundary_class(upper_m, cappings={"in": cappings["in"]}, arcs=[arcs[0]])
    lower_t = BuildingType(
        vertices=(Vertex("w", "disk", 2),),
        edges=(
            Edge("out", ("w",), "white+"),
            Edge("c1", ("w",), "L"),
            Edge("c2", ("w",), "L"),
        ),
    )
    lower_m = MapType(
        building=lower_t,
        labels={
            "out": chord("out", Fraction(1, 2)),
            "c1": GeneratorLabel(kind="interior"),
            "c2": GeneratorLabel(kind="interior"),
        },
    )
    lower = boundary_class(lower_m, cappings={"out": cappings["out"]}, arcs=[arcs[1]])
    assert total["L"] == tuple(a + b for a, b in zip(upper["L"], lower["L"]))


def test_boundary_class_missing_capping():
    m = one_chord_disk()
    with pytest.raises(ValueError):
        boundary_class(m, cappings={})


# -- serialization --------------------------------------------------------------


def test_map_type_json_roundtrip():
    m = undecorated_map(two_disk_edge("L"))
    decorated = MapType(
        building=m.building,
        decorations={
            "u": VertexDecoration(area=Fraction(1, 2), chern=1),
            "w": VertexDecoration(y_minus=Fraction(3, 2), y_plus=-1, maslov=2),
        },
        labels=m.labels,
    )
    bubble = BuildingType(
        vertices=(Vertex("a", "disk"), Vertex("s", "sphere")),
        edges=(
            Edge("n", ("a", "s"), "D", "zero"),
            Edge("b1", ("a",), "L"),
            Edge("b2", ("a",), "L"),
            Edge("i1", ("s",), "D"),
            Edge("i2", ("s",), "D"),
        ),
    )
    orbit = MapType(
        building=BuildingType(vertices=(Vertex("s", "sphere", 1),), edges=(Edge("o", ("s",), "white-"),)),
        labels={"o": GeneratorLabel("orbit", "in", Fraction(3), name="o", component="K")},
    )
    split = boundary_strata(undecorated_map(two_disk_edge("white+"))).true_boundaries
    for m in (decorated, undecorated_map(bubble), orbit, undecorated_map(three_leaf_disk()),
              pinned_tree(), *split):
        text = map_type_to_json(m)
        again = map_type_from_json(text)
        assert map_type_to_json(again) == text
        assert canonical_encoding(again) == canonical_encoding(m)


def test_map_type_json_rejects_floats():
    bad = (
        '{"vertices": [{"id": "v", "kind": "disk", "level": 0}],'
        ' "edges": [{"id": "e", "ends": ["v"], "class": "L",'
        ' "label": {"kind": "chord", "direction": "in", "action": "0.5"}}]}'
    )
    with pytest.raises(ValueError):
        map_type_from_json(bad)
