"""Combinatorial calculus of treed disks and treed buildings.

A building type is a decorated forest: vertices are disk or sphere
components placed on integer levels (level 0 is the cobordism piece, other
levels are symplectization necks), edges are gradient-trajectory segments
classified by their target space (L: the Lagrangian; white-/white+: the
Reeb chord spaces of the two ends; D: interior, constrained to the
stabilizing divisor) and by length (finite, zero, broken).  Semi-infinite
edges (leaves) carry generator labels.  Map types add per-vertex homotopy
pairings (area, Chern, intersection numbers with the end divisors, Maslov)
and per-leaf labels.

Edge orientation convention: ends[0] is the incoming-side (lower-level)
endpoint; action flows from ends[0] to ends[1], and a puncture edge counts
as outgoing for the selection containing ends[0].
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .rational import rat_str, read

EDGE_CLASSES = ("L", "white-", "white+", "D")
EDGE_LENGTHS = ("finite", "zero", "broken")
BOUNDARY_CLASSES = ("L", "white-", "white+")
LABEL_KINDS = ("chord", "orbit", "interior", "divisor")


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str  # "disk" | "sphere"
    level: int = 0

    def __post_init__(self):
        if self.kind not in ("disk", "sphere"):
            raise ValueError(f"unknown vertex kind: {self.kind!r}")


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, ...]
    cls: str = "L"
    length: str = "finite"

    def __post_init__(self):
        if self.cls not in EDGE_CLASSES:
            raise ValueError(f"unknown edge class: {self.cls!r}")
        if self.length not in EDGE_LENGTHS:
            raise ValueError(f"unknown edge length: {self.length!r}")
        if len(self.ends) not in (1, 2):
            raise ValueError("an edge has one endpoint (leaf) or two (internal)")
        if len(self.ends) == 2 and self.ends[0] == self.ends[1]:
            raise ValueError("self-loops cannot occur in a tree")

    @property
    def is_leaf(self) -> bool:
        return len(self.ends) == 1


@dataclass(frozen=True)
class BuildingType:
    """Combinatorial type of a treed building (vertices, edges, levels).

    `__post_init__` validates the type and builds its indexes once: id to
    vertex, id to edge, vertex id to incident edges (in `edges` order) and
    vertex id to connected component.  They are plain attributes, not
    fields, so equality, hashing, repr and `replace` see only `vertices`
    and `edges`.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a building type needs at least one vertex")
        vmap = {v.id: v for v in self.vertices}
        if len(vmap) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        emap = {e.id: e for e in self.edges}
        if len(emap) != len(self.edges):
            raise ValueError("duplicate edge ids")
        incident: dict[str, list[Edge]] = {vid: [] for vid in vmap}
        n_internal = 0
        for e in self.edges:
            for vid in e.ends:
                if vid not in vmap:
                    raise ValueError(f"edge {e.id} touches unknown vertex {vid}")
                incident[vid].append(e)
            if e.is_leaf:
                if e.cls == "L" and vmap[e.ends[0]].kind == "sphere":
                    raise ValueError(f"sphere vertex {e.ends[0]} carries a Lagrangian leaf")
                continue
            n_internal += 1
            a, b = vmap[e.ends[0]], vmap[e.ends[1]]
            if abs(a.level - b.level) > 1:
                raise ValueError(f"edge {e.id} jumps more than one level")
            if e.cls == "D" and a.level != b.level:
                raise ValueError(f"interior edge {e.id} must stay in one level")
            if e.cls == "L" and a.level != b.level and e.length != "broken":
                raise ValueError(f"unbroken Lagrangian edge {e.id} must stay in one level")
            if e.cls in BOUNDARY_CLASSES and not (a.kind == "disk" and b.kind == "disk"):
                raise ValueError(f"boundary edge {e.id} must connect disk components")
        object.__setattr__(self, "_vertex", vmap)
        object.__setattr__(self, "_edge", emap)
        object.__setattr__(self, "_incident", incident)
        component: dict[str, frozenset[str]] = {}
        n_components = 0
        for vid in vmap:
            if vid not in component:
                comp = self._reach(vid)
                component.update(dict.fromkeys(comp, comp))
                n_components += 1
        # a forest has one internal edge fewer than vertices per component
        if n_internal != len(vmap) - n_components:
            raise ValueError("building types are forests; found a cycle")
        object.__setattr__(self, "_component", component)

    def _reach(self, vid: str, skip_edge: Optional[str] = None) -> frozenset[str]:
        """Vertex ids reachable from vid along internal edges other than skip_edge."""
        incident = self._incident
        seen = {vid}
        stack = [vid]
        while stack:
            cur = stack.pop()
            for e in incident[cur]:
                ends = e.ends
                if len(ends) == 1 or e.id == skip_edge:  # a leaf, or the cut edge
                    continue
                nxt = ends[1] if ends[0] == cur else ends[0]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    # -- accessors ------------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self._vertex[vid]

    def edge(self, eid: str) -> Edge:
        return self._edge[eid]

    def internal_edges(self) -> list[Edge]:
        return [e for e in self.edges if not e.is_leaf]

    def leaves(self) -> list[Edge]:
        return [e for e in self.edges if e.is_leaf]

    def edges_at(self, vid: str) -> list[Edge]:
        return list(self._incident[vid])

    def boundary_specials(self, vid: str) -> int:
        return sum(1 for e in self._incident[vid] if e.cls in BOUNDARY_CLASSES)

    def interior_specials(self, vid: str) -> int:
        return sum(1 for e in self._incident[vid] if e.cls == "D")

    def levels(self) -> list[int]:
        return sorted({v.level for v in self.vertices})

    def component_of(self, vid: str) -> frozenset[str]:
        """Connected component (vertex ids) containing vid."""
        return self._component[vid]

    def split_at(self, eid: str) -> tuple[frozenset[str], frozenset[str]]:
        """Vertex sets of the two sides of an internal edge (tree property)."""
        e = self.edge(eid)
        if e.is_leaf:
            raise ValueError("cannot split at a leaf")
        return self._reach(e.ends[0], eid), self._reach(e.ends[1], eid)


@dataclass(frozen=True)
class VertexDecoration:
    """Homotopy pairing data of one component: never an element of pi_2."""

    area: Fraction = Fraction(0)
    chern: Fraction = Fraction(0)
    y_minus: Fraction = Fraction(0)
    y_plus: Fraction = Fraction(0)
    maslov: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("area", "chern", "y_minus", "y_plus"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.maslov is not None:
            object.__setattr__(self, "maslov", Fraction(self.maslov))

    def __add__(self, other: "VertexDecoration") -> "VertexDecoration":
        maslov = None
        if self.maslov is not None and other.maslov is not None:
            maslov = self.maslov + other.maslov
        return VertexDecoration(
            area=self.area + other.area,
            chern=self.chern + other.chern,
            y_minus=self.y_minus + other.y_minus,
            y_plus=self.y_plus + other.y_plus,
            maslov=maslov,
        )


@dataclass(frozen=True)
class GeneratorLabel:
    """Label of a leaf (or of a broken chord edge): what the end limits to."""

    kind: str  # chord | orbit | interior | divisor
    direction: Optional[str] = None  # "in" | "out" for punctures
    action: Optional[Fraction] = None
    name: str = ""
    component: str = "L"

    def __post_init__(self):
        if self.kind not in LABEL_KINDS:
            raise ValueError(f"unknown generator kind: {self.kind!r}")
        if self.direction not in (None, "in", "out"):
            raise ValueError(f"unknown direction: {self.direction!r}")
        if self.action is not None:
            object.__setattr__(self, "action", Fraction(self.action))
        if self.kind in ("chord", "orbit") and self.direction is None:
            raise ValueError("chord and orbit labels need a direction")
        if not (isinstance(self.name, str) and isinstance(self.component, str)):
            raise ValueError("label name and component must be strings")


@dataclass(frozen=True, eq=False)
class MapType:
    """A building type with homotopy decorations and generator labels."""

    building: BuildingType
    decorations: Mapping[str, VertexDecoration] = field(default_factory=dict)
    labels: Mapping[str, GeneratorLabel] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "decorations", dict(self.decorations))
        object.__setattr__(self, "labels", dict(self.labels))
        for vid in self.decorations:
            if vid not in self.building._vertex:
                raise ValueError(f"decoration for unknown vertex {vid}")
        for eid in self.labels:
            if eid not in self.building._edge:
                raise ValueError(f"label for unknown edge {eid}")
        for leaf in self.building.leaves():
            if leaf.id not in self.labels:
                raise ValueError(f"leaf {leaf.id} is unlabeled")

    def puncture_leaves(self) -> list[tuple[Edge, GeneratorLabel]]:
        out = []
        for leaf in self.building.leaves():
            label = self.labels[leaf.id]
            if label.kind in ("chord", "orbit"):
                out.append((leaf, label))
        return out


@dataclass(frozen=True)
class Stability:
    stable: bool
    witness: Optional[str] = None

    def __bool__(self) -> bool:
        return self.stable


def is_stable(t: BuildingType, decorations: Optional[Mapping[str, VertexDecoration]] = None) -> Stability:
    """Stability of the type, optionally with map decorations.

    Domain rules: a sphere component needs at least three special points;
    a disk component needs #boundary + 2 #interior >= 3 (three boundary
    specials, or one boundary and one interior, or two interior).  A disk
    vertex on a nonzero neck level whose specials are exactly two chord
    punctures is admissible as a domain (a cylinder over a chord); with
    decorations, every nonzero neck level must contain at least one vertex
    that is not such a trivial-cylinder candidate with zero area.  The
    witness names an offending vertex.
    """
    for v in t.vertices:
        if v.kind == "sphere":
            # every special point of a sphere is interior
            if len(t.edges_at(v.id)) < 3:
                return Stability(False, v.id)
        else:
            b = t.boundary_specials(v.id)
            i = t.interior_specials(v.id)
            if b + 2 * i < 3 and not (v.level != 0 and _cylinder_shaped(t, v)):
                return Stability(False, v.id)
    if decorations is not None:
        for level in t.levels():
            if level == 0:
                continue
            vertices = [v for v in t.vertices if v.level == level]
            candidates = [
                v for v in vertices if _trivial_cylinder_candidate(t, v, decorations)
            ]
            if vertices and len(candidates) == len(vertices):
                return Stability(False, candidates[0].id)
    return Stability(True, None)


def _cylinder_shaped(t: BuildingType, v: Vertex) -> bool:
    incident = t.edges_at(v.id)
    return len(incident) == 2 and all(e.cls in ("white-", "white+") for e in incident)


def _trivial_cylinder_candidate(
    t: BuildingType, v: Vertex, decorations: Mapping[str, VertexDecoration]
) -> bool:
    if not _cylinder_shaped(t, v):
        return False
    deco = decorations.get(v.id)
    return deco is not None and deco.area == 0


def domain_dim(t: BuildingType) -> int:
    """Dimension of the domain stratum.

    Disk components contribute #boundary + 2 #interior - 3, sphere
    components 2 #interior - 6, and each finite internal edge carries one
    length parameter; zero-length and broken edges carry none (each is a
    codimension-one degeneration of the finite-length stratum).
    """
    stab = is_stable(t)
    if not stab:
        raise ValueError(f"unstable type (vertex {stab.witness})")
    total = 0
    for v in t.vertices:
        if v.kind == "sphere":
            total += 2 * len(t.edges_at(v.id)) - 6
        else:
            b = t.boundary_specials(v.id)
            i = t.interior_specials(v.id)
            total += b + 2 * i - 3
    total += sum(1 for e in t.internal_edges() if e.length == "finite")
    return total


def sphere_stratum_dim(
    chern: Fraction,
    multiplicity: Fraction,
    e_black: Optional[int] = None,
    ambient_dim: Optional[int] = None,
) -> Fraction:
    """Expected dimension of a single-puncture sphere stratum.

    Plain form: 2 c - 2 - 2 m for a sphere meeting the end divisor at one
    puncture with multiplicity m.  With `e_black` interior edges and the
    ambient dimension supplied, the cobordism-level variant
    dim(X) + 2 c + 2 e_black - 2 (m - 1) - 6 is returned instead.
    """
    chern = Fraction(chern)
    multiplicity = Fraction(multiplicity)
    if (e_black is None) != (ambient_dim is None):
        raise ValueError("supply e_black and ambient_dim together")
    if e_black is None:
        return 2 * chern - 2 - 2 * multiplicity
    return ambient_dim + 2 * chern + 2 * e_black - 2 * (multiplicity - 1) - 6


@dataclass(frozen=True)
class ActionBalance:
    in_sum: Fraction
    out_sum: Fraction
    defect: Fraction
    consistent: bool


def action_balance(
    m: MapType,
    level: Optional[int] = None,
    vertices: Optional[Iterable[str]] = None,
) -> ActionBalance:
    """Action bookkeeping for a level or component selection.

    defect = out_sum - in_sum + base_area; the selection is consistent iff
    the defect vanishes and the outgoing total does not exceed the
    incoming one, with equality only at zero base area.
    """
    t = m.building
    if vertices is not None:
        selected = set(vertices)
    elif level is not None:
        selected = {v.id for v in t.vertices if v.level == level}
    else:
        selected = {v.id for v in t.vertices}
    if not selected:
        raise ValueError("empty selection")

    in_sum = Fraction(0)
    out_sum = Fraction(0)
    for e in t.edges:
        label = m.labels.get(e.id)
        if e.is_leaf:
            if e.ends[0] not in selected:
                continue
            if label is None or label.kind not in ("chord", "orbit"):
                continue
            if label.action is None:
                raise ValueError(f"puncture {e.id} carries no action")
            if label.direction == "in":
                in_sum += label.action
            else:
                out_sum += label.action
            continue
        if e.cls not in ("white-", "white+"):
            continue
        inside = [vid in selected for vid in e.ends]
        if all(inside) or not any(inside):
            continue
        if label is None or label.action is None:
            raise ValueError(f"puncture {e.id} carries no action")
        if inside[0]:
            out_sum += label.action  # flowing out of the selection
        else:
            in_sum += label.action
    base_area = Fraction(0)
    for vid in selected:
        deco = m.decorations.get(vid)
        if deco is None:
            raise ValueError(f"vertex {vid} carries no area decoration")
        base_area += deco.area
    defect = out_sum - in_sum + base_area
    consistent = (
        defect == 0
        and out_sum <= in_sum
        and (out_sum < in_sum or base_area == 0)
    )
    return ActionBalance(in_sum=in_sum, out_sum=out_sum, defect=defect, consistent=consistent)


def intersection_multiplicity(m: MapType, end: str) -> Fraction:
    """Total fractional intersection number with the chosen end divisor.

    The pairing with the end divisor equals the sum of the actions of the
    punctures limiting to it: incoming punctures pair with the minus end,
    outgoing with the plus end.
    """
    if end not in ("plus", "minus", "+", "-"):
        raise ValueError("end must be 'plus' or 'minus'")
    want = "out" if end in ("plus", "+") else "in"
    total = Fraction(0)
    for _, label in m.puncture_leaves():
        if label.direction != want:
            continue
        if label.action is None:
            raise ValueError("puncture carries no action")
        total += label.action
    return total


# -- boundary classification ---------------------------------------------


@dataclass(frozen=True)
class FakeBoundary:
    stratum: MapType
    adjacent: tuple[MapType, MapType]


@dataclass(frozen=True)
class BoundaryStrata:
    true_boundaries: tuple[MapType, ...]
    fake_boundaries: tuple[FakeBoundary, ...]


def _with_edge_length(m: MapType, eid: str, length: str) -> MapType:
    edges = tuple(
        replace(e, length=length) if e.id == eid else e for e in m.building.edges
    )
    return MapType(
        building=BuildingType(vertices=m.building.vertices, edges=edges),
        decorations=m.decorations,
        labels=m.labels,
    )


def _level_split(m: MapType, eid: str) -> MapType:
    """Break a chord edge: the target side moves one level up."""
    t = m.building
    _, side1 = t.split_at(eid)
    edge = t.edge(eid)
    a = t.vertex(edge.ends[0]).level
    b = t.vertex(edge.ends[1]).level
    if a == b:
        vertices = tuple(
            replace(v, level=v.level + 1) if v.id in side1 else v for v in t.vertices
        )
    else:
        vertices = t.vertices  # already on consecutive levels
    edges = tuple(replace(e, length="broken") if e.id == eid else e for e in t.edges)
    return MapType(
        building=BuildingType(vertices=vertices, edges=edges),
        decorations=m.decorations,
        labels=m.labels,
    )


def _glue_edge(m: MapType, eid: str) -> MapType:
    """Collapse a zero-length boundary edge: merge its endpoints."""
    t = m.building
    edge = t.edge(eid)
    keep, gone = edge.ends[0], edge.ends[1]
    vertices = tuple(v for v in t.vertices if v.id != gone)
    edges = []
    for e in t.edges:
        if e.id == eid:
            continue
        ends = tuple(keep if vid == gone else vid for vid in e.ends)
        edges.append(replace(e, ends=ends))
    decorations = dict(m.decorations)
    if gone in decorations:
        if keep in decorations:
            decorations[keep] = decorations[keep] + decorations.pop(gone)
        else:
            decorations.pop(gone)
    elif keep in decorations:
        decorations.pop(keep)
    labels = {k: v for k, v in m.labels.items() if k != eid}
    return MapType(
        building=BuildingType(vertices=vertices, edges=tuple(edges)),
        decorations=decorations,
        labels=labels,
    )


def _passes_filters(m: MapType) -> bool:
    stab = is_stable(m.building, m.decorations)
    if not stab:
        return False
    # discard level splits that violate the action balance, when checkable
    for level in m.building.levels():
        try:
            balance = action_balance(m, level=level)
        except ValueError:
            continue  # not enough labels or areas to decide
        if not balance.consistent:
            return False
    return True


def boundary_strata(m: MapType) -> BoundaryStrata:
    """True and fake boundary strata of a one-dimensional map type.

    True boundary types are two-level splits along broken chord edges and
    single-level splits with a boundary edge broken at a critical point.
    Zero-length degenerations of boundary edges are fake: each is returned
    with its two adjacent one-dimensional strata (the positive-length type
    and the type with the two disks glued).  Interior-node formation is a
    codimension-two phenomenon and is never emitted.  Inter-level gluing
    strata (a connecting edge of length zero between consecutive levels)
    are outside this classification.
    """
    if domain_dim(m.building) != 1:
        raise ValueError("boundary classification needs a one-dimensional type")
    trues: dict[str, MapType] = {}
    fakes: dict[str, FakeBoundary] = {}
    t = m.building
    for e in t.internal_edges():
        if e.length != "finite" or e.cls not in BOUNDARY_CLASSES:
            continue
        a = t.vertex(e.ends[0]).level
        b = t.vertex(e.ends[1]).level
        candidates = []
        if e.cls in ("white-", "white+"):
            # chord-space breakings always separate levels
            candidates.append(_level_split(m, e.id))
        else:
            # a Lagrangian trajectory in the cobordism piece may break at an
            # interior critical point; in a neck it drifts apart into levels
            if a == b == 0:
                candidates.append(_with_edge_length(m, e.id, "broken"))
            candidates.append(_level_split(m, e.id))
        for candidate in candidates:
            if _passes_filters(candidate):
                trues[canonical_encoding(candidate)] = candidate
        if a == b:
            stratum = _with_edge_length(m, e.id, "zero")
            glued = _glue_edge(m, e.id)
            if is_stable(glued.building, glued.decorations):
                fakes[canonical_encoding(stratum)] = FakeBoundary(
                    stratum=stratum, adjacent=(m, glued)
                )
    return BoundaryStrata(
        true_boundaries=tuple(trues[k] for k in sorted(trues)),
        fake_boundaries=tuple(fakes[k] for k in sorted(fakes)),
    )


# -- canonical form --------------------------------------------------------


_ESCAPES = str.maketrans({c: "\\" + c for c in "\\:|,;()[]{}<>"})


def canonical_encoding(m) -> str:
    """Deterministic encoding of a (map) type, invariant under renaming.

    Each component is written as the least of its rooted strings, over
    every choice of root vertex.  The string rooted at v is v's token (kind,
    level above the component's lowest, decoration, sorted leaf tokens),
    then in braces the sorted strings of the subtrees hanging off v, each
    prefixed with its edge token and orientation; incident edges are
    unordered (types carry no cyclic boundary ordering).  Components are
    sorted and joined by ``||``.

    All rooted strings come from one rerooting pass per component, with no
    recursion.  A bottom-up pass over the tree hung from the least vertex id
    writes each vertex's subtree away from its parent; a top-down pass then
    writes, for each vertex, the rest of the tree as seen from it, and so
    its rooted string.  Every vertex and edge token is built once, and the
    Python-level work is a fixed amount per directed edge; the characters
    copied by joins are O(n) per directed edge, O(n^2) in all.  Nothing is
    kept between calls.  Within a call, the bottom-up strings are all held
    until the top-down pass has used them: they add up to the sum of the
    subtree sizes, O(n * height) characters (about n^2 / 2 tokens on a
    path of n vertices).  Of the top-down strings, only those of the
    vertices on the current path that still have children to visit are
    held; each vertex visits its largest child subtree last, so the path
    holds O(log n) of them.

    The encoding is injective: the free-text label fields `name` and
    `component` carry a backslash before every backslash and before every
    delimiter of the grammar (``: | , ; ( ) [ ] { } < >``), so no name can
    forge another leaf, edge or component.  Names without these characters
    are written unchanged.
    """
    if isinstance(m, MapType):
        t = m.building
        decorations = m.decorations
        labels = m.labels
    else:
        t = m
        decorations = {}
        labels = {}

    def vertex_head(v: Vertex, base_level: int, leaf_tokens: list[str]) -> str:
        deco = decorations.get(v.id)
        dtok = (
            f"a{rat_str(deco.area)}c{rat_str(deco.chern)}"
            f"m{rat_str(deco.y_minus)}p{rat_str(deco.y_plus)}"
            + (f"u{rat_str(deco.maslov)}" if deco.maslov is not None else "")
            if deco is not None
            else "-"
        )
        return f"{v.kind[0]}{v.level - base_level}[{dtok}]({','.join(sorted(leaf_tokens))}){{"

    def edge_token(e: Edge) -> str:
        label = labels.get(e.id)
        ltok = (
            f"{label.kind}:{label.direction or ''}:"
            f"{rat_str(label.action) if label.action is not None else ''}:"
            f"{label.name.translate(_ESCAPES)}:{label.component.translate(_ESCAPES)}"
            if label is not None
            else "-"
        )
        return f"{e.cls}|{e.length if not e.is_leaf else 'leaf'}|{ltok}"

    incident = t._incident
    vertex = t._vertex
    components: list[str] = []
    done: set[str] = set()
    for v in t.vertices:
        if v.id in done:
            continue
        comp = t.component_of(v.id)
        done |= comp
        if len(comp) == 1:  # one root: its rooted string is the answer
            leaf_tokens = [edge_token(e) for e in incident[v.id]]
            components.append(vertex_head(v, v.level, leaf_tokens) + "}")
            continue
        base_level = min(vertex[vid].level for vid in comp)
        root = min(comp)
        # hang the tree from root: heads, child lists, and the two directed
        # tokens of each internal edge (seen from the parent, from the child)
        head: dict[str, str] = {}
        children: dict[str, list[str]] = {}
        down_token: dict[str, str] = {}
        up_token: dict[str, str] = {}
        parent_edge: dict[str, Optional[str]] = {root: None}
        order = [root]
        for vid in order:
            leaf_tokens = []
            below = children[vid] = []
            for e in incident[vid]:
                ends = e.ends
                if len(ends) == 1:
                    leaf_tokens.append(edge_token(e))
                elif e.id != parent_edge[vid]:
                    token = edge_token(e)
                    outward = ends[0] == vid
                    child = ends[1] if outward else ends[0]
                    down_token[child] = token + (">" if outward else "<")
                    up_token[child] = token + ("<" if outward else ">")
                    parent_edge[child] = e.id
                    below.append(child)
                    order.append(child)
            head[vid] = vertex_head(vertex[vid], base_level, leaf_tokens)
        # bottom-up: entry[c] is c's subtree with the edge from its parent
        entry: dict[str, str] = {}
        kids: dict[str, list[str]] = {}
        for vid in reversed(order):
            below = sorted([entry[c] for c in children[vid]])
            kids[vid] = below
            if vid != root:
                entry[vid] = f"{down_token[vid]}{head[vid]}{';'.join(below)}}}"
        # top-down: visiting vid with `up`, the rest of the tree seen from it
        best = None
        path: list[tuple] = []
        vid, up = root, None
        while True:
            below = kids.pop(vid)
            if up is not None:
                insort(below, up)
            rooted = f"{head[vid]}{';'.join(below)}}}"
            if best is None or rooted < best:
                best = rooted
            todo = children[vid]
            if todo:
                # popped from the end: the largest subtree is visited last
                todo.sort(key=lambda c: len(entry[c]), reverse=True)
                path.append((vid, below, todo))
            if not path:
                break
            parent, below, todo = path[-1]
            vid = todo.pop()
            if not todo:
                path.pop()
            # the parent's list without vid's entry
            i = bisect_left(below, entry.pop(vid))
            rest = ";".join(below[:i] + below[i + 1:])
            up = f"{up_token[vid]}{head[parent]}{rest}}}"
        components.append(best)
    return "||".join(sorted(components))


# -- multi-valued perturbation sheets ---------------------------------------


@dataclass(frozen=True)
class PerturbationSheets:
    """Formal positively weighted sum of perturbation sheets, total weight 1."""

    sheets: tuple[tuple[Fraction, object], ...]

    def __post_init__(self):
        fixed = tuple((Fraction(w), sid) for w, sid in self.sheets)
        object.__setattr__(self, "sheets", fixed)
        if not self.sheets:
            raise ValueError("need at least one sheet")
        if any(w <= 0 for w, _ in self.sheets):
            raise ValueError("sheet weights must be positive")
        if sum(w for w, _ in self.sheets) != 1:
            raise ValueError("sheet weights must sum to one")

    def weight_sum(self) -> Fraction:
        return sum((w for w, _ in self.sheets), Fraction(0))

    def count(self) -> int:
        return len(self.sheets)


def merge_sheets(p: PerturbationSheets) -> PerturbationSheets:
    """Add the weights of identical sheets."""
    totals: dict[str, tuple[Fraction, object]] = {}
    for w, sid in p.sheets:
        key = repr(sid)
        if key in totals:
            totals[key] = (totals[key][0] + w, sid)
        else:
            totals[key] = (w, sid)
    merged = tuple(totals[k] for k in sorted(totals))
    return PerturbationSheets(sheets=merged)


def pullback_sheets(p1: PerturbationSheets, p2: PerturbationSheets) -> PerturbationSheets:
    """Product perturbation: k1 k2 sheets with multiplied weights (unmerged)."""
    sheets = tuple(
        (w1 * w2, (sid1, sid2)) for w1, sid1 in p1.sheets for w2, sid2 in p2.sheets
    )
    return PerturbationSheets(sheets=sheets)


# -- boundary homology classes ----------------------------------------------


def boundary_class(
    m: MapType,
    cappings: Mapping[str, tuple[Sequence[int], Sequence[int]]],
    arcs: Sequence[tuple[str, Sequence[int]]] = (),
) -> dict[str, tuple[int, ...]]:
    """Total boundary class per Legendrian component.

    Every chord-labeled leaf must be assigned a capping pair (class of the
    path from the start point to the base point, same for the end point);
    the chord contributes start minus end.  `arcs` lists the classes of the
    boundary arcs.  The total is additive over levels, so the class of a
    building is the sum of the classes of its pieces.
    """
    totals: dict[str, list[int]] = {}

    def add(component: str, vec: Sequence[int]) -> None:
        vec = [int(x) for x in vec]
        if component not in totals:
            totals[component] = [0] * len(vec)
        if len(totals[component]) != len(vec):
            raise ValueError(f"inconsistent rank for component {component}")
        for i, x in enumerate(vec):
            totals[component][i] += x

    for component, vec in arcs:
        add(component, vec)
    for leaf, label in m.puncture_leaves():
        if label.kind != "chord":
            continue
        if leaf.id not in cappings:
            raise ValueError(f"chord leaf {leaf.id} has no capping assignment")
        start, end = cappings[leaf.id]
        add(label.component, start)
        add(label.component, [-int(x) for x in end])
    return {comp: tuple(vec) for comp, vec in totals.items()}


# -- serialization -----------------------------------------------------------


def map_type_to_json_dict(m: MapType) -> dict:
    t = m.building
    out: dict = {
        "vertices": [
            {"id": v.id, "kind": v.kind, "level": v.level} for v in t.vertices
        ],
        "edges": [],
        "decorations": {},
    }
    for e in t.edges:
        entry: dict = {"id": e.id, "ends": list(e.ends), "class": e.cls}
        if not e.is_leaf:
            entry["length"] = e.length
        label = m.labels.get(e.id)
        if label is not None:
            entry["label"] = {
                "kind": label.kind,
                **({"direction": label.direction} if label.direction else {}),
                **({"action": rat_str(label.action)} if label.action is not None else {}),
                **({"name": label.name} if label.name else {}),
                "component": label.component,
            }
        out["edges"].append(entry)
    for vid, deco in sorted(m.decorations.items()):
        entry = {
            "area": rat_str(deco.area),
            "chern": rat_str(deco.chern),
            "y-": rat_str(deco.y_minus),
            "y+": rat_str(deco.y_plus),
        }
        if deco.maslov is not None:
            entry["maslov"] = rat_str(deco.maslov)
        out["decorations"][vid] = entry
    return out


def _map_type(vertices: tuple[Vertex, ...], edges: tuple, **optional) -> MapType:
    """`edges` holds (edge, label or None) pairs; `optional` holds `decorations` if given."""
    return MapType(
        building=BuildingType(vertices=vertices, edges=tuple(e for e, _ in edges)),
        labels={e.id: label for e, label in edges if label is not None},
        **optional,
    )


# JSON key tables, read by rational.read
VERTEX_JSON = (Vertex, {
    "id": ("id", str, True),
    "kind": ("kind", str, True),
    "level": ("level", int, False),
})
LABEL_JSON = (GeneratorLabel, {
    "kind": ("kind", str, True),
    "direction": ("direction", str, False),
    "action": ("action", Fraction, False),
    "name": ("name", str, False),
    "component": ("component", str, False),
})
EDGE_JSON = (lambda label=None, **edge: (Edge(**edge), label), {
    "id": ("id", str, True),
    "ends": ("ends", [str], True),
    "class": ("cls", str, False),
    "length": ("length", str, False),
    "label": ("label", LABEL_JSON, False),
})
DECORATION_JSON = (VertexDecoration, {
    "area": ("area", Fraction, False),
    "chern": ("chern", Fraction, False),
    "y-": ("y_minus", Fraction, False),
    "y+": ("y_plus", Fraction, False),
    "maslov": ("maslov", Fraction, False),
})
MAP_TYPE_JSON = (_map_type, {
    "vertices": ("vertices", [VERTEX_JSON], True),
    "edges": ("edges", [EDGE_JSON], True),
    "decorations": ("decorations", {str: DECORATION_JSON}, False),
})


def map_type_to_json(m: MapType) -> str:
    return json.dumps(map_type_to_json_dict(m), sort_keys=True)


def map_type_from_json(text: str) -> MapType:
    return read(json.loads(text), MAP_TYPE_JSON, "map type")
