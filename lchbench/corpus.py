"""Seeded request streams for the three benchmark workloads.

Nothing here imports lchkit: the program under test receives only the
argv lists and files written here.  A workload is an endless sequence of
rounds; round i is a pure function of (seed, i), so two commits run the
same inputs and a run can be replayed.  Each request carries what the
correctness gate needs to check it (see checks.py); expectations are
computed by lchbench.oracles or written down in closed form, never by
lchkit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import oracles
from .oracles import rstr

# -- requests -----------------------------------------------------------------------


@dataclass
class Request:
    """One request of a closed-loop client.

    `argv` requests go through lchkit.cli.run; `lib` requests are run by
    the harness through the public library API.  `key` identifies the
    input as sent (argv with each file replaced by the hash of its bytes)
    for the input digest.  `identity` names the input up to presentation
    (facet order, vertex and edge ids) for the repeated-request share; it
    defaults to `key`.  `defect` names the documented input defect the
    request is built to hit, if any.
    """

    kind: str
    argv: list | None = None
    lib: tuple | None = None
    key: str = ""
    identity: str = ""
    expect: dict = field(default_factory=dict)
    defect: str | None = None


class Writer:
    """Writes a round's input files and builds request keys.

    With no directory nothing is written: the gate regenerates rounds only
    for their keys and expectations.
    """

    def __init__(self, directory: str | None):
        self.directory = directory
        self.count = 0
        self.hashes: dict[str, str] = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def file(self, text: str, stem: str = "in") -> str:
        path = os.path.join(self.directory or "", f"{stem}{self.count}.json")
        self.count += 1
        if self.directory is not None:
            with open(path, "w") as handle:
                handle.write(text)
        self.hashes[path] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return path

    def request(self, kind: str, argv=None, lib=None, identity=None, **kw) -> Request:
        if argv is not None:
            key = kind + " " + " ".join(self.hashes.get(a, a) for a in argv)
        else:
            key = kind + " " + repr(lib)
        return Request(kind=kind, argv=argv, lib=lib, key=key, identity=identity or key, **kw)


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True)


# -- polytopes --------------------------------------------------------------------


def cube_facets(d: int, width: int = 1) -> list:
    out = []
    for i in range(d):
        e = tuple(int(j == i) for j in range(d))
        out.append((e, Fraction(width)))
        out.append((tuple(-x for x in e), Fraction(width)))
    return out


def fano_facets(n: int) -> list:
    d = n - 1
    out = [(tuple(int(j == i) for j in range(d)), Fraction(1)) for i in range(d)]
    out.append((tuple(-1 for _ in range(d)), Fraction(1)))
    return out


def standard_simplex_facets(n: int) -> list:
    d = n - 1
    out = [(tuple(int(j == i) for j in range(d)), Fraction(0)) for i in range(d)]
    out.append((tuple(-1 for _ in range(d)), Fraction(1)))
    return out


def lattice_image(rng: random.Random, facets: list, d: int, shears: int) -> list:
    """Facets of the image of P under a random signed permutation of the
    coordinates followed by `shears` random shears (x_j += s x_i with
    s = +-1), in random order.

    The map is unimodular, so vertex and face counts, the anticanonical
    offsets and every smoothness verdict are unchanged while the polytope
    itself differs.
    """
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    out = [[signs[i] * normal[perm[i]] for i in range(d)] for normal, _ in facets]
    for _ in range(shears if d >= 2 else 0):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        for normal in out:
            normal[j] += s * normal[i]
    out = [(tuple(normal), offset) for normal, (_, offset) in zip(out, facets)]
    rng.shuffle(out)
    return out


def facet_set(facets: list) -> str:
    """The polytope up to the order of its facets: equal for equal polytopes."""
    return dumps(sorted([list(n), rstr(c)] for n, c in facets))


def polytope_json(d: int, facets: list) -> str:
    return dumps(
        {"dim": d, "facets": [{"normal": list(n), "offset": rstr(c)} for n, c in facets]}
    )


def cut_box_facets(rng: random.Random, d: int, cuts: int) -> list:
    """[-1, 1]^d with `cuts` seeded corners cut off by primitive facets.

    The facet <x, -s> >= -(d - 1/2) removes the corner s and meets each of
    its edges a quarter of the way along, so cuts never touch each other
    and the face lattice depends only on d and the number of cuts.
    """
    corners = rng.sample(list(itertools.product((1, -1), repeat=d)), cuts)
    facets = cube_facets(d) + [
        (tuple(-x for x in corner), Fraction(2 * d - 1, 2)) for corner in corners
    ]
    rng.shuffle(facets)
    return facets


class Workload:
    """A seeded, endless stream of rounds of requests.

    Input files go under `workdir`; with workdir None, rounds are built
    without writing anything (the gate needs only keys and expectations).
    """

    name = ""
    tail_percentile = 50.0
    digest_rounds = 1

    def __init__(self, seed: int, workdir: str | None):
        self.seed = seed
        self.workdir = workdir

    def _dir(self, name: str) -> str | None:
        return None if self.workdir is None else os.path.join(self.workdir, name)


class PolytopeFaces(Workload):
    """`lch polytope --faces --cone` and `lch reduce` on distinct H-polytopes.

    A round holds cubes d=3..5 (half-width 1..3), boxes of dimension 3 and
    4 with 1..3 corners cut off, anticanonical simplices n=4..7, and one
    reduce request per codimension-two face of simplices n=3..5 with lambda
    at the centroid of the face and the origin: 32 requests in seeded
    order.  Every polytope is a seeded lattice image with two shears, drawn
    again until its facet set differs from every earlier one in the run, so
    no two polytopes repeat whatever their facet order.
    """

    name = "polytope-faces"
    tail_percentile = 90.0
    digest_rounds = 1
    shears = 2

    def __init__(self, seed: int, workdir: str | None):
        super().__init__(seed, workdir)
        self.seen: set[str] = set()

    def _distinct(self, make) -> tuple[list, str]:
        """Draw facets with `make(shears)` until their set differs from every
        earlier one; after 20 repeats each further 20 draws add a shear."""
        attempt = 0
        while True:
            facets = make(self.shears + attempt // 20)
            identity = facet_set(facets)
            if identity not in self.seen:
                self.seen.add(identity)
                return facets, identity
            attempt += 1

    def round(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        w = Writer(self._dir(f"r{index}"))
        reqs = []

        def faces_request(family: str, d: int, make) -> Request:
            facets, identity = self._distinct(make)
            path = w.file(polytope_json(d, facets))
            return w.request(
                "polytope",
                ["polytope", "--file", path, "--faces", "--cone"],
                identity="polytope " + identity,
                expect={"family": family, "dim": d, "facets": facets},
            )

        for d in (3, 4, 5):
            reqs.append(faces_request(
                "cube", d, lambda k: lattice_image(rng, cube_facets(d, rng.randint(1, 3)), d, k)
            ))
        for d in (3, 4):
            for cuts in (1, 2, 3):
                reqs.append(faces_request(
                    "box", d, lambda k: lattice_image(rng, cut_box_facets(rng, d, cuts), d, k)
                ))
        for n in (4, 5, 6, 7):
            d = n - 1
            reqs.append(faces_request(
                "simplex", d, lambda k: lattice_image(rng, fano_facets(n), d, k)
            ))
        for n in (3, 4, 5):
            d = n - 1
            facets, identity = self._distinct(lambda k: lattice_image(rng, fano_facets(n), d, k))
            path = w.file(polytope_json(d, facets))
            verts = oracles.polytope_vertices(facets, d)
            cone = [oracles.primitive(list(nu) + [c]) for nu, c in facets]
            for active, members in oracles.codim2_faces(facets, d, verts):
                i, j = active
                lam = tuple(sum(v[k] for v in members) / (len(members) + 1) for k in range(d))
                ni, nj = cone[i][:-1], cone[j][:-1]
                vectors = [
                    [a + b for a, b in zip(ni, nj)] + [0],
                    list(cone[i]),
                    list(cone[j]),
                ]
                face = sorted([cone[i], cone[j]])
                reqs.append(
                    w.request(
                        "reduce",
                        ["reduce", "--file", path, "--face", f"{i},{j}",
                         "--lam=" + ",".join(rstr(x) for x in lam)],
                        identity=f"reduce {identity} face {face}",
                        expect={
                            "test_vectors": vectors,
                            "smooth": oracles.is_lattice_basis(vectors),
                            "t_min": rstr(oracles.clip_line_t_min(cone, lam)),
                        },
                    )
                )
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def warmup(w: Writer) -> list[Request]:
        cube = w.file(polytope_json(3, cube_facets(3)))
        simplex = w.file(polytope_json(2, fano_facets(3)))
        return [
            w.request("warmup", ["polytope", "--file", cube, "--faces", "--cone"]),
            w.request("warmup", ["reduce", "--file", simplex, "--face", "0,1", "--lam=-1/3,-1/3"]),
        ]


# -- building types ------------------------------------------------------------------

LEAF_CLASSES = ("L", "white-", "white+", "D")
INTERNAL_CLASSES = ("L", "white-", "white+")
MAX_VERTICES = 4
MAX_EDGES = 5


def tree_shapes() -> list[tuple]:
    """Internal-tree shapes (vertex count, parents, classes, lengths): 1,375."""
    shapes = []
    for v in range(1, MAX_VERTICES + 1):
        for parents in itertools.product(*[range(i) for i in range(1, v)]):
            for classes in itertools.product(INTERNAL_CLASSES, repeat=v - 1):
                for lengths in itertools.product(("finite", "zero"), repeat=v - 1):
                    shapes.append((v, parents, classes, lengths))
    return shapes


def leaf_decorations(v: int):
    """Leaf placements of a shape: sorted vertex choices paired with sorted classes."""
    for n_leaves in range(MAX_EDGES - (v - 1) + 1):
        for split in itertools.combinations_with_replacement(range(v), n_leaves):
            for classes in itertools.combinations_with_replacement(LEAF_CLASSES, n_leaves):
                yield split, classes


@functools.cache
def stable_decorations() -> tuple:
    """For each shape of `tree_shapes()`, in order: its number of leaf
    decorations and, for each stable one, (canonical key, dimension, split,
    classes), by the benchmark's own enumerator.  Neither depends on ids or
    on the seed, so this runs once per process."""
    table = []
    for shape in tree_shapes():
        count, stable = 0, []
        for split, classes in leaf_decorations(shape[0]):
            count += 1
            t = plain_type(shape, split, classes, (range(4), range(4), range(5)))
            if oracles.plain_stable(t):
                stable.append((oracles.plain_canon(t), oracles.plain_dim(t), split, classes))
        table.append((count, stable))
    return tuple(table)


def plain_type(shape, split, classes, ids) -> tuple:
    v, parents, icls, lengths = shape
    vids, eids, lids = ids
    vertices = {vids[i]: 0 for i in range(v)}
    internal = [
        (eids[i], vids[parents[i]], vids[i + 1], icls[i], lengths[i]) for i in range(v - 1)
    ]
    leaves = [(lids[j], vids[split[j]], classes[j]) for j in range(len(split))]
    return vertices, internal, leaves


LABELS = {
    "white-": lambda action: {"kind": "chord", "direction": "in", "action": action, "component": "L"},
    "white+": lambda action: {"kind": "chord", "direction": "out", "action": action, "component": "L"},
    "D": lambda action: {"kind": "divisor", "component": "L"},
    "L": lambda action: {"kind": "interior", "component": "L"},
}


def type_json(t, rng: random.Random) -> str:
    vertices, internal, leaves = t
    edges = [
        {"id": eid, "ends": [a, b], "class": cls, "length": length}
        for eid, a, b, cls, length in internal
    ]
    edges += [
        {"id": lid, "ends": [vid], "class": cls, "label": LABELS[cls](rng.choice(("1", "1/2", "2")))}
        for lid, vid, cls in leaves
    ]
    rng.shuffle(edges)
    return dumps(
        {
            "vertices": [{"id": vid, "kind": "disk", "level": lvl} for vid, lvl in vertices.items()],
            "edges": edges,
            "decorations": {},
        }
    )


def random_ids(rng: random.Random, count: int, prefix: str) -> list[str]:
    return [f"{prefix}{x}" for x in rng.sample(range(1000), count)]


def random_tree(rng: random.Random, n: int, finite_class: str) -> tuple:
    """A one-dimensional single-level disk tree with maximum degree three.

    Every disk has exactly three boundary specials (a D leaf counts for two),
    one internal edge, of class `finite_class`, is finite and the rest have
    length zero, so the domain dimension is one.
    """
    vids = random_ids(rng, n, "d")
    deg = [0] * n
    internal = []
    finite = rng.randrange(1, n)
    for i in range(1, n):
        parent = rng.choice([p for p in range(i) if deg[p] < 3])
        deg[parent] += 1
        deg[i] += 1
        if i == finite:
            internal.append((f"e{i}", vids[parent], vids[i], finite_class, "finite"))
        else:
            internal.append((f"e{i}", vids[parent], vids[i], rng.choice(INTERNAL_CLASSES), "zero"))
    leaves = []
    for i in range(n):
        need = 3 - deg[i]
        if need == 2 and rng.random() < 0.25:
            leaves.append((f"l{len(leaves)}", vids[i], "D"))
            continue
        for _ in range(need):
            leaves.append((f"l{len(leaves)}", vids[i], rng.choice(INTERNAL_CLASSES)))
    rng.shuffle(vids)
    return {vid: 0 for vid in vids}, internal, leaves


def strata_counts(t) -> dict:
    """Closed-form strata counts of a one-dimensional single-level disk type.

    Its dimension comes either from one finite internal edge, with every
    disk at three boundary specials (a D leaf counts for two), or from one
    disk with four and no finite edge.  Only finite edges break: a chord
    edge gives one two-level split, a Lagrangian edge also breaks at level
    0, and the zero-length degeneration is one fake boundary, whose glued
    disk has four specials and is stable.  Without a finite edge there is
    no stratum.
    """
    finite = [e for e in t[1] if e[4] == "finite"]
    if not finite:
        return {"true": 0, "fake": 0}
    return {"true": 2 if finite[0][3] == "L" else 1, "fake": 1}


class BuildingTypes(Workload):
    """Type enumeration through the library API, and `lch strata`/`lch dim`.

    A pass covers all 1,375 internal-tree shapes once (one enumeration
    request each, in seeded order with seeded ids) and the 199
    one-dimensional types twice (strata and dim); it is split evenly over
    25 rounds.  Each round also runs strata and dim on one seeded tree of
    16..128 disks, its size drawn from a low-discrepancy sequence so any
    run of rounds covers the sizes evenly, and the class of its one finite
    edge cycling through L, white-, white+.
    """

    name = "building-types"
    tail_percentile = 99.5
    digest_rounds = 4
    rounds_per_pass = 25

    def __init__(self, seed: int, workdir: str | None):
        super().__init__(seed, workdir)
        self.shapes = tree_shapes()
        self._plans: dict[int, list[list[Request]]] = {}

    def round(self, index: int) -> list[Request]:
        p, r = divmod(index, self.rounds_per_pass)
        if p not in self._plans:
            self._plans = {p: self._plan(p)}
        rng = random.Random(f"{self.name}:{self.seed}:tree:{index}")
        w = Writer(self._dir(f"r{index}"))
        # the size and the class of the finite edge (a Lagrangian edge breaks
        # two ways, a chord edge one) set the cost; both follow the index
        size = 16 + int(113 * ((index * 0.6180339887498949) % 1.0))
        tree = random_tree(rng, size, INTERNAL_CLASSES[index % 3])
        path = w.file(type_json(tree, rng), "tree")
        big = [
            w.request("strata", ["strata", "--type", path],
                      expect={"source": tree, "counts": strata_counts(tree)}),
            w.request("dim-type", ["dim", "--type", path], expect={"domain_dim": 1}),
        ]
        return self._plans[p][r] + big

    def _plan(self, p: int) -> list[list[Request]]:
        rng = random.Random(f"{self.name}:{self.seed}:pass:{p}")
        w = Writer(self._dir(f"p{p}"))
        order = list(range(len(self.shapes)))
        rng.shuffle(order)
        enum = []
        for s in order:
            v = self.shapes[s][0]
            ids = (
                random_ids(rng, v, "v"),
                random_ids(rng, v - 1, "e"),
                random_ids(rng, MAX_EDGES - (v - 1), "l"),
            )
            enum.append(w.request("enum", lib=(p, self.shapes[s], ids),
                                  identity=f"enum {self.shapes[s]}"))
        strata = []
        for k, (shape, split, classes) in enumerate(self.one_dimensional_types()):
            v = shape[0]
            t = plain_type(
                shape, split, classes,
                (random_ids(rng, v, "v"), random_ids(rng, v - 1, "e"), random_ids(rng, len(split), "l")),
            )
            path = w.file(type_json(t, rng), "type")
            strata.append(w.request("strata", ["strata", "--type", path],
                                    identity=f"strata one-dimensional type {k}",
                                    expect={"source": t, "counts": strata_counts(t)}))
            strata.append(w.request("dim-type", ["dim", "--type", path],
                                    identity=f"dim one-dimensional type {k}",
                                    expect={"domain_dim": 1}))
        rng.shuffle(strata)
        rounds = []
        n = self.rounds_per_pass
        for r in range(n):
            chunk = enum[r * len(enum) // n:(r + 1) * len(enum) // n]
            chunk += strata[r * len(strata) // n:(r + 1) * len(strata) // n]
            rng.shuffle(chunk)
            rounds.append(chunk)
        self._expect_enumeration(rounds)
        return rounds

    def one_dimensional_types(self) -> list[tuple]:
        """(shape, split, classes) of one representative per isomorphism
        class of stable one-dimensional types, by the benchmark's own
        enumerator."""
        found = {}
        for shape, (_, stable) in zip(self.shapes, stable_decorations()):
            for key, dim, split, classes in stable:
                if dim == 1:
                    found.setdefault(key, (shape, split, classes))
        if len(found) != 199:
            raise RuntimeError(f"the type oracle found {len(found)} one-dimensional types, not 199")
        return list(found.values())

    def _expect_enumeration(self, rounds) -> None:
        """Per-request counts in execution order, from the oracle."""
        table = dict(zip(self.shapes, stable_decorations()))
        seen = set()
        for chunk in rounds:
            for req in chunk:
                if req.kind != "enum":
                    continue
                count, stable = table[req.lib[1]]
                new = new_one = 0
                for key, dim, _, _ in stable:
                    if key not in seen:
                        seen.add(key)
                        new += 1
                        new_one += dim == 1
                req.expect = {"counts": (count, count, len(stable), new, new_one)}
        if len(seen) != 643:
            raise RuntimeError(f"the type oracle found {len(seen)} stable types, not 643")

    @staticmethod
    def warmup(w: Writer) -> list[Request]:
        shapes = tree_shapes()
        shape = shapes[1]
        t = plain_type(shape, (0, 0, 1, 1), ("L", "white-", "L", "white+"),
                       (["a", "b"], ["m"], ["p", "q", "r", "s"]))
        path = w.file(type_json(t, random.Random(0)), "type")
        return [
            w.request("warmup", lib=(-1, shape, (["a", "b"], ["m"], ["p", "q", "r", "s"]))),
            w.request("warmup", ["strata", "--type", path]),
            w.request("warmup", ["dim", "--type", path]),
        ]


# -- the CLI mix --------------------------------------------------------------------------

BUILTIN_SCENARIOS = ("trivial-cobordism", "harvey-lawson", "ball-blowup")
HL_CONE = [(-1, 2, -1, 1), (2, -1, -1, 1), (-1, -1, 2, 1), (0, 0, 0, 1)]
HL_VERTEX = (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3))


def builtin_verdict(name: str, n: int) -> dict:
    """Documented verdicts of the built-in scenarios (README, criterion 1)."""
    ends_tame = n >= 3  # the sphere over CP^(n-1): tau_Z = 1, tau_Y = n
    if name == "trivial-cobordism":
        return {"p1": True, "p2": True, "p3": True, "p3_vacuous": False,
                "lambda_minus": str(n - 1), "lambda_plus": "1", "overall": True,
                "ends_tame": ends_tame, "tame": ends_tame}
    if name == "harvey-lawson":
        return {"p1": True, "p2": True, "p3": True, "p3_vacuous": True,
                "lambda_minus": str(n - 1), "lambda_plus": None, "overall": True,
                "ends_tame": ends_tame, "tame": True}
    return {"p1": True, "p2": False, "p3": True, "p3_vacuous": True,
            "lambda_minus": str(n - 1), "lambda_plus": None, "overall": False,
            "ends_tame": ends_tame, "tame": False}


def small_rational(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3, 4)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def positive_rational(rng: random.Random, hi: int, dens=(1, 2, 3)) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(1, hi * den), den)


class CliMix(Workload):
    """Small requests across every subcommand, builtins repeating as in scripts.

    A round holds 100 requests in seeded order: tame (builtins n=2..8, a
    seeded symplectization, class-data files), lift, chords, generators
    (rank <= 4, plus one rank-5 request with k*A = 48), dim --chern,
    sheets, reduce --builtin harvey-lawson, polytope on small simplices,
    dim/strata on two-disk types, two malformed inputs that must exit 2,
    and one request for each of the two documented input defects.
    """

    name = "cli-mix"
    tail_percentile = 99.8
    digest_rounds = 10

    def round(self, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        w = Writer(self._dir(f"r{index}"))
        reqs: list[Request] = []
        for count, make in (
            (10, self._tame_builtin), (4, self._tame_builtin_text), (6, self._tame_symplectization),
            (6, self._tame_file), (12, self._lift), (10, self._chords), (7, self._generators),
            (1, self._generators_rank5), (10, self._dim_chern), (8, self._sheets),
            (6, self._reduce_builtin), (8, self._polytope_builtin), (4, self._two_disk_strata),
            (4, self._two_disk_dim), (2, self._malformed), (1, self._defect_facets),
            (1, self._defect_ends),
        ):
            for _ in range(count):
                reqs.append(make(rng, w))
        rng.shuffle(reqs)
        return reqs

    # each maker returns one request

    def _tame_builtin(self, rng, w, fmt="json"):
        name = rng.choice(BUILTIN_SCENARIOS)
        n = rng.randint(2, 8)
        argv = ["tame", "--builtin", name + rng.choice(("", "@1")), "--n", str(n)]
        if fmt == "text":
            argv += ["--format", "text"]
        return w.request("tame", argv, expect={"verdict": builtin_verdict(name, n), "format": fmt})

    def _tame_builtin_text(self, rng, w):
        return self._tame_builtin(rng, w, "text")

    def _tame_symplectization(self, rng, w):
        tau_y = positive_rational(rng, 6)
        tau_z = positive_rational(rng, 3)
        w1 = positive_rational(rng, 3)
        delta = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)))
        lam_minus = tau_y + tau_z - 1
        p1 = delta.denominator == 1
        ends_tame = tau_z >= 1 and tau_y >= 3
        overall = p1 and lam_minus > 0
        verdict = {"p1": p1, "p2": lam_minus > 0, "p3": True, "p3_vacuous": False,
                   "lambda_minus": rstr(lam_minus), "lambda_plus": rstr(tau_z),
                   "overall": overall, "ends_tame": ends_tame, "tame": overall and ends_tame}
        argv = ["tame", "--builtin", "symplectization", f"--tau-y={rstr(tau_y)}",
                f"--tau-z={rstr(tau_z)}", f"--w1={rstr(w1)}", f"--w2={rstr(w1 + delta)}"]
        return w.request("tame", argv, expect={"verdict": verdict, "format": "json"})

    def _tame_file(self, rng, w):
        """Class data built around chosen constants, so the verdict is known.

        Every class of the no-cap table pairs as (1 + lam) omega with
        c_1 - [Y_-]; the relative table pairs as -lam_plus omega with
        [Y_+].  A perturbed class breaks the proportionality it sits in.
        The fitted constants are pinned by the first class of each table.
        """
        lam = rng.choice((Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2), Fraction(5, 2)))
        integral = rng.random() < 0.85
        p1 = integral
        classes = []
        for k in range(rng.randint(1, 3)):
            omega = rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)))
            p1 &= omega.denominator == 1
            y_minus = Fraction(rng.randint(0, 2))
            classes.append({"label": f"c{k}", "omega": rstr(omega),
                            "chern": rstr((1 + lam) * omega + y_minus), "y_minus": rstr(y_minus),
                            "y_plus": "0", "p2": True, "p3": False})
        p2_broken = len(classes) > 1 and rng.random() < 0.25
        if p2_broken:
            classes[-1]["chern"] = rstr(Fraction(classes[-1]["chern"]) + 1)
        outgoing = rng.random() < 0.5
        p3_broken = False
        if outgoing:
            lam_plus = rng.choice((Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)))
            rel = []
            for k in range(rng.randint(1, 2)):
                omega = Fraction(rng.randint(1, 3))
                rel.append({"label": f"r{k}", "omega": rstr(omega), "chern": "0", "y_minus": "0",
                            "y_plus": rstr(-lam_plus * omega), "p2": False, "p3": True})
            p3_broken = len(rel) > 1 and rng.random() < 0.25
            if p3_broken:
                rel[-1]["y_plus"] = rstr(Fraction(rel[-1]["y_plus"]) - 1)
            classes += rel
        rng.shuffle(classes)
        pin = next(c for c in classes if c["p2"])
        lam_minus = (Fraction(pin["chern"]) - Fraction(pin["y_minus"])) / Fraction(pin["omega"]) - 1
        p2 = not p2_broken and lam_minus > 0
        lam_plus = None
        p3 = True
        if outgoing:
            pin3 = next(c for c in classes if c["p3"])
            lam_plus = -Fraction(pin3["y_plus"]) / Fraction(pin3["omega"])
            p3 = not p3_broken and lam_plus >= 0
        overall = p1 and p2 and p3
        data = {"classes": classes, "outgoing_end_nonempty": outgoing,
                "integral_symplectic_class": integral, "simply_connected": True}
        verdict = {"p1": p1, "p2": p2, "p3": p3, "p3_vacuous": not outgoing,
                   "lambda_minus": rstr(lam_minus),
                   "lambda_plus": rstr(lam_plus) if lam_plus is not None else None,
                   "overall": overall, "ends_tame": None, "tame": overall}
        path = w.file(dumps(data), "class")
        return w.request("tame", ["tame", "--file", path],
                         expect={"verdict": verdict, "format": "json"})

    def _lift(self, rng, w):
        areas = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        fmt = rng.choice(("text", "json"))
        argv = ["lift", "--areas=" + ",".join(rstr(a) for a in areas)]
        if fmt == "json":
            argv += ["--format", "json"]
        return w.request("lift", argv, expect={"order": oracles.area_subgroup_order(areas), "format": fmt})

    def _chords(self, rng, w):
        k = rng.randint(1, 6)
        top = small_rational(rng, 1, 12, (1, 2, 3))
        fmt = rng.choice(("tsv", "json"))
        argv = ["chords", "--cover", str(k), f"--max-action={rstr(top)}"]
        if fmt == "json":
            argv += ["--format", "json"]
        return w.request("chords", argv, expect={"rows": oracles.chord_rows(k, top), "format": fmt})

    def _generators(self, rng, w, rank=None, k=None, top=None):
        rank = rng.randint(0, 4) if rank is None else rank
        k = rng.randint(1, 4) if k is None else k
        top = small_rational(rng, 1, 6, (1, 2)) if top is None else top
        chords = len(oracles.chord_rows(k, top))
        argv = ["generators", "--cover", str(k), "--rank", str(rank), f"--max-action={rstr(top)}"]
        return w.request("generators", argv,
                         expect={"white": chords * 2 ** rank, "black": 2 ** rank})

    def _generators_rank5(self, rng, w):
        k = rng.choice((2, 3, 4, 6))
        return self._generators(rng, w, rank=5, k=k, top=Fraction(48, k))

    def _dim_chern(self, rng, w):
        c = small_rational(rng, -4, 8, (1, 2))
        m = small_rational(rng, 0, 4, (1, 2))
        argv = ["dim", f"--chern={rstr(c)}", f"--mult={rstr(m)}"]
        value = 2 * c - 2 - 2 * m
        if rng.random() < 0.4:
            e, amb = rng.randint(0, 3), rng.randint(2, 8)
            argv += ["--e-black", str(e), "--ambient", str(amb)]
            value = amb + 2 * c + 2 * e - 2 * (m - 1) - 6
        return w.request("dim-chern", argv, expect={"value": rstr(value)})

    def _sheet_file(self, rng, w, tag):
        k = rng.randint(1, 4)
        raw = [rng.randint(1, 9) for _ in range(k)]
        ids = [f"{tag}{rng.randint(0, max(0, k - 2))}" for _ in range(k)]
        entries = [{"weight": rstr(Fraction(x, sum(raw))), "id": sid} for x, sid in zip(raw, ids)]
        return w.file(dumps(entries), "sheets"), ids

    def _sheets(self, rng, w):
        p1, ids1 = self._sheet_file(rng, w, "a")
        argv = ["sheets", "--p1", p1]
        ids = [(a,) for a in ids1]
        if rng.random() < 0.7:
            p2, ids2 = self._sheet_file(rng, w, "b")
            argv += ["--p2", p2]
            ids = [(a, b) for a in ids1 for b in ids2]
        merge = rng.random() < 0.5
        if merge:
            argv.append("--merge")
        count = len(set(ids)) if merge else len(ids)
        return w.request("sheets", argv, expect={"count": count})

    def _reduce_builtin(self, rng, w):
        argv = ["reduce", "--builtin", rng.choice(("harvey-lawson", "harvey-lawson@1"))]
        t = Fraction(1, 2)
        if rng.random() < 0.5:
            den = rng.randint(2, 9)
            t = Fraction(rng.randint(1, den - 1), den)
            argv.append("--lam=" + ",".join(rstr(t * x) for x in HL_VERTEX))
        vectors = [[1, 1, -2, 0], [-1, 2, -1, 1], [2, -1, -1, 1]]
        lam = tuple(t * x for x in HL_VERTEX)
        return w.request(
            "reduce", argv,
            expect={"test_vectors": vectors, "smooth": oracles.is_lattice_basis(vectors),
                    "t_min": rstr(oracles.clip_line_t_min(HL_CONE, lam))},
        )

    def _polytope_builtin(self, rng, w):
        name = rng.choice(("simplex", "fano-simplex"))
        n = rng.choice((2, 3))
        argv = ["polytope", "--builtin", name, "--n", str(n)]
        if rng.random() < 0.5:
            argv.append("--faces")
        if rng.random() < 0.5:
            argv.append("--cone")
        facets = standard_simplex_facets(n) if name == "simplex" else fano_facets(n)
        return w.request("polytope", argv, expect={"family": "simplex", "dim": n - 1, "facets": facets})

    def _two_disk(self, rng):
        u, v = random_ids(rng, 2, "u")
        leaf_ids = random_ids(rng, 4, "l")
        leaves = [(leaf_ids[i], u if i < 2 else v, rng.choice(INTERNAL_CLASSES)) for i in range(4)]
        return {u: 0, v: 0}, [("mid", u, v, rng.choice(INTERNAL_CLASSES), "finite")], leaves

    def _two_disk_strata(self, rng, w):
        t = self._two_disk(rng)
        path = w.file(type_json(t, rng), "type")
        return w.request("strata", ["strata", "--type", path],
                         expect={"source": t, "counts": strata_counts(t)})

    def _two_disk_dim(self, rng, w):
        path = w.file(type_json(self._two_disk(rng), rng), "type")
        return w.request("dim-type", ["dim", "--type", path], expect={"domain_dim": 1})

    def _malformed(self, rng, w):
        choice = rng.randrange(10)
        if choice == 0:
            argv = ["lift", "--areas", "0.5"]
        elif choice == 1:
            argv = ["tame", "--builtin", "no-such-scenario", "--n", "3"]
        elif choice == 2:
            argv = ["tame", "--builtin", "trivial-cobordism"]
        elif choice == 3:
            argv = ["chords", "--cover", "0", "--max-action", "1"]
        elif choice == 4:
            argv = ["frobnicate"]
        elif choice == 5:
            argv = ["polytope", "--file", w.file('{"dim": 2, "facets": [', "bad")]
        elif choice == 6:
            argv = ["dim", "--chern", "1/0", "--mult", "1"]
        elif choice == 7:
            argv = ["generators", "--cover", "2", "--rank", "-1", "--max-action", "1"]
        elif choice == 8:
            argv = ["reduce", "--file", w.file(polytope_json(2, fano_facets(3)))]
        else:
            entries = [{"weight": "1/2", "id": "A"}, {"weight": "1", "id": "B"}]
            argv = ["sheets", "--p1", w.file(dumps(entries), "sheets")]
        return w.request("malformed", argv, expect={})

    def _defect_facets(self, rng, w):
        """Known defect: a non-list `facets` escapes cli.run as a TypeError."""
        data = {"dim": rng.randint(1, 4), "facets": rng.randint(1, 9)}
        return w.request("malformed", ["polytope", "--file", w.file(dumps(data), "bad")],
                         expect={}, defect="facets-not-a-list")

    def _defect_ends(self, rng, w):
        """Known defect: a string `ends` is split into characters and read as an edge."""
        a, b = rng.sample("abcdefghjkmnpqrstuvwxyz", 2)
        t = ({a: 0, b: 0}, [], [(f"l{i}", a if i < 2 else b, "L") for i in range(4)])
        data = json.loads(type_json(t, rng))
        data["edges"].append({"id": "mid", "ends": a + b, "class": "L", "length": "finite"})
        return w.request("malformed", ["dim", "--type", w.file(dumps(data), "bad")],
                         expect={}, defect="edge-ends-string")

    @staticmethod
    def warmup(w: Writer) -> list[Request]:
        sheets = w.file(dumps([{"weight": "1/2", "id": "A"}, {"weight": "1/2", "id": "B"}]), "sheets")
        t = ({"u": 0, "w": 0}, [("mid", "u", "w", "L", "finite")],
             [("a", "u", "white-"), ("b", "u", "white-"), ("c", "w", "white+"), ("d", "w", "white+")])
        path = w.file(type_json(t, random.Random(0)), "type")
        argvs = [
            ["tame", "--builtin", "harvey-lawson", "--n", "3"],
            ["tame", "--builtin", "symplectization", "--tau-y", "4", "--tau-z", "1", "--w1", "1", "--w2", "2"],
            ["lift", "--areas", "1/3"],
            ["chords", "--cover", "2", "--max-action", "2"],
            ["generators", "--cover", "2", "--rank", "1", "--max-action", "2"],
            ["dim", "--chern", "3", "--mult", "1"],
            ["sheets", "--p1", sheets, "--p2", sheets, "--merge"],
            ["reduce", "--builtin", "harvey-lawson"],
            ["polytope", "--builtin", "simplex", "--n", "3", "--faces", "--cone"],
            ["strata", "--type", path],
            ["lift", "--areas", "0.5"],
        ]
        return [w.request("warmup", argv) for argv in argvs]


WORKLOADS = {cls.name: cls for cls in (PolytopeFaces, BuildingTypes, CliMix)}
