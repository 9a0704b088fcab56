"""Command-line interface.

Subcommands map one-to-one onto the library operations: `polytope`
(inspect, cone, faces), `reduce` (reduction slice), `lift` (Legendrian
lift criterion), `chords` / `generators` (Reeb chord spectra), `tame`
(cobordism verdicts, including the truncated symplectization), `dim`
(domain and sphere-stratum dimensions), `strata` (boundary
classification), and `sheets` (perturbation pull-backs).  All rationals
parse and print as exact "p/q" strings; output ordering is canonical, so
repeated runs are byte-identical.

`polytope`, `reduce` and `tame` read exactly one source, `--file` or
`--builtin`; a built-in named `NAME@1` is the built-in `NAME`.  An option
that does not apply to the chosen source is a usage error: `--n` goes
with a built-in polytope or scenario, `--tau-y`, `--tau-z`, `--w1` and
`--w2` with `tame --builtin symplectization`, and `reduce --face` with
`--file`.  Only
`lift` (text|json), `chords` (tsv|json) and `tame` (json|text) take a
`--format`; every other subcommand prints JSON.

Exit codes: 0 on success, 2 on malformed input, 3 for a negative verdict
on a boolean question.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import buildings, chords, contact, polytopes, tameness
from .rational import rat, rat_str, read

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NEGATIVE = 3


def _colorize(text: str, good: bool) -> str:
    if os.environ.get("LCH_COLOR") == "1":
        code = "32" if good else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _parse_rational_list(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return [rat(piece) for piece in items]


def _emit(out, payload) -> None:
    print(json.dumps(payload, sort_keys=True), file=out)


# -- subcommands -----------------------------------------------------------------


BUILTIN_POLYTOPES = {
    "simplex": (polytopes.standard_simplex, 3),
    "fano-simplex": (polytopes.fano_simplex, 3),
    "cube": (polytopes.cube, 2),
}


def cmd_polytope(args, out) -> int:
    if args.file is not None:
        with open(args.file) as handle:
            p = polytopes.polytope_from_json(handle.read())
    elif args.builtin in BUILTIN_POLYTOPES:
        make, default_n = BUILTIN_POLYTOPES[args.builtin]
        p = make(args.n if args.n is not None else default_n)
    else:
        raise ValueError(f"unknown built-in polytope: {args.builtin!r}")
    payload: dict = {"polytope": p.to_json_dict()}
    payload["vertices"] = [[rat_str(x) for x in v] for v in p.vertices()]
    payload["compact"] = p.is_compact()
    payload["full_dimensional"] = p.is_full_dimensional()
    if args.faces:
        faces = polytopes.codim2_faces(p)
        payload["codim2_faces"] = [
            {
                "active": sorted(f.active),
                "dim": f.dim,
                "vertices": [[rat_str(x) for x in v] for v in f.vertices],
            }
            for f in faces
        ]
    if args.cone:
        cone = polytopes.cone_on(p)
        payload["cone"] = {
            "dim": cone.dim,
            "facets": [list(normal) for normal in cone.facets],
            "equations": [list(a) for a in cone.equations],
        }
    _emit(out, payload)
    return EXIT_OK


def cmd_reduce(args, out) -> int:
    if args.builtin is not None:
        if args.builtin != "harvey-lawson":
            raise ValueError(f"unknown built-in reduction: {args.builtin!r}")
        cone, face, lam = polytopes.harvey_lawson_reduction()
        if args.lam:
            lam = tuple(_parse_rational_list(args.lam))
    else:
        with open(args.file) as handle:
            p = polytopes.polytope_from_json(handle.read())
        if args.face is None or args.lam is None:
            raise ValueError("file input needs --face i,j and --lam coordinates")
        i, j = args.face
        faces = polytopes.codim2_faces(p)
        face = next((f for f in faces if f.active == frozenset({i, j})), None)
        if face is None:
            raise ValueError(f"no codimension-two face with active facets {{{i},{j}}}")
        cone = polytopes.cone_on(p)
        lam = tuple(_parse_rational_list(args.lam))
    result = polytopes.reduction_slice(cone, face, lam)
    line = result.filling_line
    payload = {
        "smooth": result.smooth,
        "test_vectors": [list(v) for v in result.test_vectors],
        "reduced_polytope": result.reduced_polytope.to_json_dict(),
        "filling_line": {
            "base_point": [rat_str(x) for x in line.base_point],
            "t_min": rat_str(line.t_min),
            "t_max": rat_str(line.t_max) if line.t_max is not None else None,
            "empty": line.empty,
        },
    }
    _emit(out, payload)
    return EXIT_OK


def cmd_lift(args, out) -> int:
    areas = _parse_rational_list(args.areas)
    result = contact.lift_exists(areas)
    if args.format == "json":
        _emit(
            out,
            {"lift": result.exists, "fiber_order_divisor": result.fiber_order_divisor},
        )
    else:
        print(
            _colorize(f"lift exists; fiber order divides {result.fiber_order_divisor}", True),
            file=out,
        )
    return EXIT_OK


def cmd_chords(args, out) -> int:
    spectrum = chords.enumerate_chords(args.cover, rat(args.max_action))
    if args.format == "json":
        _emit(
            out,
            [
                {
                    "d": c.sheet_shift,
                    "m": c.winding,
                    "action": rat_str(c.action),
                    "start_sheet": c.start_sheet,
                    "end_sheet": c.end_sheet,
                }
                for c in spectrum
            ],
        )
    else:
        out.write(chords.chords_tsv(spectrum))
    return EXIT_OK


def cmd_generators(args, out) -> int:
    model = chords.MorseModel(rank=args.rank)
    gens = chords.generator_set(args.cover, model, rat(args.max_action))
    payload = {
        "white_count": len(gens.white),
        "black_count": len(gens.black),
        "total": len(gens),
        "white": [
            {
                "d": c.sheet_shift,
                "m": c.winding,
                "action": rat_str(c.action),
                "critical_point": sorted(label),
            }
            for c, label in gens.white
        ],
        "black": [sorted(label) for label in gens.black],
    }
    _emit(out, payload)
    return EXIT_OK


def cmd_tame(args, out) -> int:
    if args.builtin is not None:
        if args.builtin == "symplectization":
            required = (args.tau_y, args.tau_z, args.w1, args.w2)
            if any(v is None for v in required):
                raise ValueError("symplectization needs --tau-y, --tau-z, --w1, --w2")
            data = tameness.symplectization_truncation(
                rat(args.tau_y), rat(args.tau_z), rat(args.w1), rat(args.w2)
            )
        else:
            if args.n is None:
                raise ValueError("built-in scenarios need --n")
            data = tameness.builtin_scenario(args.builtin, args.n)
    else:
        with open(args.file) as handle:
            data = tameness.class_data_from_json(handle.read())
    scenario = tameness.scenario_verdict(data)
    if args.format == "text":
        verdict = scenario.verdict
        word = "tame" if scenario.tame else "not tame"
        parts = [_colorize(word, scenario.tame)]
        if verdict.lambda_minus is not None:
            parts.append(f"lambda_minus = {rat_str(verdict.lambda_minus)}")
        if verdict.lambda_plus is not None:
            parts.append(f"lambda_plus = {rat_str(verdict.lambda_plus)}")
        if verdict.p3_vacuous:
            parts.append("P3 vacuous")
        print("; ".join(parts), file=out)
    else:
        _emit(out, scenario.to_json_dict())
    return EXIT_OK if scenario.tame else EXIT_NEGATIVE


def cmd_dim(args, out) -> int:
    if args.type is not None:
        with open(args.type) as handle:
            m = buildings.map_type_from_json(handle.read())
        _emit(out, {"domain_dim": buildings.domain_dim(m.building)})
        return EXIT_OK
    if args.chern is None or args.mult is None:
        raise ValueError("need --type, or --chern with --mult")
    if (args.e_black is None) != (args.ambient is None):
        raise ValueError("--e-black and --ambient go together")
    value = buildings.sphere_stratum_dim(
        rat(args.chern),
        rat(args.mult),
        e_black=args.e_black,
        ambient_dim=args.ambient,
    )
    _emit(out, {"sphere_stratum_dim": rat_str(value)})
    return EXIT_OK


def cmd_strata(args, out) -> int:
    with open(args.type) as handle:
        m = buildings.map_type_from_json(handle.read())
    result = buildings.boundary_strata(m)
    payload = {
        "true": [buildings.map_type_to_json_dict(b) for b in result.true_boundaries],
        "fake": [
            {
                "stratum": buildings.map_type_to_json_dict(f.stratum),
                "adjacent": [buildings.map_type_to_json_dict(a) for a in f.adjacent],
            }
            for f in result.fake_boundaries
        ],
    }
    _emit(out, payload)
    return EXIT_OK


# JSON key table of one sheet, read by rational.read to a (weight, id) pair
SHEET_JSON = (lambda weight, sid: (weight, sid), {
    "weight": ("weight", Fraction, True),
    "id": ("sid", str, True),
})


def _sheets_from_file(path: str) -> buildings.PerturbationSheets:
    with open(path) as handle:
        return buildings.PerturbationSheets(sheets=read(json.load(handle), [SHEET_JSON], "sheets"))


def _sheets_payload(p: buildings.PerturbationSheets) -> list:
    return [
        {"weight": rat_str(w), "id": sid}
        for w, sid in sorted(p.sheets, key=lambda item: (repr(item[1]), item[0]))
    ]


def cmd_sheets(args, out) -> int:
    p1 = _sheets_from_file(args.p1)
    p2 = _sheets_from_file(args.p2) if args.p2 else None
    result = buildings.pullback_sheets(p1, p2) if p2 is not None else p1
    if args.merge:
        result = buildings.merge_sheets(result)
    _emit(
        out,
        {
            "sheets": _sheets_payload(result),
            "count": result.count(),
            "weight_sum": rat_str(result.weight_sum()),
        },
    )
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _builtin_name(text: str) -> str:
    """`NAME@1` is the first version of the built-in `NAME`: the same object."""
    return text.removesuffix("@1")


def facet_pair(text: str) -> tuple[int, int]:
    """`i,j`: two facet indices.  argparse names this type in its error line."""
    i, j = (int(x) for x in text.split(","))
    return i, j


def _add_source(p: argparse.ArgumentParser, **applies) -> None:
    """Exactly one input source: a JSON file or a built-in name.

    `applies` maps the dest of an option that some sources do not take to
    a test of the parsed arguments; `run` rejects the option where it fails.
    """
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--file")
    source.add_argument("--builtin", type=_builtin_name)
    p.set_defaults(subparser=p, applies=applies)


def _from_builtin(args) -> bool:
    return args.builtin is not None


def _from_file(args) -> bool:
    return args.file is not None


def _from_scenario(args) -> bool:
    return args.builtin is not None and args.builtin != "symplectization"


def _from_symplectization(args) -> bool:
    return args.builtin == "symplectization"


def _reject_inapplicable(args) -> None:
    """A usage error (exit 2) for an option that the chosen source does not take."""
    for dest, applies in getattr(args, "applies", {}).items():
        if getattr(args, dest) is not None and not applies(args):
            source = "--file" if args.file is not None else f"--builtin {args.builtin}"
            args.subparser.error(f"argument --{dest.replace('_', '-')}: not allowed with {source}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lch",
        description="exact bookkeeping for Legendrian contact homology over circle-fibered geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="inspect a moment polytope, its cone and faces")
    _add_source(p, n=_from_builtin)
    p.add_argument("--n", type=int)
    p.add_argument("--cone", action="store_true")
    p.add_argument("--faces", action="store_true")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("reduce", help="reduction slice along a codimension-two face")
    _add_source(p, face=_from_file)
    p.add_argument("--face", type=facet_pair, help="comma-separated pair of facet indices")
    p.add_argument("--lam", help="comma-separated rational coordinates")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("lift", help="Legendrian lift criterion from disk areas")
    p.add_argument("--areas", required=True, help="comma-separated rational areas")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("chords", help="Reeb chord spectrum of a cyclic cover")
    p.add_argument("--cover", type=int, required=True)
    p.add_argument("--max-action", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_chords)

    p = sub.add_parser("generators", help="generator sets over a torus Morse model")
    p.add_argument("--cover", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-action", required=True)
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("tame", help="tameness verdict for a cobordism pair")
    _add_source(p, n=_from_scenario, tau_y=_from_symplectization, tau_z=_from_symplectization,
                w1=_from_symplectization, w2=_from_symplectization)
    p.add_argument("--n", type=int)
    p.add_argument("--tau-y", dest="tau_y")
    p.add_argument("--tau-z", dest="tau_z")
    p.add_argument("--w1")
    p.add_argument("--w2")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_tame)

    p = sub.add_parser("dim", help="domain or sphere-stratum dimensions")
    p.add_argument("--type", help="map type JSON file")
    p.add_argument("--chern")
    p.add_argument("--mult")
    p.add_argument("--e-black", dest="e_black", type=int)
    p.add_argument("--ambient", type=int)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("strata", help="boundary strata of a one-dimensional type")
    p.add_argument("--type", required=True, help="map type JSON file")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("sheets", help="multi-valued perturbation sheet algebra")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2")
    p.add_argument("--merge", action="store_true")
    p.set_defaults(func=cmd_sheets)

    return parser


def run(argv: Sequence[str], out=None) -> int:
    """Entry point used by tests: parse, dispatch, map errors to exit codes."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        _reject_inapplicable(args)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
