import hashlib
import io
import json
from fractions import Fraction

import pytest

from lchkit.buildings import map_type_to_json, map_type_to_json_dict
from lchkit.cli import run
from lchkit.polytopes import fano_simplex, polytope_from_json, polytope_to_json, standard_simplex
from lchkit.tameness import class_data_to_json, trivial_cobordism


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_lift_text_output():
    code, text = invoke(["lift", "--areas", "1/3"])
    assert code == 0
    assert text.strip() == "lift exists; fiber order divides 3"


def test_lift_json_mixed():
    code, text = invoke(["lift", "--areas", "1/2,1/3", "--format", "json"])
    assert code == 0
    assert json.loads(text) == {"lift": True, "fiber_order_divisor": 6}


def test_lift_rejects_floats():
    code, _ = invoke(["lift", "--areas", "0.5"])
    assert code == 2


def test_chords_tsv_rows():
    code, text = invoke(["chords", "--cover", "2", "--max-action", "2"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].split("\t") == ["d", "m", "action", "start_sheet", "end_sheet"]
    actions = [line.split("\t")[2] for line in lines[1:]]
    assert actions == ["1/2", "1", "3/2", "2"]


def test_generators_counts():
    code, text = invoke(
        ["generators", "--cover", "2", "--rank", "1", "--max-action", "2"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["white_count"] == 8
    assert payload["black_count"] == 2
    assert payload["total"] == 10


def test_tame_builtin_harvey_lawson():
    code, text = invoke(["tame", "--builtin", "harvey-lawson", "--n", "3"])
    assert code == 0
    payload = json.loads(text)
    assert payload["lambda_minus"] == "2"
    assert payload["p3_vacuous"] is True
    assert payload["tame"] is True


def test_tame_text_format():
    code, text = invoke(
        ["tame", "--builtin", "harvey-lawson", "--n", "3", "--format", "text"]
    )
    assert code == 0
    assert "tame" in text and "lambda_minus = 2" in text


def test_tame_negative_exit_code():
    code, text = invoke(["tame", "--builtin", "ball-blowup", "--n", "3"])
    assert code == 3
    payload = json.loads(text)
    assert payload["p2"] is False


def test_tame_trivial_cobordism_threshold():
    code2, _ = invoke(["tame", "--builtin", "trivial-cobordism", "--n", "2"])
    code3, _ = invoke(["tame", "--builtin", "trivial-cobordism", "--n", "3"])
    assert code2 == 3
    assert code3 == 0


def test_tame_symplectization():
    code, text = invoke(
        [
            "tame",
            "--builtin",
            "symplectization",
            "--tau-y",
            "4",
            "--tau-z",
            "1",
            "--w1",
            "1",
            "--w2",
            "2",
        ]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["lambda_minus"] == "4"
    assert payload["lambda_plus"] == "1"


def test_tame_from_file(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(class_data_to_json(trivial_cobordism(4)))
    code, text = invoke(["tame", "--file", str(path)])
    assert code == 0
    assert json.loads(text)["lambda_minus"] == "3"


def test_tame_requires_single_source(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(class_data_to_json(trivial_cobordism(4)))
    code, _ = invoke(
        ["tame", "--file", str(path), "--builtin", "harvey-lawson", "--n", "3"]
    )
    assert code == 2


def test_polytope_inspect_and_faces(tmp_path):
    path = tmp_path / "simplex.json"
    path.write_text(polytope_to_json(standard_simplex(3)))
    code, text = invoke(["polytope", "--file", str(path), "--faces", "--cone"])
    assert code == 0
    payload = json.loads(text)
    assert payload["compact"] is True
    assert len(payload["codim2_faces"]) == 3
    assert payload["cone"]["dim"] == 3


def test_polytope_builtin():
    code, text = invoke(["polytope", "--builtin", "cube", "--n", "2"])
    assert code == 0
    assert len(json.loads(text)["vertices"]) == 4


def test_reduce_builtin():
    code, text = invoke(["reduce", "--builtin", "harvey-lawson"])
    assert code == 0
    payload = json.loads(text)
    assert payload["smooth"] is False
    assert payload["test_vectors"] == [[1, 1, -2, 0], [-1, 2, -1, 1], [2, -1, -1, 1]]


def test_reduce_from_file(tmp_path):
    from lchkit.polytopes import fano_simplex

    path = tmp_path / "fano.json"
    path.write_text(polytope_to_json(fano_simplex(3)))
    code, text = invoke(
        ["reduce", "--file", str(path), "--face", "0,1", "--lam=-1/2,-1/2"]
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["filling_line"]["t_min"] == "1/2"
    assert payload["filling_line"]["t_max"] is None
    code, _ = invoke(
        ["reduce", "--file", str(path), "--face", "0,1", "--lam", "0,0"]
    )
    assert code == 2  # lambda on the boundary of hull(face, 0)


def test_dim_sphere_formula():
    code, text = invoke(["dim", "--chern", "3", "--mult", "1"])
    assert code == 0
    assert json.loads(text) == {"sphere_stratum_dim": "2"}


def _two_disk_map_type():
    from lchkit.buildings import BuildingType, Edge, GeneratorLabel, MapType, Vertex

    t = BuildingType(
        vertices=(Vertex("u", "disk"), Vertex("w", "disk")),
        edges=(
            Edge("a", ("u",), "white-"),
            Edge("b", ("u",), "white-"),
            Edge("mid", ("u", "w"), "L", "finite"),
            Edge("c", ("w",), "white+"),
            Edge("d", ("w",), "white+"),
        ),
    )
    labels = {
        "a": GeneratorLabel(kind="chord", direction="in", action=Fraction(1)),
        "b": GeneratorLabel(kind="chord", direction="in", action=Fraction(1)),
        "c": GeneratorLabel(kind="chord", direction="out", action=Fraction(1)),
        "d": GeneratorLabel(kind="chord", direction="out", action=Fraction(1)),
    }
    return MapType(building=t, labels=labels)


def test_dim_and_strata_from_type_file(tmp_path):
    path = tmp_path / "type.json"
    path.write_text(map_type_to_json(_two_disk_map_type()))

    code, text = invoke(["dim", "--type", str(path)])
    assert code == 0
    assert json.loads(text) == {"domain_dim": 1}

    code, text = invoke(["strata", "--type", str(path)])
    assert code == 0
    payload = json.loads(text)
    assert len(payload["true"]) == 2
    assert len(payload["fake"]) == 1


def test_sheets_pullback(tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    p1.write_text(json.dumps([{"weight": "1/2", "id": "A"}, {"weight": "1/2", "id": "B"}]))
    p2.write_text(json.dumps([{"weight": "1/3", "id": "C"}, {"weight": "2/3", "id": "D"}]))
    code, text = invoke(["sheets", "--p1", str(p1), "--p2", str(p2)])
    assert code == 0
    payload = json.loads(text)
    assert payload["count"] == 4
    assert payload["weight_sum"] == "1"


def test_outputs_deterministic():
    for argv in (
        ["chords", "--cover", "3", "--max-action", "2"],
        ["tame", "--builtin", "harvey-lawson", "--n", "4"],
        ["reduce", "--builtin", "harvey-lawson"],
        ["generators", "--cover", "2", "--rank", "2", "--max-action", "1"],
    ):
        _, first = invoke(argv)
        _, second = invoke(argv)
        assert first == second


def test_roundtrip_of_emitted_json(tmp_path):
    # every JSON the tool emits re-parses under the corresponding schema
    code, text = invoke(["polytope", "--builtin", "simplex", "--n", "4"])
    assert code == 0
    payload = json.loads(text)
    polytope_from_json(json.dumps(payload["polytope"]))

    code, text = invoke(["tame", "--builtin", "trivial-cobordism", "--n", "4"])
    assert code == 0
    json.loads(text)  # verdict schema is flat JSON


def test_strata_output_reparses(tmp_path):
    from fractions import Fraction as F

    from lchkit.buildings import (
        BuildingType,
        Edge,
        GeneratorLabel,
        MapType,
        Vertex,
        map_type_from_json,
    )

    t = BuildingType(
        vertices=(Vertex("u", "disk"), Vertex("w", "disk")),
        edges=(
            Edge("a", ("u",), "white-"),
            Edge("b", ("u",), "white-"),
            Edge("mid", ("u", "w"), "white+", "finite"),
            Edge("c", ("w",), "white+"),
            Edge("d", ("w",), "white+"),
        ),
    )
    labels = {
        eid: GeneratorLabel(
            kind="chord", direction="in" if eid in ("a", "b") else "out", action=F(1)
        )
        for eid in ("a", "b", "c", "d")
    }
    path = tmp_path / "type.json"
    path.write_text(map_type_to_json(MapType(building=t, labels=labels)))
    code, text = invoke(["strata", "--type", str(path)])
    assert code == 0
    payload = json.loads(text)
    for entry in payload["true"]:
        map_type_from_json(json.dumps(entry))
    for fake in payload["fake"]:
        map_type_from_json(json.dumps(fake["stratum"]))
        for adj in fake["adjacent"]:
            map_type_from_json(json.dumps(adj))


def test_unknown_subcommand_is_bad_input():
    code, _ = invoke(["frobnicate"])
    assert code == 2


def test_color_env_toggle(monkeypatch):
    monkeypatch.setenv("LCH_COLOR", "1")
    code, text = invoke(["lift", "--areas", "1/2"])
    assert code == 0
    assert "\x1b[32m" in text
    monkeypatch.setenv("LCH_COLOR", "0")
    _, plain = invoke(["lift", "--areas", "1/2"])
    assert "\x1b[" not in plain


# -- strict JSON types at the input boundary ----------------------------------


DROP = object()  # a change that removes its key


def _edit(entry: dict, changes: dict) -> None:
    entry.update(changes)
    for key in [key for key, value in changes.items() if value is DROP]:
        del entry[key]


def _polytope_doc(n=3, facet=None, **changes):
    data = standard_simplex(n).to_json_dict()
    _edit(data, changes)
    _edit(data["facets"][0], facet or {})
    return data


def _type_doc_with_mid(**changes):
    data = map_type_to_json_dict(_two_disk_map_type())
    mid = next(e for e in data["edges"] if e["id"] == "mid")
    _edit(mid, changes)
    return data


def _class_doc(**changes):
    data = trivial_cobordism(4).to_json_dict()
    _edit(data["classes"][0], changes)
    return data


def _ends_doc(**changes):
    data = trivial_cobordism(4).to_json_dict()
    _edit(data["ends"], changes)
    return data


def _type_doc_with_numeric_id(where):
    """The two-disk type with vertex "u" renamed "1", and the integer 1 at `where`."""
    data = json.loads(map_type_to_json(_two_disk_map_type()).replace('"u"', '"1"'))
    if where == "vertex":
        data["vertices"][0]["id"] = 1
    else:
        mid = next(e for e in data["edges"] if e["id"] == "mid")
        mid["ends"] = [1, "w"]
    return data


def _type_doc_with_label(**changes):
    data = map_type_to_json_dict(_two_disk_map_type())
    _edit(next(e for e in data["edges"] if "label" in e)["label"], changes)
    return data


# (subcommand, file flag, document): each document has one value of the wrong JSON
# type or one key that its object does not have
MALFORMED = {
    "facets-not-a-list": ("polytope", "--file", lambda: {"dim": 2, "facets": 5}),
    "normal-entry-float": ("polytope", "--file", lambda: _polytope_doc(facet={"normal": [1.5, 0]})),
    "normal-entry-string": ("polytope", "--file", lambda: _polytope_doc(facet={"normal": ["1", 0]})),
    "dim-float": ("polytope", "--file", lambda: _polytope_doc(dim=2.9)),
    "dim-bool": ("polytope", "--file", lambda: _polytope_doc(n=2, dim=True)),
    "offset-bool": ("polytope", "--file", lambda: _polytope_doc(facet={"offset": True})),
    "polytope-not-an-object": ("polytope", "--file", lambda: [2, []]),
    "ends-string": ("dim", "--type", lambda: _type_doc_with_mid(ends="uw")),
    "level-string": (
        "dim", "--type",
        lambda: {**map_type_to_json_dict(_two_disk_map_type()),
                 "vertices": [{"id": "u", "kind": "disk", "level": "0"},
                              {"id": "w", "kind": "disk", "level": 0}]},
    ),
    "decorations-not-an-object": (
        "dim", "--type", lambda: {**map_type_to_json_dict(_two_disk_map_type()), "decorations": []},
    ),
    "p2-string": ("tame", "--file", lambda: _class_doc(p2="false")),
    "flag-integer": (
        "tame", "--file", lambda: {**trivial_cobordism(4).to_json_dict(), "simply_connected": 0},
    ),
    "ends-classes-not-a-list": (
        "tame", "--file",
        lambda: {**trivial_cobordism(4).to_json_dict(),
                 "ends": {"base": {"label": "B", "classes": "line"}, "tau_Z": "1"}},
    ),
    "sheets-not-a-list": ("sheets", "--p1", lambda: {"weight": "1", "id": "A"}),
    "sheet-id-float": ("sheets", "--p1", lambda: [{"weight": "1", "id": 1.5}]),
    "sheet-id-integer": ("sheets", "--p1", lambda: [{"weight": "1", "id": 1}]),
    "vertex-id-integer": ("dim", "--type", lambda: _type_doc_with_numeric_id("vertex")),
    "end-id-integer": ("dim", "--type", lambda: _type_doc_with_numeric_id("ends")),
    "edge-id-integer": ("dim", "--type", lambda: _type_doc_with_mid(id=7)),
    "label-name-integer": ("dim", "--type", lambda: _type_doc_with_label(name=7)),
    "label-component-list": ("dim", "--type", lambda: _type_doc_with_label(component=["L"])),
    "class-label-integer": ("tame", "--file", lambda: _class_doc(label=1)),
    "class-data-name-integer": (
        "tame", "--file", lambda: {**trivial_cobordism(4).to_json_dict(), "name": 4},
    ),
    "base-label-integer": (
        "tame", "--file",
        lambda: {**trivial_cobordism(4).to_json_dict(),
                 "ends": {"base": {"label": 2, "classes": []}, "tau_Z": "1"}},
    ),
    "base-class-label-integer": (
        "tame", "--file",
        lambda: {**trivial_cobordism(4).to_json_dict(),
                 "ends": {"base": {"label": "B", "classes": [{"label": 1, "omega": "1"}]},
                          "tau_Z": "1"}},
    ),
    "label-direction-null": ("dim", "--type", lambda: _type_doc_with_label(kind="interior",
                                                                           direction=None)),
    "polytope-key-equation": ("polytope", "--file", lambda: _polytope_doc(equation=[])),
    "decoration-key-y_minus": (
        "dim", "--type",
        lambda: {**map_type_to_json_dict(_two_disk_map_type()),
                 "decorations": {"u": {"y_minus": "5"}}},
    ),
    "edge-key-lenght": ("dim", "--type", lambda: _type_doc_with_mid(lenght="broken")),
    "class-key-P2": ("tame", "--file", lambda: _class_doc(P2=False)),
    "sheet-key-note": ("sheets", "--p1", lambda: [{"weight": "1", "id": "A", "note": "x"}]),
    "ends-key-tauY": ("tame", "--file", lambda: _ends_doc(tauY="3")),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_wrong_json_type_is_bad_input(tmp_path, capsys, shape):
    command, flag, make = MALFORMED[shape]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make()))
    code, text = invoke([command, flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# (subcommand, file flag, document, error line): each document lacks one required key
MISSING_KEY = {
    "sheet-id": ("sheets", "--p1", lambda: [{"weight": "1"}],
                 "an entry of sheets needs the key 'id'"),
    "polytope-dim": ("polytope", "--file", lambda: _polytope_doc(dim=DROP),
                     "polytope needs the key 'dim'"),
    "class-omega": ("tame", "--file", lambda: _class_doc(omega=DROP),
                    "an entry of classes needs the key 'omega'"),
    "edge-ends": ("dim", "--type", lambda: _type_doc_with_mid(ends=DROP),
                  "an entry of edges needs the key 'ends'"),
    "label-kind": ("dim", "--type", lambda: _type_doc_with_label(kind=DROP),
                   "label needs the key 'kind'"),
    "ends-tau_Z": ("tame", "--file", lambda: _ends_doc(tau_Z=DROP), "ends needs the key 'tau_Z'"),
    "ends-base": ("tame", "--file", lambda: _ends_doc(base=DROP), "ends needs the key 'base'"),
    "base-label": ("tame", "--file", lambda: _ends_doc(base={"classes": []}),
                   "base needs the key 'label'"),
}


@pytest.mark.parametrize("shape", sorted(MISSING_KEY))
def test_missing_key_names_key_and_object(tmp_path, capsys, shape):
    command, flag, make, message = MISSING_KEY[shape]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make()))
    code, text = invoke([command, flag, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


# (subcommand, file flag, document, error line): each document has one inexact rational
BAD_RATIONAL = {
    "polytope-offset": ("polytope", "--file", lambda: _polytope_doc(facet={"offset": "0.5"}),
                        "offset is not an exact rational: '0.5'"),
    "class-omega": ("tame", "--file", lambda: _class_doc(omega=1.5),
                    "omega is not an exact rational: 1.5 (floats are not accepted)"),
}


@pytest.mark.parametrize("shape", sorted(BAD_RATIONAL))
def test_bad_rational_names_its_key(tmp_path, capsys, shape):
    command, flag, make, message = BAD_RATIONAL[shape]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make()))
    code, text = invoke([command, flag, str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("face", ["0", "0,x", "0,1,2"])
def test_reduce_face_is_parsed_by_argparse(tmp_path, capsys, face):
    path = tmp_path / "fano.json"
    path.write_text(polytope_to_json(fano_simplex(3)))
    code, text = invoke(["reduce", "--file", str(path), "--face", face, "--lam=-1/2,-1/2"])
    err = capsys.readouterr().err
    assert (code, text) == (2, "")
    assert err.startswith("usage: lch reduce")
    assert err.splitlines()[-1].startswith("lch reduce: error: argument --face: ")


def test_sheets_read_back_what_sheets_writes(tmp_path):
    from lchkit.buildings import PerturbationSheets
    from lchkit.cli import _sheets_from_file, _sheets_payload

    for sheets in (
        ((Fraction(1), "A"),),
        ((Fraction(2, 3), "B"), (Fraction(1, 6), "A"), (Fraction(1, 6), "A")),
    ):
        path = tmp_path / "sheets.json"
        path.write_text(json.dumps(_sheets_payload(PerturbationSheets(sheets))))
        assert sorted(_sheets_from_file(str(path)).sheets) == sorted(sheets)



# -- output bytes and exit codes, pinned ----------------------------------------

# documents the pinned invocations read; an argv entry equal to a key is its path
GUARD_FILES = {
    "FANO": lambda: polytope_to_json(fano_simplex(3)),
    "CLASS": lambda: class_data_to_json(trivial_cobordism(4)),
    "TYPE": lambda: map_type_to_json(_two_disk_map_type()),
    "SHEETS1": lambda: json.dumps([{"weight": "1/3", "id": "A"}, {"weight": "2/3", "id": "B"}]),
    "SHEETS2": lambda: json.dumps([{"weight": "1/2", "id": "C"}, {"weight": "1/2", "id": "C"}]),
}

SYMPLECTIZATION = "--tau-y 4 --tau-z 1 --w1 1 --w2 2"

# command line -> (exit code, sha256 of stdout)
BYTE_GUARD = {
    "polytope --builtin simplex --faces --cone":
        (0, "4ea18829b6ea8e8a84dd0b3fbd4b82fe10441cfbfd6de628a79127853085ca86"),
    "polytope --builtin simplex@1 --faces --cone":
        (0, "4ea18829b6ea8e8a84dd0b3fbd4b82fe10441cfbfd6de628a79127853085ca86"),
    "polytope --builtin fano-simplex --n 4 --faces --cone":
        (0, "506f3d86069c9ce32594fcd498062b04c85ee2919dfb6f5f2e2adf26a007f23e"),
    "polytope --builtin fano-simplex@1 --n 4 --faces --cone":
        (0, "506f3d86069c9ce32594fcd498062b04c85ee2919dfb6f5f2e2adf26a007f23e"),
    "polytope --builtin cube --n 3 --faces --cone":
        (0, "8ed1211312e53d5d86381568b5397855e1d1c9c76c52368f61534ffcdb860504"),
    "polytope --builtin cube@1 --n 3 --faces --cone":
        (0, "8ed1211312e53d5d86381568b5397855e1d1c9c76c52368f61534ffcdb860504"),
    "reduce --builtin harvey-lawson":
        (0, "e2dea1968868d0594a2e6c942b90e0f95ed6df28e8ecdae09bd298bdc04d7c96"),
    "reduce --builtin harvey-lawson@1":
        (0, "e2dea1968868d0594a2e6c942b90e0f95ed6df28e8ecdae09bd298bdc04d7c96"),
    "reduce --file FANO --face 0,1 --lam=-1/2,-1/2":
        (0, "623d14ad9a156eedf6912cd9aa8fb5519d6312ad9f1351de839e5d46f5514ca9"),
    "tame --builtin trivial-cobordism --n 3":
        (0, "ad2525c4d348c6392ff6391169eae1f8d9e25dd5f7abf0962d3b0d669ec4a49f"),
    "tame --builtin trivial-cobordism@1 --n 3":
        (0, "ad2525c4d348c6392ff6391169eae1f8d9e25dd5f7abf0962d3b0d669ec4a49f"),
    "tame --builtin harvey-lawson --n 3":
        (0, "f3bc6b02268d98951b295ee9cb1d2cca8deae72d924aa7ab039f797a22a53b26"),
    "tame --builtin harvey-lawson@1 --n 3":
        (0, "f3bc6b02268d98951b295ee9cb1d2cca8deae72d924aa7ab039f797a22a53b26"),
    "tame --builtin ball-blowup --n 4":
        (3, "f5a4ce5313ee34efd69c42490bceec1ab3c5e11bd2146bad19edd3d0f6fe2e65"),
    "tame --builtin ball-blowup@1 --n 4":
        (3, "f5a4ce5313ee34efd69c42490bceec1ab3c5e11bd2146bad19edd3d0f6fe2e65"),
    f"tame --builtin symplectization {SYMPLECTIZATION}":
        (0, "e8db5359b530d95f393c26c7aa5146bf73b36068adf6009eb60390b01bff0554"),
    f"tame --builtin symplectization@1 {SYMPLECTIZATION}":
        (0, "e8db5359b530d95f393c26c7aa5146bf73b36068adf6009eb60390b01bff0554"),
    "tame --builtin ball-blowup --n 3 --format text":
        (3, "0d8d08dbbb6aff942766371567eadfb6d9dce67f2b5c801c7dc3bc33c6f431f6"),
    "tame --file CLASS":
        (0, "04cbc4c0f8c1827f277c12da7cf8fb5b871ceda8b3d451d3dc9dd9a9504d6b21"),
    "lift --areas 1/2,1/3":
        (0, "3f4e8d7212495828457d1e5cfd859afd84835d3e7fe3e9f99f8c72fe52f12a66"),
    "lift --areas 1/2,1/3 --format json":
        (0, "16d40f165e4c3b01a574b1874f0894220ae3de9dc796d46bc3d9f429f319e6c0"),
    "chords --cover 3 --max-action 2":
        (0, "a1fdf19dd4cb188809a6b4d859fb107c8e80467fdbac896ec5c3bb7d0baeb59e"),
    "chords --cover 3 --max-action 2 --format json":
        (0, "5d67b215ac51d5683d976eb599b8655778f3e9e845845e67fa4529ab802bdeaa"),
    "generators --cover 2 --rank 2 --max-action 2":
        (0, "bbda109ca099b73833fa0c2157d604290a42a5afd3b6860d893236933f35cd5d"),
    "dim --chern 5/2 --mult 1 --e-black 1 --ambient 4":
        (0, "42e9bdb83b84f14d9b4452dba90b5d05790406afefd1720b236207b7bfe495c3"),
    "dim --type TYPE":
        (0, "597e6eb148f51147754c5d968fbe3cb7e803006f90d99387bb4f1d7d994fe897"),
    "strata --type TYPE":
        (0, "2ec5fcbe649898b1560606202298f49281af988a0dcf57f019f651ed6d6180f6"),
    "sheets --p1 SHEETS1 --p2 SHEETS2 --merge":
        (0, "2dce5aefdb0f4ba3a78ca2ee221a2abd1874d8c3ae717db163a0eecb481dc1ea"),
}


@pytest.mark.parametrize("command_line", sorted(BYTE_GUARD))
def test_output_bytes_pinned(tmp_path, command_line):
    paths = {key: tmp_path / f"{key.lower()}.json" for key in GUARD_FILES}
    for key, make in GUARD_FILES.items():
        paths[key].write_text(make())
    code, text = invoke([str(paths.get(word, word)) for word in command_line.split()])
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == BYTE_GUARD[command_line]


@pytest.mark.parametrize("command", ["polytope", "reduce", "tame"])
@pytest.mark.parametrize("sources", ["neither", "both"])
def test_exactly_one_source(tmp_path, capsys, command, sources):
    argv = [command]
    if sources == "both":
        path = tmp_path / "input.json"
        path.write_text(class_data_to_json(trivial_cobordism(4)))
        argv += ["--file", str(path), "--builtin", "harvey-lawson"]
    code, text = invoke(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert text == "" and captured.out == ""
    assert captured.err.startswith(f"usage: lch {command}")
    assert captured.err.splitlines()[-1].startswith(f"lch {command}: error: ")


# an option that the chosen source does not take, and the error line it gets;
# FANO and CLASS stand for the paths of the GUARD_FILES documents
INAPPLICABLE = {
    "tame --builtin harvey-lawson --n 3 --tau-y 4 --w1 9":
        "argument --tau-y: not allowed with --builtin harvey-lawson",
    "tame --builtin harvey-lawson@1 --n 3 --w2 1":
        "argument --w2: not allowed with --builtin harvey-lawson",
    "tame --builtin symplectization --n 3 --tau-y 2 --tau-z 3 --w1 1 --w2 2":
        "argument --n: not allowed with --builtin symplectization",
    "tame --file CLASS --n 4": "argument --n: not allowed with --file",
    "tame --file CLASS --tau-y 2": "argument --tau-y: not allowed with --file",
    "tame --file CLASS --tau-z 3": "argument --tau-z: not allowed with --file",
    "tame --file CLASS --w1 1": "argument --w1: not allowed with --file",
    "tame --file CLASS --w2 1": "argument --w2: not allowed with --file",
    "polytope --file FANO --n 3": "argument --n: not allowed with --file",
    "reduce --builtin harvey-lawson --face 0,1":
        "argument --face: not allowed with --builtin harvey-lawson",
}


@pytest.mark.parametrize("command_line", sorted(INAPPLICABLE))
def test_option_not_taken_by_source_is_usage_error(tmp_path, capsys, command_line):
    paths = {key: tmp_path / f"{key.lower()}.json" for key in ("FANO", "CLASS")}
    for key, path in paths.items():
        path.write_text(GUARD_FILES[key]())
    argv = [str(paths.get(word, word)) for word in command_line.split()]
    code, text = invoke(argv)
    err = capsys.readouterr().err
    assert (code, text) == (2, "")
    assert err.startswith(f"usage: lch {argv[0]}")
    assert err.splitlines()[-1] == f"lch {argv[0]}: error: {INAPPLICABLE[command_line]}"


SUBCOMMANDS = [
    "polytope", "reduce", "lift", "chords", "generators", "tame", "dim", "strata", "sheets",
]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help(capsys, command):
    code, _ = invoke([command, "-h"])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"usage: lch {command}")
