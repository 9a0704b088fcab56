"""docs/schemas.md and the JSON key tables name the same keys."""

import json
import re
from pathlib import Path

import pytest

import lchkit
from lchkit import buildings, cli, contact, polytopes, tameness
from lchkit.rational import read

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas.md"

# section title in docs/schemas.md -> the kind its example document is read by
INPUT_SECTIONS = {
    "Polytope": polytopes.POLYTOPE_JSON,
    "Fibered contact structure": contact.FIBERED_CONTACT_JSON,
    "Cobordism class data": tameness.CLASS_DATA_JSON,
    "Building / map type": buildings.MAP_TYPE_JSON,
    "Perturbation sheets": [cli.SHEET_JSON],
}


def section_example(title: str):
    """The JSON example of one `## title` section, decoded."""
    text = SCHEMAS.read_text()
    body = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```json\n(.*?)```", body, re.S)
    return json.loads(example)


def table_keys(kind) -> set[str]:
    """Every JSON key of the tables that `kind` reaches."""
    if type(kind) is list:
        return table_keys(kind[0])
    if type(kind) is dict:
        return table_keys(kind[str])
    if type(kind) is tuple:
        keys = kind[1]
        return set(keys).union(*(table_keys(item) for _, item, _ in keys.values()))
    return set()


def document_keys(value, kind) -> set[str]:
    """The JSON keys that a document read by `kind` uses (free keys of `{str: k}` excluded)."""
    if type(kind) is list:
        return set().union(*(document_keys(x, kind[0]) for x in value))
    if type(kind) is dict:
        return set().union(*(document_keys(x, kind[str]) for x in value.values()))
    if type(kind) is tuple:
        keys = kind[1]
        return set(value).union(*(document_keys(x, keys[key][1]) for key, x in value.items()))
    return set()


@pytest.mark.parametrize("title", sorted(INPUT_SECTIONS))
def test_schema_examples_name_every_table_key(title):
    kind = INPUT_SECTIONS[title]
    example = section_example(title)
    read(example, kind, title)  # the example is a well-formed input
    assert document_keys(example, kind) == table_keys(kind)


def test_only_rational_calls_checked():
    package = Path(lchkit.__file__).parent
    callers = sorted(path.name for path in package.glob("*.py") if "checked(" in path.read_text())
    assert callers == ["rational.py"]
