import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lchkit.rational import checked, rat, rat_str, rational_gcd, read, subgroup_of_rationals

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7/2") == Fraction(-7, 2)
    assert rat("5") == Fraction(5)
    assert rat(2) == Fraction(2)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


def test_rat_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("0.5")
    with pytest.raises(ValueError):
        rat("1/0")


def test_rat_rejects_booleans():
    with pytest.raises(ValueError):
        rat(True)


def test_checked_takes_exact_json_types():
    assert checked([1], list, "xs") == [1]
    assert checked(3, int, "n") == 3
    assert checked(False, bool, "flag") is False
    for value, kind in ((True, int), (2.0, int), ("2", int), ("vw", list), ("false", bool), (0, bool)):
        with pytest.raises(ValueError):
            checked(value, kind, "field")


POINT = (
    lambda x, y=Fraction(0), tags=(): (x, y, tags),
    {"x": ("x", Fraction, True), "y": ("y", Fraction, False), "tags": ("tags", [str], False)},
)


def test_read_follows_the_key_table():
    assert read({"x": "1/2"}, POINT, "point") == (Fraction(1, 2), 0, ())
    assert read({"x": 1, "y": "2", "tags": ["a"]}, POINT, "point") == (1, 2, ("a",))
    assert read([{"x": 1}], [POINT], "points") == ((1, 0, ()),)
    assert read({"p": {"x": 3}}, {str: POINT}, "named") == {"p": (3, 0, ())}
    assert read("3/4", Fraction, "q") == Fraction(3, 4)
    assert read(True, bool, "flag") is True


@pytest.mark.parametrize(
    "value, kind, message",
    [
        ({"y": "1"}, POINT, "point needs the key 'x'"),
        ({"x": "1", "z": "1"}, POINT, "point has an unknown key 'z'"),
        ({"x": "1", "tags": "ab"}, POINT, "tags must be a JSON list, not 'ab'"),
        ({"x": "1", "tags": ["a", 1]}, POINT, "an entry of tags must be a JSON string, not 1"),
        ([1], POINT, "point must be a JSON object, not [1]"),
        ([{"x": "1"}, {"x": "1", "Y": "1"}], [POINT], "an entry of point has an unknown key 'Y'"),
        ({"p": {}}, {str: POINT}, "an entry of point needs the key 'x'"),
        ({"x": "0.5"}, POINT, "x is not an exact rational: '0.5'"),
        ({"x": 1.5}, POINT, "x is not an exact rational: 1.5 (floats are not accepted)"),
    ],
)
def test_read_names_what_is_malformed(value, kind, message):
    with pytest.raises(ValueError) as info:
        read(value, kind, "point")
    assert str(info.value) == message


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 4)) == "2"
    assert rat(rat_str(Fraction(22, 7))) == Fraction(22, 7)


def test_subgroup_basic():
    g = subgroup_of_rationals([Fraction(1, 3), Fraction(1, 6)])
    assert g.kind == "discrete"
    assert g.generator == Fraction(1, 6)


def test_subgroup_trivial():
    g = subgroup_of_rationals([])
    assert g.kind == "discrete"
    assert g.generator is None
    assert g.is_trivial
    assert subgroup_of_rationals([Fraction(0)]).is_trivial


def test_subgroup_clifford_disks():
    for n in range(1, 13):
        assert subgroup_of_rationals([Fraction(1, n)]).generator == Fraction(1, n)


@given(st.lists(rationals, min_size=1, max_size=5))
def test_subgroup_generator_divides_and_is_combination(values):
    g = subgroup_of_rationals(values).generator
    nonzero = [v for v in values if v != 0]
    if not nonzero:
        assert g is None
        return
    # g divides every generator
    for v in nonzero:
        assert (v / g).denominator == 1
    # g is an integer combination of the generators: scale to a common
    # denominator and use stdlib integer gcd as the oracle
    den = math.lcm(*[v.denominator for v in nonzero])
    ints = [v * den for v in nonzero]
    assert all(x.denominator == 1 for x in ints)
    oracle = Fraction(math.gcd(*[abs(int(x)) for x in ints]), den)
    assert g == oracle


@given(rationals, rationals)
def test_rational_gcd_pairwise(a, b):
    g = rational_gcd([a, b])
    if a == 0 and b == 0:
        assert g == 0
        return
    for v in (a, b):
        if v != 0:
            assert (v / g).denominator == 1
