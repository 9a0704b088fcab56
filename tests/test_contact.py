from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lchkit.contact import (
    Base,
    BaseClass,
    FiberedContact,
    FiberedUnion,
    GroupAction,
    LegendrianLift,
    construct,
    fibered_contact_from_json,
    fibered_contact_to_json,
    holonomy_of_disk,
    lift_exists,
    sphere_over_projective_space,
    tame_pair_check,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


# -- holonomy -----------------------------------------------------------------


def test_holonomy_examples():
    assert holonomy_of_disk(Fraction(1, 5)) == Fraction(1, 5)
    assert holonomy_of_disk(Fraction(1)) == 0
    assert holonomy_of_disk(Fraction(7, 3)) == Fraction(1, 3)
    assert holonomy_of_disk(Fraction(-1, 4)) == Fraction(3, 4)


@given(rationals, rationals)
def test_holonomy_is_a_homomorphism(a, b):
    lhs = holonomy_of_disk(a + b)
    rhs = holonomy_of_disk(holonomy_of_disk(a) + holonomy_of_disk(b))
    assert lhs == rhs
    assert 0 <= lhs < 1


# -- lift criterion -----------------------------------------------------------


def test_lift_clifford_cover():
    for n in range(1, 13):
        result = lift_exists([Fraction(1, n)])
        assert result.exists
        assert result.fiber_order_divisor == n


def test_lift_section_case():
    result = lift_exists([Fraction(1)])
    assert result.exists
    assert result.fiber_order_divisor == 1


def test_lift_mixed_generators():
    assert lift_exists([Fraction(1, 2), Fraction(1, 3)]).fiber_order_divisor == 6


def test_lift_trivial_subgroup():
    assert lift_exists([]).fiber_order_divisor == 1


@given(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12), min_size=1, max_size=5))
def test_lift_matches_gcd_denominator(areas):
    import math

    result = lift_exists(areas)
    den = math.lcm(*[a.denominator for a in areas])
    nums = [int(a * den) for a in areas]
    g = Fraction(math.gcd(*nums), den)
    assert result.fiber_order_divisor == g.denominator


def test_legendrian_lift_record_consistency():
    lift = LegendrianLift(
        lagrangian="clifford", torus_rank=2, cover_order=3, area_generator=Fraction(1, 3)
    )
    assert lift.cover_order * lift.area_generator == 1
    with pytest.raises(ValueError):
        LegendrianLift(
            lagrangian="bad", torus_rank=1, cover_order=2, area_generator=Fraction(1, 3)
        )


# -- constructions ------------------------------------------------------------


def test_finite_cover_scales_curvature():
    z = sphere_over_projective_space(3)
    cover = construct("finite_cover", [z], m=2)
    assert cover.tau_Z == 2
    assert cover.tau_Y == z.tau_Y


def test_finite_cover_composition():
    z = sphere_over_projective_space(4)
    a = construct("finite_cover", [construct("finite_cover", [z], m=2)], m=3)
    b = construct("finite_cover", [z], m=6)
    assert a.tau_Z == b.tau_Z == 6


def test_finite_cover_rejects_bad_order():
    z = sphere_over_projective_space(3)
    with pytest.raises(ValueError):
        construct("finite_cover", [z], m=0)


def test_tensor_adds_curvature_multiples():
    # line-bundle degree oracle: deg(L1 (x) L2) = deg L1 + deg L2
    z1 = FiberedContact(base=Base("Y"), tau_Z=Fraction(2, 3))
    z2 = FiberedContact(base=Base("Y"), tau_Z=Fraction(1, 3))
    t = construct("tensor", [z1, z2])
    assert t.tau_Z == Fraction(2, 3) + Fraction(1, 3)
    assert t.base == z1.base


def test_tensor_requires_common_base():
    z1 = FiberedContact(base=Base("Y1"), tau_Z=1)
    z2 = FiberedContact(base=Base("Y2"), tau_Z=1)
    with pytest.raises(ValueError):
        construct("tensor", [z1, z2])


def test_union_commutative_up_to_relabeling():
    z1 = sphere_over_projective_space(3)
    z2 = FiberedContact(base=Base("other"), tau_Z=2, tau_Y=Fraction(5))
    u12 = construct("union", [z1, z2])
    u21 = construct("union", [z2, z1])
    assert isinstance(u12, FiberedUnion)
    assert sorted(map(repr, u12.components)) == sorted(map(repr, u21.components))


def test_exterior_tensor_equal_multiples():
    z1 = sphere_over_projective_space(3)
    z2 = sphere_over_projective_space(3)
    prod = construct("exterior_tensor", [z1, z2])
    assert prod.tau_Z == 1
    assert prod.tau_Y == 3  # both factors have tau_Y / tau_Z = 3
    assert len(prod.base.classes) == 2


def test_exterior_tensor_mismatched_multiples():
    z1 = FiberedContact(base=Base("A", (BaseClass("a", Fraction(1)),)), tau_Z=2, tau_Y=6)
    z2 = FiberedContact(base=Base("B", (BaseClass("b", Fraction(1)),)), tau_Z=3, tau_Y=9)
    prod = construct("exterior_tensor", [z1, z2])
    assert prod.tau_Z == 1
    # areas renormalized by the factor multiples
    assert [c.omega for c in prod.base.classes] == [2, 3]
    assert prod.tau_Y == 3  # common ratio tau_Y / tau_Z


def test_quotient_reduces_pairing_table():
    base = Base("Y", (BaseClass("a", Fraction(1)), BaseClass("b", Fraction(2))))
    z = FiberedContact(base=base, tau_Z=1, tau_Y=3)
    q = construct("quotient", [z], action=GroupAction(label="S1", removed_classes=("b",)))
    assert [c.label for c in q.base.classes] == ["a"]
    assert q.tau_Z == z.tau_Z


# -- tameness of the pair -----------------------------------------------------


def test_sphere_tameness_threshold():
    # S^(2n-1) over projective space: tau_Z = 1, tau_Y = n
    assert not tame_pair_check(sphere_over_projective_space(2))
    assert tame_pair_check(sphere_over_projective_space(3))
    assert tame_pair_check(sphere_over_projective_space(6))


def test_tameness_requires_tau_y():
    z = FiberedContact(base=Base("Y"), tau_Z=1)
    with pytest.raises(ValueError):
        tame_pair_check(z)


def test_tameness_threshold_cases():
    assert not tame_pair_check(FiberedContact(base=Base("Y"), tau_Z=1, tau_Y=2))
    assert tame_pair_check(FiberedContact(base=Base("Y"), tau_Z=1, tau_Y=3))
    assert not tame_pair_check(FiberedContact(base=Base("Y"), tau_Z=Fraction(1, 2), tau_Y=4))


def test_finite_cover_preserves_tameness_of_base_data():
    z = sphere_over_projective_space(4)
    cover = construct("finite_cover", [z], m=2)
    assert tame_pair_check(z) == tame_pair_check(cover)


# -- serialization --------------------------------------------------------


def test_fibered_contact_json_roundtrip():
    for z in (sphere_over_projective_space(3), FiberedContact(base=Base("Y"), tau_Z=Fraction(1, 2))):
        text = fibered_contact_to_json(z)
        again = fibered_contact_from_json(text)
        assert again == z
        assert fibered_contact_to_json(again) == text


def test_fibered_contact_rejects_nonpositive_curvature():
    with pytest.raises(ValueError):
        FiberedContact(base=Base("Y"), tau_Z=0)
