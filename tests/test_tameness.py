import hashlib
import json
import random
from fractions import Fraction

import pytest

from lchkit.buildings import (
    BuildingType,
    Edge,
    GeneratorLabel,
    MapType,
    Vertex,
    VertexDecoration,
)
from lchkit.tameness import (
    CobordismClassData,
    CurveClassData,
    ball_blowup,
    builtin_scenario,
    check_tame,
    class_data_from_json,
    class_data_to_json,
    harvey_lawson_filling,
    no_cap_filter,
    scenario_verdict,
    symplectization_truncation,
    trivial_cobordism,
)


# -- worked scenarios -----------------------------------------------------------


def test_trivial_cobordism_constants():
    for n in range(2, 7):
        verdict = check_tame(trivial_cobordism(n))
        assert verdict.lambda_minus == n - 1
        assert verdict.lambda_plus == 1
        assert verdict.p1 and verdict.p2 and verdict.p3
        assert not verdict.p3_vacuous


def test_trivial_cobordism_tame_iff_n_greater_two():
    # P1-P3 hold from n = 2 on, but the cylinder's own ends are tame only
    # once the base monotonicity constant reaches three
    for n in range(2, 7):
        scenario = scenario_verdict(trivial_cobordism(n))
        assert scenario.tame == (n > 2)
        assert scenario.ends_tame == (n >= 3)


def test_harvey_lawson_constants():
    for n in range(2, 7):
        verdict = check_tame(harvey_lawson_filling(n))
        assert verdict.lambda_minus == n - 1
        assert verdict.p3_vacuous
        assert verdict.p3
        assert verdict.overall  # tame for n >= 2: the outgoing condition is vacuous
        scenario = scenario_verdict(harvey_lawson_filling(n))
        assert scenario.tame


def test_ball_blowup_fails_no_cap():
    for n in range(2, 5):
        verdict = check_tame(ball_blowup(n))
        assert not verdict.p2
        assert not verdict.overall
        assert verdict.p1
        # the ruling fiber's logarithmic pairing is 2 - 1 = 1
        assert verdict.certificate["p2_log_pairings"]["fiber"] == 1


def test_builtin_lookup_accepts_versioned_names():
    assert builtin_scenario("harvey-lawson", 3) == harvey_lawson_filling(3)
    assert builtin_scenario("harvey-lawson@1", 3) == harvey_lawson_filling(3)
    with pytest.raises(ValueError):
        builtin_scenario("nonsense", 3)


# sha256 of the sorted-key JSON list of to_json_dict() for n = 2..6
SCENARIO_DIGESTS = {
    trivial_cobordism: "b330be5c91165346e0240aa995905cd9a52708e95d00977f741b20185fa53b0b",
    harvey_lawson_filling: "1bb3aee38e33b024c9061428d3189ff79fb3ff4298e5c48d19bcbaddd896f5bf",
    ball_blowup: "c8b77ca4cab5520d17045eb960096fe9239043d34e9236394d1fcb0f437f4bbe",
}


@pytest.mark.parametrize("make", list(SCENARIO_DIGESTS), ids=lambda f: f.__name__)
def test_builtin_scenarios_pinned(make):
    text = json.dumps([make(n).to_json_dict() for n in range(2, 7)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_DIGESTS[make]
    with pytest.raises(ValueError, match=r"^need n >= 2$"):
        make(1)


# -- truncated symplectization ---------------------------------------------------


def test_truncation_constants_on_grid():
    taus_y = [Fraction(3), Fraction(7, 2), Fraction(4), Fraction(13, 3), Fraction(10)]
    taus_z = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]
    for tau_y in taus_y:
        for tau_z in taus_z:
            data = symplectization_truncation(tau_y, tau_z, Fraction(1), Fraction(2))
            verdict = check_tame(data)
            assert verdict.lambda_minus == tau_y + tau_z - 1
            assert verdict.lambda_plus == tau_z
            assert verdict.p1 and verdict.p2 and verdict.p3


def test_truncation_non_integral_weight_fails_p1():
    data = symplectization_truncation(Fraction(3), Fraction(1), Fraction(1), Fraction(3, 2))
    verdict = check_tame(data)
    assert not verdict.p1
    # the proportionality constants are unaffected
    assert verdict.lambda_minus == 3
    assert verdict.lambda_plus == 1


def test_truncation_weight_order_enforced():
    with pytest.raises(ValueError):
        symplectization_truncation(Fraction(3), Fraction(1), Fraction(2), Fraction(1))
    with pytest.raises(ValueError):
        symplectization_truncation(Fraction(3), Fraction(1), Fraction(0), Fraction(1))


def test_truncation_tau_z_two():
    data = symplectization_truncation(Fraction(4), Fraction(2), Fraction(1), Fraction(2))
    assert check_tame(data).lambda_plus == 2


# -- basis invariance -------------------------------------------------------------


def random_unimodular(rng: random.Random, size: int):
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(8):
        a, b = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if a == b:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for j in range(size):
            mat[a][j] += c * mat[b][j]
        if rng.random() < 0.3:
            mat[a], mat[b] = mat[b], mat[a]
    return mat


def transform_classes(classes, mat):
    out = []
    for i, row in enumerate(mat):
        omega = sum(Fraction(row[j]) * classes[j].omega for j in range(len(classes)))
        chern = sum(Fraction(row[j]) * classes[j].chern for j in range(len(classes)))
        y_minus = sum(Fraction(row[j]) * classes[j].y_minus for j in range(len(classes)))
        y_plus = sum(Fraction(row[j]) * classes[j].y_plus for j in range(len(classes)))
        out.append(
            CurveClassData(
                label=f"t{i}",
                omega=omega,
                chern=chern,
                y_minus=y_minus,
                y_plus=y_plus,
                in_p2_table=True,
                in_p3_table=True,
            )
        )
    return tuple(out)


def test_verdict_invariant_under_unimodular_basis_change():
    rng = random.Random(20260101)
    for _ in range(60):
        rank = rng.randint(1, 4)
        lam_minus = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        lam_plus = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        consistent = rng.random() < 0.5
        classes = []
        for i in range(rank):
            omega = Fraction(rng.randint(1, 4))
            y_minus = Fraction(rng.randint(-2, 2))
            chern = y_minus + (1 + lam_minus) * omega
            y_plus = -lam_plus * omega
            if not consistent and i == rank - 1:
                chern += 1  # break the proportionality on the last class
            classes.append(
                CurveClassData(
                    label=f"c{i}",
                    omega=omega,
                    chern=chern,
                    y_minus=y_minus,
                    y_plus=y_plus,
                    in_p2_table=True,
                    in_p3_table=True,
                )
            )
        original = CobordismClassData(
            classes=tuple(classes), outgoing_end_nonempty=True
        )
        changed = CobordismClassData(
            classes=transform_classes(classes, random_unimodular(rng, rank)),
            outgoing_end_nonempty=True,
        )
        v0, v1 = check_tame(original), check_tame(changed)
        assert (v0.p2, v0.p3) == (v1.p2, v1.p3)
        if v0.p2:
            assert v0.lambda_minus == v1.lambda_minus
        if v0.p3:
            assert v0.lambda_plus == v1.lambda_plus


# -- the no-cap filter -------------------------------------------------------------


def chord_leaf(direction, action):
    return GeneratorLabel(kind="chord", direction=direction, action=Fraction(action))


def test_filter_excludes_outgoing_only_disk():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("o", ("v",), "white+"),
            Edge("b1", ("v",), "L"),
            Edge("b2", ("v",), "L"),
        ),
    )
    m = MapType(
        building=t,
        decorations={"v": VertexDecoration(area=Fraction(1))},
        labels={
            "o": chord_leaf("out", 1),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
        },
    )
    assert no_cap_filter(m, trivial_cobordism(4)) is False


def test_filter_admits_incoming_disk():
    t = BuildingType(
        vertices=(Vertex("v", "disk"),),
        edges=(
            Edge("i", ("v",), "white-"),
            Edge("b1", ("v",), "L"),
            Edge("b2", ("v",), "L"),
        ),
    )
    m = MapType(
        building=t,
        decorations={"v": VertexDecoration(area=Fraction(1))},
        labels={
            "i": chord_leaf("in", 1),
            "b1": GeneratorLabel(kind="interior"),
            "b2": GeneratorLabel(kind="interior"),
        },
    )
    assert no_cap_filter(m, trivial_cobordism(4)) is True


def test_filter_excludes_positive_dimensional_sphere():
    t = BuildingType(
        vertices=(Vertex("s", "sphere"),),
        edges=(Edge("orb", ("s",), "white-"),),
    )
    m = MapType(
        building=t,
        decorations={"s": VertexDecoration(area=Fraction(2), chern=Fraction(3))},
        labels={"orb": GeneratorLabel(kind="orbit", direction="in", action=Fraction(1))},
    )
    data = trivial_cobordism(4)  # P2 holds with lambda_minus = 3
    # dimension 2 (1 + 3) * 2 - 2 = 14 > 0: no rigid representative
    assert no_cap_filter(m, data) is False


def test_filter_excludes_all_zero_incoming_disks_in_library():
    # with P2 and P3 both holding, every enumerated disk type that has an
    # outgoing end but no incoming end is excluded
    from typelib import enumerate_stable_types, undecorated

    data = trivial_cobordism(4)
    assert check_tame(data).p2 and check_tame(data).p3
    checked = 0
    for t in enumerate_stable_types(max_vertices=2, max_edges=4):
        m = undecorated(t)
        directions = [lab.direction for _, lab in m.puncture_leaves()]
        if "in" in directions or "out" not in directions:
            continue
        decorated = MapType(
            building=t,
            decorations={v.id: VertexDecoration(area=Fraction(1)) for v in t.vertices},
            labels=m.labels,
        )
        assert no_cap_filter(decorated, data) is False
        checked += 1
    assert checked > 0


def test_truncation_constants_sampled():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=3, max_value=10, max_denominator=6),
        st.fractions(min_value=1, max_value=5, max_denominator=6),
        st.integers(min_value=1, max_value=5),
    )
    def run(tau_y, tau_z, gap):
        data = symplectization_truncation(tau_y, tau_z, Fraction(1), Fraction(1) + gap)
        verdict = check_tame(data)
        assert verdict.lambda_minus == tau_y + tau_z - 1
        assert verdict.lambda_plus == tau_z
        assert verdict.p1 and verdict.p2 and verdict.p3

    run()


def test_filter_requires_sphere_decorations():
    t = BuildingType(
        vertices=(Vertex("s", "sphere"),),
        edges=(Edge("orb", ("s",), "white-"),),
    )
    m = MapType(
        building=t,
        labels={"orb": GeneratorLabel(kind="orbit", direction="in", action=Fraction(1))},
    )
    with pytest.raises(ValueError):
        no_cap_filter(m, trivial_cobordism(4))


# -- serialization -----------------------------------------------------------------


def test_class_data_roundtrip():
    scenarios = [
        make(n) for make in (trivial_cobordism, harvey_lawson_filling, ball_blowup) for n in range(2, 7)
    ]
    for data in (*scenarios, symplectization_truncation(4, 1, 1, 2)):
        text = class_data_to_json(data)
        again = class_data_from_json(text)
        assert again == data
        assert class_data_to_json(again) == text


def test_duplicate_labels_rejected():
    c = CurveClassData(label="x", omega=Fraction(1))
    with pytest.raises(ValueError):
        CobordismClassData(classes=(c, c))
