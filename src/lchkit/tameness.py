"""Tameness verification for Lagrangian cobordism pairs.

A cobordism pair is judged from a purely cohomological pairing table: a
curve-class basis with its pairings against the compactified symplectic
class, the first Chern class, and the duals of the incoming and outgoing
end divisors.  The three conditions are

  P1 (integrality)   all symplectic pairings are integers and the
                     rationality flag is set;
  P2 (no-cap)        a single rational lambda_- > 0 with
                     c_1 - [Y_-]^dual = (1 + lambda_-) [omega] on every
                     class of the end-complement table;
  P3 (outgoing end)  vacuous without an outgoing end, else a single
                     lambda_+ >= 0 with [Y_+]^dual = -lambda_+ [omega] on
                     the relative table.

Inconsistent tables are not errors: they produce a negative verdict with
per-class certificates.  Built-in constructors cover the trivial
cobordism, the Harvey-Lawson filling, the blow-up of the ball, and the
truncated symplectization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .buildings import MapType
from .contact import (
    FIBERED_CONTACT_JSON,
    Base,
    FiberedContact,
    sphere_over_projective_space,
    tame_pair_check,
)
from .rational import rat_str, read


@dataclass(frozen=True)
class CurveClassData:
    """Pairings of one curve class against the relevant degree-two classes."""

    label: str
    omega: Fraction
    chern: Fraction = Fraction(0)
    y_minus: Fraction = Fraction(0)
    y_plus: Fraction = Fraction(0)
    in_p2_table: bool = True  # lives in the complement of the outgoing divisor
    in_p3_table: bool = False  # lives in the relative table of the incoming end

    def __post_init__(self):
        for name in ("omega", "chern", "y_minus", "y_plus"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


@dataclass(frozen=True)
class CobordismClassData:
    """Cohomological data of a cobordism pair over a declared class basis."""

    classes: tuple[CurveClassData, ...]
    outgoing_end_nonempty: bool = False
    integral_symplectic_class: bool = True
    simply_connected: bool = True
    ends: Optional[FiberedContact] = None  # end data, for scenario-level checks
    name: str = ""

    def __post_init__(self):
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate curve class labels")

    def to_json_dict(self) -> dict:
        out: dict = {
            "classes": [
                {
                    "label": c.label,
                    "omega": rat_str(c.omega),
                    "chern": rat_str(c.chern),
                    "y_minus": rat_str(c.y_minus),
                    "y_plus": rat_str(c.y_plus),
                    "p2": c.in_p2_table,
                    "p3": c.in_p3_table,
                }
                for c in self.classes
            ],
            "outgoing_end_nonempty": self.outgoing_end_nonempty,
            "integral_symplectic_class": self.integral_symplectic_class,
            "simply_connected": self.simply_connected,
        }
        if self.name:
            out["name"] = self.name
        if self.ends is not None:
            out["ends"] = self.ends.to_json_dict()
        return out


# JSON key tables, read by rational.read
CURVE_CLASS_JSON = (CurveClassData, {
    "label": ("label", str, True),
    "omega": ("omega", Fraction, True),
    "chern": ("chern", Fraction, False),
    "y_minus": ("y_minus", Fraction, False),
    "y_plus": ("y_plus", Fraction, False),
    "p2": ("in_p2_table", bool, False),
    "p3": ("in_p3_table", bool, False),
})
CLASS_DATA_JSON = (CobordismClassData, {
    "classes": ("classes", [CURVE_CLASS_JSON], True),
    "outgoing_end_nonempty": ("outgoing_end_nonempty", bool, False),
    "integral_symplectic_class": ("integral_symplectic_class", bool, False),
    "simply_connected": ("simply_connected", bool, False),
    "ends": ("ends", FIBERED_CONTACT_JSON, False),
    "name": ("name", str, False),
})


@dataclass(frozen=True)
class TamenessVerdict:
    p1: bool
    p2: bool
    lambda_minus: Optional[Fraction]
    p3: bool
    p3_vacuous: bool
    lambda_plus: Optional[Fraction]
    overall: bool
    certificate: dict = field(compare=False, default_factory=dict)

    def to_json_dict(self) -> dict:
        def fmt(value):
            return rat_str(value) if value is not None else None

        return {
            "p1": self.p1,
            "p2": self.p2,
            "lambda_minus": fmt(self.lambda_minus),
            "p3": self.p3,
            "p3_vacuous": self.p3_vacuous,
            "lambda_plus": fmt(self.lambda_plus),
            "overall": self.overall,
            "certificate": {
                section: {label: rat_str(v) for label, v in sorted(values.items())}
                for section, values in sorted(self.certificate.items())
            },
        }


def check_tame(d: CobordismClassData) -> TamenessVerdict:
    """Decide P1-P3 on the pairing table; negative verdicts carry residuals.

    The proportionality checks demand one constant valid across the whole
    declared table; partial matches are failures, never a partial verdict.
    """
    certificate: dict[str, dict[str, Fraction]] = {
        "p2_log_pairings": {},
        "p2_residuals": {},
        "p3_residuals": {},
    }

    p1 = d.integral_symplectic_class and all(c.omega.denominator == 1 for c in d.classes)

    # P2 over the classes in the complement of the outgoing end
    lambda_minus: Optional[Fraction] = None
    p2 = True
    p2_classes = [c for c in d.classes if c.in_p2_table]
    pin = next((c for c in p2_classes if c.omega != 0), None)
    if pin is not None:
        lambda_minus = (pin.chern - pin.y_minus) / pin.omega - 1
    for c in p2_classes:
        log_pairing = c.chern - c.y_minus
        certificate["p2_log_pairings"][c.label] = log_pairing
        required = (1 + lambda_minus) * c.omega if lambda_minus is not None else Fraction(0)
        residual = log_pairing - required
        certificate["p2_residuals"][c.label] = residual
        if residual != 0:
            p2 = False
    if lambda_minus is not None and lambda_minus <= 0:
        p2 = False

    # P3 on the relative table, vacuous without an outgoing end
    lambda_plus: Optional[Fraction] = None
    p3_vacuous = not d.outgoing_end_nonempty
    p3 = True
    if not p3_vacuous:
        p3_classes = [c for c in d.classes if c.in_p3_table]
        pin3 = next((c for c in p3_classes if c.omega != 0), None)
        if pin3 is not None:
            lambda_plus = -pin3.y_plus / pin3.omega
        for c in p3_classes:
            required = -lambda_plus * c.omega if lambda_plus is not None else Fraction(0)
            residual = c.y_plus - required
            certificate["p3_residuals"][c.label] = residual
            if residual != 0:
                p3 = False
        if lambda_plus is not None and lambda_plus < 0:
            p3 = False

    return TamenessVerdict(
        p1=p1,
        p2=p2,
        lambda_minus=lambda_minus,
        p3=p3,
        p3_vacuous=p3_vacuous,
        lambda_plus=lambda_plus,
        overall=p1 and p2 and p3,
        certificate=certificate,
    )


def symplectization_truncation(
    tau_Y: Fraction,
    tau_Z: Fraction,
    w1: Fraction,
    w2: Fraction,
) -> CobordismClassData:
    """Class data of a truncated symplectization over a monotone base.

    The slice weights w1 < w2 are the exponentials of the truncation
    parameters, supplied directly as rationals (the parameters themselves
    are never touched, keeping the arithmetic exact).  The basis is a base
    sphere seen through the incoming divisor (symplectic pairing
    normalized to the base form, with the logarithmic correction already
    folded in so the no-cap constant is tau_Y + tau_Z - 1) and the fiber
    class of area w2 - w1 (integral exactly when the weight difference
    is an integer), which pairs with the outgoing Thom class as
    -tau_Z (w2 - w1).
    """
    tau_Y, tau_Z = Fraction(tau_Y), Fraction(tau_Z)
    w1, w2 = Fraction(w1), Fraction(w2)
    if not (w2 > w1 > 0):
        raise ValueError("slice weights must satisfy w2 > w1 > 0")
    if tau_Z <= 0:
        raise ValueError("tau_Z must be positive")
    base = CurveClassData(
        label="base-sphere",
        omega=Fraction(1),
        chern=tau_Y + tau_Z,
        y_minus=Fraction(0),
        y_plus=Fraction(0),
        in_p2_table=True,
        in_p3_table=False,
    )
    fiber = CurveClassData(
        label="fiber",
        omega=w2 - w1,
        chern=Fraction(2),
        y_minus=Fraction(1),
        y_plus=-tau_Z * (w2 - w1),
        in_p2_table=False,
        in_p3_table=True,
    )
    return CobordismClassData(
        classes=(base, fiber),
        outgoing_end_nonempty=True,
        integral_symplectic_class=True,
        ends=FiberedContact(base=Base(label="base"), tau_Z=tau_Z, tau_Y=tau_Y),
        name="symplectization-truncation",
    )


def no_cap_filter(m: MapType, d: CobordismClassData) -> bool:
    """Exclude configurations ruled out by the no-cap conditions.

    A disk type with an outgoing chord end and no incoming end is excluded
    under P3 (its pairing with the outgoing Thom class forces nonpositive
    area), and a single-puncture sphere whose expected dimension under P2
    is positive cannot be rigid.  Everything else passes.
    """
    verdict = check_tame(d)
    building = m.building
    punctures = m.puncture_leaves()
    disks = [v for v in building.vertices if v.kind == "disk"]
    spheres = [v for v in building.vertices if v.kind == "sphere"]

    if disks:
        incoming = sum(1 for _, lab in punctures if lab.direction == "in")
        outgoing = sum(1 for _, lab in punctures if lab.direction == "out")
        if outgoing >= 1 and incoming == 0 and verdict.p3:
            return False

    if not disks and len(spheres) == 1 and len(punctures) == 1:
        (leaf, label) = punctures[0]
        if label.kind == "orbit":
            deco = m.decorations.get(spheres[0].id)
            if deco is None:
                raise ValueError("sphere stratum needs its homotopy decoration")
            if label.action is None:
                raise ValueError("orbit puncture needs a multiplicity")
            if verdict.p2 and verdict.lambda_minus is not None:
                dim = 2 * (1 + verdict.lambda_minus) * deco.area - 2
            else:
                dim = 2 * deco.chern - 2 - 2 * label.action
            if dim > 0:
                return False

    return True


# -- built-in scenarios -------------------------------------------------------


def _line_class(n: int) -> CurveClassData:
    """A line of projective n-space: Chern number n + 1, meeting the incoming divisor once."""
    return CurveClassData(
        label="line-", omega=Fraction(1), chern=Fraction(n + 1), y_minus=Fraction(1)
    )


def trivial_cobordism(n: int) -> CobordismClassData:
    """Punctured affine space as a self-cobordism of the unit sphere.

    The compactification is projective space blown up at the origin; the
    basis is a line in the incoming divisor and the disk class through the
    outgoing one.
    """
    disk = CurveClassData(
        label="disk+",
        omega=Fraction(1),
        y_plus=Fraction(-1),
        in_p2_table=False,
        in_p3_table=True,
    )
    return CobordismClassData(
        classes=(_line_class(n), disk),
        outgoing_end_nonempty=True,
        ends=sphere_over_projective_space(n),
        name=f"trivial-cobordism(n={n})",
    )


def harvey_lawson_filling(n: int) -> CobordismClassData:
    """The Harvey-Lawson filling, compactified to projective space."""
    return CobordismClassData(
        classes=(_line_class(n),),
        ends=sphere_over_projective_space(n),
        name=f"harvey-lawson(n={n})",
    )


def ball_blowup(n: int) -> CobordismClassData:
    """The blow-up of the unit ball at the origin, filling the same end.

    The ruling fiber has Chern number two and meets the incoming divisor
    once, so its logarithmic pairing is 2 - 1 = 1: too small for the
    no-cap condition.
    """
    fiber = CurveClassData(
        label="fiber", omega=Fraction(1), chern=Fraction(2), y_minus=Fraction(1)
    )
    return CobordismClassData(
        classes=(_line_class(n), fiber),
        ends=sphere_over_projective_space(n),
        name=f"ball-blowup(n={n})",
    )


@dataclass(frozen=True)
class ScenarioVerdict:
    """A built-in scenario's verdict, with the end data folded in if required."""

    verdict: TamenessVerdict
    ends_tame: Optional[bool]
    tame: bool

    def to_json_dict(self) -> dict:
        out = self.verdict.to_json_dict()
        out["ends_tame"] = self.ends_tame
        out["tame"] = self.tame
        return out


BUILTIN_SCENARIOS = {
    "trivial-cobordism@1": trivial_cobordism,
    "harvey-lawson@1": harvey_lawson_filling,
    "ball-blowup@1": ball_blowup,
}


def builtin_scenario(name: str, n: int) -> CobordismClassData:
    key = name if "@" in name else f"{name}@1"
    if key not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown built-in scenario: {name!r}")
    return BUILTIN_SCENARIOS[key](n)


def scenario_verdict(d: CobordismClassData) -> ScenarioVerdict:
    """check_tame plus, for self-cobordisms, tameness of the end structure.

    A cylinder-type cobordism is only usable when its ends themselves are
    tame, so the trivial-cobordism and symplectization scenarios fold the
    end condition into the headline verdict; fillings do not.
    """
    verdict = check_tame(d)
    ends_tame = None
    if d.ends is not None and d.ends.tau_Y is not None:
        ends_tame = tame_pair_check(d.ends)
    folds_ends = d.outgoing_end_nonempty and ends_tame is not None
    tame = verdict.overall and (ends_tame if folds_ends else True)
    return ScenarioVerdict(verdict=verdict, ends_tame=ends_tame, tame=tame)


def class_data_to_json(d: CobordismClassData) -> str:
    return json.dumps(d.to_json_dict(), sort_keys=True)


def class_data_from_json(text: str) -> CobordismClassData:
    return read(json.loads(text), CLASS_DATA_JSON, "class data")
