"""Circle-fibered contact and stable Hamiltonian manifolds as data.

A fibered structure is recorded by its base (a label plus an optional
curve-class pairing table), the curvature multiple tau_Z with
curv(alpha) = -tau_Z * omega_Y, and the base monotonicity constant tau_Y
with c_1(Y) = tau_Y * [omega_Y] when the base is monotone.  The fiber
period is normalized to 1, so the holonomy of a disk bounding the
Lagrangian projection is its area mod 1, and the Legendrian lift criterion
becomes divisor arithmetic on the area subgroup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

from .rational import rat_str, read, subgroup_of_rationals


@dataclass(frozen=True)
class BaseClass:
    """A degree-two homology generator of the base with its pairings."""

    label: str
    omega: Fraction
    chern: Optional[Fraction] = None  # pairing with c_1 of the base, if known


@dataclass(frozen=True)
class Base:
    """A symplectic base, abstract or toric: a label and a pairing table."""

    label: str
    classes: tuple[BaseClass, ...] = ()

    def with_classes_removed(self, labels: Sequence[str]) -> "Base":
        keep = tuple(c for c in self.classes if c.label not in set(labels))
        return Base(label=f"{self.label} reduced", classes=keep)


@dataclass(frozen=True)
class FiberedContact:
    """Circle bundle with connection over a symplectic base.

    tau_Z > 0 is the curvature multiple; tau_Y is the base monotonicity
    constant, absent for non-monotone bases.
    """

    base: Base
    tau_Z: Fraction
    tau_Y: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "tau_Z", Fraction(self.tau_Z))
        if self.tau_Z <= 0:
            raise ValueError("curvature multiple tau_Z must be positive")
        if self.tau_Y is not None:
            object.__setattr__(self, "tau_Y", Fraction(self.tau_Y))

    def to_json_dict(self) -> dict:
        out = {
            "base": {
                "label": self.base.label,
                "classes": [
                    {
                        "label": c.label,
                        "omega": rat_str(c.omega),
                        **({"chern": rat_str(c.chern)} if c.chern is not None else {}),
                    }
                    for c in self.base.classes
                ],
            },
            "tau_Z": rat_str(self.tau_Z),
        }
        if self.tau_Y is not None:
            out["tau_Y"] = rat_str(self.tau_Y)
        return out


# JSON key tables, read by rational.read
BASE_CLASS_JSON = (BaseClass, {
    "label": ("label", str, True),
    "omega": ("omega", Fraction, True),
    "chern": ("chern", Fraction, False),
})
BASE_JSON = (Base, {
    "label": ("label", str, True),
    "classes": ("classes", [BASE_CLASS_JSON], False),
})
FIBERED_CONTACT_JSON = (FiberedContact, {
    "base": ("base", BASE_JSON, True),
    "tau_Z": ("tau_Z", Fraction, True),
    "tau_Y": ("tau_Y", Fraction, False),
})


@dataclass(frozen=True)
class FiberedUnion:
    """Disjoint union of fibered pieces; kept componentwise."""

    components: tuple[FiberedContact, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty union")


@dataclass(frozen=True)
class GroupAction:
    """A group action recorded only by its effect on the pairing table."""

    label: str
    removed_classes: tuple[str, ...] = ()


@dataclass(frozen=True)
class LegendrianLift:
    """A Legendrian over a Lagrangian torus fiber, as cover data."""

    lagrangian: str
    torus_rank: int
    cover_order: int
    area_generator: Optional[Fraction]

    def __post_init__(self):
        if self.cover_order < 1:
            raise ValueError("cover order must be a positive integer")
        if self.area_generator is not None:
            g = Fraction(self.area_generator)
            object.__setattr__(self, "area_generator", g)
            # holonomies of lifted loops are k-th roots of unity
            if (g * self.cover_order).denominator != 1:
                raise ValueError("cover order times the area generator must be an integer")


@dataclass(frozen=True)
class LiftResult:
    """Outcome of the Legendrian lift criterion."""

    kind: str  # always "lift": finitely many rational areas generate a discrete group
    fiber_order_divisor: Optional[int] = None

    @property
    def exists(self) -> bool:
        return self.kind == "lift"


def holonomy_of_disk(area: Fraction) -> Fraction:
    """Fractional holonomy angle in [0, 1) of a disk of the given area.

    The holonomy is exp(2 pi i * area) under the period-1 normalization,
    so the angle is the area mod 1.
    """
    area = Fraction(area)
    return area - (area.numerator // area.denominator)


def lift_exists(area_generators: Sequence[Fraction]) -> LiftResult:
    """Embedded-Legendrian lift criterion from the area subgroup.

    Finitely many rational areas generate a discrete subgroup gZ, so the
    lift always exists; the order of any fiber of the covering divides the
    denominator of g.  The trivial subgroup gives a section (k = 1).
    """
    sub = subgroup_of_rationals(Fraction(v) for v in area_generators)
    if sub.generator is None:
        return LiftResult(kind="lift", fiber_order_divisor=1)
    return LiftResult(kind="lift", fiber_order_divisor=sub.generator.denominator)


def tame_pair_check(z: FiberedContact) -> bool:
    """Tameness of the fibered structure: tau_Z >= 1 and tau_Y >= 3."""
    if z.tau_Y is None:
        raise ValueError("tau_Y unknown; tameness is undecidable")
    return z.tau_Z >= 1 and z.tau_Y >= 3


def projective_space_base(n: int) -> Base:
    """Projective (n-1)-space with the line class normalized to area 1."""
    if n < 2:
        raise ValueError("need n >= 2")
    return Base(
        label=f"CP{n - 1}",
        classes=(BaseClass(label="line", omega=Fraction(1), chern=Fraction(n)),),
    )


def sphere_over_projective_space(n: int) -> FiberedContact:
    """The unit sphere S^(2n-1) fibered over projective (n-1)-space."""
    return FiberedContact(base=projective_space_base(n), tau_Z=Fraction(1), tau_Y=Fraction(n))


def construct(
    op: str,
    inputs: Sequence[Union[FiberedContact, FiberedUnion]],
    *,
    m: Optional[int] = None,
    action: Optional[GroupAction] = None,
) -> Union[FiberedContact, FiberedUnion]:
    """Closure constructions on fibered structures.

    op is one of "union", "exterior_tensor", "finite_cover", "tensor",
    "quotient".  finite_cover takes the positive integer m and multiplies
    tau_Z by m (the transition maps are raised to the m-th power, so the
    Chern class scales).  tensor requires equal bases and adds the tau_Z
    values; exterior_tensor forms the product base; quotient applies a
    group action's effect to the pairing table.
    """
    if op == "union":
        comps: list[FiberedContact] = []
        for z in inputs:
            if isinstance(z, FiberedUnion):
                comps.extend(z.components)
            else:
                comps.append(z)
        return FiberedUnion(components=tuple(comps))

    if op == "finite_cover":
        (z,) = inputs
        if m is None or m <= 0:
            raise ValueError("finite cover needs a positive integer order")
        if isinstance(z, FiberedUnion):
            return FiberedUnion(
                tuple(replace(c, tau_Z=c.tau_Z * m) for c in z.components)
            )
        return replace(z, tau_Z=z.tau_Z * m)

    if op == "tensor":
        z1, z2 = inputs
        if isinstance(z1, FiberedUnion) or isinstance(z2, FiberedUnion):
            raise ValueError("tensor of unions is taken componentwise by the caller")
        if z1.base != z2.base:
            raise ValueError("tensor product needs a common base")
        return FiberedContact(base=z1.base, tau_Z=z1.tau_Z + z2.tau_Z, tau_Y=z1.tau_Y)

    if op == "exterior_tensor":
        z1, z2 = inputs
        if isinstance(z1, FiberedUnion) or isinstance(z2, FiberedUnion):
            raise ValueError("exterior tensor of unions is taken componentwise by the caller")
        return _exterior_tensor(z1, z2)

    if op == "quotient":
        (z,) = inputs
        if action is None:
            raise ValueError("quotient needs a group action record")
        if isinstance(z, FiberedUnion):
            raise ValueError("quotient of a union is taken componentwise by the caller")
        return replace(z, base=z.base.with_classes_removed(action.removed_classes))

    raise ValueError(f"unknown construction: {op!r}")


def _exterior_tensor(z1: FiberedContact, z2: FiberedContact) -> FiberedContact:
    """Product bundle over the product base; curvature data added blockwise.

    When the curvature multiples agree the product keeps them (base form
    omega_1 (+) omega_2); otherwise the base form is renormalized to
    tau_1 omega_1 (+) tau_2 omega_2, absorbing the multiples (tau_Z = 1).
    The product is monotone exactly when the factor ratios tau_Y / tau_Z
    agree.
    """
    label = f"{z1.base.label} x {z2.base.label}"
    if z1.tau_Z == z2.tau_Z:
        scale1 = scale2 = Fraction(1)
        tau_z = z1.tau_Z
    else:
        scale1, scale2 = z1.tau_Z, z2.tau_Z
        tau_z = Fraction(1)
    classes = tuple(
        BaseClass(label=f"{z1.base.label}.{c.label}", omega=scale1 * c.omega, chern=c.chern)
        for c in z1.base.classes
    ) + tuple(
        BaseClass(label=f"{z2.base.label}.{c.label}", omega=scale2 * c.omega, chern=c.chern)
        for c in z2.base.classes
    )
    tau_y: Optional[Fraction] = None
    if z1.tau_Y is not None and z2.tau_Y is not None:
        r1 = z1.tau_Y / (z1.tau_Z / tau_z)
        r2 = z2.tau_Y / (z2.tau_Z / tau_z)
        if r1 == r2:
            tau_y = r1
    return FiberedContact(base=Base(label=label, classes=classes), tau_Z=tau_z, tau_Y=tau_y)


def fibered_contact_to_json(z: FiberedContact) -> str:
    return json.dumps(z.to_json_dict(), sort_keys=True)


def fibered_contact_from_json(text: str) -> FiberedContact:
    return read(json.loads(text), FIBERED_CONTACT_JSON, "fibered structure")
