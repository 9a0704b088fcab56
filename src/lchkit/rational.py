"""Exact rational arithmetic helpers.

All geometric quantities in this package (areas, actions, curvature
multiples, pairing values) are rationals; nothing in the computation path
ever touches a float.  The number type is the standard-library
`fractions.Fraction`, which is always stored reduced with a positive
denominator and uses arbitrary-precision integers.
"""

from __future__ import annotations

import math
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

Rational = Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def rat(value) -> Fraction:
    """Coerce an int, Fraction or exact "p/q" string to a Fraction.

    Floats are rejected: rounding a verdict-bearing quantity is never
    acceptable, so callers must supply exact data.  Booleans are not
    numbers here either.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value.strip())
        if not m:
            raise ValueError(f"not an exact rational: {value!r}")
        num, den = m.group(1), m.group(2)
        return Fraction(int(num), int(den) if den else 1)
    raise ValueError(f"not an exact rational: {value!r} (floats are not accepted)")


_JSON_TYPE_NAMES = {list: "list", dict: "object", int: "integer", bool: "boolean", str: "string"}


def checked(value, kind: type, name: str):
    """Return a decoded JSON value whose type is exactly `kind`, else raise ValueError.

    `kind` is list, dict, int, bool or str.  The exact type keeps every
    reading strict: a float, boolean or string is not an integer, the
    string "false" is not a flag, the string "vw" is not a list of ids,
    and the integer 1 is not the id "1".
    """
    if type(value) is not kind:
        raise ValueError(f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, not {reprlib.repr(value)}")
    return value


def rat_str(q: Fraction) -> str:
    """Serialize a Fraction as "p/q" ("p" when the denominator is 1)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_gcd(values: Iterable[Fraction]) -> Fraction:
    """Greatest common divisor of a finite set of rationals.

    gcd(p1/q1, p2/q2, ...) = gcd(p1, p2, ...) / lcm(q1, q2, ...) for reduced
    inputs; this is the positive generator of the subgroup of (Q, +) the
    values generate.  Returns 0 for an empty or all-zero input.
    """
    num_gcd = 0
    den_lcm = 1
    for v in values:
        v = Fraction(v)
        if v == 0:
            continue
        num_gcd = math.gcd(num_gcd, abs(v.numerator))
        den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
    return Fraction(num_gcd, den_lcm)


@dataclass(frozen=True)
class SubgroupOfRationals:
    """A finitely generated subgroup of (Q, +).

    `kind` is always "discrete": finitely many rationals generate a
    discrete subgroup.  `generator` is the positive generator g with the
    subgroup equal to gZ, or None for the trivial group.
    """

    kind: str
    generator: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind != "discrete":
            raise ValueError(f"unknown subgroup kind: {self.kind!r}")
        if self.generator is not None and self.generator <= 0:
            raise ValueError("subgroup generator must be positive")

    @property
    def is_trivial(self) -> bool:
        return self.generator is None


def subgroup_of_rationals(generators: Iterable[Fraction]) -> SubgroupOfRationals:
    """Subgroup of Q generated by finitely many rationals.

    The result is discrete with generator gcd(generators); the trivial
    group (empty or all-zero generator list) has generator None.
    """
    g = rational_gcd(Fraction(v) for v in generators)
    if g == 0:
        return SubgroupOfRationals("discrete", None)
    return SubgroupOfRationals("discrete", g)
