"""Exact integer and rational linear algebra.

The substrate for every geometric computation in the package: Smith normal
form over Z, the lattice-basis test used by the toric reduction smoothness
criterion, and one fraction-free Gauss-Jordan elimination (rank, solve,
null space).  Everything is total on well-formed inputs and never leaves
exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

IntVector = tuple[int, ...]


def vector_gcd(entries: Sequence[int]) -> int:
    g = 0
    for e in entries:
        g = math.gcd(g, abs(e))
    return g


def primitive_vector(entries: Sequence[int]) -> IntVector:
    """Divide an integer vector by the gcd of its entries (orientation kept)."""
    g = vector_gcd(entries)
    if g == 0:
        return tuple(int(e) for e in entries)
    return tuple(int(e) // g for e in entries)


def primitive_from_rational(entries: Sequence[Fraction]) -> IntVector:
    """Scale a rational vector to a primitive integer vector along the same ray."""
    fracs = [Fraction(e) for e in entries]
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    return primitive_vector(ints)


def check_same_dimension(vectors: Sequence[Sequence[int]]) -> int:
    if not vectors:
        return 0
    d = len(vectors[0])
    for v in vectors:
        if len(v) != d:
            raise ValueError("vectors do not share an ambient dimension")
    return d


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Elementary divisors and rank of an integer matrix.

    Returns (divisors, rank) where divisors = [d_1, ..., d_r] are the
    positive diagonal entries of the Smith normal form with d_1 | d_2 | ...
    and r is the rank over Q.  Only row/column operations in GL(Z) are
    used, so the divisor list is an invariant of the row span as a
    sublattice.
    """
    m = [[int(x) for x in row] for row in rows]
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix is not rectangular")
    nrows = len(m)
    ncols = len(m[0]) if m else 0

    def swap_min_pivot(t: int) -> bool:
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            return False
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        return True

    def clear(t: int) -> None:
        # Euclidean passes: remainders left in row/column t are strictly
        # smaller than the pivot, so re-pivoting terminates.
        while True:
            for i in range(t + 1, nrows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    for j in range(ncols):
                        m[i][j] -= q * m[t][j]
            for j in range(t + 1, ncols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    for i in range(nrows):
                        m[i][j] -= q * m[i][t]
            if all(m[i][t] == 0 for i in range(t + 1, nrows)) and all(
                m[t][j] == 0 for j in range(t + 1, ncols)
            ):
                return
            swap_min_pivot(t)

    divisors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        if not swap_min_pivot(t):
            break
        clear(t)
        # divisibility: the pivot must divide every later entry
        while True:
            bad = next(
                (
                    i
                    for i in range(t + 1, nrows)
                    if any(m[i][j] % m[t][t] != 0 for j in range(t + 1, ncols))
                ),
                None,
            )
            if bad is None:
                break
            for j in range(ncols):
                m[t][j] += m[bad][j]
            clear(t)
        divisors.append(abs(m[t][t]))
        t += 1

    return divisors, len(divisors)


def is_lattice_basis_of_span(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the vectors are a Z-basis of (their R-span) intersected with Z^d.

    Equivalently: linearly independent with every elementary divisor equal
    to 1.  Raises on mismatched ambient dimensions.
    """
    check_same_dimension(vectors)
    if not vectors:
        return True
    divisors, rank = smith_normal_form(vectors)
    return rank == len(vectors) and all(d == 1 for d in divisors)


# -- fraction-free Gauss-Jordan elimination (Bareiss) -----------------------


def _echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: (matrix, pivot columns, scale).

    Each row is first cleared of denominators, then eliminated in integers
    by the Bareiss (1968) Gauss-Jordan step; every division is exact.  All
    pivot entries end equal to the last pivot, `scale`, and matrix / scale
    is the reduced row echelon form of the input.
    """
    m = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        den = math.lcm(*(f.denominator for f in fracs))
        m.append([f.numerator * (den // f.denominator) for f in fracs])
    pivots: list[int] = []
    prev = 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        piv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(rows)[1])


def solve_unique(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """Solve A x = b when the solution is unique; None if none or many."""
    n = len(rows[0]) if rows else 0
    m, pivots, scale = _echelon([[*row, b] for row, b in zip(rows, rhs)])
    if n in pivots:  # pivot in the rhs column: inconsistent
        return None
    if len(pivots) < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = Fraction(m[i][n], scale)
    return tuple(x)


def null_space(rows: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : A x = 0} in Q^dim."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
    m, pivots, scale = _echelon(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fcol in free:
        v = [Fraction(0)] * dim
        v[fcol] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = Fraction(-m[i][fcol], scale)
        basis.append(tuple(v))
    return basis


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """<u, v> for int or Fraction entries, reduced once at the end."""
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            d = a.denominator * b.denominator
            num = num * d + a.numerator * b.numerator * den
            den *= d
    return Fraction(num, den)
