import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lchkit.lattice import (
    is_lattice_basis_of_span,
    null_space,
    primitive_from_rational,
    primitive_vector,
    rational_rank,
    smith_normal_form,
    solve_unique,
)

from oracles import (
    lattice_basis_by_enumeration,
    lattice_basis_by_minor_gcd,
    row_reduce_divisors,
    snf_divisors_by_minor_gcds,
)

HL_TRIPLE = [(-1, -1, 2, 0), (1, -2, 1, 1), (-2, 1, 1, 1)]


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == ([1, 1], 2)


def test_snf_doubled_lattice_matches_index_enumeration():
    # sublattice 2Z x 2Z has index 4 in Z^2; the divisors multiply to it
    divisors, rank = smith_normal_form([[2, 0], [0, 2]])
    assert (divisors, rank) == ([2, 2], 2)
    points = [(x, y) for x in range(2) for y in range(2)]  # coset reps
    assert len(points) == divisors[0] * divisors[1]


def test_snf_harvey_lawson_triple():
    # oracle-derived: determinantal divisors give D1=1, D2=1, D3=6
    assert snf_divisors_by_minor_gcds([list(r) for r in HL_TRIPLE]) == ([1, 1, 6], 3)
    assert smith_normal_form(HL_TRIPLE) == ([1, 1, 6], 3)


def test_snf_zero_and_empty():
    assert smith_normal_form([]) == ([], 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([], 0)


def test_snf_rectangular():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )
)
def test_snf_divisibility_chain_and_oracle(rows):
    divisors, rank = smith_normal_form(rows)
    assert rank == len(divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in divisors)
    assert (divisors, rank) == snf_divisors_by_minor_gcds(rows)


def test_lattice_basis_identity():
    assert is_lattice_basis_of_span([(1, 0), (0, 1)])


def test_lattice_basis_harvey_lawson_triple_honest_value():
    # (0,0,0,1) = -1/2 (v1) + 1/2 (v2) + 1/2 (v3) lies in the rational span
    # with non-integral coefficients, so the triple generates an index-6
    # sublattice of its saturation; the basis test is negative.
    assert not is_lattice_basis_of_span(HL_TRIPLE)
    assert not lattice_basis_by_minor_gcd([list(r) for r in HL_TRIPLE])


def test_lattice_basis_index_two_sublattice():
    assert not is_lattice_basis_of_span([(2, 0), (0, 1)])
    assert not lattice_basis_by_enumeration([(2, 0), (0, 1)])


def test_lattice_basis_small_enumeration_agreement():
    cases = [
        [(1, 0), (0, 1)],
        [(2, 0), (0, 2)],
        [(1, 1), (1, -1)],
        [(2, 1), (1, 1)],
        [(1, 2, 3)],
        [(2, 4, 6)],
        [(1, 0, 1), (0, 1, 1)],
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
    ]
    for vectors in cases:
        assert is_lattice_basis_of_span(vectors) == lattice_basis_by_enumeration(vectors)


def test_lattice_basis_dimension_mismatch():
    with pytest.raises(ValueError):
        is_lattice_basis_of_span([(1, 0), (0, 1, 2)])


def test_lattice_basis_exhaustive_tiny_entries():
    # all 3x3 matrices with entries in {-1, 0, 1} against the minor-gcd oracle
    from itertools import product

    entries = (-1, 0, 1)
    for flat in product(entries, repeat=9):
        vectors = [flat[0:3], flat[3:6], flat[6:9]]
        assert is_lattice_basis_of_span(vectors) == lattice_basis_by_minor_gcd(vectors)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_lattice_basis_sampled_window_agreement(vectors):
    assert is_lattice_basis_of_span(vectors) == lattice_basis_by_minor_gcd(vectors)


def test_snf_against_row_reduction_oracle_random():
    rng = random.Random(20260809)
    for _ in range(200):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        assert smith_normal_form(rows) == row_reduce_divisors(rows)


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_from_rational((Fraction(1, 2), Fraction(3, 4))) == (2, 3)


def test_rational_elimination_helpers():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rational_rank(rows) == 1
    assert solve_unique(
        [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]],
        [Fraction(4), Fraction(6)],
    ) == (Fraction(2), Fraction(2))
    assert solve_unique(rows, [Fraction(1), Fraction(3)]) is None
    ns = null_space([[Fraction(1), Fraction(1)]], 2)
    assert len(ns) == 1 and ns[0][0] + ns[0][1] == 0
