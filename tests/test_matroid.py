import random

import pytest

from conftest import rational_arrangement

from oscount.arrangement import characteristic_polynomial, intersection_lattice, poincare_polynomial
from oscount.counting import g4_arrangement, q8d8_arrangement
from oscount.errors import ComputationCapError, InvalidInputError
from oscount.matroid import (
    find_good_primes,
    finite_field_count,
    nbc_betti,
    whitney_characteristic,
)


def test_nbc_g4():
    assert nbc_betti(g4_arrangement()) == [1, 3, 2]


def test_nbc_q8d8_reproduces_poincare_independently():
    assert nbc_betti(q8d8_arrangement()) == [1, 21, 170, 650, 1125, 625]


def test_nbc_empty():
    assert nbc_betti(rational_arrangement(2, [])) == [1]


def test_nbc_refuses_affine():
    a = rational_arrangement(1, [[1], [1]], offsets=[0, 1])
    with pytest.raises(InvalidInputError):
        nbc_betti(a)


def test_nbc_equals_poincare_on_random_central_arrangements():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 6)
        dim = rng.randint(1, 3)
        rows = []
        while len(rows) < n:
            row = [rng.randint(-2, 2) for _ in range(dim)]
            if any(row):
                rows.append(row)
        a = rational_arrangement(dim, rows)
        pi = poincare_polynomial(intersection_lattice(a))
        assert tuple(nbc_betti(a)) == pi.coefficients


def test_nbc_top_degree_equals_top_moebius_mass():
    for a in (q8d8_arrangement(), g4_arrangement()):
        lat = intersection_lattice(a)
        betti = nbc_betti(a)
        top = lat.rank()
        mass = sum(abs(mu) for f, mu in lat.all_flats() if f.codim == top)
        assert betti[top] == mass


def test_finite_field_boolean(boolean3):
    assert finite_field_count(boolean3, 7) == 216


def test_finite_field_braid(braid3):
    assert finite_field_count(braid3, 7) == 210
    assert finite_field_count(braid3, 11) == 990


def test_finite_field_affine_example():
    a = rational_arrangement(1, [[1], [1], [1]], offsets=[0, -1, 1])
    assert finite_field_count(a, 11) == 8


def test_finite_field_rejects_bad_prime():
    # x = 0 and x = 2 collapse mod 2: the offset minor 2 disqualifies q = 2
    a = rational_arrangement(1, [[1], [1]], offsets=[0, 2])
    with pytest.raises(InvalidInputError, match="minor"):
        finite_field_count(a, 2)


def test_finite_field_rejects_nonrational():
    with pytest.raises(InvalidInputError):
        finite_field_count(g4_arrangement(), 7)


def test_finite_field_cap():
    a = rational_arrangement(3, [[1, 0, 0]])
    with pytest.raises(ComputationCapError):
        finite_field_count(a, 101, ff_cap=10**4)


def test_finite_field_matches_chi_at_good_primes(braid3):
    chi = characteristic_polynomial(intersection_lattice(braid3))
    for q in find_good_primes(braid3, 3):
        assert finite_field_count(braid3, q) == chi(q)


def test_whitney_oracle_matches_lattice(braid3):
    assert whitney_characteristic(braid3) == characteristic_polynomial(
        intersection_lattice(braid3)
    )
