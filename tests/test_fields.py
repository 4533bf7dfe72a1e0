import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oscount.errors import InvalidInputError
from oscount.fields import (
    FieldDescriptor,
    Scalar,
    cyclotomic_field,
    cyclotomic_polynomial,
    cyclotomic_reduce,
    euler_phi,
    is_prime,
    parse_scalar,
    rational_field,
)

QQ = rational_field()
Q3 = cyclotomic_field(3)
Q4 = cyclotomic_field(4)
Q8 = cyclotomic_field(8)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == by_trial_division(n) for n in range(-3, 5000))
    # Carmichael numbers pass the Fermat test to every coprime base
    assert not any(is_prime(n) for n in (561, 1105, 1729, 2465, 2821, 6601, 8911))
    assert is_prime(2**127 - 1) and is_prime(3 * 2**189 + 1)
    assert not is_prime(3 * 2**188 + 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_field_descriptor_invariants():
    assert QQ.degree == 1 and QQ.conductor == 1
    assert Q8.degree == 4
    assert cyclotomic_field(1) == QQ
    with pytest.raises(InvalidInputError):
        FieldDescriptor("cyclotomic", 8, 3)
    assert Q8.cyclotomic == (1, 0, 0, 0, 1)
    assert Q3.powers[:3] == ((1, 0), (0, 1), (-1, -1))


def test_conductor_limit_is_checked_before_phi_is_computed():
    # Phi_N comes from a recursion over the divisors of N
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        FieldDescriptor("cyclotomic", 10**6, euler_phi(10**6))
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        cyclotomic_field(2**127 - 1)  # a prime: its totient would need 2^63 trial divisions
    assert time.perf_counter() - start < 1


def test_reduce_zeta3_squared():
    # zeta^2 = -1 - zeta mod x^2 + x + 1
    assert cyclotomic_reduce([0, 0, 1], Q3).coords == (Fraction(-1), Fraction(-1))


def test_reduce_identity_case():
    assert cyclotomic_reduce([1, 0], Q3).coords == (Fraction(1), Fraction(0))


def test_reduce_zeta8_fourth_power():
    s = cyclotomic_reduce([0, 0, 0, 0, 1], Q8)
    assert s.coords == (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))


def test_reduce_rejects_overlong_input():
    with pytest.raises(InvalidInputError):
        cyclotomic_reduce([1] * 4, Q3)


def test_conjugate_examples():
    omega = Q3.zeta()
    assert omega.conjugate().coords == (Fraction(-1), Fraction(-1))
    assert QQ.from_rational(Fraction(5, 7)).conjugate().coords == (Fraction(5, 7),)
    assert Q4.zeta().conjugate() == -Q4.zeta()
    assert omega.conjugate().conjugate() == omega


def test_mixed_field_arithmetic_is_an_error():
    with pytest.raises(InvalidInputError):
        Q3.one() + Q4.one()
    with pytest.raises(InvalidInputError):
        QQ.from_rational(2) * Q3.zeta()


def test_zeta_orders():
    for n in (2, 3, 4, 5, 8, 12):
        f = cyclotomic_field(n)
        z = f.zeta()
        acc = f.one()
        for k in range(1, n + 1):
            acc = acc * z
            assert (acc == f.one()) == (k == n)


def test_scalar_tokens_round_trip():
    for tok, field in [("5/7", QQ), ("-3", QQ), ("(0,1)", Q3), ("(-1,-1)", Q3), ("(1/3,2/3)", Q3)]:
        s = parse_scalar(tok, field)
        assert parse_scalar(str(s), field) == s
    with pytest.raises(InvalidInputError):
        parse_scalar("(1,0)", QQ)
    with pytest.raises(InvalidInputError):
        parse_scalar("x", QQ)
    with pytest.raises(InvalidInputError):
        parse_scalar("(1,2,3)", Q3)


# --- property tests ---------------------------------------------------------

_fields = st.sampled_from([QQ, Q3, Q4, cyclotomic_field(5), cyclotomic_field(12)])
_fraction = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12)
)


@st.composite
def scalar_pair(draw):
    f = draw(_fields)
    a = Scalar(f, tuple(draw(_fraction) for _ in range(f.degree)))
    b = Scalar(f, tuple(draw(_fraction) for _ in range(f.degree)))
    c = Scalar(f, tuple(draw(_fraction) for _ in range(f.degree)))
    return a, b, c


@settings(max_examples=150, deadline=None)
@given(scalar_pair())
def test_field_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == a.field.one()


@settings(max_examples=150, deadline=None)
@given(scalar_pair())
def test_canonical_form_and_conjugation(triple):
    a, b, _ = triple
    # canonical: a - b = 0 iff the coordinate vectors coincide
    assert ((a - b).is_zero()) == (a.coords == b.coords)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
