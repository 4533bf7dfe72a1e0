import cmath
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oscount.errors import InvalidInputError
from oscount.fields import (
    FieldDescriptor,
    Scalar,
    cyclotomic_field,
    cyclotomic_polynomial,
    cyclotomic_reduce,
    is_prime,
    parse_scalar,
    rational_field,
)

QQ = rational_field()
Q3 = cyclotomic_field(3)
Q4 = cyclotomic_field(4)
Q8 = cyclotomic_field(8)


def test_field_degree_is_the_totient():
    degrees = [FieldDescriptor(n).degree for n in range(1, 13)]
    assert degrees == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


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
    assert (QQ.kind, Q8.kind, cyclotomic_field(2).kind) == ("rational", "cyclotomic", "cyclotomic")
    for conductor in (0, -3):
        with pytest.raises(InvalidInputError, match="conductor must be >= 1"):
            FieldDescriptor(conductor)
    assert Q8.cyclotomic == (1, 0, 0, 0, 1)
    assert Q3.powers[:3] == ((1, 0), (0, 1), (-1, -1))


def test_conductor_limit_is_checked_before_phi_is_computed():
    # Phi_N comes from a recursion over the divisors of N
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        FieldDescriptor(10**6)
    with pytest.raises(InvalidInputError, match="exceeds the limit"):
        cyclotomic_field(2**127 - 1)  # a prime: Phi_N would have degree 2^127 - 2
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


def test_arithmetic_agrees_with_every_complex_embedding():
    # Every quotient ring satisfies the field axioms, so only an embedding
    # zeta -> e^(2 pi i k / N) can see a wrong modulus, power table or
    # conjugation exponent.
    rng = random.Random(20)

    def close(x, y):
        return abs(x - y) <= 1e-9 * max(1.0, abs(y))

    def rationals(count):
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(count)]

    for n in range(1, 31):
        field = cyclotomic_field(n)
        samples = [Scalar(field, tuple(rationals(field.degree))) for _ in range(6)]
        cases = [
            (a, b, a * b, a.conjugate(), a.inverse() if not a.is_zero() else None)
            for a, b in zip(samples, samples[1:])
        ]
        vectors = [rationals(rng.randint(0, n)) for _ in range(5)]
        reduced = [cyclotomic_reduce(v, field) for v in vectors]
        for k in range(1, n + 1):
            if gcd(k, n) != 1:
                continue
            z = cmath.exp(2j * cmath.pi * k / n)

            def at(coords):
                return sum(complex(c) * z**i for i, c in enumerate(coords))

            assert abs(at(cyclotomic_polynomial(n))) < 1e-9
            assert close(at(field.zeta().coords), z)
            for a, b, product, conjugate, inverse in cases:
                assert close(at(product.coords), at(a.coords) * at(b.coords))
                assert close(at(conjugate.coords), at(a.coords).conjugate())
                if inverse is not None:
                    assert close(at(inverse.coords), 1 / at(a.coords))
            for v, r in zip(vectors, reduced):
                assert close(at(r.coords), at(v))


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
