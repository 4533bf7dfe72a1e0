"""The integer kernel of `fields` against the Fraction-coordinate reference
in conftest: every operation, the canonical form and the token round trip."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import ReferenceField

from oscount.errors import InvalidInputError
from oscount.fields import Scalar, cyclotomic_field, dot, parse_scalar

CONDUCTORS = (1, 3, 4, 5, 8, 12, 60, 100)


def random_coords(rng, degree, density=0.7):
    """Fraction coordinates with some zeros and assorted denominators."""
    return [
        Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))
        if rng.random() < density
        else Fraction(0)
        for _ in range(degree)
    ]


def assert_canonical(x, field):
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert len(x.num) == field.degree
    again = parse_scalar(str(x), field)
    assert again == x and hash(again) == hash(x)
    rebuilt = Scalar(field, x.coords)
    assert rebuilt == x and hash(rebuilt) == hash(x)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_agrees_with_the_fraction_reference(n):
    field, ref = cyclotomic_field(n), ReferenceField(n)
    assert ref.degree == field.degree
    rng = random.Random(n)
    coords = [random_coords(rng, field.degree) for _ in range(6 if n < 60 else 3)]
    coords.append([Fraction(0)] * field.degree)
    for a, b in zip(coords, coords[1:]):
        x, y = Scalar(field, a), Scalar(field, b)
        results = [
            (x + y, ref.add(a, b)),
            (x - y, ref.sub(a, b)),
            (-x, ref.sub([Fraction(0)] * field.degree, a)),
            (x * y, ref.mul(a, b)),
            (x.conjugate(), ref.galois(a, n - 1)),
        ]
        for got, want in results:
            assert list(got.coords) == want
            assert_canonical(got, field)
        if any(a):
            inverse = x.inverse()
            assert ref.mul(a, list(inverse.coords)) == ref.one()
            assert_canonical(inverse, field)
    # dot over scalars with different denominators, zeros among them
    xs = [random_coords(rng, field.degree, 0.5) for _ in range(5)]
    ys = [random_coords(rng, field.degree, 0.5) for _ in range(5)]
    want = [Fraction(0)] * field.degree
    for a, b in zip(xs, ys):
        want = ref.add(want, ref.mul(a, b))
    got = dot([Scalar(field, a) for a in xs], [Scalar(field, b) for b in ys])
    assert list(got.coords) == want
    assert_canonical(got, field)


def test_dense_inverse_in_the_100th_cyclotomic_field():
    field, ref = cyclotomic_field(100), ReferenceField(100)
    rng = random.Random(100)
    a = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5)) for _ in range(40)]
    inverse = Scalar(field, a).inverse()
    assert ref.mul(a, list(inverse.coords)) == ref.one()
    assert_canonical(inverse, field)


def test_dot_refuses_mixed_fields_anywhere_in_the_sum():
    q3, q4 = cyclotomic_field(3), cyclotomic_field(4)
    with pytest.raises(InvalidInputError, match="mixed-field arithmetic: conductor 3 vs 4"):
        dot([q3.one()], [q4.one()])
    with pytest.raises(InvalidInputError, match="mixed-field arithmetic: conductor 3 vs 4"):
        dot([q3.one(), q4.zero()], [q3.one(), q4.zero()])
    # equal fields made twice are one field
    assert dot([q3.zeta()], [cyclotomic_field(3).zeta()]) == q3.zeta() * q3.zeta()
