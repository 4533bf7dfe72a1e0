"""Exact scalars over Q and cyclotomic fields Q(zeta_N).

A scalar (n_0 + n_1 z + ... + n_{d-1} z^{d-1}) / D in the power basis of
Q[x]/Phi_N(x), d = phi(N), is stored as its integer numerators `num` over
one denominator `den` = D > 0 with gcd(D, n_0, ..., n_{d-1}) = 1: the
common-denominator form (Cohen, A Course in Computational Algebraic Number
Theory, 4.2).  It is canonical, so equality is literal and all arithmetic
is exact, on Python ints; `coords` derives the rational coordinates.  The
rational field is the case N = 1.  Mixed-field arithmetic is an error.  A
FieldDescriptor computes Phi_N and the power table of zeta once, when it
is made; `_fold` reduces exponents k >= d through that table, and every
result passes through `_scalar`, which divides out one gcd.

The conductor is at most MAX_CONDUCTOR, checked before any work: Phi_N
comes from a recursion over the divisors of N, arithmetic costs grow with
phi(N)^2 and the lattice prime exceeds H^phi(N) (see `arrangement`).
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import Sequence

from .errors import InvalidInputError, MathematicalInconsistencyError

__all__ = [
    "FieldDescriptor", "Scalar", "rational_field", "cyclotomic_field", "cyclotomic_polynomial",
    "cyclotomic_reduce", "dot", "is_prime", "parse_scalar", "MAX_CONDUCTOR",
]

MAX_CONDUCTOR = 100


def is_prime(n: int) -> bool:
    """Whether n is prime, by a proof, never a probable-prime guess:
    Pocklington's theorem (Crandall & Pomerance, Prime Numbers, Thm 4.1.3).
    If F divides n - 1, F^2 > n, and each prime f dividing F has a base a
    with a^(n-1) = 1 (mod n) and gcd(a^((n-1)/f) - 1, n) = 1, then n is
    prime.  F is the part of n - 1 found by trial division, stopped as soon
    as F^2 > n.  For a Proth number n = k 2^m + 1 with k < 2^m, F = 2^m and
    the base has a^((n-1)/2) = -1 (mod n): Proth's theorem."""
    if n < 3 or n % 2 == 0:
        return n == 2
    factors, rest, f = [], n - 1, 2
    while ((n - 1) // rest) ** 2 <= n:
        if f * f > rest:
            f = rest  # every smaller factor is gone, so rest is prime
        if rest % f == 0:
            factors.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    for f in factors:
        for a in range(2, n):
            if pow(a, n - 1, n) != 1:
                return False  # Fermat: n is composite
            g = gcd(pow(a, (n - 1) // f, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False  # a proper factor of n
    return True


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list, list]:
    """Quotient and remainder of num by a monic den in Z[x], ascending."""
    num, d = list(num), len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for k in range(len(num) - 1, d - 1, -1):
        quot[k - d] = c = num[k]
        for j, dj in enumerate(den):
            num[k - d + j] -= c * dj
    return quot, num[:d]


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.  Phi_1 = x - 1.  Computed by the
    recursion x^m - 1 = prod_{d | m} Phi_d, for the divisors m of n in
    increasing order."""
    if n < 1:
        raise InvalidInputError(f"cyclotomic polynomial undefined for {n}")
    found: dict[int, tuple[int, ...]] = {}
    for m in range(1, n + 1):
        if n % m == 0:
            poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
            for d, phi_d in found.items():
                if m % d == 0:
                    poly, rem = _poly_divmod(poly, phi_d)
                    if any(rem):
                        msg = f"cyclotomic recursion left a remainder at m = {m}"
                        raise MathematicalInconsistencyError(msg)
            found[m] = tuple(poly)
    return found[n]


def _power_table(conductor: int, phi: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta^k mod Phi_N for k < max(N, 2d - 1), d = phi(N)
    (products reach 2d - 2): zeta^(k+1) is zeta^k shifted up one power,
    with zeta^d = -(phi_0 + ... + phi_{d-1} zeta^{d-1})."""
    d = len(phi) - 1
    rows = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    for _ in range(d, max(conductor, 2 * d - 1)):
        top = rows[-1][-1]
        rows.append(tuple((rows[-1][i - 1] if i else 0) - top * phi[i] for i in range(d)))
    return tuple(rows)


class FieldDescriptor:
    """Coefficient field: Q (conductor 1) or Q(zeta_N), with Phi_N
    (`cyclotomic`, ascending), its degree phi(N) and the coordinates of
    zeta^k (`powers`).  Immutable; equal and hashed by the conductor, which
    fixes the rest."""

    __slots__ = ("conductor", "degree", "cyclotomic", "powers")

    def __init__(self, conductor: int):
        if conductor < 1:
            raise InvalidInputError("conductor must be >= 1")
        if conductor > MAX_CONDUCTOR:
            raise InvalidInputError(f"conductor {conductor} exceeds the limit {MAX_CONDUCTOR}")
        phi = cyclotomic_polynomial(conductor)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "degree", len(phi) - 1)
        object.__setattr__(self, "cyclotomic", phi)
        object.__setattr__(self, "powers", _power_table(conductor, phi))

    def __setattr__(self, *_):
        raise AttributeError("FieldDescriptor is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldDescriptor) and self.conductor == other.conductor

    def __hash__(self):
        return hash(self.conductor)

    @property
    def is_rational(self) -> bool:
        return self.conductor == 1

    @property
    def kind(self) -> str:
        return "rational" if self.conductor == 1 else "cyclotomic"

    def zero(self) -> "Scalar":
        return self.from_rational(0)

    def one(self) -> "Scalar":
        return self.from_rational(1)

    def from_rational(self, value) -> "Scalar":
        """The Scalar of an int or a Fraction."""
        return _scalar(self, [value.numerator] + [0] * (self.degree - 1), value.denominator)

    def zeta(self) -> "Scalar":
        """A primitive N-th root of unity (the basis element z when N >= 3)."""
        return _scalar(self, list(self.powers[1 % self.conductor]), 1)


def rational_field() -> FieldDescriptor:
    return FieldDescriptor(1)


def cyclotomic_field(conductor: int) -> FieldDescriptor:
    return FieldDescriptor(conductor)


class Scalar:
    """Exact element of a FieldDescriptor, immutable and hashable: `num` over
    `den` (module docstring), made from phi(N) ints or Fractions."""

    __slots__ = ("field", "num", "den")

    def __new__(cls, field: FieldDescriptor, coords: Sequence):
        if len(coords) != field.degree:
            msg = f"coordinate vector of length {len(coords)} for a degree-{field.degree} field"
            raise InvalidInputError(msg)
        return cyclotomic_reduce(coords, field)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    @property
    def coords(self) -> tuple:
        """The rational power-basis coordinates, as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.num)

    def _same_field(self, other: "Scalar"):
        if (a := self.field.conductor) != (b := other.field.conductor):
            raise InvalidInputError(f"mixed-field arithmetic: conductor {a} vs {b}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._same_field(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da == db:
            return _scalar(self.field, [x + y for x, y in zip(a, b)], da)
        return _scalar(self.field, [x * db + y * da for x, y in zip(a, b)], da * db)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._same_field(other)
        a, da, b, db = self.num, self.den, other.num, other.den
        if da == db:
            return _scalar(self.field, [x - y for x, y in zip(a, b)], da)
        return _scalar(self.field, [x * db - y * da for x, y in zip(a, b)], da * db)

    def __neg__(self) -> "Scalar":
        return _scalar(self.field, [-x for x in self.num], self.den)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.field.degree > 1:
            return dot((self,), (other,))
        self._same_field(other)
        return _scalar(self.field, [self.num[0] * other.num[0]], self.den * other.den)

    def inverse(self) -> "Scalar":
        """1 / self, by the norm.  Phi_N is irreducible, so the automorphisms
        of Q(zeta_N) are sigma_k: zeta -> zeta^k, k prime to N.  Each permutes
        the factors of N(a) = prod_k sigma_k(a), so N(a) is rational, and
        nonzero for a != 0 as each sigma_k is injective: 1/a = P(a) / N(a),
        P(a) = prod_{k != 1} sigma_k(a).  For a = n / D, n integral, sigma_k
        maps Z[zeta] to itself, so N(n) = n P(n) is an integer (checked)
        and 1/a = D P(n) / N(n)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.field.degree == 1:
            return _scalar(self.field, [self.den], self.num[0])
        f, n, p = self.field, _scalar(self.field, list(self.num), 1), self.field.one()
        for k in range(2, f.conductor):
            if gcd(k, f.conductor) == 1:
                p = p * n._galois(k)
        if (norm := n * p).den != 1 or any(norm.num[1:]):
            raise MathematicalInconsistencyError(f"the norm of {self} is not an integer")
        return _scalar(f, [c * self.den for c in p.num], norm.num[0])

    def conjugate(self) -> "Scalar":
        """Complex conjugation, zeta -> zeta^{N-1}."""
        return self._galois(self.field.conductor - 1)

    def _galois(self, k: int) -> "Scalar":
        """sigma_k(self), zeta -> zeta^k, for k prime to N."""
        n, moved = self.field.conductor, [0] * self.field.conductor
        for i, c in enumerate(self.num):
            moved[i * k % n] = c
        return _scalar(self.field, _fold(moved, self.field), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
            and self.field.conductor == other.field.conductor
        )

    def __hash__(self):
        return hash((self.field.conductor, self.num, self.den))

    def __str__(self) -> str:
        # The scalar token syntax used by all file formats.
        d = self.den
        parts = [str(c // g) if (g := gcd(c, d)) == d else f"{c // g}/{d // g}" for c in self.num]
        return parts[0] if self.field.is_rational else "(" + ",".join(parts) + ")"

    def __repr__(self) -> str:
        return f"Scalar[N={self.field.conductor}]({self})"


_new, _set_field, _set_num, _set_den = (
    object.__new__, Scalar.field.__set__, Scalar.num.__set__, Scalar.den.__set__
)


def _scalar(field: FieldDescriptor, num: list, den: int) -> Scalar:
    """The Scalar num / den, den != 0, in canonical form by one gcd pass."""
    g = gcd(den, *num) if den > 0 else -gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    s = _new(Scalar)
    _set_field(s, field)
    _set_num(s, tuple(num))
    _set_den(s, den)
    return s


def dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    """sum_i xs[i] ys[i] for nonempty xs and ys over one field: a sum of
    convolutions over a common denominator, then one fold and one gcd."""
    f, den = xs[0].field, 1
    conv = [0] * (2 * f.degree - 1)
    for x, y in zip(xs, ys):
        if x.field is not f or y.field is not f:
            xs[0]._same_field(x)
            x._same_field(y)
        a, b = x.num, y.num
        if not any(a) or not any(b):
            continue
        if (d := x.den * y.den) != den:
            common = lcm(den, d)
            if common != den:
                conv = [c * (common // den) for c in conv]
                den = common
            a = [c * (common // d) for c in a]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
    return _scalar(f, _fold(conv, f), den)


def cyclotomic_reduce(poly_coords: Sequence, field: FieldDescriptor) -> Scalar:
    """The Scalar sum_k poly_coords[k] zeta^k of at most N ints or Fractions."""
    if len(poly_coords) > field.conductor:
        msg = f"power-basis vector of length {len(poly_coords)} exceeds conductor {field.conductor}"
        raise InvalidInputError(msg)
    den = lcm(*(c.denominator for c in poly_coords))
    vec = [c.numerator * (den // c.denominator) for c in poly_coords]
    return _scalar(field, _fold(vec, field), den)


def _fold(vec: list, field: FieldDescriptor) -> list:
    """The integer coordinates of sum_k vec[k] zeta^k, ints vec[k], each
    k >= phi(N) folded through `field.powers[k]` (so up to its length)."""
    d = field.degree
    out = vec[:d] + [0] * (d - len(vec))
    for k in range(d, len(vec)):
        ck = vec[k]
        if ck:
            for i, ti in enumerate(field.powers[k]):
                if ti:
                    out[i] += ck * ti
    return out


_RATIONAL_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational(text: str) -> tuple[int, int]:
    """(p, q) of a token p or p/q, q > 0.  Decimals, `_` digit groups and
    exponents (1e1000000 has a million digits) are not token syntax."""
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not allowed")
    match = _RATIONAL_TOKEN.fullmatch(text)
    if not match:
        raise ValueError("expected an integer p or a fraction p/q")
    if match[2] and not int(match[2]):
        raise ValueError("zero denominator")
    return int(match[1]), int(match[2] or 1)


def parse_scalar(token: str, field: FieldDescriptor) -> Scalar:
    """Parse a scalar token: `p/q`, `p`, or `(a0,a1,...)` per the field."""
    token = token.strip()
    kind, parts = "rational", [token]
    if token.startswith("("):
        if field.is_rational:
            raise InvalidInputError(f"cyclotomic token {token!r} in a rational-field context")
        if not token.endswith(")"):
            raise InvalidInputError(f"unterminated cyclotomic token {token!r}")
        kind, parts = "cyclotomic", token[1:-1].split(",")
    try:
        coords = [_rational(p.strip()) for p in parts]
    except ValueError as exc:
        raise InvalidInputError(f"bad {kind} token {token!r}: {exc}") from None
    if len(coords) > field.degree:
        msg = f"token {token!r} has {len(coords)} coordinates; field degree is {field.degree}"
        raise InvalidInputError(msg)
    den = lcm(*(q for _, q in coords))
    return _scalar(field, _fold([p * (den // q) for p, q in coords], field), den)
