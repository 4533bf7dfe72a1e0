"""Exact scalars over Q and cyclotomic fields Q(zeta_N).

A scalar is a coordinate vector over Q in the power basis
1, z, ..., z^{phi(N)-1} of Q[x]/Phi_N(x), stored in lowest terms, so
equality is literal coordinate equality and all arithmetic is exact.
The rational field is the case N = 1.  Mixed-field arithmetic is an
error.  A FieldDescriptor computes Phi_N and the power table of zeta once,
when it is made.

The conductor is at most MAX_CONDUCTOR, checked before any work: Phi_N
comes from a recursion over the divisors of N, arithmetic costs grow with
phi(N)^2 and the lattice prime exceeds H^phi(N) (see `arrangement`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InvalidInputError, MathematicalInconsistencyError

__all__ = [
    "FieldDescriptor",
    "Scalar",
    "rational_field",
    "cyclotomic_field",
    "cyclotomic_polynomial",
    "cyclotomic_reduce",
    "is_prime",
    "parse_scalar",
    "MAX_CONDUCTOR",
]

MAX_CONDUCTOR = 100


def is_prime(n: int) -> bool:
    """Whether n is prime, by a proof, never a probable-prime guess.

    Pocklington's theorem (Crandall & Pomerance, Prime Numbers, Thm 4.1.3):
    if F divides n - 1, F^2 > n, and each prime f dividing F has a base a
    with a^(n-1) = 1 (mod n) and gcd(a^((n-1)/f) - 1, n) = 1, then n is
    prime.  F is the part of n - 1 found by trial division, stopped as soon
    as F^2 > n.  For a Proth number n = k 2^m + 1 with k < 2^m, F = 2^m and
    the base has a^((n-1)/2) = -1 (mod n): Proth's theorem.
    """
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


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]):
    # den is monic; exact division over Z.
    num_l = list(num)
    d = len(den) - 1
    quot = [0] * max(len(num_l) - d, 0)
    for k in range(len(num_l) - 1, d - 1, -1):
        c = num_l[k]
        if c:
            quot[k - d] = c
            for j in range(d + 1):
                num_l[k - d + j] -= c * den[j]
    while num_l and num_l[-1] == 0:
        num_l.pop()
    return tuple(quot), tuple(num_l)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.  Phi_1 = x - 1.

    Computed by the recursion x^m - 1 = prod_{d | m} Phi_d, for the divisors
    m of n in increasing order.
    """
    if n < 1:
        raise InvalidInputError(f"cyclotomic polynomial undefined for {n}")
    found: dict[int, tuple[int, ...]] = {}
    for m in range(1, n + 1):
        if n % m == 0:
            poly = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
            for d, phi_d in found.items():
                if m % d == 0:
                    poly, rem = _poly_divmod_int(poly, phi_d)
                    if rem:
                        raise MathematicalInconsistencyError(
                            f"cyclotomic recursion left a remainder at m = {m}"
                        )
            found[m] = poly
    return found[n]


def _power_table(conductor: int, phi: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta^k in the power basis mod Phi_N, for k up to
    max(N, 2*phi(N) - 1) exclusive (products need exponents to 2d - 2)."""
    d = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for k in range(d):
        rows.append(tuple(1 if i == k else 0 for i in range(d)))
    # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1})
    top = tuple(-phi[i] for i in range(d))
    for _ in range(d, max(conductor, 2 * d - 1)):
        prev = rows[-1]
        shifted = [0] + list(prev[: d - 1])
        carry = prev[d - 1]
        if carry:
            shifted = [s + carry * t for s, t in zip(shifted, top)]
        rows.append(tuple(shifted))
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
        return Scalar(self, (Fraction(0),) * self.degree)

    def one(self) -> "Scalar":
        return Scalar(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    def from_rational(self, value) -> "Scalar":
        c = Fraction(value)
        return Scalar(self, (c,) + (Fraction(0),) * (self.degree - 1))

    def zeta(self) -> "Scalar":
        """A primitive N-th root of unity (the basis element z)."""
        if self.conductor == 1:
            return self.one()
        if self.conductor == 2:
            return self.from_rational(-1)
        return Scalar(self, (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2))


def rational_field() -> FieldDescriptor:
    return FieldDescriptor(1)


def cyclotomic_field(conductor: int) -> FieldDescriptor:
    return FieldDescriptor(conductor)


class Scalar:
    """Exact element of a FieldDescriptor, immutable and hashable."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FieldDescriptor, coords: tuple[Fraction, ...]):
        if len(coords) != field.degree:
            raise InvalidInputError(
                f"coordinate vector of length {len(coords)} for a degree-{field.degree} field"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def _same_field(self, other: "Scalar"):
        if self.field.conductor != other.field.conductor:
            raise InvalidInputError(
                f"mixed-field arithmetic: conductor {self.field.conductor} vs "
                f"{other.field.conductor}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._same_field(other)
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._same_field(other)
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._same_field(other)
        a, b = self.coords, other.coords
        d = self.field.degree
        if d == 1:
            return Scalar(self.field, (a[0] * b[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        table = self.field.powers
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = table[k]
                for i, ti in enumerate(row):
                    if ti:
                        out[i] += ck * ti
        return Scalar(self.field, tuple(out))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        d = self.field.degree
        if d == 1:
            return Scalar(self.field, (Fraction(1) / self.coords[0],))
        # Extended Euclid in Q[x] against Phi_N (irreducible over Q).
        phi = [Fraction(c) for c in self.field.cyclotomic]
        a = list(self.coords)
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, r = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul_frac(q, s1))
        # r0 is a nonzero constant multiple of gcd = 1.
        const = next(c for c in reversed(r0) if c)
        inv_coords = [c / const for c in s0]
        return cyclotomic_reduce(inv_coords, self.field)

    def conjugate(self) -> "Scalar":
        """Complex conjugation, zeta -> zeta^{N-1}."""
        f = self.field
        if f.is_rational:
            return self
        table = f.powers
        d = f.degree
        out = [Fraction(0)] * d
        for k, ck in enumerate(self.coords):
            if ck:
                row = table[(k * (f.conductor - 1)) % f.conductor]
                for i, ti in enumerate(row):
                    if ti:
                        out[i] += ck * ti
        return Scalar(f, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and not any(self.coords[1:])

    def is_real(self) -> bool:
        return self == self.conjugate()

    def rational_value(self) -> Fraction:
        if any(self.coords[1:]):
            raise InvalidInputError(f"scalar {self} is not rational")
        return self.coords[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.field.conductor == other.field.conductor
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field.conductor, self.coords))

    def __str__(self) -> str:
        # The scalar token syntax used by all file formats.
        if self.field.is_rational:
            return str(self.coords[0])
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"Scalar[N={self.field.conductor}]({self})"


def _poly_divmod_frac(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    while num and not num[-1]:
        num.pop()
    den = list(den)
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    lead = den[-1]
    while len(num) >= len(den) and any(num):
        shift = len(num) - len(den)
        c = num[-1] / lead
        q[shift] = c
        for i, dc in enumerate(den):
            num[shift + i] -= c * dc
        while num and not num[-1]:
            num.pop()
    return q, num


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclotomic_reduce(poly_coords: Sequence, field: FieldDescriptor) -> Scalar:
    """Canonical representative of a power-basis vector modulo Phi_N.

    Input length may be at most N; exponents >= phi(N) are folded through
    the reduction table, so two scalars are equal iff coords coincide.
    """
    coords = [Fraction(c) for c in poly_coords]
    n, d = field.conductor, field.degree
    if len(coords) > n:
        raise InvalidInputError(
            f"power-basis vector of length {len(coords)} exceeds conductor {n}"
        )
    out = coords[:d] + [Fraction(0)] * max(d - len(coords), 0)
    if len(coords) > d:
        table = field.powers
        for k in range(d, len(coords)):
            ck = coords[k]
            if ck:
                row = table[k]
                for i, ti in enumerate(row):
                    if ti:
                        out[i] += ck * ti
    return Scalar(field, tuple(out))


_RATIONAL_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(text: str) -> Fraction:
    # Fraction also reads decimals, `_` digit groups and exponents, and would
    # expand 1e1000000 into an integer of a million digits; none of them is
    # part of the token syntax.
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not allowed")
    if not _RATIONAL_TOKEN.fullmatch(text):
        raise ValueError("expected an integer p or a fraction p/q")
    return Fraction(text)


def parse_scalar(token: str, field: FieldDescriptor) -> Scalar:
    """Parse a scalar token: `p/q`, `p`, or `(a0,a1,...)` per the field."""
    token = token.strip()
    if token.startswith("("):
        if field.is_rational:
            raise InvalidInputError(
                f"cyclotomic token {token!r} in a rational-field context"
            )
        if not token.endswith(")"):
            raise InvalidInputError(f"unterminated cyclotomic token {token!r}")
        parts = token[1:-1].split(",")
        try:
            coords = [_rational(p.strip()) for p in parts]
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad cyclotomic token {token!r}: {exc}") from None
        if len(coords) > field.degree:
            raise InvalidInputError(
                f"token {token!r} has {len(coords)} coordinates; field degree is {field.degree}"
            )
        coords += [Fraction(0)] * (field.degree - len(coords))
        return Scalar(field, tuple(coords))
    try:
        value = _rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad rational token {token!r}: {exc}") from None
    return field.from_rational(value)
