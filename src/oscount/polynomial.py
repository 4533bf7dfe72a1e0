"""Integer polynomials in one variable t, with arbitrary-precision coefficients."""

from __future__ import annotations

from typing import Iterable

__all__ = ["IntegerPolynomial"]


class IntegerPolynomial:
    """Dense integer polynomial; coefficients ascending, no trailing zeros."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(int(c) for c in coeffs))

    def __setattr__(self, *_):
        raise AttributeError("IntegerPolynomial is immutable")

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return IntegerPolynomial(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    def __sub__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        a, b = self.coefficients, other.coefficients
        n = max(len(a), len(b))
        return IntegerPolynomial(
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)
        )

    def __mul__(self, other: "IntegerPolynomial") -> "IntegerPolynomial":
        out = [0] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntegerPolynomial(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerPolynomial)
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash(self.coefficients)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "t" if mag == 1 else f"{mag}*t"
            else:
                term = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntegerPolynomial({self})"
