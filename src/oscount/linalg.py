"""Exact dense linear algebra over a FieldDescriptor.

Row-level helpers operate on tuples of Scalars and are shared by the
arrangement and group modules; ExactMatrix is the public type.
rref is a true canonical form over an exact field: equal row spaces
yield identical output.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidInputError
from .fields import FieldDescriptor, Scalar, dot

__all__ = ["ExactMatrix", "rref_rows", "reduce_row", "rank_of_rows"]

Row = tuple[Scalar, ...]


def rref_rows(rows: Sequence[Row]) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """Reduced row echelon form of a list of rows; zero rows dropped.

    Returns (canonical rows, pivot column indices).
    """
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if not work[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        if not lead.is_one():
            inv = lead.inverse()
            work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][col].is_zero():
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reduce_row(row: Row, pivot_rows: Sequence[Row], pivots: Sequence[int]) -> Row:
    """Reduce one row against rref rows; zero result means row in their span."""
    out = list(row)
    for prow, col in zip(pivot_rows, pivots):
        c = out[col]
        if not c.is_zero():
            out = [a - c * b for a, b in zip(out, prow)]
    return tuple(out)


def rank_of_rows(rows: Sequence[Row]) -> int:
    return len(rref_rows(rows)[0])


class ExactMatrix:
    """Immutable matrix of Scalars over a common field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDescriptor, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise InvalidInputError("ragged matrix rows")
                for x in r:
                    if x.field.conductor != field.conductor:
                        raise InvalidInputError("matrix entry from a different field")
        else:
            width = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "ExactMatrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.field.conductor == other.field.conductor
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.conductor, self.rows))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise InvalidInputError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = list(zip(*other.rows)) if other.rows else []
        return ExactMatrix(self.field, [[dot(row, col) for col in cols] for row in self.rows])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InvalidInputError("shape mismatch in matrix subtraction")
        return ExactMatrix(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.field, [[-a for a in row] for row in self.rows])

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def rank(self) -> int:
        return rank_of_rows(self.rows)

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise InvalidInputError("inverse of a non-square matrix")
        n = self.nrows
        one, zero = self.field.one(), self.field.zero()
        aug = [
            list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(self.rows)
        ]
        reduced, pivots = rref_rows(aug)
        if len(reduced) < n or any(p >= n for p in pivots):
            raise InvalidInputError("matrix is singular")
        return ExactMatrix(self.field, [row[n:] for row in reduced])

    def key(self) -> str:
        """Deterministic serialization used for dedup and canonical ordering."""
        return ";".join(" ".join(str(x) for x in row) for row in self.rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols}, N={self.field.conductor})"
