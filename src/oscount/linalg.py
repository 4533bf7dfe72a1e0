"""Exact row reduction over a FieldDescriptor.

A row is a tuple of Scalars and a matrix a sequence of rows; the helpers
here are shared by the arrangement and group modules.  rref is a true
canonical form over an exact field: equal row spaces yield identical
output.
"""

from __future__ import annotations

from typing import Sequence

from .fields import Scalar

__all__ = ["rref_rows", "reduce_row", "rank_of_rows"]

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
