"""Independent verification of arrangement invariants via the underlying matroid.

Everything here runs on the exact rank oracle of the stacked normal vectors
(plus offsets where affine data matters) and is deliberately independent of
the intersection-lattice route: no flat or Moebius code is shared.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm

from .arrangement import Arrangement
from .errors import ComputationCapError, InvalidInputError
from .linalg import Row, reduce_row, rank_of_rows
from .polynomial import IntegerPolynomial

__all__ = [
    "nbc_betti",
    "finite_field_count",
    "find_good_primes",
    "whitney_characteristic",
    "DEFAULT_SUBSET_CAP",
    "DEFAULT_FF_CAP",
]

DEFAULT_SUBSET_CAP = 2_000_000
DEFAULT_FF_CAP = 10**8


def nbc_betti(arrangement: Arrangement, subset_cap: int = DEFAULT_SUBSET_CAP) -> list[int]:
    """Counts, by cardinality, of independent sets containing no broken circuit.

    Walks elements in decreasing arrangement order keeping the chosen set's
    row space; a branch dies exactly when the current element lies in the
    span of the larger-indexed chosen ones (that membership is equivalent to
    creating a broken circuit, taking the circuit's minimal element as the
    element itself).  The counts sum to the Orlik-Solomon dimension.
    """
    if not arrangement.central:
        raise InvalidInputError(
            "the nbc oracle is defined for central arrangements; cone the input first"
        )
    vectors = [h.normal for h in arrangement.hyperplanes]
    n = len(vectors)
    counts: dict[int, int] = {}
    visited = 0

    def walk(e: int, rows, pivots, size: int):
        nonlocal visited
        if e < 0:
            counts[size] = counts.get(size, 0) + 1
            return
        visited += 1
        if visited > subset_cap:
            raise ComputationCapError(
                f"subset cap {subset_cap} exceeded during nbc enumeration"
            )
        reduced = reduce_row(vectors[e], rows, pivots)
        lead = next((i for i, x in enumerate(reduced) if not x.is_zero()), None)
        if lead is None:
            return  # e is spanned by the chosen larger-indexed elements
        walk(e - 1, rows, pivots, size)
        inv = reduced[lead].inverse()
        normalized = tuple(inv * x for x in reduced)
        walk(e - 1, rows + (normalized,), pivots + (lead,), size + 1)

    walk(n - 1, (), (), 0)
    top = max(counts) if counts else 0
    return [counts.get(k, 0) for k in range(top + 1)]


def _integer_rows(arrangement: Arrangement) -> list[list[int]]:
    """Primitive integer rows (normal | offset) for a rational arrangement."""
    if not arrangement.field.is_rational:
        raise InvalidInputError(
            "finite-field counting requires rational coefficients"
        )
    rows = []
    for h in arrangement.hyperplanes:
        fracs = [x.rational_value() for x in h.row()]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * scale) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        rows.append(ints)
    return rows


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Fraction-free integer determinant."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


_minor_cache: dict[str, frozenset[int]] = {}


def _nonzero_minor_values(arrangement: Arrangement) -> frozenset[int]:
    """Absolute values of all nonzero k x k minors of the integer
    (normal | offset) matrix, k <= rank + 1."""
    key = arrangement.key()
    hit = _minor_cache.get(key)
    if hit is not None:
        return hit
    rows = _integer_rows(arrangement)
    values: set[int] = set()
    if rows:
        ncols = len(rows[0])
        rank = rank_of_rows([h.normal for h in arrangement.hyperplanes])
        # offsets can raise the stacked-matrix rank by one
        kmax = min(rank + 1, len(rows), ncols)
        for k in range(1, kmax + 1):
            for rsel in combinations(range(len(rows)), k):
                sub = [rows[i] for i in rsel]
                for csel in combinations(range(ncols), k):
                    det = _bareiss_det([[row[c] for c in csel] for row in sub])
                    if det:
                        values.add(abs(det))
    result = frozenset(values)
    _minor_cache[key] = result
    return result


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            return False
        p += 1
    return True


def finite_field_count(
    arrangement: Arrangement, q: int, ff_cap: int = DEFAULT_FF_CAP
) -> int:
    """Number of points of F_q^l lying on no hyperplane.

    For a good prime this equals chi(A, q).  A prime is good when it divides
    no nonzero k x k minor (k <= rank+1) of the stacked integer
    (normal | offset) matrix; the check is sufficient, not minimal.
    """
    if not _is_prime(q):
        raise InvalidInputError(f"{q} is not prime")
    rows = _integer_rows(arrangement)
    bad = sorted(v for v in _nonzero_minor_values(arrangement) if v % q == 0)
    if bad:
        raise InvalidInputError(
            f"prime {q} is not good for this arrangement: it divides the "
            f"nonzero minor value {bad[0]}"
        )
    ell = arrangement.ambient_dim
    npoints = q**ell
    if npoints > ff_cap:
        raise ComputationCapError(
            f"q^l = {npoints} exceeds the finite-field enumeration cap {ff_cap}"
        )
    if not rows:
        return npoints
    # Lazy: numpy dominates the package's import time and only this oracle uses it.
    import numpy as np

    normals = np.array([r[:-1] for r in rows], dtype=np.int64) % q
    offsets = np.array([r[-1] for r in rows], dtype=np.int64) % q
    powers = q ** np.arange(ell, dtype=np.int64)
    chunk = 1 << 16
    count = 0
    for start in range(0, npoints, chunk):
        stop = min(start + chunk, npoints)
        idx = np.arange(start, stop, dtype=np.int64)
        points = (idx[:, None] // powers[None, :]) % q
        vals = (points @ normals.T - offsets[None, :]) % q
        count += int(np.count_nonzero(np.all(vals != 0, axis=1)))
    return count


def find_good_primes(
    arrangement: Arrangement,
    how_many: int = 2,
    ff_cap: int = DEFAULT_FF_CAP,
    q_limit: int = 10_000,
) -> list[int]:
    """Smallest good primes q with q^l within the enumeration cap."""
    ell = arrangement.ambient_dim
    minors = _nonzero_minor_values(arrangement)
    good: list[int] = []
    q = 2
    while len(good) < how_many and q <= q_limit:
        if _is_prime(q) and q**ell <= ff_cap and all(v % q for v in minors):
            good.append(q)
        q += 1
    if len(good) < how_many:
        raise ComputationCapError(
            f"found only {len(good)} good primes within q <= {q_limit} "
            f"and cap {ff_cap}"
        )
    return good


def whitney_characteristic(
    arrangement: Arrangement, subset_cap: int = DEFAULT_SUBSET_CAP
) -> IntegerPolynomial:
    """Brute-force characteristic polynomial
    chi(A, t) = sum over subsets with nonempty intersection of
    (-1)^{|S|} t^{dim of the intersection}; the oracle for the lattice route."""
    n = len(arrangement.hyperplanes)
    if 2**n > subset_cap:
        raise ComputationCapError(
            f"2^{n} subsets exceed the subset cap {subset_cap}"
        )
    ell = arrangement.ambient_dim
    offset_col = ell
    rows_of = [h.row() for h in arrangement.hyperplanes]
    coeffs = [0] * (ell + 1)

    def walk(i: int, rows, pivots, size: int):
        if i == n:
            coeffs[ell - len(pivots)] += (-1) ** size
            return
        walk(i + 1, rows, pivots, size)
        reduced = reduce_row(rows_of[i], rows, pivots)
        lead = next((j for j, x in enumerate(reduced) if not x.is_zero()), None)
        if lead == offset_col:
            return  # empty intersection; all supersets are empty too
        if lead is None:
            walk(i + 1, rows, pivots, size + 1)
        else:
            inv = reduced[lead].inverse()
            normalized = tuple(inv * x for x in reduced)
            walk(i + 1, rows + (normalized,), pivots + (lead,), size + 1)

    walk(0, (), (), 0)
    return IntegerPolynomial(coeffs)
