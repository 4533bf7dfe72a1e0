"""Independent checks of the invariants read off the intersection lattice.

`nbc_betti` walks subsets of the hyperplanes with `linalg.reduce_row` on
exact scalars alone and shares no flat or Moebius code with `arrangement`.

`finite_field_count` counts the points of F_q^l off the hyperplanes mod q
with numpy alone.  The count is chi(A, q) when reduction mod q keeps the
intersection lattice (Athanasiadis, Adv. Math. 122, 1996).
`find_good_primes` decides that with the lattice engine itself: equal
`contains` families mod q and over the field, level by level, are the same
lattice, so chi(A mod q) = chi(A).  Only the choice of q shares code with
the route under test: `_levels`, and the primality proof `fields.is_prime`
that also picks the prime the exact lattice is built modulo.  A fault
common to both builds can misjudge q, but the count reads no lattice, so a
bad q shows as a disagreement with chi(q) (exit 3), not as a confirmation
of a wrong chi.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm

from .arrangement import Arrangement, IntersectionLattice, _levels
from .errors import ComputationCapError, InvalidInputError
from .fields import is_prime
from .linalg import reduce_row

__all__ = [
    "nbc_betti",
    "finite_field_count",
    "find_good_primes",
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
    counts: dict[int, int] = {}
    visited = 0
    # (element, chosen rows, their pivots, chosen count); depth-first with
    # an explicit stack, so the depth is not bounded by the recursion limit
    stack = [(len(vectors) - 1, (), (), 0)]
    while stack:
        e, rows, pivots, size = stack.pop()
        if e < 0:
            counts[size] = counts.get(size, 0) + 1
            continue
        visited += 1
        if visited > subset_cap:
            raise ComputationCapError(
                f"subset cap {subset_cap} exceeded during nbc enumeration"
            )
        reduced = reduce_row(vectors[e], rows, pivots)
        lead = next((i for i, x in enumerate(reduced) if not x.is_zero()), None)
        if lead is None:
            continue  # e is spanned by the chosen larger-indexed elements
        inv = reduced[lead].inverse()
        normalized = tuple(inv * x for x in reduced)
        # pushed last, popped first: the branch without e is walked first
        stack.append((e - 1, rows + (normalized,), pivots + (lead,), size + 1))
        stack.append((e - 1, rows, pivots, size))

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
        scale = lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
        g = gcd(*ints)
        rows.append([v // g for v in ints])
    return rows


def finite_field_count(
    arrangement: Arrangement, q: int, ff_cap: int = DEFAULT_FF_CAP
) -> int:
    """Number of points of F_q^l on none of the hyperplanes reduced mod q.

    This is chi(A, q) when q is a good prime (`find_good_primes`); the count
    itself reads no lattice code and does not check q.
    """
    if not is_prime(q):
        raise InvalidInputError(f"{q} is not prime")
    rows = _integer_rows(arrangement)
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
    lattice: IntersectionLattice, how_many: int = 2, ff_cap: int = DEFAULT_FF_CAP
) -> list[int]:
    """The `how_many` smallest good primes q, searched while q^l <= ff_cap."""
    rows = _integer_rows(lattice.arrangement)
    ell = lattice.arrangement.ambient_dim
    exact = [[flat.contains for flat in level] for level in lattice.levels]
    good: list[int] = []
    q = 1
    while len(good) < how_many:
        q += 1
        if not is_prime(q):
            continue
        if q**ell > ff_cap:
            raise ComputationCapError(
                f"found only {len(good)} good primes with q^l <= cap {ff_cap}"
            )
        if _keeps_lattice(rows, ell, q, exact):
            good.append(q)
    return good


def _keeps_lattice(rows: list[list[int]], ell: int, q: int, exact: list[list]) -> bool:
    """Whether q is good: the lattice of the rows mod q, built within the
    exact lattice's flat count, has the `contains` sets `exact` at every
    codimension.  (A row whose normal vanishes mod q misses every point, so
    it is no atom and level 1 differs.)  Levels mod q are compared as
    `_levels` yields them, so the build stops at the first level that
    differs."""
    mod_q = [tuple(x % q for x in row) for row in rows]
    try:
        for level, contains in zip_longest(
            _levels(mod_q, ell, q, sum(len(level) for level in exact)), exact
        ):
            if level is None or [flat.contains for flat in level] != contains:
                return False
    except ComputationCapError:
        return False  # more flats mod q than over the field
    return True
