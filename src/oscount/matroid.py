"""Independent checks of the invariants read off the intersection lattice.

`nbc_betti` walks subsets of the hyperplanes on Python ints alone, over Q,
with no modulus.  Let K = Q(zeta_N) and phi = phi(N).  K is the Q-space
with basis 1, zeta, ..., zeta^(phi-1), so the K-span of a set S of
vectors in K^l is, as a Q-space, the Q-span of the zeta^j s for s in S and
j < phi.  Each normal v therefore becomes phi rational rows of length
l phi, the power-basis coordinates of zeta^j v (from the `Scalar`
numerators of v by integer shifts), scaled to integer rows.  "v_e lies
in the K-span of the chosen normals" is then "row 0 of e reduces to zero
against the Q-basis of the chosen rows", and choosing e adds all phi of
its rows.  Reduction is fraction-free, v <- d v - v[col] row with d the
basis row's pivot entry, and a row is divided by its gcd when it joins
the basis: integer arithmetic throughout, so it is exact with no bound to
prove.  Over Q (N = 1) the rows are the integer normals.  nbc shares
nothing with the lattice code: not its integer rows, not `_levels`, not
the zeta -> omega map into F_p, not the Hadamard bound and not the prime.  The walk's nodes are exactly the nbc sets, whose counts
by size are the Betti numbers (Orlik-Terao, Thm 3.55); a node's children
are the minima of a partition of its smaller elements (Bjorner 1992,
proof in `nbc_betti`).

`finite_field_count` counts the points of F_q^l off the hyperplanes mod q
on Python ints, one line {x'} x F_q per x' in F_q^(l-1).  Every row is
reduced mod q first.  The line meets a x = b in exactly one point,
x_l = (b - a'.x') / a_l, when a_l != 0 mod q, and otherwise in the whole
line (b = a'.x') or in none.  So the line holds no point of the complement
when some row with a_l = 0 vanishes at x', and otherwise q minus the number
of distinct forbidden x_l; the sum over x' is the count, exactly.  It is
chi(A, q) when reduction mod q keeps the intersection lattice (Athanasiadis,
Adv. Math. 122, 1996).
`find_good_primes` decides that with the lattice engine itself: equal
`contains` families mod q and over the field, level by level, are the same
lattice, so chi(A mod q) = chi(A).  The choice of q shares code with the
route under test: `_levels`, and the primality proof `fields.is_prime`
that also picks the prime the exact lattice is built modulo.  A fault
common to both builds can misjudge q, but the count reads no lattice, so a
bad q shows as a disagreement with chi(q) (exit 3), not as a confirmation
of a wrong chi.  The count does read the lattice's primitive integer rows
(`arrangement._integer_rows`), so a fault in those rows is left to nbc.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, lcm
from typing import Optional, Sequence

from .arrangement import Arrangement, IntersectionLattice, _integer_rows, _levels
from .errors import DEFAULT_FF_CAP, DEFAULT_SUBSET_CAP, ComputationCapError, InvalidInputError
from .fields import FieldDescriptor, Scalar, is_prime

__all__ = [
    "nbc_betti",
    "finite_field_count",
    "find_good_primes",
    "DEFAULT_SUBSET_CAP",
    "DEFAULT_FF_CAP",
]


def nbc_betti(arrangement: Arrangement, subset_cap: int = DEFAULT_SUBSET_CAP) -> list[int]:
    """Counts, by size, of the sets with no broken circuit: the Betti
    numbers of the Orlik-Solomon algebra (Orlik-Terao, Arrangements of
    Hyperplanes, Thm 3.55).  The walk's nodes are exactly these nbc sets
    (Bjorner, The homology and shellability of matroids and geometric
    lattices, 1992).

    Let S be an nbc set with least element s (s = n at the root).  No y < s
    lies in span(S), or S with y would hold a circuit with least element y
    and S its broken circuit.  For x < s, a broken circuit in S with x
    contains x, and its circuit's least element is a y < x in span(S with
    x); such a y is not in span(S), so by exchange span(S with y) =
    span(S with x).  So S with x is nbc exactly when x is the least y < s
    in its class under the flat span(S with y), and the children of S are
    the minima of these classes.  The walk scans x upward, reduces x's row 0 against
    S's basis once, and tests the residual against the rows each minimum
    found so far adds past S: `_reduce` eliminates in insertion order, so
    that is the test against the joined basis.  At the root each hyperplane
    is its own class (`build_arrangement` deduplicates), so it makes no
    test.  A set with s > 0 one rank short of full has one class, so its
    only child is S with 0, a leaf, counted with it and never joined.

    `subset_cap` caps the nbc sets visited; past it the walk raises with
    the counts so far, which sum to the cap.  A node makes at most n span
    tests per child, so the work stays bounded by n times the cap.
    """
    if not arrangement.central:
        raise InvalidInputError(
            "the nbc oracle is defined for central arrangements; cone the input first"
        )
    expanded = [_zeta_rows(h.normal, arrangement.field) for h in arrangement.hyperplanes]
    if not expanded:
        return [1]  # the empty set is the only nbc set
    full: tuple = ()  # a basis of all the expanded rows; its length is their rank
    for rows in expanded:
        for row in rows:
            full = _join(full, row) or full
    phi = arrangement.field.degree  # the rows of each element
    counts: dict[int, int] = {}
    visited = 0
    # (basis of S's rows, |S|, least element of S), walked depth-first
    stack: list = [((), 0, len(expanded))]
    while stack:
        basis, size, least = stack.pop()
        short = least and len(basis) + phi == len(full)
        for k in (size, size + 1) if short else (size,):
            visited += 1
            if visited > subset_cap:
                raise ComputationCapError(
                    f"subset cap {subset_cap} exceeded during nbc enumeration",
                    partial={"nbc_counts": _by_size(counts), "sets_visited": subset_cap},
                )
            counts[k] = counts.get(k, 0) + 1
        if short or not least:
            continue
        minima: list = []  # (x, S's basis joined with x's rows, the rows past S)
        for x in range(least):
            row = _reduce(basis, expanded[x][0])
            if size and any(_in_span(extra, row) for _, _, extra in minima):
                continue
            joined = basis
            for other in [row, *expanded[x][1:]]:
                joined = _join(joined, other)  # never None: K v_x meets span(S) in 0
            minima.append((x, joined, joined[len(basis):]))
        # pushed largest first, so the least minimum is walked first
        stack.extend((joined, size + 1, x) for x, joined, _ in reversed(minima))
    return _by_size(counts)


def _by_size(counts: dict[int, int]) -> list[int]:
    return [counts.get(k, 0) for k in range(max(counts, default=0) + 1)]


def _zeta_rows(normal: Sequence[Scalar], field: FieldDescriptor) -> list[list[int]]:
    """The integer rows of zeta^j v, j < phi(N): v's entries multiplied by
    zeta^j, each written as its phi(N) power-basis coordinates.

    Row 0 is v's numerators brought to the lcm of v's denominators; the
    walk needs only integral rows, as `_join` divides each basis row by its
    gcd.  Multiplying an entry by zeta shifts its coordinates up one power
    and rewrites zeta^phi as -(c_0 + c_1 zeta + ... + c_(phi-1)
    zeta^(phi-1)), the c_i the lower coefficients of Phi_N: an integer map,
    so each next row is integral again."""
    d = field.degree
    low = field.cyclotomic[:d]
    scale = lcm(*(x.den for x in normal))
    row = [c * (scale // x.den) for x in normal for c in x.num]
    rows = [row]
    for _ in range(d - 1):
        row = [
            (row[k + i - 1] if i else 0) - row[k + d - 1] * low[i]
            for k in range(0, len(row), d)
            for i in range(d)
        ]
        rows.append(row)
    return rows


def _reduce(basis: tuple, row: Sequence[int]) -> list[int]:
    """`row` reduced against `basis`, 0 exactly when `row` lies in its span.

    Each basis row is 0 at the pivots of the rows before it, so eliminating
    them in insertion order by v <- d v - v[col] row, with d the row's
    pivot entry, leaves v 0 at every pivot; a nonzero vector of the span is
    not."""
    for col, prow in basis:
        c = row[col]
        if c:
            d = prow[col]
            row = [d * a - c * b for a, b in zip(row, prow)]
    return row


def _join(basis: tuple, row: Sequence[int]) -> Optional[tuple]:
    """`basis` with the reduction of `row` against it appended as (pivot,
    row), or None when `row` lies in its span."""
    row = _reduce(basis, row)
    for lead, x in enumerate(row):
        if x:
            break
    else:
        return None
    g = gcd(*row)
    return basis + ((lead, tuple(row) if g == 1 else tuple([x // g for x in row])),)


def _in_span(basis: tuple, row: Sequence[int]) -> bool:
    """Whether `row` lies in the span of `basis`: `_join`'s test, with no
    gcd and no new basis."""
    return not any(_reduce(basis, row))


def _rational_rows(arrangement: Arrangement) -> list[list[int]]:
    """Primitive integer rows (normal | offset) for a rational arrangement,
    from `arrangement._integer_rows`."""
    if not arrangement.field.is_rational:
        raise InvalidInputError(
            "finite-field counting requires rational coefficients"
        )
    return [[c for (c,) in row] for row in _integer_rows(arrangement)]


def finite_field_count(
    arrangement: Arrangement, q: int, ff_cap: int = DEFAULT_FF_CAP
) -> int:
    """Number of points of F_q^l on none of the hyperplanes reduced mod q.

    This is chi(A, q) when q is a good prime (`find_good_primes`); the count
    itself reads no lattice code and does not check q.
    """
    if not is_prime(q):
        raise InvalidInputError(f"{q} is not prime")
    rows = _rational_rows(arrangement)
    ell = arrangement.ambient_dim
    npoints = q**ell
    if npoints > ff_cap:
        raise ComputationCapError(
            f"q^l = {npoints} exceeds the finite-field enumeration cap {ff_cap}"
        )
    if not rows:
        return npoints
    # The k rows with a_l = 0 mod q first, then the others scaled by 1/a_l,
    # so that b - a'.x' of a scaled row is the x_l it forbids on the line
    walls, slopes = [], []
    for row in rows:
        *head, a_l, b = [x % q for x in row]
        if a_l:
            inv = pow(a_l, -1, q)
            slopes.append([x * inv % q for x in head + [b]])
        else:
            walls.append(head + [b])
    scaled = walls + slopes
    k = len(walls)
    count = 0
    # depth first over the prefixes x' of the first i coordinates, keeping
    # b - a'.x' mod q for every row
    stack = [(0, [row[-1] for row in scaled])]
    while stack:
        i, values = stack.pop()
        if i == ell - 1:
            if 0 not in values[:k]:
                count += q - len(set(values[k:]))
            continue
        column = [row[i] for row in scaled]
        for t in range(q):
            stack.append((i + 1, [(v - t * c) % q for v, c in zip(values, column)]))
    return count


def find_good_primes(
    lattice: IntersectionLattice, how_many: int = 2, ff_cap: int = DEFAULT_FF_CAP
) -> list[int]:
    """The `how_many` smallest good primes q, searched while q^l <= ff_cap."""
    rows = _rational_rows(lattice.arrangement)
    ell = lattice.arrangement.ambient_dim
    exact = [[flat.mask for flat in level] for level in lattice.levels]
    good: list[int] = []
    q = 1
    while len(good) < how_many:
        q += 1
        if not is_prime(q):
            continue
        if q**ell > ff_cap:
            raise ComputationCapError(
                f"found only {len(good)} good primes with q^l <= cap {ff_cap}",
                partial={"good_primes": good, "last_q": q},
            )
        if _keeps_lattice(rows, ell, q, exact):
            good.append(q)
    return good


def _keeps_lattice(rows: list[list[int]], ell: int, q: int, exact: list[list]) -> bool:
    """Whether q is good: the lattice of the rows mod q, built within the
    exact lattice's flat count, has the `contains` masks `exact` at every
    codimension.  (A row whose normal vanishes mod q misses every point, so
    it is no atom and level 1 differs.)  Levels mod q are compared as
    `_levels` yields them, so the build stops at the first level that
    differs."""
    mod_q = [tuple(x % q for x in row) for row in rows]
    try:
        for level, masks in zip_longest(
            _levels(mod_q, ell, q, sum(len(level) for level in exact)), exact
        ):
            if level is None or [flat.mask for flat in level] != masks:
                return False
    except ComputationCapError:
        return False  # more flats mod q than over the field
    return True
