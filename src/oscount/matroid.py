"""Independent checks of the invariants read off the intersection lattice.

`nbc_betti` walks subsets of the hyperplanes on Python ints alone, over Q,
with no modulus.  Let K = Q(zeta_N) and phi = phi(N).  K is the Q-space
with basis 1, zeta, ..., zeta^(phi-1), so the K-span of a set S of
vectors in K^l is, as a Q-space, the Q-span of the zeta^j s for s in S and
j < phi.  Each normal v therefore becomes phi rational rows of length
l phi, the power-basis coordinates of zeta^j v (from the `Scalar`
coordinates of v by integer shifts), each scaled to a primitive integer
row.  "v_e lies in the K-span of the chosen normals" is then "row 0 of e
reduces to zero against the Q-basis of the chosen rows", and choosing e
adds all phi of its rows.  Reduction is fraction-free, v <- d v - v[col]
row with d the basis row's pivot entry, and a row is divided by its gcd
when it joins the basis: integer arithmetic throughout, so it is exact
with no bound to prove.  Over Q (N = 1) the rows are the primitive
integer normals.  nbc shares nothing with the lattice code: not
`_levels`, not the zeta -> omega map into F_p, not the Hadamard bound and
not the prime.  Most of the walk's nodes are tails, chosen sets one rank
short of full, and `nbc_betti` settles each with a loop of span tests and
no new basis.

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
lattice, so chi(A mod q) = chi(A).  Only the choice of q shares code with
the route under test: `_levels`, and the primality proof `fields.is_prime`
that also picks the prime the exact lattice is built modulo.  A fault
common to both builds can misjudge q, but the count reads no lattice, so a
bad q shows as a disagreement with chi(q) (exit 3), not as a confirmation
of a wrong chi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional, Sequence

from .arrangement import Arrangement, IntersectionLattice, _levels
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
    """Counts, by cardinality, of independent sets containing no broken circuit.

    Walks elements in decreasing arrangement order keeping the chosen set's
    row space; a branch dies exactly when the current element lies in the
    span of the larger-indexed chosen ones (that membership is equivalent to
    creating a broken circuit, taking the circuit's minimal element as the
    element itself).  The counts are the Betti numbers of the Orlik-Solomon
    algebra (Orlik-Terao, Arrangements of Hyperplanes, Thm 3.55).  Past
    `subset_cap` visited sets it raises with the counts so far.

    Let r be the rank of all the expanded rows (the length of a `_join`
    basis of them, the walk's own) and S the chosen set of a node at e.  A
    branch whose chosen rows already span all r while elements remain would
    die at its next visit, since every smaller element is then spanned; so
    it is never walked, except that S with 0 is an nbc set and is counted.

    Tails.  Call the node a tail when e = 0 or S's rows are phi short of r
    (one short over K), so that they and the rows of any unspanned x <= e
    span everything.  By the rule above, the branch choosing x is then
    walked only for x = 0, so the subtree is the chain e, e - 1, ..., 0 of
    branches without x, and its only nbc sets are S and S with 0, reached
    exactly when no x <= e lies in the span of S.  The walk settles a tail in one loop of
    span tests over x = e, ..., 0: each x is one visit, checked against
    the cap, the loop stops at the first x in the span, and if there is
    none it counts S and S with 0.  That is the chain's nodes in the
    stack's order with the same sets counted at the same visit, so
    `visited`, where the cap fires and the partial it reports are those of
    the node-by-node walk.  The other nodes join e's rows and push both
    branches: their chosen rows with e's stay below rank r.
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
    rank = len(full)
    phi = arrangement.field.degree  # the rows of each element
    counts: dict[int, int] = {}
    visited = 0
    # (element, basis of the chosen rows, chosen count); depth-first with an
    # explicit stack, so the depth is not bounded by the recursion limit
    stack = [(len(expanded) - 1, (), 0)]
    while stack:
        e, basis, size = stack.pop()
        if e == 0 or len(basis) + phi == rank:
            # a tail: its subtree is the chain e, e - 1, ..., 0 (docstring)
            for x in range(e, -1, -1):
                visited += 1
                if visited > subset_cap:
                    raise _cap_error(subset_cap, counts)
                if _in_span(basis, expanded[x][0]):
                    break
            else:
                counts[size] = counts.get(size, 0) + 1
                counts[size + 1] = counts.get(size + 1, 0) + 1
            continue
        visited += 1
        if visited > subset_cap:
            raise _cap_error(subset_cap, counts)
        first, *others = expanded[e]
        chosen = _join(basis, first)
        if chosen is None:
            continue  # e is spanned by the chosen larger-indexed elements
        for row in others:
            chosen = _join(chosen, row)  # never None: K v_e meets the span in 0
        # pushed last, popped first: the branch without e is walked first
        stack.append((e - 1, chosen, size + 1))
        stack.append((e - 1, basis, size))
    return _by_size(counts)


def _cap_error(subset_cap: int, counts: dict[int, int]) -> ComputationCapError:
    return ComputationCapError(
        f"subset cap {subset_cap} exceeded during nbc enumeration",
        partial={"nbc_counts": _by_size(counts), "sets_visited": subset_cap},
    )


def _by_size(counts: dict[int, int]) -> list[int]:
    return [counts.get(k, 0) for k in range(max(counts, default=0) + 1)]


def _zeta_rows(normal: Sequence[Scalar], field: FieldDescriptor) -> list[list[int]]:
    """The primitive integer rows of zeta^j v, j < phi(N): v's entries
    multiplied by zeta^j, each written as its phi(N) power-basis coordinates.

    Row 0 is v's coordinates made primitive.  Multiplying an entry by zeta
    shifts its coordinates up one power and rewrites zeta^phi as
    -(c_0 + c_1 zeta + ... + c_(phi-1) zeta^(phi-1)), the c_i the lower
    coefficients of Phi_N: an integer map of determinant +-Phi_N(0) = +-1
    for N >= 2, so each next row is integral and primitive again."""
    d = field.degree
    low = field.cyclotomic[:d]
    row = _primitive([c for x in normal for c in x.coords])
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


def _primitive(fracs: Sequence[Fraction]) -> list[int]:
    """The integer multiple of a nonzero rational vector with no common factor."""
    scale = lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = gcd(*ints)
    return [v // g for v in ints]


def _integer_rows(arrangement: Arrangement) -> list[list[int]]:
    """Primitive integer rows (normal | offset) for a rational arrangement."""
    if not arrangement.field.is_rational:
        raise InvalidInputError(
            "finite-field counting requires rational coefficients"
        )
    return [_primitive([x.rational_value() for x in h.row()]) for h in arrangement.hyperplanes]


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
    rows = _integer_rows(lattice.arrangement)
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
