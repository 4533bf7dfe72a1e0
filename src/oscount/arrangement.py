"""Hyperplane arrangements over an exact field.

Canonical hyperplanes, the intersection lattice of flats with its Moebius
function, characteristic and Poincare polynomials, Zaslavsky region counts,
coning, and deletion/restriction.

A flat X is `contains(X)` (the maximal set of hyperplanes through it) and
mu(X); the lattice is built one level, one codimension, at a time.
`contains(X)` is kept as an int bitmask, bit h for hyperplane h: a union
is `|`, the least member is the lowest set bit, and a level is sorted by
the int.
Let P(X), empty at the ambient space, be pivot columns of the row space
span(X) of X's system [A | b] (offset last): a row of span(X) is fixed by
its entries at P(X).  The residual of h at X is the one row of h + span(X)
that is 0 at P(X), scaled to 1 at its lead (first nonzero) entry.  A lead
in the offset column means h misses X; otherwise X meets h in a cover,
the same for two hyperplanes exactly when their residuals are equal: a
group G of equal residuals is a cover, keyed by contains(X) | G.

(a) If Y is found from X by G, Y lies in X, so X meet h = X meet h' gives
Y meet h = Y meet h': each other group of X lies in one group of Y, and
what misses X misses Y.  So Y reduces one residual per group of X and
merges equal results; this is set theory, true over F_p and when affine.

(b) With v the residual of G and l its lead, P(Y) = P(X) + {l}: a row
u + c v, u in span(X), that is 0 at P(X) has u = 0 (v is 0 there) and
c = 0 (at l).  So the residual at Y of a group with residual r at X is
r - r[l] v, scaled, and no echelon basis is kept.

(c) In a central arrangement no hyperplane misses X, so if X has one group,
X meet h is one flat for all h outside contains(X), on every hyperplane:
the center.  The lattice is graded, so X's level lies just below the
center, whose mu is -(sum of mu over every other flat), as mu sums to 0
over the flats up to any flat but the ambient space; no other flat of that
level is expanded.  The levels are exactly those of the rows mod p.

(d) The step r -> r - r[l] v, scaled, is a function of the rows r and v and
of p alone.  So each residual is interned once per build to a small id, and
the step is memoized per v from the id of r to the id of the result: a
memo hit returns exactly the row that recomputing would.  The memo lives
in one `_levels` call; nothing is cached across builds.

The build runs on Python ints modulo one prime p, and its lattice is the
one over the field; this is a bound argument, not a probability.  Each
row is scaled to integer power-basis coordinates with no common factor,
so its entries lie in Z[zeta_N], and maps into F_p by zeta -> omega.
Every fact the lattice records (whether an intersection is empty, the
`contains` sets, the codimensions, the cover groups) is the rank of a set
of rows of [A | b] or of A.  Rank mod p never exceeds rank over the field,
and the two agree when no nonzero minor vanishes mod p.  Let an entry's
size be the l1 norm of its coordinates, which bounds |sigma(entry)| for
every embedding sigma, and let H be the product of the l + 1 largest row
norms of those sizes, rounded up.  By Hadamard's inequality |sigma(minor)|
<= H for every minor.  Over Q (N = 1) a nonzero integer minor has
|minor| <= H < p, so it is nonzero mod p.  Over Q(zeta_N), p = 1 (mod N) and
Phi_N(omega) = 0 (mod p), checked as the certificate, make zeta -> omega
the reduction modulo a prime ideal of degree 1 over p; a nonzero minor
alpha in that ideal gives p <= |N(alpha)| <= H^phi(N), so p > H^phi(N)
suffices.  The prime is proven, never guessed: p = k 2^m + 1 with
k < 2^m and N | k 2^m, and a base a with a^((p-1)/2) = -1 (mod p) proves
it prime (Proth's theorem, found by `fields.is_prime`).  The search tries
about as many candidates as H^phi(N) has bits; a gcd with the odd primes
below 2,000 drops most composites, and each survivor costs a modular power
of that size, so the time grows about as the cube of the bits: a bound
above MAX_BOUND_BITS is a computation cap (exit 2), checked before the search.

Moebius values come from the same cover edges by Weisner's theorem
(Weisner 1935; Stanley, EC1 Cor. 3.9.3).  Ordered by inclusion of
`contains`, the flats below Y form the lattice of flats of the central
arrangement through Y, a geometric lattice even when the input is affine.
For the atom a = min(contains(Y)), Weisner gives sum mu(x) = 0 over the x
below Y with x v a = Y; by semimodularity those x are Y itself and the
flats X that Y covers with a not in contains(X).  So mu(Y) = -sum mu(X)
over those X, an identity of integers, hence exact.  They lie one level
lower and are final before Y's level is built, and each edge is found
exactly once, so no edge list is kept.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DEFAULT_FLAT_CAP,
    ComputationCapError,
    InvalidInputError,
    MathematicalInconsistencyError,
)
from .fields import FieldDescriptor, Scalar, is_prime
from .polynomial import IntegerPolynomial

if TYPE_CHECKING:
    from .linalg import Row

__all__ = [
    "Hyperplane",
    "Arrangement",
    "Flat",
    "IntersectionLattice",
    "build_arrangement",
    "intersection_lattice",
    "characteristic_polynomial",
    "poincare_polynomial",
    "region_count",
    "cone",
    "deletion_restriction",
    "essential_rank",
    "DEFAULT_FLAT_CAP",
    "MAX_BOUND_BITS",
]

MAX_BOUND_BITS = 1_536


class Hyperplane(NamedTuple):
    """The affine hyperplane {x : normal . x = offset}, in canonical scaling."""

    normal: tuple[Scalar, ...]
    offset: Scalar

    @staticmethod
    def canonical(normal: Sequence[Scalar], offset: Scalar) -> "Hyperplane":
        lead = next((x for x in normal if not x.is_zero()), None)
        if lead is None:
            raise InvalidInputError("hyperplane with zero normal")
        if lead.is_one():
            return Hyperplane(tuple(normal), offset)
        inv = lead.inverse()
        return Hyperplane(tuple(inv * x for x in normal), inv * offset)

    def row(self) -> Row:
        return self.normal + (self.offset,)

    def is_central(self) -> bool:
        return self.offset.is_zero()

    def is_real(self) -> bool:
        return all(x.is_real() for x in self.row())

    def key(self) -> str:
        return " ".join(str(x) for x in self.row())

    def __str__(self) -> str:
        return self.key()


class Arrangement:
    __slots__ = ("field", "ambient_dim", "hyperplanes", "central")

    def __init__(
        self,
        field: FieldDescriptor,
        ambient_dim: int,
        hyperplanes: tuple[Hyperplane, ...],
        central: bool,
    ):
        self.field = field
        self.ambient_dim = ambient_dim
        self.hyperplanes = hyperplanes
        self.central = central


def build_arrangement(
    field: FieldDescriptor,
    ambient_dim: int,
    raw_hyperplanes: Iterable,
) -> Arrangement:
    """Canonicalize and deduplicate; order of first appearance is preserved
    (the order matters for broken circuits downstream)."""
    if ambient_dim < 0:
        raise InvalidInputError("ambient dimension must be >= 0")
    seen: dict[Row, None] = {}
    planes: list[Hyperplane] = []
    for normal, offset in raw_hyperplanes:  # a Hyperplane is a (normal, offset) pair too
        normal = tuple(normal)
        if len(normal) != ambient_dim:
            raise InvalidInputError(
                f"hyperplane normal of length {len(normal)}; ambient dimension is {ambient_dim}"
            )
        for x in normal + (offset,):
            if x.field.conductor != field.conductor:
                raise InvalidInputError("hyperplane coefficients from a different field")
        h = Hyperplane.canonical(normal, offset)
        if h.row() not in seen:
            seen[h.row()] = None
            planes.append(h)
    central = all(h.is_central() for h in planes)
    return Arrangement(field, ambient_dim, tuple(planes), central)


class Flat(NamedTuple):
    """A nonempty intersection of hyperplanes: the maximal set of hyperplanes
    containing it as a bitmask (bit h for hyperplane h), and mu(ambient, X).
    Its codimension is the index of its level in `IntersectionLattice`."""

    mask: int
    mu: int


class IntersectionLattice:
    """Flats grouped by codimension; level 0 is the ambient space."""

    __slots__ = ("arrangement", "levels")

    def __init__(self, arrangement: Arrangement, levels: list[list[Flat]]):
        self.arrangement = arrangement
        self.levels = levels

    def flats_per_level(self) -> list[int]:
        return [len(level) for level in self.levels]

    def num_flats(self) -> int:
        return sum(len(level) for level in self.levels)

    def rank(self) -> int:
        """The largest codimension of a flat, which is the rank of the
        normals (`essential_rank`): r independent normals meet in a nonempty
        flat of codimension r, and the normals through a nonempty flat have
        rank equal to its codimension."""
        return len(self.levels) - 1

    def whitney_numbers(self) -> list[int]:
        """Signed per-codimension Moebius sums (the chi coefficients)."""
        return [sum(flat.mu for flat in level) for level in self.levels]


def intersection_lattice(
    arrangement: Arrangement, flat_cap: int = DEFAULT_FLAT_CAP
) -> IntersectionLattice:
    """All nonempty intersections with their Moebius values, level by level,
    built by `_levels` on the rows mapped into F_p for a prime p at which
    the lattice is the one over the field (module docstring)."""
    rows, p = _rows_mod_prime(arrangement)
    levels = _levels(rows, arrangement.ambient_dim, p, flat_cap)
    return IntersectionLattice(arrangement, list(levels))


def _integer_rows(arrangement: Arrangement) -> list[list[tuple[int, ...]]]:
    """Each hyperplane's row [normal | offset], every entry as its integer
    power-basis coordinates: the numerators scaled to the lcm of the row's
    denominators, then divided by the gcd of all of them."""
    rows = []
    for h in arrangement.hyperplanes:
        entries = h.row()
        scale = lcm(*(x.den for x in entries))
        ints = [[c * (scale // x.den) for c in x.num] for x in entries]
        g = gcd(*(c for entry in ints for c in entry))
        rows.append([tuple(c // g for c in entry) for entry in ints])
    return rows


def _hadamard_bound(rows: list[list[tuple[int, ...]]], ell: int) -> int:
    """The product of the ell + 1 largest row norms, rounded up, where an
    entry's size is the l1 norm of its coordinates: a bound on |sigma(minor)|
    for every minor of [A | b] and every embedding sigma."""
    squares = [sum(sum(map(abs, entry)) ** 2 for entry in row) for row in rows]
    product = prod(sorted(squares, reverse=True)[: ell + 1])
    return isqrt(product - 1) + 1


def _lattice_prime(bound: int, field: FieldDescriptor) -> tuple[int, int]:
    """(p, omega): the first proven prime p = k 2^m + 1 > bound with k < 2^m
    and N | p - 1, searched by increasing m and k, and an omega in F_p
    certified as a root of Phi_N by Phi_N(omega) = 0 (mod p)."""
    conductor = field.conductor
    twos = (conductor & -conductor).bit_length() - 1
    odd = conductor >> twos  # k is a multiple of the odd part of N
    m = max(twos, 1, (bound.bit_length() + 1) // 2)
    # The odd primes below 2,000 (a sieve of Eratosthenes), multiplied: a
    # candidate above 2,000 with a factor in common is composite, and one gcd
    # rules it out before `is_prime`.
    composite = bytearray(2000)
    for q in range(3, 45, 2):  # 45^2 > 2,000
        composite[q * q :: 2 * q] = b"\1" * len(range(q * q, 2000, 2 * q))
    sieve = prod(q for q in range(3, 2000, 2) if not composite[q])
    while True:
        k = odd * max(1, -(-bound // (odd << m)))  # the first k with k 2^m >= bound
        while k < 1 << m:
            p = (k << m) + 1
            if (p <= 2000 or gcd(p, sieve) == 1) and is_prime(p):
                for a in range(2, p):
                    omega = pow(a, (p - 1) // conductor, p)
                    if _horner(field.cyclotomic, omega, p) == 0:
                        return p, omega
            k += odd
        m += 1


def _horner(coeffs: Sequence[int], x: int, p: int) -> int:
    """The polynomial with ascending `coeffs` at x, mod p."""
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) % p
    return value


def _rows_mod_prime(arrangement: Arrangement) -> tuple[list[tuple[int, ...]], int]:
    """(rows, p): the hyperplanes' integer rows mapped into F_p by zeta ->
    omega, for the prime p of `_lattice_prime` above H^phi(N)."""
    field = arrangement.field
    rows = _integer_rows(arrangement)
    bound = _hadamard_bound(rows, arrangement.ambient_dim) ** field.degree
    bits = bound.bit_length()
    if bits > MAX_BOUND_BITS:
        raise ComputationCapError(
            f"the lattice prime must exceed a {bits}-bit bound; the limit is "
            f"{MAX_BOUND_BITS} bits",
            partial={"bound_bits": bits},
        )
    p, omega = _lattice_prime(bound, field)
    return [tuple(_horner(entry, omega, p) for entry in row) for row in rows], p


def _normalized(row: Sequence[int], p: int) -> tuple[int, tuple[int, ...]]:
    """(lead, row scaled to 1 at lead) for a nonzero row mod p, where lead is
    the column of its first nonzero entry."""
    lead = 0
    while not row[lead]:
        lead += 1
    x = row[lead]
    if x == 1:
        return lead, tuple(row)
    inv = pow(x, -1, p)
    return lead, tuple(y * inv % p for y in row)


def _levels(
    rows: Sequence[tuple[int, ...]], offset_col: int, p: int, flat_cap: int
) -> Iterator[list[Flat]]:
    """The flats of the nonzero rows mod the prime p, one codimension at a
    time, by (a)-(d) of the module docstring.  Each level is yielded, sorted
    by `mask`, before the next one is built, so a caller that stops early
    builds no more.  Residuals are interned to ids, with -1 for no cover (a
    residual that misses the flat, or the zero step of a group by itself).
    A flat's groups are two tuples, residual ids and members masks, shared
    by its covers and freed after the last of them is expanded.  A group
    that merges with no other keeps its parent's members mask object.
    """
    n = len(rows)
    central = not any(row[offset_col] for row in rows)
    ids: dict[tuple[int, ...], int] = {}  # residual -> id
    table: list[tuple[int, ...]] = []  # id -> residual
    leads: list[int] = []  # id -> its lead column

    def intern(row: Sequence[int]) -> int:
        lead, key = _normalized(row, p)
        if lead == offset_col:
            return -1  # parallel to the flat: empty affine intersection
        rid = ids.setdefault(key, len(table))
        if rid == len(table):
            table.append(key)
            leads.append(lead)
        return rid

    atoms: dict[int, int] = {}  # the ambient space's residuals, as groups
    for h, row in enumerate(rows):
        r = intern(row)
        atoms[r] = atoms.get(r, 0) | 1 << h
    # (d): via id -> {residual id: its step}; None, the ambient's, is the identity
    steps: dict[Optional[int], dict[int, int]] = {None: {r: r for r in atoms}}
    level = [Flat(mask=0, mu=1)]
    # mask -> (its parent's group ids and members masks, its own group's id)
    sources = {0: (tuple(atoms), tuple(atoms.values()), None)}
    sizes: list[int] = []  # the completed levels' sizes
    total, below = 1, 0  # flats found; the sum of mu over the levels yielded

    def capped() -> ComputationCapError:
        message = f"flat cap {flat_cap} exceeded at codimension {len(sizes)}"
        return ComputationCapError(message, partial={"flats_per_level": sizes})

    while level:
        yield level
        sizes.append(len(level))
        below += sum(flat.mu for flat in level)
        mus, found = {}, {}  # the next level's mu and sources
        for flat in level:
            keys, parts, v = sources.pop(flat.mask)
            step = steps.get(v)
            if step is None:
                step = steps[v] = {v: -1}
            groups: dict[int, int] = {}
            for r, members in zip(keys, parts):  # (a): merge equal residuals
                s = step.get(r)
                if s is None:  # (b): r - r[c] v with c the lead of v
                    row, row_v = table[r], table[v]
                    t = row[leads[v]]
                    s = step[r] = intern([(a - t * b) % p for a, b in zip(row, row_v)]) if t else r
                if s >= 0:
                    groups[s] = groups[s] | members if s in groups else members
            if central and len(groups) == 1:  # (c): this level is the one below the center
                if total >= flat_cap:
                    raise capped()
                yield [Flat((1 << n) - 1, -below)]
                return
            low = flat.mask & -flat.mask or 1 << n
            keys, parts = tuple(groups), tuple(groups.values())
            for s, members in zip(keys, parts):
                mask = flat.mask | members if flat.mask else members  # 0 | x copies x
                if mask not in mus:
                    if total >= flat_cap:
                        raise capped()
                    total += 1
                    mus[mask] = 0
                    found[mask] = (keys, parts, s)
                # Weisner with the atom a = min(contains): mu(Y) is minus the
                # sum of mu(X) over the flats X covered by Y with a not in X.
                if members & -members < low:
                    mus[mask] -= flat.mu
        sources = found
        level = [Flat(mask, mus[mask]) for mask in sorted(mus)]


def characteristic_polynomial(lattice: IntersectionLattice) -> IntegerPolynomial:
    """chi(A, t) = sum_X mu(X) t^{dim X}, from the Whitney numbers."""
    ell = lattice.arrangement.ambient_dim
    coeffs = [0] * (ell + 1)
    for codim, w in enumerate(lattice.whitney_numbers()):
        coeffs[ell - codim] = w
    return IntegerPolynomial(coeffs)


def poincare_polynomial(lattice: IntersectionLattice) -> IntegerPolynomial:
    """pi(A, t) = sum_X mu(X) (-t)^{codim X}; coefficients are Whitney numbers
    and must be nonnegative for a realizable arrangement."""
    coeffs = [w * (-1) ** codim for codim, w in enumerate(lattice.whitney_numbers())]
    if any(c < 0 for c in coeffs):
        raise MathematicalInconsistencyError(
            f"negative Poincare coefficient in {coeffs}; lattice is not geometric"
        )
    return IntegerPolynomial(coeffs)


def essential_rank(arrangement: Arrangement) -> int:
    """Rank of the essentialized arrangement (rank of the stacked normals),
    by an exact rref; `IntersectionLattice.rank` reads the same number off
    a built lattice."""
    from .linalg import rank_of_rows

    return rank_of_rows([h.normal for h in arrangement.hyperplanes])


def region_count(lattice: IntersectionLattice) -> tuple[int, int]:
    """Zaslavsky counts for a real arrangement, read off its lattice:
    regions = (-1)^l chi(-1), relatively bounded = (-1)^rank chi(1): bounded
    modulo the directions in every hyperplane, so bounded when rank = l."""
    arrangement = lattice.arrangement
    for i, h in enumerate(arrangement.hyperplanes):
        if not h.is_real():
            raise InvalidInputError(
                f"region count requires a real arrangement; hyperplane {i} ({h}) "
                "has coefficients not fixed by conjugation"
            )
    chi = characteristic_polynomial(lattice)
    ell = arrangement.ambient_dim
    regions = (-1) ** ell * chi(-1)
    bounded = (-1) ** lattice.rank() * chi(1)
    if regions < 0 or bounded < 0:
        raise MathematicalInconsistencyError(
            f"negative Zaslavsky count (regions={regions}, bounded={bounded})"
        )
    return regions, bounded


def cone(arrangement: Arrangement) -> Arrangement:
    """Central arrangement in l+1 coordinates: {f(x) = a} becomes
    {f(x) - a x0 = 0} with the new coordinate x0 first, plus {x0 = 0}."""
    f = arrangement.field
    zero, one = f.zero(), f.one()
    raw = []
    for h in arrangement.hyperplanes:
        raw.append(((-h.offset,) + h.normal, zero))
    raw.append(((one,) + (zero,) * arrangement.ambient_dim, zero))
    return build_arrangement(f, arrangement.ambient_dim + 1, raw)


def deletion_restriction(
    arrangement: Arrangement, h: int
) -> tuple[Arrangement, Arrangement]:
    """(A minus h, the arrangement induced on h).

    The restriction is parametrized by the non-pivot coordinates of h's
    rref, which is deterministic and exact.
    """
    n = len(arrangement.hyperplanes)
    if not 0 <= h < n:
        raise InvalidInputError(f"hyperplane index {h} out of range 0..{n - 1}")
    f = arrangement.field
    ell = arrangement.ambient_dim
    deleted = build_arrangement(
        f, ell, [p for i, p in enumerate(arrangement.hyperplanes) if i != h]
    )
    target = arrangement.hyperplanes[h]
    # Solve the pivot coordinate: x_p = offset - sum_{j != p} n_j x_j.
    p = next(i for i, x in enumerate(target.normal) if not x.is_zero())
    free = [j for j in range(ell) if j != p]
    raw = []
    for i, other in enumerate(arrangement.hyperplanes):
        if i == h:
            continue
        m_p = other.normal[p]
        coeffs = tuple(other.normal[j] - m_p * target.normal[j] for j in free)
        off = other.offset - m_p * target.offset
        if all(x.is_zero() for x in coeffs):
            continue  # parallel to h: empty trace
        raw.append((coeffs, off))
    restricted = build_arrangement(f, ell - 1, raw)
    return deleted, restricted
