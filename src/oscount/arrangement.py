"""Hyperplane arrangements over an exact field.

Canonical hyperplanes, the intersection lattice of flats with its Moebius
function, characteristic and Poincare polynomials, Zaslavsky region counts,
coning, and deletion/restriction.

A flat X is its codimension, `contains(X)` (the maximal set of hyperplanes
through it) and mu(X).  The lattice is built one codimension at a time by
partitioning covers: each hyperplane h not in contains(X) is reduced once
against the canonical rref of X's affine system [A | b] (offset in the
last column).  A leading entry in the offset column means h misses X;
otherwise X meets h in a flat one codimension lower.  Two hyperplanes give
the same such flat exactly when their normalized reduced rows are equal,
so each group G of equal rows is one cover Y of X, with the maximal set
contains(Y) = contains(X) | G.  That frozenset is the dedup key, and Y's
rref is built only when Y is new.  The rref rows are private to `_levels`,
which keeps them only for the level being expanded and the level being
found.

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

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ComputationCapError, InvalidInputError, MathematicalInconsistencyError
from .fields import FieldDescriptor, Scalar
from .linalg import Row, rank_of_rows, reduce_row, rref_rows
from .polynomial import IntegerPolynomial

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
]

DEFAULT_FLAT_CAP = 2_000_000


@dataclass(frozen=True)
class Hyperplane:
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


@dataclass(frozen=True)
class Arrangement:
    field: FieldDescriptor
    ambient_dim: int
    hyperplanes: tuple[Hyperplane, ...]
    central: bool

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def hyperplane_set(self) -> frozenset:
        return frozenset(h.row() for h in self.hyperplanes)

    def same_hyperplanes(self, other: "Arrangement") -> bool:
        return (
            self.field.conductor == other.field.conductor
            and self.ambient_dim == other.ambient_dim
            and self.hyperplane_set() == other.hyperplane_set()
        )


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
    for item in raw_hyperplanes:
        if isinstance(item, Hyperplane):
            normal, offset = item.normal, item.offset
        else:
            normal, offset = item
            normal = tuple(normal)
            if offset is None:
                offset = field.zero()
        if len(normal) != ambient_dim:
            raise InvalidInputError(
                f"hyperplane normal of length {len(normal)}; ambient dimension is {ambient_dim}"
            )
        for x in tuple(normal) + (offset,):
            if x.field.conductor != field.conductor:
                raise InvalidInputError(
                    "hyperplane coefficients from a different field; promote explicitly"
                )
        h = Hyperplane.canonical(normal, offset)
        if h.row() not in seen:
            seen[h.row()] = None
            planes.append(h)
    central = all(h.is_central() for h in planes)
    return Arrangement(field, ambient_dim, tuple(planes), central)


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection of hyperplanes: its codimension, the maximal
    set of hyperplane indices containing it, and mu(ambient, X)."""

    codim: int
    contains: frozenset[int]
    mu: int


@dataclass
class IntersectionLattice:
    """Flats grouped by codimension; level 0 is the ambient space."""

    arrangement: Arrangement
    levels: list[list[Flat]]

    def all_flats(self):
        for level in self.levels:
            for flat in level:
                yield flat, flat.mu

    def flats_per_level(self) -> list[int]:
        return [len(level) for level in self.levels]

    def num_flats(self) -> int:
        return sum(len(level) for level in self.levels)

    def rank(self) -> int:
        return len(self.levels) - 1

    def whitney_numbers(self) -> list[int]:
        """Signed per-codimension Moebius sums (the chi coefficients)."""
        return [sum(flat.mu for flat in level) for level in self.levels]


def intersection_lattice(
    arrangement: Arrangement, flat_cap: int = DEFAULT_FLAT_CAP
) -> IntersectionLattice:
    """All nonempty intersections with their Moebius values, level by level.

    Each flat's covers come from one partition of the hyperplanes not
    containing it, and mu is accumulated over the cover edges (Weisner).
    """
    rows = [h.row() for h in arrangement.hyperplanes]
    levels = _levels(rows, arrangement.ambient_dim, flat_cap)
    return IntersectionLattice(arrangement, list(levels))


def _levels(
    rows_of: Sequence[Row], offset_col: int, flat_cap: int
) -> Iterator[list[Flat]]:
    """The flats of the hyperplanes `rows_of` over any field whose elements
    `linalg` can reduce, one codimension at a time.

    Each level is yielded, sorted by `sorted(contains)`, before the next one
    is built, so a caller that stops early builds no more.  The rref rows
    and pivots of a flat live only in this generator, keyed by `contains`,
    and only for the level being expanded and the level being found.
    """
    level = [Flat(codim=0, contains=frozenset(), mu=1)]
    rref = {frozenset(): ((), ())}  # contains -> (rows, pivots)
    sizes: list[int] = []
    total = 1
    while level:
        yield level
        sizes.append(len(level))
        found: dict[frozenset[int], tuple] = {}  # the next level's rref
        mus: dict[frozenset[int], int] = {}
        for flat in level:
            flat_rows, flat_pivots = rref[flat.contains]
            covers: dict[Row, list[int]] = {}
            for h, row in enumerate(rows_of):
                if h in flat.contains:
                    continue
                reduced = reduce_row(row, flat_rows, flat_pivots)
                # nonzero because `contains` is maximal
                lead = next(i for i, x in enumerate(reduced) if not x.is_zero())
                if lead == offset_col:
                    continue  # parallel to the flat: empty affine intersection
                inv = reduced[lead].inverse()
                covers.setdefault(tuple(inv * x for x in reduced), []).append(h)
            first = min(flat.contains, default=len(rows_of))
            for group in covers.values():
                contains = flat.contains.union(group)
                if contains not in found:
                    total += 1
                    if total > flat_cap:
                        raise ComputationCapError(
                            f"flat cap {flat_cap} exceeded at codimension {len(sizes)}",
                            partial={"flats_per_level": sizes},
                        )
                    found[contains] = rref_rows(flat_rows + (rows_of[group[0]],))
                    mus[contains] = 0
                # Weisner with the atom a = min(contains): mu(Y) is minus the
                # sum of mu(X) over the flats X covered by Y with a not in X.
                if group[0] < first:
                    mus[contains] -= flat.mu
        rref = found
        level = [Flat(len(sizes), c, mus[c]) for c in sorted(found, key=sorted)]


def characteristic_polynomial(lattice: IntersectionLattice) -> IntegerPolynomial:
    """chi(A, t) = sum_X mu(X) t^{dim X}."""
    ell = lattice.arrangement.ambient_dim
    coeffs = [0] * (ell + 1)
    for flat, mu in lattice.all_flats():
        coeffs[ell - flat.codim] += mu
    return IntegerPolynomial(coeffs)


def poincare_polynomial(lattice: IntersectionLattice) -> IntegerPolynomial:
    """pi(A, t) = sum_X mu(X) (-t)^{codim X}; coefficients are Whitney numbers
    and must be nonnegative for a realizable arrangement."""
    coeffs = [0] * (lattice.rank() + 1)
    for flat, mu in lattice.all_flats():
        coeffs[flat.codim] += mu * (-1) ** flat.codim
    if any(c < 0 for c in coeffs):
        raise MathematicalInconsistencyError(
            f"negative Poincare coefficient in {coeffs}; lattice is not geometric"
        )
    return IntegerPolynomial(coeffs)


def essential_rank(arrangement: Arrangement) -> int:
    """Rank of the essentialized arrangement (rank of the stacked normals)."""
    return rank_of_rows([h.normal for h in arrangement.hyperplanes])


def region_count(
    arrangement: Arrangement,
    lattice: Optional[IntersectionLattice] = None,
    flat_cap: int = DEFAULT_FLAT_CAP,
) -> tuple[int, int]:
    """Zaslavsky counts for a real arrangement:
    regions = (-1)^l chi(-1), bounded = (-1)^rank chi(1)."""
    for i, h in enumerate(arrangement.hyperplanes):
        if not h.is_real():
            raise InvalidInputError(
                f"region count requires a real arrangement; hyperplane {i} ({h}) "
                "has coefficients not fixed by conjugation"
            )
    if lattice is None:
        lattice = intersection_lattice(arrangement, flat_cap)
    chi = characteristic_polynomial(lattice)
    ell = arrangement.ambient_dim
    regions = (-1) ** ell * chi(-1)
    bounded = (-1) ** essential_rank(arrangement) * chi(1)
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
