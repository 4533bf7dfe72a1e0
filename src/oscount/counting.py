"""Resolution counting and the built-in catalog of worked examples.

The count of Q-factorial terminalizations of a symplectic quotient is the
total Orlik-Solomon dimension of the singular-locus arrangement divided by
the order of the Namikawa Weyl group; the wreath family also has the closed
form  prod_i ((n-1) h + e_i + 1) / (e_i + 1),  giving two independent
routes that must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import prod

from .arrangement import (
    Arrangement,
    DEFAULT_FLAT_CAP,
    IntersectionLattice,
    build_arrangement,
    characteristic_polynomial,
    essential_rank,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from .errors import (
    InvalidInputError,
    MathematicalInconsistencyError,
    UnsupportedFoldingError,
)
from .fields import cyclotomic_field, rational_field
from .groups import MatrixGroup, ParabolicClass
from .linalg import ExactMatrix, kron
from .polynomial import IntegerPolynomial
from .rootdata import CatalanSpec, WeylTypeData, catalan_arrangement, parse_type_label, weyl_data

__all__ = [
    "NamikawaWeylData",
    "CountReport",
    "analyze_arrangement",
    "CatalogEntry",
    "count_resolutions",
    "wreath_count_closed_form",
    "wreath_count_direct",
    "namikawa_weyl_from_group",
    "diagram_automorphism_order",
    "catalog",
    "FOLDING_OVERRIDES",
    "q8d8_arrangement",
    "g4_arrangement",
    "q8d8_group",
    "g4_group",
]


@dataclass(frozen=True)
class NamikawaWeylData:
    """Per parabolic class a (kleinian_label, |W_B|) factor; the total order
    is the product."""

    factors: tuple[tuple[str, int], ...]
    total_order: int

    @staticmethod
    def from_factors(factors) -> "NamikawaWeylData":
        factors = tuple((str(l), int(o)) for l, o in factors)
        return NamikawaWeylData(factors, prod((o for _, o in factors), start=1))

    def __post_init__(self):
        if self.total_order != prod((o for _, o in self.factors), start=1):
            raise InvalidInputError("total_order is not the product of the factors")
        if self.total_order < 1:
            raise InvalidInputError("Namikawa Weyl order must be >= 1")


@dataclass
class CountReport:
    """Arrangement invariants and the lattice they were read from;
    `count_resolutions` adds the Weyl order and the resolution count."""

    lattice: IntersectionLattice
    rank: int
    char_poly: IntegerPolynomial
    poincare_poly: IntegerPolynomial
    os_dimension: int
    regions: int | None = None
    bounded_regions: int | None = None
    weyl_order: int | None = None
    resolution_count: int | None = None


def analyze_arrangement(
    arrangement: Arrangement, flat_cap: int = DEFAULT_FLAT_CAP
) -> CountReport:
    """Build the intersection lattice once and read every invariant off it;
    real arrangements also get Zaslavsky's region counts."""
    lattice = intersection_lattice(arrangement, flat_cap)
    chi = characteristic_polynomial(lattice)
    pi = poincare_polynomial(lattice)
    report = CountReport(
        lattice=lattice,
        rank=essential_rank(arrangement),
        char_poly=chi,
        poincare_poly=pi,
        os_dimension=pi(1),
    )
    if all(h.is_real() for h in arrangement.hyperplanes):
        report.regions, report.bounded_regions = region_count(arrangement, lattice)
    return report


def count_resolutions(
    arrangement: Arrangement,
    weyl: NamikawaWeylData | int,
    flat_cap: int = DEFAULT_FLAT_CAP,
) -> CountReport:
    """Total OS dimension of a central arrangement divided by |W|, as an
    exact integer; non-divisibility is reported as an inconsistency, never
    rounded.  For real arrangements the report also carries the region
    count, which is |W| * resolution_count by Zaslavsky's theorem: both are
    sums of mu(X) (-1)^{codim X} over the same lattice."""
    if not arrangement.central:
        raise InvalidInputError(
            "resolution counting requires a central arrangement (cone affine input first)"
        )
    if isinstance(weyl, int):
        if weyl < 1:
            raise InvalidInputError("Weyl order must be >= 1")
        weyl = NamikawaWeylData.from_factors([("user", weyl)])
    report = analyze_arrangement(arrangement, flat_cap)
    os_dim = report.os_dimension
    k = weyl.total_order
    if os_dim % k != 0:
        raise MathematicalInconsistencyError(
            f"OS dimension {os_dim} is not divisible by |W| = {k}; "
            "wrong Weyl order or wrong arrangement"
        )
    report.weyl_order = k
    report.resolution_count = os_dim // k
    return report


def wreath_count_closed_form(type_data: WeylTypeData, n: int) -> int:
    """prod_i ((n-1) h + e_i + 1) / (e_i + 1), asserted integral; 1 at n = 1."""
    if n < 1:
        raise InvalidInputError("wreath parameter n must be >= 1")
    h = type_data.coxeter_number
    value = Fraction(1)
    for e in type_data.exponents:
        value *= Fraction((n - 1) * h + e + 1, e + 1)
    if value.denominator != 1:
        raise MathematicalInconsistencyError(
            f"closed-form product {value} is not an integer; table error"
        )
    return int(value)


def wreath_weyl_data(type_data: WeylTypeData, n: int) -> NamikawaWeylData:
    """|W| = 2 * |W_G| for n >= 2 (an A1 factor for the diagonal leaf and the
    full W_G factor), |W_G| for n = 1."""
    if n >= 2:
        return NamikawaWeylData.from_factors(
            [("A1", 2), (type_data.full_label, type_data.weyl_order)]
        )
    return NamikawaWeylData.from_factors([(type_data.full_label, type_data.weyl_order)])


def wreath_count_direct(
    type_data: WeylTypeData, n: int, flat_cap: int = DEFAULT_FLAT_CAP
) -> CountReport:
    """The arrangement route: coned Catalan arrangement plus the wreath Weyl
    order.  For n >= 2 the result must equal the closed form exactly (the
    two measure different objects at n = 1; see the n = 1 degeneracy note in
    the self-test)."""
    spec = CatalanSpec(type_data, n)
    arr = catalan_arrangement(spec)
    report = count_resolutions(arr, wreath_weyl_data(type_data, n), flat_cap)
    if n >= 2:
        closed = wreath_count_closed_form(type_data, n)
        if report.resolution_count != closed:
            raise MathematicalInconsistencyError(
                f"wreath routes disagree for ({type_data.full_label}, n={n}): "
                f"arrangement {report.resolution_count} vs closed form {closed}"
            )
    return report


def diagram_automorphism_order(label: str) -> int:
    """Order of the Dynkin-diagram automorphism group of an ADE label."""
    letter, rank = parse_type_label(label)
    if letter == "A":
        return 1 if rank == 1 else 2
    if letter == "D":
        return 6 if rank == 4 else 2
    return 2 if rank == 6 else 1


# Paper-sourced overrides for |W_B| where Xi(B) is a nontrivial group and the
# label admits diagram automorphisms, keyed by (kleinian_label, xi_order).
# The only catalog case is the order-24 rank-2 group: |W_B| = 3.
FOLDING_OVERRIDES: dict[tuple[str, int], int] = {("A2", 2): 3}


def namikawa_weyl_from_group(
    parabolics: list[ParabolicClass],
    overrides: dict[tuple[str, int], int] | None = None,
) -> NamikawaWeylData:
    """Namikawa Weyl order from parabolic class data.

    When Xi(B) is trivial as a group, or the label admits no diagram
    automorphism (A1/E7/E8), the diagram action is forced trivial and W_B is
    the full Weyl group of the label.  Otherwise the conjugation action on
    classes does not determine the diagram action, so only explicit
    overrides are accepted.
    """
    if overrides is None:
        overrides = FOLDING_OVERRIDES
    factors = []
    for pc in parabolics:
        label = pc.kleinian_label
        letter, rank = parse_type_label(label)
        full_order = weyl_data(letter, rank).weyl_order
        if pc.xi_order == 1 or diagram_automorphism_order(label) == 1:
            factor = full_order
        elif (label, pc.xi_order) in overrides:
            factor = overrides[(label, pc.xi_order)]
        else:
            raise UnsupportedFoldingError(
                f"parabolic class with label {label} and |Xi| = {pc.xi_order}: "
                "the diagram action cannot be derived from class data and no "
                "override is available"
            )
        if full_order % factor != 0:
            raise MathematicalInconsistencyError(
                f"|W_B| = {factor} does not divide |W({label})| = {full_order}"
            )
        factors.append((label, factor))
    return NamikawaWeylData.from_factors(factors)


# ---------------------------------------------------------------------------
# Catalog data


def q8d8_arrangement() -> Arrangement:
    """21 hyperplanes in Q^5: the 16 sign hyperplanes
    c1 +- c2 +- c3 +- c4 +- c5 = 0 and the 5 coordinate hyperplanes."""
    f = rational_field()
    raw = []
    for signs in iter_product((1, -1), repeat=4):
        normal = tuple(f.from_rational(c) for c in (1,) + signs)
        raw.append((normal, f.zero()))
    for i in range(5):
        normal = tuple(f.from_rational(1 if j == i else 0) for j in range(5))
        raw.append((normal, f.zero()))
    return build_arrangement(f, 5, raw)


def g4_arrangement() -> Arrangement:
    """Three hyperplanes over Q(zeta_3): normals (1,1), (w,w^2), (w^2,w)."""
    f = cyclotomic_field(3)
    w = f.zeta()
    one, zero = f.one(), f.zero()
    raw = [
        ((one, one), zero),
        ((w, w * w), zero),
        ((w * w, w), zero),
    ]
    return build_arrangement(f, 2, raw)


def q8d8_group() -> MatrixGroup:
    """The order-32 central product of the quaternion and dihedral groups of
    order 8, acting on C^2 (x) C^2 over Q(zeta_4); the symplectic form is
    (skew) (x) (symmetric)."""
    f = cyclotomic_field(4)
    i_ = f.zeta()
    one, zero = f.one(), f.zero()
    qi = ExactMatrix(f, [[i_, zero], [zero, -i_]])
    qj = ExactMatrix(f, [[zero, one], [-one, zero]])
    ident = ExactMatrix.identity(f, 2)
    rot = ExactMatrix(f, [[zero, -one], [one, zero]])
    flip = ExactMatrix(f, [[one, zero], [zero, -one]])
    omega = kron(ExactMatrix(f, [[zero, one], [-one, zero]]), ident)
    gens = [kron(qi, ident), kron(qj, ident), kron(ident, rot), kron(ident, flip)]
    return MatrixGroup(f, 4, gens, omega)


def g4_group() -> MatrixGroup:
    """The rank-2 complex reflection group of order 24, generated by two
    order-3 reflections with the braid relation, doubled to C^2 + (C^2)* by
    g |-> g (+) (g^T)^{-1} over Q(zeta_3)."""
    f = cyclotomic_field(3)
    w = f.zeta()
    one, zero = f.one(), f.zero()
    third = f.from_rational(Fraction(1, 3))
    two_w = w + w
    s = ExactMatrix(f, [[one, zero], [zero, w]])
    t = ExactMatrix(
        f,
        [
            [third * (one + two_w), one],
            [third * (-two_w), third * (one + one + w)],
        ],
    )

    def doubled(g: ExactMatrix) -> ExactMatrix:
        ginv_t = g.inverse().transpose()
        rows = []
        for i in range(2):
            rows.append(list(g.rows[i]) + [zero, zero])
        for i in range(2):
            rows.append([zero, zero] + list(ginv_t.rows[i]))
        return ExactMatrix(f, rows)

    omega = ExactMatrix(
        f,
        [
            [zero, zero, one, zero],
            [zero, zero, zero, one],
            [-one, zero, zero, zero],
            [zero, -one, zero, zero],
        ],
    )
    return MatrixGroup(f, 4, [doubled(s), doubled(t)], omega)


@dataclass
class CatalogEntry:
    name: str
    arrangement: Arrangement
    weyl_data: NamikawaWeylData
    group: MatrixGroup | None
    expected: dict


def catalog(name: str) -> CatalogEntry:
    name = name.strip().lower()
    if name == "q8d8":
        return CatalogEntry(
            name="q8d8",
            arrangement=q8d8_arrangement(),
            weyl_data=NamikawaWeylData.from_factors([("A1", 2)] * 5),
            group=q8d8_group(),
            expected={
                "poincare": (1, 21, 170, 650, 1125, 625),
                "os_dimension": 2592,
                "regions": 2592,
                "count": 81,
                "group_order": 32,
                "reflection_classes": 5,
                "parabolic_classes": 5,
                "parabolic_labels": ("A1",) * 5,
                "weyl_order": 32,
            },
        )
    if name == "g4":
        return CatalogEntry(
            name="g4",
            arrangement=g4_arrangement(),
            weyl_data=NamikawaWeylData.from_factors([("A2", 3)]),
            group=g4_group(),
            expected={
                "poincare": (1, 3, 2),
                "os_dimension": 6,
                "count": 2,
                "group_order": 24,
                "reflection_classes": 2,
                "parabolic_classes": 1,
                "parabolic_labels": ("A2",),
                "weyl_order": 3,
            },
        )
    if name.startswith("wreath:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise InvalidInputError(
                f"bad wreath catalog name {name!r}; expected wreath:<type>:<n>"
            )
        letter, rank = parse_type_label(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise InvalidInputError(f"bad wreath parameter in {name!r}") from None
        wdata = weyl_data(letter, rank)
        spec = CatalanSpec(wdata, n)
        count = wreath_count_closed_form(wdata, n) if n >= 2 else None
        weyl = wreath_weyl_data(wdata, n)
        expected = {"num_hyperplanes": len(wdata.positive_roots) * (2 * n - 1) + 1}
        if count is not None:
            expected["count"] = count
            expected["os_dimension"] = count * weyl.total_order
        return CatalogEntry(
            name=name,
            arrangement=catalan_arrangement(spec),
            weyl_data=weyl,
            group=None,
            expected=expected,
        )
    raise InvalidInputError(
        f"unknown catalog name {name!r}; available: q8d8, g4, wreath:<type>:<n>"
    )
