"""Resolution counting and the built-in catalog of worked examples.

The count of Q-factorial terminalizations of a symplectic quotient is the
total Orlik-Solomon dimension of the singular-locus arrangement divided by
the order of the Namikawa Weyl group; the wreath family also has the closed
form  prod_i ((n-1) h + e_i + 1) / (e_i + 1),  giving two independent
routes that must agree exactly.

Counting needs only the arrangement layer.  The catalog's entries also read
the shipped data files, matrix groups and root data, which `catalog`
imports when it builds an entry.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .arrangement import (
    Arrangement,
    DEFAULT_FLAT_CAP,
    IntersectionLattice,
    characteristic_polynomial,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from .errors import InvalidInputError, MathematicalInconsistencyError
from .polynomial import IntegerPolynomial

if TYPE_CHECKING:
    from .groups import MatrixGroup, NamikawaWeylData
    from .rootdata import WeylTypeData

__all__ = [
    "CountReport",
    "analyze_arrangement",
    "CatalogEntry",
    "count_resolutions",
    "wreath_count_closed_form",
    "catalog",
]


class CountReport(NamedTuple):
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
    regions = bounded = None
    if all(h.is_real() for h in arrangement.hyperplanes):
        regions, bounded = region_count(arrangement, lattice)
    return CountReport(lattice, lattice.rank(), chi, pi, pi(1), regions, bounded)


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
        k = weyl
    else:
        k = weyl.total_order
    report = analyze_arrangement(arrangement, flat_cap)
    os_dim = report.os_dimension
    if os_dim % k != 0:
        raise MathematicalInconsistencyError(
            f"OS dimension {os_dim} is not divisible by |W| = {k}; "
            "wrong Weyl order or wrong arrangement"
        )
    return report._replace(weyl_order=k, resolution_count=os_dim // k)


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
    from .groups import NamikawaWeylData

    if n >= 2:
        return NamikawaWeylData.from_factors(
            [("A1", 2), (type_data.full_label, type_data.weyl_order)]
        )
    return NamikawaWeylData.from_factors([(type_data.full_label, type_data.weyl_order)])


# The q8d8 and g4 arrangements and groups are read from the shipped data
# files, whose headers say how each was built.
_DATA = Path(__file__).with_name("data")


class CatalogEntry:
    """A worked example: its arrangement, Namikawa Weyl data, matrix group
    (None for the wreath family) and published values."""

    __slots__ = ("name", "arrangement", "weyl_data", "group", "expected")

    def __init__(
        self,
        name: str,
        arrangement: Arrangement,
        weyl_data: NamikawaWeylData,
        group: MatrixGroup | None,
        expected: dict,
    ):
        self.name = name
        self.arrangement = arrangement
        self.weyl_data = weyl_data
        self.group = group
        self.expected = expected


def catalog(name: str) -> CatalogEntry:
    from .fileio import parse_arrangement_file, parse_group_file
    from .groups import NamikawaWeylData

    name = name.strip().lower()
    if name == "q8d8":
        return CatalogEntry(
            name="q8d8",
            arrangement=parse_arrangement_file(str(_DATA / "q8d8.arr")),
            weyl_data=NamikawaWeylData.from_factors([("A1", 2)] * 5),
            group=parse_group_file(str(_DATA / "q8d8.grp")),
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
            arrangement=parse_arrangement_file(str(_DATA / "g4.arr")),
            weyl_data=NamikawaWeylData.from_factors([("A2", 3)]),
            group=parse_group_file(str(_DATA / "g4.grp")),
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
        from .rootdata import CatalanSpec, catalan_arrangement, parse_type_label, weyl_data

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
