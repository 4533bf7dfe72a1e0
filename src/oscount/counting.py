"""Resolution counting, its oracle cross-check and the built-in catalog.

The count of Q-factorial terminalizations of a symplectic quotient is the
total Orlik-Solomon dimension of the singular-locus arrangement divided by
the order of the Namikawa Weyl group; a wreath entry publishes pi and the
count from one product (`rootdata.wreath_poincare`), a second route that
must agree exactly.

Counting needs only the arrangement layer, and `run_oracle` imports the
matroid oracles when it runs.  `check_published`, which `count --catalog`
and `selftest` run, is the one comparison with an entry's published values.
`catalog` parses a shipped entry's arrangement, or builds a wreath entry from
the root data, when it builds the entry; a shipped entry names its group
file but does not parse it, so `count --catalog` loads no group code.
"""

from __future__ import annotations

from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

from .arrangement import (
    Arrangement,
    DEFAULT_FLAT_CAP,
    IntersectionLattice,
    characteristic_polynomial,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from .errors import InvalidInputError, MathematicalInconsistencyError, OracleDisagreementError
from .polynomial import IntegerPolynomial

__all__ = [
    "CountReport",
    "analyze_arrangement",
    "CatalogEntry",
    "count_resolutions",
    "run_oracle",
    "catalog",
    "check_published",
]


class CountReport(NamedTuple):
    """Arrangement invariants and the lattice they were read from;
    `bounded_regions` counts the relatively bounded regions (`region_count`).
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
        regions, bounded = region_count(lattice)
    return CountReport(lattice, lattice.rank(), chi, pi, pi(1), regions, bounded)


def count_resolutions(
    arrangement: Arrangement, weyl_order: int, flat_cap: int = DEFAULT_FLAT_CAP
) -> CountReport:
    """Total OS dimension of a central arrangement divided by the Namikawa
    Weyl order |W| (a catalog entry's `weyl_order`), as an exact
    integer; non-divisibility is reported as an inconsistency, never
    rounded.  For real arrangements the report also carries the region
    count, which is |W| * resolution_count by Zaslavsky's theorem: both are
    sums of mu(X) (-1)^{codim X} over the same lattice."""
    if not arrangement.central:
        raise InvalidInputError(
            "resolution counting requires a central arrangement (cone affine input first)"
        )
    if weyl_order < 1:
        raise InvalidInputError("Weyl order must be >= 1")
    report = analyze_arrangement(arrangement, flat_cap)
    os_dim = report.os_dimension
    if os_dim % weyl_order != 0:
        raise MathematicalInconsistencyError(
            f"OS dimension {os_dim} is not divisible by |W| = {weyl_order}; "
            "wrong Weyl order or wrong arrangement"
        )
    return report._replace(weyl_order=weyl_order, resolution_count=os_dim // weyl_order)


def run_oracle(report: CountReport, which: str, caps: dict) -> dict:
    """Cross-check a report's lattice route with the "nbc" or "ff" oracle and
    return its results; disagreement raises OracleDisagreementError."""
    from .matroid import find_good_primes, finite_field_count, nbc_betti

    arrangement = report.lattice.arrangement
    results: dict = {"oracle": which}
    if which == "nbc":
        betti = nbc_betti(arrangement, caps["subset_cap"])
        expected = list(report.poincare_poly.coefficients)
        results["nbc_betti"] = betti
        results["agrees"] = betti == expected
        if not results["agrees"]:
            raise OracleDisagreementError(
                f"nbc oracle {betti} != Poincare coefficients {expected}"
            )
    elif which == "ff":
        chi = report.char_poly
        primes = find_good_primes(report.lattice, 2, caps["ff_cap"])
        checks = []
        for q in primes:
            n = finite_field_count(arrangement, q, caps["ff_cap"])
            checks.append({"q": q, "count": n, "chi": chi(q), "agrees": n == chi(q)})
        results["finite_field"] = checks
        results["agrees"] = all(c["agrees"] for c in checks)
        if not results["agrees"]:
            raise OracleDisagreementError(f"finite-field oracle disagrees: {checks}")
    else:
        raise InvalidInputError(f"unknown oracle {which!r}")
    return results


# The one list of shipped entries, name -> (published |W|, expected values);
# data/<name>.arr and .grp hold each one's arrangement and group, and say
# in their headers how they were built.
_DATA = Path(__file__).with_name("data")
_SHIPPED = {
    "q8d8": (32, {
        "poincare": (1, 21, 170, 650, 1125, 625),
        "count": 81,
        "group_order": 32,
        "reflection_classes": 5,
        "parabolic_labels": ("A1",) * 5,
    }),
    "g4": (3, {
        "poincare": (1, 3, 2),
        "count": 2,
        "group_order": 24,
        "reflection_classes": 2,
        "parabolic_labels": ("A2",),
    }),
}


class CatalogEntry(NamedTuple):
    """A worked example: its arrangement, its published Namikawa Weyl order
    |W| (the one copy: `count --catalog` divides by it, and `selftest`
    checks it against the group route), the path of its `.grp` file (None
    for the wreath family; `selftest` parses it, `count` never reads it)
    and its other published values, each with its Poincare coefficients."""

    name: str
    arrangement: Arrangement
    weyl_order: int
    group_file: str | None
    expected: dict


def check_published(entry: CatalogEntry, report: CountReport):
    """Compare a report of `entry` with each value the entry publishes: its
    Poincare coefficients, then pi(1) regions for real input, then the count;
    the first mismatch raises MathematicalInconsistencyError."""
    e = entry.expected
    pairs = zip_longest(report.poincare_poly.coefficients, e["poincare"], fillvalue=0)
    checks = [(f"Poincare t^{k} coefficient", c, p) for k, (c, p) in enumerate(pairs)]
    if report.regions is not None:
        checks.append(("regions", report.regions, sum(e["poincare"])))
    checks.append(("count", report.resolution_count, e["count"]))
    for what, computed, published in checks:
        if computed != published:
            raise MathematicalInconsistencyError(
                f"catalog {entry.name}: computed {what} {computed} != published {published}"
            )


def catalog(name: str) -> CatalogEntry:
    name = name.strip().lower()
    if name in _SHIPPED:
        from .fileio import parse_arrangement_file

        weyl_order, expected = _SHIPPED[name]
        arrangement = parse_arrangement_file(str(_DATA / f"{name}.arr"))
        return CatalogEntry(name, arrangement, weyl_order, str(_DATA / f"{name}.grp"), expected)
    if name.startswith("wreath:"):
        from .rootdata import CatalanSpec, catalan_arrangement, parse_type_label, weyl_data
        from .rootdata import wreath_count_closed_form, wreath_poincare

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
        if n == 1:
            # S_1 wr G is G, with one resolution; the coned n = 1 arrangement
            # keeps a = 0, and the A1 factor of |W| below needs n >= 2.
            raise InvalidInputError(
                f"catalog {name!r}: the wreath entries need n >= 2; "
                f"for n = 1 run `oscount wreath-formula --type {wdata.full_label} --n 1`"
            )
        return CatalogEntry(
            name=name,
            arrangement=catalan_arrangement(CatalanSpec(wdata, n)),
            # an A1 factor for the diagonal leaf and the full W_G factor
            weyl_order=2 * wdata.weyl_order,
            group_file=None,
            expected={
                "poincare": wreath_poincare(wdata, n),
                "count": wreath_count_closed_form(wdata, n),
            },
        )
    raise InvalidInputError(
        f"unknown catalog name {name!r}; available: {', '.join(_SHIPPED)}, wreath:<type>:<n>"
    )
