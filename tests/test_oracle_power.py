"""Oracle power: which check catches which fault of the lattice route.

Each fault is a patch of the route that `count`, `analyze` and `selftest`
run, in force for every lattice that route builds; "none", the control,
patches nothing:

- (a) w_k +-1: one Whitney number (the mu sum of codimension k) off by one,
  for each k up to the rank;
- (a') pi_1 + 1 and pi_2 - 1, which keeps pi(1);
- (b) chi plus (t - 1)(t - q1)(t - q2) on every lattice of rank l >= 4, where
  q1, q2 are the primes the ff oracle checks on the input (on G(4,1,4),
  which it refuses, 5 and 13, the first primes = 1 mod 4), so chi(1),
  chi(q1) and chi(q2) are kept;
- (c) the t^(l-1) coefficient off by one, as a central build shows it: the
  center's mu, read off sum mu = 0, takes the opposite change;
- (d) the |W| the count divides by doubled, for every catalog entry;
- (e) the lattice built modulo the first prime `_lattice_prime` finds above 2
  instead of above the Hadamard bound: 3 over Q, where q8d8, D4:2 and A3:2
  collapse.  G(4,1,4)'s lattice (a Dowling lattice) is the same modulo every
  prime p = 1 (mod 4), so (e) leaves it as it is and it has no (e) row.

Each check is read on the faulted route on its own (the CLI stops at the
first that fails):

    nbc   `--oracle nbc`: the nbc Betti numbers against pi
    ff    `--oracle ff`: chi(q) against the point count at two good primes
    pub   `counting.check_published` on a shipped entry (typed values)
    cf    `counting.check_published` on a wreath entry (the closed form)
    div   `count_resolutions`: pi(1) divisible by |W|
    pi    `poincare_polynomial`'s raise on a negative coefficient
    Z     `region_count`'s raise on a negative Zaslavsky count
    selftest's 14 rows, in its order, in four columns:
          q8d8: count, nbc, group | g4: count, nbc, group |
          wreath: two-route A1:2, A1:3, A2:2, A3:2 |
          ff row: finite-field oracle q8d8, A1:2, A1:3, A2:2
    cone  the cone identity on affine A1:2 and A2:2, as selftest ran it
    dr    the deletion-restriction identity on g4 and A1:2, as selftest ran it

A cell reads x (caught: an inconsistency or a disagreement, exit 3), c
(capped, exit 2), . (missed) or - (the check does not apply to the input).
selftest, cone and dr run on their own inputs, so under one fault they read
the same on every input.  cone and dr were selftest rows until this table
showed that nbc catches every fault they catch; tier-1 keeps both
identities on random input (`test_randomized_invariant_suite`).  selftest's
nbc and group rows read no lattice, so no fault here reaches them: they
check the nbc walk and the group route against typed values.

The unfaulted lattices, nbc counts, point counts, good primes and group
analyses are each computed once: no fault changes what they read, and the
good primes are keyed by the flats they compare, which (e) changes.
"""

from __future__ import annotations

import contextlib
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import pytest

from conftest import _poly_mul, deletion_restriction, g414_arrangement

from oscount import arrangement, counting, fileio, groups, matroid, selftest
from oscount.arrangement import characteristic_polynomial, cone, poincare_polynomial, region_count
from oscount.counting import CountReport, check_published, count_resolutions, run_oracle
from oscount.errors import (
    DEFAULT_FF_CAP,
    DEFAULT_FLAT_CAP,
    DEFAULT_GROUP_CAP,
    DEFAULT_SUBSET_CAP,
    ComputationCapError,
    InvalidInputError,
    MathematicalInconsistencyError,
)
from oscount.rootdata import CatalanSpec, affine_catalan, weyl_data

TABLE = """\
                       ------ per input ------ ------ selftest ------ removed
fault            input nbc ff pub cf div pi Z q8d8  g4 wreath ff row cone dr
none             q8d8   .  .   .  -   .  .  . ...  ...  ....   ....   .   .
(a) w0+1         q8d8   x  x   x  -   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w0-1         q8d8   x  x   x  -   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w1+1         q8d8   x  x   x  -   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w1-1         q8d8   x  x   x  -   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w2+1         q8d8   x  x   x  -   x  .  x x..  x..  xxxx   xxxx   x   .
(a) w2-1         q8d8   x  x   x  -   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w3+1         q8d8   x  x   x  -   x  .  x x..  ...  ..xx   x..x   x   .
(a) w3-1         q8d8   x  x   x  -   x  .  . x..  ...  ..xx   x..x   x   .
(a) w4+1         q8d8   x  x   x  -   x  .  x x..  ...  ...x   x...   .   .
(a) w4-1         q8d8   x  x   x  -   x  .  . x..  ...  ...x   x...   .   .
(a) w5+1         q8d8   x  x   x  -   x  .  x x..  ...  ....   x...   .   .
(a) w5-1         q8d8   x  x   x  -   x  .  . x..  ...  ....   x...   .   .
(a') pi1+1 pi2-1 q8d8   x  x   x  -   .  .  . x..  x..  xxxx   xxxx   x   x
(b) q=5,7        q8d8   x  .   x  -   .  .  . x..  ...  ...x   ....   .   .
(c) w1+1 wr-1    q8d8   x  x   x  -   .  .  . x..  x..  xxxx   xxxx   x   .
(d) 2|W|         q8d8   .  .   x  -   x  .  . x.x  x.x  xxxx   ....   .   .
(e) first p > 2  q8d8   x  c   x  -   .  .  . x..  ...  .xxx   c.cc   .   .
none             D4:2   .  .   -  .   .  .  . ...  ...  ....   ....   .   .
(a) w0+1         D4:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w0-1         D4:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w1+1         D4:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w1-1         D4:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w2+1         D4:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   .
(a) w2-1         D4:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w3+1         D4:2   x  x   -  x   x  .  x x..  ...  ..xx   x..x   x   .
(a) w3-1         D4:2   x  x   -  x   x  .  . x..  ...  ..xx   x..x   x   .
(a) w4+1         D4:2   x  x   -  x   x  .  x x..  ...  ...x   x...   .   .
(a) w4-1         D4:2   x  x   -  x   x  .  . x..  ...  ...x   x...   .   .
(a) w5+1         D4:2   x  x   -  x   x  .  x x..  ...  ....   x...   .   .
(a) w5-1         D4:2   x  x   -  x   x  .  . x..  ...  ....   x...   .   .
(a') pi1+1 pi2-1 D4:2   x  x   -  x   .  .  . x..  x..  xxxx   xxxx   x   x
(b) q=7,11       D4:2   x  .   -  x   x  .  . x..  ...  ...x   x...   .   .
(c) w1+1 wr-1    D4:2   x  x   -  x   .  .  . x..  x..  xxxx   xxxx   x   .
(d) 2|W|         D4:2   .  .   -  x   .  .  . x.x  x.x  xxxx   ....   .   .
(e) first p > 2  D4:2   x  c   -  x   x  .  . x..  ...  .xxx   c.cc   .   .
none             A3:2   .  .   -  .   .  .  . ...  ...  ....   ....   .   .
(a) w0+1         A3:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w0-1         A3:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w1+1         A3:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   x
(a) w1-1         A3:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w2+1         A3:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   .
(a) w2-1         A3:2   x  x   -  x   x  .  x x..  x..  xxxx   xxxx   x   x
(a) w3+1         A3:2   x  x   -  x   x  .  . x..  ...  ..xx   x..x   x   .
(a) w3-1         A3:2   x  x   -  x   x  .  x x..  ...  ..xx   x..x   x   .
(a) w4+1         A3:2   x  x   -  x   x  .  . x..  ...  ...x   x...   .   .
(a) w4-1         A3:2   x  x   -  x   x  .  x x..  ...  ...x   x...   .   .
(a') pi1+1 pi2-1 A3:2   x  x   -  x   .  .  x x..  x..  xxxx   xxxx   x   x
(b) q=5,7        A3:2   x  .   -  x   .  .  . x..  ...  ...x   ....   .   .
(c) w1+1 wr-1    A3:2   x  x   -  x   x  .  . x..  x..  xxxx   xxxx   x   .
(d) 2|W|         A3:2   .  .   -  x   .  .  . x.x  x.x  xxxx   ....   .   .
(e) first p > 2  A3:2   x  c   -  x   x  .  . x..  ...  .xxx   c.cc   .   .
none             G414   .  -   -  -   -  .  - ...  ...  ....   ....   .   .
(a) w0+1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(a) w0-1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(a) w1+1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(a) w1-1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(a) w2+1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   .
(a) w2-1         G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(a) w3+1         G414   x  -   -  -   -  .  - x..  ...  ..xx   x..x   x   .
(a) w3-1         G414   x  -   -  -   -  .  - x..  ...  ..xx   x..x   x   .
(a) w4+1         G414   x  -   -  -   -  .  - x..  ...  ...x   x...   .   .
(a) w4-1         G414   x  -   -  -   -  .  - x..  ...  ...x   x...   .   .
(a') pi1+1 pi2-1 G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   x
(b) q=5,13       G414   x  -   -  -   -  .  - x..  ...  ...x   x...   .   .
(c) w1+1 wr-1    G414   x  -   -  -   -  .  - x..  x..  xxxx   xxxx   x   .
"""

# Cells that a ROADMAP item is to turn into x, each . or - today:
# (fault prefix, input or None for all, check) -> the item
FLIPS = {
    ("(b)", None, "ff"): "item 1: two values of chi cannot pin it; l - 2 good primes can",
    ("(a", "G414", "ff"): "item 1: the ff oracle over Q(zeta_N), at primes q = 1 (mod N)",
    ("(c)", "G414", "ff"): "item 1",
}

CAPS = {
    "flat_cap": DEFAULT_FLAT_CAP,
    "subset_cap": DEFAULT_SUBSET_CAP,
    "group_cap": DEFAULT_GROUP_CAP,
    "ff_cap": DEFAULT_FF_CAP,
}
INPUT_CHECKS = ("nbc", "ff", "pub", "cf", "div", "pi", "Z")
# (label, width, selftest rows) of every column after the fault and the input
COLUMNS = (
    *((name, len(name), 0) for name in INPUT_CHECKS),
    ("q8d8", 4, 3), ("g4", 3, 3), ("wreath", 6, 4), ("ff row", 6, 4),
    ("cone", 4, 0), ("dr", 2, 0),
)

REAL_LATTICE = counting.intersection_lattice
REAL_CATALOG = counting.catalog
REAL_PRIME = arrangement._lattice_prime


class Input(NamedTuple):
    name: str
    arrangement: arrangement.Arrangement
    entry: Optional[counting.CatalogEntry]


class Fault(NamedTuple):
    """`deltas(rank, l)` is {codimension: change of its mu sum} for a
    lattice of that rank in l dimensions, or None where the fault does not
    reach it; `weyl` multiplies |W|; `prime_above` is the bound
    `_lattice_prime` searches above, or None for the Hadamard bound."""

    name: str
    deltas: Optional[Callable] = None
    weyl: int = 1
    prime_above: Optional[int] = None


def _faults(inp: Input, good_primes: list[int]) -> list[Fault]:
    faults = [Fault("none")]  # the control: the route as it is
    faults += [
        Fault(f"(a) w{k}{'+-'[s < 0]}1", lambda r, ell, k=k, s=s: {k: s} if r >= k else None)
        for k in range(inp.arrangement.ambient_dim + 1)
        for s in (1, -1)
    ]
    faults.append(Fault("(a') pi1+1 pi2-1", lambda r, ell: {1: -1, 2: -1} if r >= 2 else None))
    # chi's t^j is the mu sum of codimension l - j
    poly = _poly_mul(_poly_mul((-1, 1), (-good_primes[0], 1)), (-good_primes[1], 1))
    faults.append(
        Fault(
            "(b) q={},{}".format(*good_primes),
            lambda r, ell: {ell - j: c for j, c in enumerate(poly)} if r == ell >= 4 else None,
        )
    )
    faults.append(Fault("(c) w1+1 wr-1", lambda r, ell: {1: 1, r: -1} if r >= 2 else None))
    if inp.entry is not None:
        faults.append(Fault("(d) 2|W|", weyl=2))
    if inp.arrangement.field.is_rational:
        faults.append(Fault("(e) first p > 2", prime_above=2))
    return faults


def _inputs() -> list[Input]:
    inputs = []
    for name in ("q8d8", "wreath:D4:2", "wreath:A3:2"):
        entry = REAL_CATALOG(name)
        inputs.append(Input(name.removeprefix("wreath:"), entry.arrangement, entry))
    return inputs + [Input("G414", g414_arrangement(), None)]


def _memo(fn, key):
    table: dict = {}

    def memoized(*args):
        k = key(*args)
        if k not in table:
            table[k] = fn(*args)
        return table[k]

    return memoized


@contextlib.contextmanager
def _memoized_route():
    """The matroid oracles and the group analysis, each run once per
    argument; yields the unfaulted lattice of an arrangement, built once."""
    masks = lambda lattice: tuple(tuple(level) for level in lattice.levels)  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matroid, "nbc_betti", _memo(matroid.nbc_betti, lambda a, cap: a))
        count = _memo(matroid.finite_field_count, lambda a, q, cap: (a, q))
        mp.setattr(matroid, "finite_field_count", count)
        primes = _memo(matroid.find_good_primes, lambda lat, k, cap: (lat.arrangement, masks(lat), k))
        mp.setattr(matroid, "find_good_primes", primes)
        mp.setattr(fileio, "parse_group_file", _memo(fileio.parse_group_file, lambda path: path))
        mp.setattr(groups, "analyze_group", _memo(groups.analyze_group, lambda g, cap: id(g)))
        yield _memo(REAL_LATTICE, lambda a: a)


@contextlib.contextmanager
def _injected(fault: Fault, lattice_of):
    """The route with `fault` in force."""

    def faulted(arr, flat_cap=DEFAULT_FLAT_CAP):
        if fault.prime_above is not None:
            return REAL_LATTICE(arr, flat_cap)
        lattice = lattice_of(arr)
        deltas = fault.deltas and fault.deltas(lattice.rank(), arr.ambient_dim)
        if not deltas:
            return lattice
        levels = list(lattice.levels)
        for codim, change in deltas.items():
            level = levels[codim] = dict(levels[codim])
            level[next(iter(level))] += change  # the level's first flat
        return lattice._replace(levels=levels)

    def entry(name):
        e = REAL_CATALOG(name)
        return e._replace(weyl_order=e.weyl_order * fault.weyl)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "intersection_lattice", faulted)
        mp.setattr(counting, "catalog", entry)
        if fault.prime_above is not None:
            prime = lambda bound, field: REAL_PRIME(fault.prime_above, field)  # noqa: E731
            mp.setattr(arrangement, "_lattice_prime", prime)
        yield


def _verdict(fn, *args) -> str:
    try:
        fn(*args)
    except ComputationCapError:
        return "c"
    except MathematicalInconsistencyError:
        return "x"
    except InvalidInputError:
        return "-"
    return "."


def _input_verdicts(inp: Input, fault: Fault) -> list[str]:
    """The per-input checks, on the faulted route's report of `inp`; pi and
    the region counts are read off the lattice as the raises would."""
    lattice = counting.intersection_lattice(inp.arrangement)
    ell, rank = inp.arrangement.ambient_dim, lattice.rank()
    chi = characteristic_polynomial(lattice)
    pi = tuple(w * (-1) ** k for k, w in enumerate(lattice.whitney_numbers()))
    v = dict.fromkeys(INPUT_CHECKS, "-")
    v["pi"] = _verdict(poincare_polynomial, lattice)
    regions = bounded = None
    if all(h.is_real() for h in inp.arrangement.hyperplanes):
        v["Z"] = _verdict(region_count, lattice)
        regions = (-1) ** ell * sum(c * (-1) ** k for k, c in enumerate(chi))
        bounded = (-1) ** rank * sum(chi)
    report = CountReport(lattice, rank, chi, pi, sum(pi), regions, bounded)
    v["nbc"] = _verdict(run_oracle, report, "nbc", CAPS)
    v["ff"] = _verdict(run_oracle, report, "ff", CAPS)
    if inp.entry is not None:
        weyl = inp.entry.weyl_order * fault.weyl
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "analyze_arrangement", lambda arr, cap: report)
            v["div"] = _verdict(count_resolutions, inp.arrangement, weyl)
        counted = report._replace(weyl_order=weyl, resolution_count=Fraction(sum(pi), weyl))
        v["pub" if inp.entry.group_file else "cf"] = _verdict(check_published, inp.entry, counted)
    return [v[check] for check in INPUT_CHECKS]


def _cone_identity():
    for rank in (1, 2):
        aff = affine_catalan(CatalanSpec(weyl_data("A", rank), 2))
        pi_aff = counting.analyze_arrangement(aff).poincare_poly
        pi_cone = counting.analyze_arrangement(cone(aff)).poincare_poly
        if pi_cone != tuple(_poly_mul((1, 1), pi_aff)):
            raise MathematicalInconsistencyError(f"cone identity fails for A{rank}")


def _deletion_restriction_identity():
    for name in ("g4", "wreath:a1:2"):
        arr = REAL_CATALOG(name).arrangement
        chi = counting.analyze_arrangement(arr).char_poly
        for h in range(len(arr.hyperplanes)):
            deleted, restricted = deletion_restriction(arr, h)
            chi_d = counting.analyze_arrangement(deleted).char_poly
            chi_r = counting.analyze_arrangement(restricted).char_poly
            if chi != tuple(d - r for d, r in zip(chi_d, chi_r + (0,))):
                raise MathematicalInconsistencyError(f"deletion-restriction fails at h={h}")


def _global_verdicts() -> list[str]:
    """selftest's rows, by group, then cone and dr, under the fault in force."""
    rows = [
        "." if status == "PASS" else "c" if isinstance(detail, ComputationCapError) else "x"
        for _, status, detail in selftest._checks(CAPS, set())
    ]
    cells = []
    for size in (size for _, _, size in COLUMNS if size):
        cells.append("".join(rows[:size]))
        rows = rows[size:]
    assert rows == []
    return [*cells, _verdict(_cone_identity), _verdict(_deletion_restriction_identity)]


@lru_cache(maxsize=None)
def computed_table() -> tuple[tuple[str, str, dict], ...]:
    """(fault, input, {column: cell}) for every fault on every input."""
    rows = []
    with _memoized_route() as lattice_of:
        under: dict = {}  # fault name -> its selftest, cone and dr cells
        for inp in _inputs():
            if inp.arrangement.field.is_rational:
                good = matroid.find_good_primes(lattice_of(inp.arrangement), 2, CAPS["ff_cap"])
            else:
                good = [5, 13]
            for fault in _faults(inp, good):
                with _injected(fault, lattice_of):
                    if fault.name not in under:
                        under[fault.name] = _global_verdicts()
                    cells = [*_input_verdicts(inp, fault), *under[fault.name]]
                rows.append((fault.name, inp.name, dict(zip((c[0] for c in COLUMNS), cells))))
    return tuple(rows)


def _line(fault: str, inp: str, cells) -> str:
    text = " ".join(cell.center(width) for cell, (_, width, _) in zip(cells, COLUMNS))
    return f"{fault:<16} {inp:<5} {text}".rstrip()


def render(rows) -> str:
    lines = [
        f"{'':<22} {' per input ':-^23} {' selftest ':-^22} removed",
        _line("fault", "input", [label for label, _, _ in COLUMNS]),
        *(_line(fault, inp, cells.values()) for fault, inp, cells in rows),
    ]
    return "\n".join(lines) + "\n"


def test_the_fault_check_table_is_pinned():
    assert render(computed_table()) == TABLE, "\n" + render(computed_table())


def test_every_check_passes_the_unfaulted_route():
    controls = [cells for fault, _, cells in computed_table() if fault == "none"]
    assert len(controls) == 4
    assert {c for cells in controls for cell in cells.values() for c in cell} == {".", "-"}


def test_every_fault_on_every_input_is_caught():
    rows = [(f, i, "".join(cells.values())) for f, i, cells in computed_table() if f != "none"]
    assert [(f, i) for f, i, text in rows if "x" not in text] == []


def test_the_removed_identity_rows_catch_nothing_alone():
    # every fault the cone or deletion-restriction identity catches, nbc
    # catches on the same input: the two selftest rows were redundant
    for fault, inp, cells in computed_table():
        if "x" in (cells["cone"], cells["dr"]):
            assert cells["nbc"] == "x", (fault, inp)


def test_the_cells_a_roadmap_item_is_to_flip_are_pinned_missed():
    flips = 0
    for fault, inp, cells in computed_table():
        for (prefix, where, check), item in FLIPS.items():
            if fault.startswith(prefix) and where in (None, inp):
                assert cells[check] in ".-", (fault, inp, check, item)
                flips += 1
    assert flips == 4 + 11 + 1  # (b) on every input; (a) and (a') and (c) on G414


def test_a_small_prime_keeps_the_g414_lattice(monkeypatch):
    # so fault (e) has nothing to change on G(4,1,4): p = 5, 13 and 17
    arr = g414_arrangement()
    exact = REAL_LATTICE(arr).levels
    for bound in (2, 6, 14):
        monkeypatch.setattr(arrangement, "_lattice_prime", lambda b, f: REAL_PRIME(bound, f))
        assert REAL_LATTICE(arr).levels == exact
