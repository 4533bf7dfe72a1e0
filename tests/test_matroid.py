import json
import random
from math import gcd

import pytest

from conftest import (
    brute_force_points,
    g414_arrangement,
    nbc_by_definition,
    rational_arrangement,
    subspace_normals,
    whitney_characteristic,
)

from oscount.arrangement import (
    build_arrangement,
    characteristic_polynomial,
    intersection_lattice,
    poincare_polynomial,
)
from oscount.counting import catalog
from oscount import arrangement, cli, matroid
from oscount.fields import cyclotomic_field
from oscount.polynomial import IntegerPolynomial
from oscount.errors import ComputationCapError, InvalidInputError
from oscount.matroid import (
    find_good_primes,
    finite_field_count,
    nbc_betti,
)


def test_nbc_g4():
    assert nbc_betti(catalog("g4").arrangement) == [1, 3, 2]


def test_nbc_q8d8_reproduces_poincare_independently():
    assert nbc_betti(catalog("q8d8").arrangement) == [1, 21, 170, 650, 1125, 625]


def test_nbc_empty():
    assert nbc_betti(rational_arrangement(2, [])) == [1]


def test_nbc_counts_300_lines_through_the_origin_of_the_plane():
    # pi = 1 + 300 t + 299 t^2: the nbc pairs are the 299 that hold line 0
    lines = rational_arrangement(2, [[1, k] for k in range(300)])
    assert nbc_betti(lines) == [1, 300, 299]


def test_nbc_refuses_affine():
    a = rational_arrangement(1, [[1], [1]], offsets=[0, 1])
    with pytest.raises(InvalidInputError):
        nbc_betti(a)


def test_nbc_equals_poincare_on_random_central_arrangements():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 6)
        dim = rng.randint(1, 3)
        rows = []
        while len(rows) < n:
            row = [rng.randint(-2, 2) for _ in range(dim)]
            if any(row):
                rows.append(row)
        a = rational_arrangement(dim, rows)
        pi = poincare_polynomial(intersection_lattice(a))
        assert tuple(nbc_betti(a)) == pi.coefficients


def test_nbc_reads_no_lattice_code(monkeypatch):
    def refuse(*args):
        raise AssertionError("the lattice code ran")

    for name in ("_levels", "_rows_mod_prime", "_lattice_prime"):
        monkeypatch.setattr(arrangement, name, refuse)
    monkeypatch.setattr(matroid, "_levels", refuse)
    with pytest.raises(AssertionError, match="the lattice code ran"):
        intersection_lattice(catalog("g4").arrangement)
    assert nbc_betti(catalog("g4").arrangement) == [1, 3, 2]
    assert nbc_betti(catalog("q8d8").arrangement) == [1, 21, 170, 650, 1125, 625]
    assert nbc_betti(g414_arrangement()) == [1, 28, 254, 812, 585]


@pytest.mark.parametrize("conductor", [3, 5])
def test_nbc_equals_whitney_over_cyclotomic_fields(conductor):
    # entries 0, +-zeta^k and 1 + zeta^k make dependencies over Q(zeta_N)
    # that the rational coordinates alone do not see
    field = cyclotomic_field(conductor)
    powers = [field.one()]
    for _ in range(conductor - 1):
        powers.append(powers[-1] * field.zeta())
    entries = [field.zero()] * 3 + powers + [-x for x in powers]
    entries += [field.one() + x for x in powers[1:]]
    rng = random.Random(7000 + conductor)
    for case in range(30):
        dim, n = rng.randint(1, 3), rng.randint(1, 6)
        raw = []
        while len(raw) < n:
            normal = tuple(rng.choice(entries) for _ in range(dim))
            if any(not x.is_zero() for x in normal):
                raw.append((normal, field.zero()))
        a = build_arrangement(field, dim, raw)
        betti = nbc_betti(a)
        chi = IntegerPolynomial(
            (-1) ** (dim - i) * betti[dim - i] if dim - i < len(betti) else 0
            for i in range(dim + 1)
        )
        assert chi == whitney_characteristic(a), f"N = {conductor}, case {case}"


def test_nbc_equals_its_definition_on_random_central_arrangements():
    # rows are combinations of k random vectors: rank-deficient (l > rank)
    # whenever k < l, and a pencil (rank 2, three or more hyperplanes) at k = 2
    rng = random.Random(31337)
    kinds = set()
    for case in range(90):
        field = cyclotomic_field((1, 3, 4)[case % 3])
        dim = rng.randint(1, 4)
        normals = subspace_normals(rng, field, dim, rng.randint(1, dim), rng.randint(0, 8))
        a = build_arrangement(field, dim, [(normal, field.zero()) for normal in normals])
        expected = nbc_by_definition(a)
        assert nbc_betti(a) == expected, f"case {case}: N = {field.conductor}"
        rank = len(expected) - 1
        kinds.add((field.degree, rank < dim, rank == 2 and len(a.hyperplanes) > 2))
    assert {degree for degree, _, _ in kinds} == {1, 2}
    assert any(deficient for _, deficient, _ in kinds)
    assert any(pencil for _, _, pencil in kinds)


def test_nbc_top_degree_equals_top_moebius_mass():
    for a in (catalog("q8d8").arrangement, catalog("g4").arrangement):
        lat = intersection_lattice(a)
        betti = nbc_betti(a)
        top = lat.rank()
        mass = sum(abs(f.mu) for f in lat.levels[top])
        assert betti[top] == mass


def test_finite_field_boolean(boolean3):
    assert finite_field_count(boolean3, 7) == 216


def test_finite_field_braid(braid3):
    assert finite_field_count(braid3, 7) == 210
    assert finite_field_count(braid3, 11) == 990


def test_finite_field_affine_example():
    a = rational_arrangement(1, [[1], [1], [1]], offsets=[0, -1, 1])
    assert finite_field_count(a, 11) == 8


def test_finite_field_rejects_bad_prime():
    # x = 0 and x = 2 collapse mod 2, so q = 2 is skipped: there the count
    # is 1 but chi = t - 2 gives chi(2) = 0
    a = rational_arrangement(1, [[1], [1]], offsets=[0, 2])
    lattice = intersection_lattice(a)
    assert find_good_primes(lattice, 2) == [3, 5]
    chi = characteristic_polynomial(lattice)
    assert finite_field_count(a, 2) == 1 != chi(2) == 0


def test_good_prime_that_divides_a_minor():
    # the 1x1 minor 2 vanishes mod 2, yet reduction mod 2 keeps the lattice
    # of {x = 0, x + y + 2z = 0}: chi = t(t-1)^2
    a = rational_arrangement(3, [[1, 0, 0], [1, 1, 2]])
    lattice = intersection_lattice(a)
    chi = characteristic_polynomial(lattice)
    assert chi(2) == 2
    assert find_good_primes(lattice, 2) == [2, 3]
    assert finite_field_count(a, 2) == chi(2)


def test_normal_vanishing_mod_q_is_bad():
    # 3x = 1 has no point mod 3, so q = 3 would drop the hyperplane
    a = rational_arrangement(2, [[3, 0], [0, 1]], offsets=[1, 0])
    assert find_good_primes(intersection_lattice(a), 2) == [2, 5]


def test_good_prime_search_stops_at_the_cap(braid3):
    # q^3 <= 30 leaves only q = 2 and q = 3
    with pytest.raises(ComputationCapError, match="found only 2") as exc:
        find_good_primes(intersection_lattice(braid3), 3, ff_cap=30)
    assert exc.value.partial == {"good_primes": [2, 3], "last_q": 5}


def test_finite_field_rejects_nonrational():
    with pytest.raises(InvalidInputError):
        finite_field_count(catalog("g4").arrangement, 7)


def test_finite_field_cap():
    a = rational_arrangement(3, [[1, 0, 0]])
    with pytest.raises(ComputationCapError):
        finite_field_count(a, 101, ff_cap=10**4)


def test_finite_field_matches_chi_at_good_primes(braid3):
    chi = characteristic_polynomial(intersection_lattice(braid3))
    for q in find_good_primes(intersection_lattice(braid3), 3):
        assert finite_field_count(braid3, q) == chi(q)


def _random_row(rng, q: int, ell: int, central: bool, rows: list) -> list[int]:
    """A primitive integer row [a | b], b = 0 when central, of a random kind:
    small, large, a_l = 0 mod q, a = 0 mod q (affine only), or congruent
    mod q to one of `rows`."""
    kinds = ["small", "large", "a_l"] + ["a"] * (not central) + ["repeat"] * bool(rows)
    kind = rng.choice(kinds)
    a = [rng.randint(-3, 3) for _ in range(ell)]
    b = 0 if central else rng.randint(-5, 5)
    if kind == "large":
        a = [rng.randint(-(10**30), 10**30) for _ in range(ell)]
    elif kind == "a_l":
        a[-1] = q * rng.randint(-2, 2)
    elif kind == "a":
        a = [q * rng.randint(-2, 2) for _ in range(ell)]
        b = rng.choice([1, -1]) + q * rng.randint(-2, 2)
    elif kind == "repeat":
        *a, c = [x + q * rng.randint(-1, 1) for x in rng.choice(rows)]
        b = 0 if central else c
    if not any(a):
        a[0] = q if kind == "a" else 1
    g = gcd(*a, b)
    return [x // g for x in a + [b]]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_finite_field_count_equals_brute_force(q):
    rng = random.Random(1000 + q)
    seen = set()
    for ell in range(1, 5):
        for central in (True, False):
            for _ in range(3):
                rows = []
                for _ in range(rng.randint(1, 7)):
                    rows.append(_random_row(rng, q, ell, central, rows))
                a = rational_arrangement(ell, [r[:-1] for r in rows], [r[-1] for r in rows])
                assert finite_field_count(a, q) == brute_force_points(rows, q), (rows, q)
                seen.add("central" if a.central else "affine")
                mod_q = [tuple(x % q for x in r) for r in rows]
                for r, m in zip(rows, mod_q):
                    hits = {
                        "large": max(map(abs, r)) >= 2**63,
                        "a_l = 0 mod q": m[-2] == 0,
                        "a = 0 mod q": not any(m[:-1]),
                        "congruent mod q": mod_q.count(m) > 1,
                    }
                    seen.update(kind for kind, hit in hits.items() if hit)
    assert seen == {"central", "affine", "large", "a_l = 0 mod q", "a = 0 mod q", "congruent mod q"}


@pytest.mark.parametrize(
    "name, primes",
    [
        ("q8d8", [5, 7]),
        ("wreath:A1:2", [3, 5]),
        ("wreath:A1:3", [5, 7]),
        ("wreath:A2:2", [5, 7]),
        ("wreath:A3:2", [5, 7]),
    ],
)
def test_good_primes_of_catalog_entries(name, primes):
    assert find_good_primes(intersection_lattice(catalog(name).arrangement), 2) == primes


def test_good_prime_check_stops_at_the_first_level_that_differs(monkeypatch):
    lattice = intersection_lattice(catalog("q8d8").arrangement)
    yielded = []
    real = matroid._levels

    def counted(*args):
        yielded.append(0)
        for level in real(*args):
            yielded[-1] += 1
            yield level

    monkeypatch.setattr(matroid, "_levels", counted)
    assert find_good_primes(lattice, 2) == [5, 7]
    # mod 2 the lattice first differs at codimension 1, mod 3 at codimension 4;
    # q = 5 and q = 7 build all six levels
    assert yielded == [2, 5, 6, 6]


def test_good_primes_of_braid(braid3):
    assert find_good_primes(intersection_lattice(braid3), 2) == [2, 3]


def test_whitney_oracle_matches_lattice(braid3):
    assert whitney_characteristic(braid3) == characteristic_polynomial(
        intersection_lattice(braid3)
    )


# The walk visits exactly the nbc sets, pi(1) of them, and its last visit
# is a set of full rank: at cap pi(1) it returns pi, and at pi(1) - 1 it
# stops with pi less that one set.
@pytest.mark.parametrize(
    "name, visits, betti",
    [
        ("q8d8", 2_592, [1, 21, 170, 650, 1125, 625]),
        ("G(4,1,4)", 1_680, [1, 28, 254, 812, 585]),
        ("wreath:D4:2", 19_200, [1, 37, 518, 3326, 9081, 6237]),
    ],
    ids=["q8d8", "G(4,1,4)", "wreath:D4:2"],
)
def test_subset_cap_boundary(name, visits, betti):
    a = g414_arrangement() if name == "G(4,1,4)" else catalog(name).arrangement
    assert sum(betti) == visits
    assert nbc_betti(a, subset_cap=visits) == betti
    with pytest.raises(ComputationCapError, match=f"subset cap {visits - 1} ") as exc:
        nbc_betti(a, subset_cap=visits - 1)
    assert exc.value.partial == {
        "nbc_counts": betti[:-1] + [betti[-1] - 1],
        "sets_visited": visits - 1,
    }


def _calls(monkeypatch, name: str) -> list:
    """Records each call of `matroid.<name>` while the test runs."""
    calls = []
    real = getattr(matroid, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matroid, name, counted)
    return calls


def test_nbc_root_makes_no_span_test(monkeypatch):
    # at rank 2 every child of the root is one rank short of full, so each
    # hyperplane x is settled as {x} and {0, x} with no span test
    calls = _calls(monkeypatch, "_in_span")
    lines = rational_arrangement(2, [[1, k] for k in range(1100)])
    assert nbc_betti(lines) == [1, 1100, 1099]
    assert nbc_betti(catalog("g4").arrangement) == [1, 3, 2]
    assert calls == []


@pytest.mark.parametrize("name", ["G(4,1,4)", "q8d8"])
def test_nbc_joins_at_most_phi_rows_per_set(monkeypatch, name):
    # phi joins for each element's rows in the rank basis, and phi for each
    # nbc set the walk pushes; a set with 0 below a set one short of full is
    # never joined
    a = g414_arrangement() if name == "G(4,1,4)" else catalog(name).arrangement
    calls = _calls(monkeypatch, "_join")
    betti = nbc_betti(a)
    assert len(calls) <= a.field.degree * (sum(betti) + len(a.hyperplanes))


# Athanasiadis: the wreath arrangement of a Weyl group with Coxeter number h
# and exponents e_i has pi = (1 + t) prod (1 + ((n - 1) h + e_i) t), here
# with n = 2.  h and the e_i are typed in, so no root data code is read.
@pytest.mark.parametrize(
    "name, h, exponents",
    [("wreath:A2:2", 3, (1, 2)), ("wreath:A3:2", 4, (1, 2, 3)), ("wreath:D4:2", 6, (1, 3, 3, 5))],
    ids=["A2", "A3", "D4"],
)
def test_nbc_matches_the_wreath_closed_form(name, h, exponents):
    pi = [1, 1]
    for e in exponents:
        pi = [a + (h + e) * b for a, b in zip(pi + [0], [0] + pi)]
    assert nbc_betti(catalog(name).arrangement) == pi


def test_subset_cap_reports_the_counts_so_far(capsys):
    argv = ["count", "--catalog", "q8d8", "--oracle", "nbc", "--subset-cap", "100", "--json"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == "error: subset cap 100 exceeded during nbc enumeration\n"
    assert json.loads(out) == {
        "error": "subset cap 100 exceeded during nbc enumeration",
        "partial": {"nbc_counts": [1, 8, 28, 42, 21], "sets_visited": 100},
    }
    assert sum(json.loads(out)["partial"]["nbc_counts"]) == 100
