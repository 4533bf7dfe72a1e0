"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or via the CLI as `oscount selftest`.
"""

import time
from contextlib import contextmanager

import pytest

from conftest import catalog_group, rational_arrangement

from oscount.arrangement import (
    characteristic_polynomial,
    intersection_lattice,
    poincare_polynomial,
)
from oscount.counting import catalog, count_resolutions
from oscount.errors import InvalidInputError
from oscount.groups import (
    minimal_parabolics,
    namikawa_weyl_from_group,
    symplectic_reflections,
    verify_zeta_bijection,
)
from oscount.matroid import find_good_primes, finite_field_count, nbc_betti
from oscount.rootdata import parse_type_label, weyl_data, wreath_count_closed_form

Q8D8_POINCARE = (1, 21, 170, 650, 1125, 625)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS ({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_q8d8_poincare_and_nbc_oracle():
    with criterion(1, "q8d8 Poincare polynomial, both routes"):
        t0 = time.perf_counter()
        entry = catalog("q8d8")
        lattice = intersection_lattice(entry.arrangement)
        pi = poincare_polynomial(lattice)
        assert pi.coefficients == Q8D8_POINCARE
        assert pi(1) == 2592
        betti = nbc_betti(entry.arrangement)
        assert tuple(betti) == Q8D8_POINCARE
        assert time.perf_counter() - t0 < 300.0  # well under the 5-minute budget


def test_criterion_2_q8d8_count():
    with criterion(2, "q8d8 count 2592/32 = 81"):
        entry = catalog("q8d8")
        report = count_resolutions(entry.arrangement, entry.weyl_order)
        assert report.os_dimension == 2592
        assert report.weyl_order == 32
        assert report.os_dimension % report.weyl_order == 0
        assert report.resolution_count == 81


def test_criterion_3_g4():
    with criterion(3, "g4 over Q(zeta_3): pi, nbc basis sizes, count 2"):
        entry = catalog("g4")
        lattice = intersection_lattice(entry.arrangement)
        pi = poincare_polynomial(lattice)
        assert pi.coefficients == (1, 3, 2)
        assert pi(1) == 6
        assert nbc_betti(entry.arrangement) == [1, 3, 2]
        report = count_resolutions(entry.arrangement, entry.weyl_order)
        assert report.weyl_order == 3 and report.resolution_count == 2


def test_criterion_4_wreath_two_route_agreement():
    with criterion(4, "wreath closed form == arrangement route"):
        cases = [("A1", 2, 2, 8), ("A1", 3, 3, 12), ("A2", 2, 5, 60), ("A3", 2, 14, 672)]
        for label, n, count, pi1 in cases:
            letter, rank = parse_type_label(label)
            wdata = weyl_data(letter, rank)
            t0 = time.perf_counter()
            closed = wreath_count_closed_form(wdata, n)
            entry = catalog(f"wreath:{label}:{n}")
            report = count_resolutions(entry.arrangement, entry.weyl_order)
            elapsed = time.perf_counter() - t0
            assert closed == count == entry.expected["count"]
            assert report.resolution_count == count
            assert report.os_dimension == pi1
            assert report.weyl_order == 2 * wdata.weyl_order
            if label == "A3":
                assert elapsed < 120.0


def test_criterion_5_n1_degeneracy():
    with criterion(5, "n=1: closed form 1 for every type; direct route n>=2 only"):
        for label in ("A1", "A2", "A3", "A5", "D4", "D5", "E6", "E7", "E8"):
            letter, rank = parse_type_label(label)
            assert wreath_count_closed_form(weyl_data(letter, rank), 1) == 1
        # the coned n = 1 Catalan arrangement is not the singular locus of
        # C^2/G (it keeps a = 0), so the catalog refuses it
        for label in ("A1", "A2", "D4"):
            with pytest.raises(InvalidInputError, match=f"--type {label} --n 1"):
                catalog(f"wreath:{label}:1")


def test_criterion_6_finite_field_oracle():
    with criterion(6, "finite-field counts match chi at two good primes"):
        # the braid example: chi = t(t-1)(t-2) gives 210 at q=7, 990 at q=11
        braid = rational_arrangement(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
        assert finite_field_count(braid, 7) == 210
        assert finite_field_count(braid, 11) == 990
        for name in ("q8d8", "wreath:A1:2", "wreath:A1:3", "wreath:A2:2", "wreath:A3:2"):
            entry = catalog(name)
            chi = characteristic_polynomial(intersection_lattice(entry.arrangement))
            primes = find_good_primes(intersection_lattice(entry.arrangement), 2)
            assert len(primes) == 2
            for q in primes:
                assert finite_field_count(entry.arrangement, q) == chi(q), (name, q)


def test_criterion_7_group_pipeline():
    with criterion(7, "group pipeline: orders, classes, zeta, Weyl orders"):
        group = catalog_group("q8d8")
        group.enumerate_elements()
        assert group.order == 32
        refl = symplectic_reflections(group)
        assert len(refl) == 5
        paras = minimal_parabolics(group, refl)
        assert len(paras) == 5
        assert all(p.kleinian_label == "A1" for p in paras)
        assert all(p.class_action_trivial for p in paras)
        assert verify_zeta_bijection(refl, paras)["bijective"]
        assert namikawa_weyl_from_group(paras).total_order == 32

        group = catalog_group("g4")
        group.enumerate_elements()
        assert group.order == 24
        assert len(symplectic_reflections(group)) == 2
        paras = minimal_parabolics(group, symplectic_reflections(group))
        assert verify_zeta_bijection(symplectic_reflections(group), paras)["bijective"]
        assert namikawa_weyl_from_group(paras).total_order == 3  # via override


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites, fixed seed"):
        from test_properties import NUM_CASES, SEED, test_randomized_invariant_suite

        assert NUM_CASES >= 100
        assert SEED == 20250809  # recorded seed
        test_randomized_invariant_suite()
