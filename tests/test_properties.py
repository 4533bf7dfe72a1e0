"""Randomized invariant suite over small rational arrangements.

A fixed, recorded seed drives every case, so failures are reproducible.
Covers: Whitney-oracle equality with the lattice route, the
deletion-restriction identity, the cone identity, Moebius row sums, the
Moebius sign pattern, Zaslavsky's region count, and (for up to 6
hyperplanes) every flat and its Moebius value against brute-force subset
ranks and the definition of mu.  `_levels` is also run directly on random
rows mod small primes, where rows coincide and affine classes are parallel.
The lattice's rank is checked against the rank of the normals on affine and
rank-deficient input over Q, Q(zeta_3) and Q(zeta_4).
"""

import random

from conftest import (
    _poly_mul,
    brute_force_flats,
    brute_force_moebius,
    deletion_restriction,
    members,
    rank_mod,
    rational_arrangement,
    subset_flats,
    subspace_normals,
    whitney_characteristic,
)

from oscount.arrangement import (
    _levels,
    build_arrangement,
    characteristic_polynomial,
    cone,
    essential_rank,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from oscount.fields import cyclotomic_field

SEED = 20250809
NUM_CASES = 120
MAX_BRUTE_FORCE = 6


def random_arrangements():
    rng = random.Random(SEED)
    for case in range(NUM_CASES):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 8) if case % 5 else rng.randint(9, 12)
        affine = rng.random() < 0.4
        rows, offsets = [], []
        while len(rows) < n:
            row = [rng.randint(-2, 2) for _ in range(dim)]
            if any(row):
                rows.append(row)
                offsets.append(rng.randint(-1, 1) if affine else 0)
        yield case, rational_arrangement(dim, rows, offsets)


def test_randomized_invariant_suite():
    checked = 0
    for case, arr in random_arrangements():
        lattice = intersection_lattice(arr)
        chi = characteristic_polynomial(lattice)
        pi = poincare_polynomial(lattice)

        # Whitney oracle: subset expansion equals the lattice route exactly
        assert whitney_characteristic(arr) == chi, f"case {case}: Whitney oracle differs"

        # (t - 1) divides chi for a nonempty central arrangement
        if arr.central and arr.hyperplanes:
            assert sum(chi) == 0, f"case {case}: chi(1) != 0 for central arrangement"

        # Moebius row sums vanish; signs alternate with codimension
        flats = [flat for level in lattice.levels for flat in level.items()]
        for codim, level in enumerate(lattice.levels):
            for f, mu in level.items():
                assert mu != 0, f"case {case}: zero Moebius value"
                assert mu * (-1) ** codim > 0, f"case {case}: Moebius sign pattern"
                if codim > 0:
                    total = sum(m for g, m in flats if members(g) <= members(f))
                    assert total == 0, f"case {case}: Moebius row sum"

        # Zaslavsky: regions equal the total OS dimension (rational => real)
        regions, bounded = region_count(lattice)
        assert regions == sum(pi), f"case {case}: Zaslavsky regions"
        assert bounded >= 0

        # deletion-restriction at one random hyperplane
        rng = random.Random(SEED + case)
        h = rng.randrange(len(arr.hyperplanes))
        deleted, restricted = deletion_restriction(arr, h)
        chi_d = characteristic_polynomial(intersection_lattice(deleted))
        chi_r = characteristic_polynomial(intersection_lattice(restricted))
        chi_dr = tuple(d - r for d, r in zip(chi_d, chi_r + (0,)))
        assert chi == chi_dr, f"case {case}: deletion-restriction at h={h}"

        # cone identity
        pi_cone = poincare_polynomial(intersection_lattice(cone(arr)))
        assert pi_cone == tuple(_poly_mul((1, 1), pi)), f"case {case}: cone identity"

        checked += 1
    assert checked == NUM_CASES


def test_flat_family_matches_subset_ranks():
    checked = 0
    for case, arr in random_arrangements():
        if len(arr.hyperplanes) > MAX_BRUTE_FORCE:
            continue
        lattice = intersection_lattice(arr)
        flats = {
            (members(f), codim, mu)
            for codim, level in enumerate(lattice.levels)
            for f, mu in level.items()
        }
        assert flats == _with_moebius(brute_force_flats(arr)), f"case {case}: flat family"
        checked += 1
    assert checked >= NUM_CASES // 2


def _with_moebius(flats: set) -> set:
    mu = brute_force_moebius(flats)
    return {(contains, codim, mu[contains]) for contains, codim in flats}


def random_rows_mod_q():
    """Nonzero rows [normal | offset] mod q in {2, 3, 5, 7}: some repeat an
    earlier row up to a unit (one hyperplane mod q, two indices), some
    share an earlier normal with another offset (parallel), and some have a
    zero normal (a hyperplane that misses everything)."""
    rng = random.Random(SEED)
    for case in range(NUM_CASES):
        q = (2, 3, 5, 7)[case % 4]
        dim = rng.randint(1, 4)
        affine = rng.random() < 0.5
        n = rng.randint(1, 7)
        rows = []
        while len(rows) < n:
            draw = rng.random()
            if rows and draw < 0.2:
                unit = rng.randrange(1, q)
                row = tuple(unit * x % q for x in rng.choice(rows))
            elif rows and affine and draw < 0.4:
                row = rng.choice(rows)[:-1] + (rng.randrange(q),)
            else:
                row = tuple(rng.randrange(q) for _ in range(dim))
                row += (rng.randrange(q) if affine else 0,)
            if any(row):
                rows.append(row)
        yield case, q, dim, rows


def test_levels_mod_q_match_subset_ranks():
    for case, q, dim, rows in random_rows_mod_q():
        levels = list(_levels(rows, dim, q, 10**6))
        flats = {
            (members(f), codim, mu) for codim, level in enumerate(levels) for f, mu in level.items()
        }
        expected = _with_moebius(subset_flats(rows, rank_mod(q)))
        assert flats == expected, f"case {case}: q = {q}, rows {rows}"


def test_levels_mod_q_masks_are_contains_and_sort_each_level():
    for case, q, dim, rows in random_rows_mod_q():
        for level in _levels(rows, dim, q, 10**6):
            assert list(level) == sorted(level), f"case {case}"
            for f in level:
                assert members(f) <= set(range(len(rows))), f"case {case}"


def test_lattice_rank_is_essential_rank():
    # rows are combinations of k random vectors, so the normals have rank at
    # most k < l in most cases; offsets make half the cases affine
    rng = random.Random(SEED)
    kinds = set()
    for case in range(NUM_CASES):
        field = cyclotomic_field((1, 3, 4)[case % 3])
        dim = rng.randint(1, 5)
        normals = subspace_normals(rng, field, dim, rng.randint(0, dim), rng.randint(0, 7))
        affine = rng.random() < 0.5
        raw = [
            (normal, field.from_rational(rng.randint(-2, 2) if affine else 0))
            for normal in normals
        ]
        arr = build_arrangement(field, dim, raw)
        rank = essential_rank(arr)
        assert intersection_lattice(arr).rank() == rank, f"case {case}"
        kinds.add((rank < dim, not arr.central, field.degree))
    assert {(True, True), (True, False), (False, True), (False, False)} <= {
        kind[:2] for kind in kinds
    }
    assert {kind[2] for kind in kinds} == {1, 2}
