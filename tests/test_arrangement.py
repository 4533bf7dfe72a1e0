import sys
import time
import tracemalloc

import pytest

from conftest import (
    _poly_mul,
    brute_force_flats,
    brute_force_moebius,
    deletion_restriction,
    fraction_coords,
    g414_arrangement,
    members,
    poly_at,
    rational_arrangement,
)

from oscount import arrangement
from oscount.arrangement import (
    IntersectionLattice,
    _hadamard_bound,
    _integer_rows,
    _lattice_prime,
    _rows_mod_prime,
    build_arrangement,
    characteristic_polynomial,
    cone,
    essential_rank,
    intersection_lattice,
    poincare_polynomial,
    region_count,
)
from oscount.counting import catalog
from oscount.errors import ComputationCapError, InvalidInputError, MathematicalInconsistencyError
from oscount.fields import cyclotomic_field, rational_field
from oscount.matroid import nbc_betti

QQ = rational_field()


def test_build_canonicalizes_and_dedups():
    a = rational_arrangement(2, [[1, 1], [2, 2]])
    assert len(a.hyperplanes) == 1
    assert a.hyperplanes[0].normal == (QQ.one(), QQ.one())
    assert a.central


def test_build_rejects_zero_normal_and_mixed_fields():
    with pytest.raises(InvalidInputError):
        rational_arrangement(2, [[0, 0]])
    q3 = cyclotomic_field(3)
    with pytest.raises(InvalidInputError):
        build_arrangement(QQ, 1, [((q3.one(),), q3.zero())])
    with pytest.raises(InvalidInputError, match="ambient dimension must be >= 0"):
        build_arrangement(QQ, -1, [])
    with pytest.raises(InvalidInputError, match="normal of length 1; ambient dimension is 2"):
        build_arrangement(QQ, 2, [((QQ.one(),), QQ.zero())])


def test_q8d8_arrangement_shape():
    a = catalog("q8d8").arrangement
    assert len(a.hyperplanes) == 21
    assert a.ambient_dim == 5 and a.central


def test_g4_arrangement_shape():
    a = catalog("g4").arrangement
    assert len(a.hyperplanes) == 3
    assert a.ambient_dim == 2 and a.central
    assert a.field.conductor == 3


def test_empty_arrangement_lattice():
    a = rational_arrangement(3, [])
    lat = intersection_lattice(a)
    assert lat.flats_per_level() == [1]
    assert lat.levels == [{0: 1}]


def test_boolean_lattice(boolean3):
    lat = intersection_lattice(boolean3)
    assert lat.flats_per_level() == [1, 3, 3, 1]
    for codim, level in enumerate(lat.levels):
        assert all(mu == (-1) ** codim for mu in level.values())
    chi = characteristic_polynomial(lat)
    assert chi == (-1, 3, -3, 1)  # (t - 1)^3


def test_g4_lattice_and_polynomials():
    lat = intersection_lattice(catalog("g4").arrangement)
    assert lat.flats_per_level() == [1, 3, 1]
    assert [mu for level in lat.levels for mu in level.values()] == [1, -1, -1, -1, 2]
    assert characteristic_polynomial(lat) == (2, -3, 1)
    assert poincare_polynomial(lat) == (1, 3, 2)


def test_braid_characteristic_with_finite_field_oracle(braid3):
    # chi = t(t-1)(t-2); at q=7 the point count 7*6*5 = 210 is the oracle
    lat = intersection_lattice(braid3)
    chi = characteristic_polynomial(lat)
    assert chi == (0, 2, -3, 1)
    assert poly_at(chi, 7) == 210


def test_q8d8_poincare_polynomial_matches_published_value():
    lat = intersection_lattice(catalog("q8d8").arrangement)
    pi = poincare_polynomial(lat)
    assert pi == (1, 21, 170, 650, 1125, 625)
    assert sum(pi) == 2592


def test_single_hyperplane_poincare():
    a = rational_arrangement(2, [[1, 0]])
    assert poincare_polynomial(intersection_lattice(a)) == (1, 1)


def test_region_counts():
    assert region_count(intersection_lattice(rational_arrangement(2, [[1, 0]]))) == (2, 0)
    four = rational_arrangement(2, [[0, 1], [1, 0], [1, 1], [1, -1]])
    assert region_count(intersection_lattice(four)) == (8, 0)
    assert region_count(intersection_lattice(catalog("q8d8").arrangement))[0] == 2592


def test_a_lattice_with_a_negative_invariant_is_an_inconsistency():
    # hand-built levels that no arrangement has: x = 0 in Q^1 with mu = 1
    # (pi = 1 - t) or mu = 0 (chi = t, so the bounded count is -1)
    line = rational_arrangement(1, [[1]])
    with pytest.raises(MathematicalInconsistencyError, match="negative Poincare coefficient"):
        poincare_polynomial(IntersectionLattice(line, [{0: 1}, {1: 1}]))
    with pytest.raises(MathematicalInconsistencyError, match=r"Zaslavsky count \(regions=1, bounded=-1\)"):
        region_count(IntersectionLattice(line, [{0: 1}, {1: 0}]))


def test_region_count_counts_relatively_bounded_regions():
    # (-1)^rank chi(1) counts the regions bounded modulo the directions in
    # every hyperplane; they are bounded only when rank = l
    strip = rational_arrangement(2, [[1, 0], [1, 0]], offsets=[0, 1])
    plane = rational_arrangement(2, [])
    triangle = rational_arrangement(2, [[1, 0], [0, 1], [1, 1]], offsets=[0, 0, 1])
    cases = ((strip, (3, 1), 1), (plane, (1, 1), 0), (triangle, (7, 1), 2))
    for arrangement, counts, rank in cases:
        lat = intersection_lattice(arrangement)
        assert (region_count(lat), lat.rank()) == (counts, rank)


def test_region_count_refuses_nonreal():
    with pytest.raises(InvalidInputError, match="hyperplane"):
        region_count(intersection_lattice(catalog("g4").arrangement))


def test_region_count_affine():
    a = rational_arrangement(1, [[1], [1], [1]], offsets=[0, -1, 1])
    lat = intersection_lattice(a)
    assert characteristic_polynomial(lat) == (-3, 1)
    assert region_count(lat) == (4, 2)


def test_cone_of_empty():
    a = rational_arrangement(1, [])
    c = cone(a)
    assert c.ambient_dim == 2
    assert len(c.hyperplanes) == 1
    assert c.hyperplanes[0].normal == (QQ.one(), QQ.zero())


def test_cone_matches_catalan_and_poincare_identity():
    from oscount.rootdata import CatalanSpec, affine_catalan, weyl_data

    spec = CatalanSpec(weyl_data("A", 1), 2)
    aff = affine_catalan(spec)
    coned = cone(aff)
    pi_aff = poincare_polynomial(intersection_lattice(aff))
    pi_cone = poincare_polynomial(intersection_lattice(coned))
    assert pi_cone == tuple(_poly_mul((1, 1), pi_aff))
    assert pi_cone == (1, 4, 3)  # (1 + t)(1 + 3t)


def test_deletion_restriction_boolean():
    a = rational_arrangement(2, [[1, 0], [0, 1]])
    deleted, restricted = deletion_restriction(a, 0)
    assert len(deleted.hyperplanes) == 1
    assert deleted.hyperplanes[0].normal == (QQ.zero(), QQ.one())
    assert restricted.ambient_dim == 1
    assert len(restricted.hyperplanes) == 1


def test_deletion_restriction_refuses_an_index_out_of_range(braid3):
    with pytest.raises(InvalidInputError, match="hyperplane index 3 out of range 0..2"):
        deletion_restriction(braid3, len(braid3.hyperplanes))


def test_deletion_restriction_braid_merges_images(braid3):
    # restricting to x1 = x2 identifies the other two hyperplanes
    _, restricted = deletion_restriction(braid3, 0)
    assert len(restricted.hyperplanes) == 1


def test_deletion_restriction_identity_on_g4():
    a = catalog("g4").arrangement
    chi = characteristic_polynomial(intersection_lattice(a))
    deleted, restricted = deletion_restriction(a, 0)
    chi_d = characteristic_polynomial(intersection_lattice(deleted))
    chi_r = characteristic_polynomial(intersection_lattice(restricted))
    assert chi_d == (1, -2, 1)
    assert chi_r == (-1, 1)
    assert chi == (2, -3, 1)
    assert chi == tuple(d - r for d, r in zip(chi_d, chi_r + (0,)))


def test_deletion_restriction_identity_on_catalog_representatives():
    # q8d8: one sign hyperplane and one coordinate hyperplane (the symmetry
    # orbits of the 21); wreath:A2:2 exhaustively; wreath:A3:2 one of each kind
    from oscount.counting import catalog

    cases = [
        (catalog("q8d8").arrangement, (0, 16)),
        (catalog("wreath:A2:2").arrangement, None),
        (catalog("wreath:A3:2").arrangement, (0, 18)),
    ]
    for arrangement, picks in cases:
        chi = characteristic_polynomial(intersection_lattice(arrangement))
        indices = range(len(arrangement.hyperplanes)) if picks is None else picks
        for h in indices:
            deleted, restricted = deletion_restriction(arrangement, h)
            chi_d = characteristic_polynomial(intersection_lattice(deleted))
            chi_r = characteristic_polynomial(intersection_lattice(restricted))
            assert chi == tuple(d - r for d, r in zip(chi_d, chi_r + (0,))), f"h={h}"


def test_moebius_row_sums_vanish():
    for arrangement in (catalog("q8d8").arrangement, catalog("g4").arrangement):
        lat = intersection_lattice(arrangement)
        flats = [flat for level in lat.levels for flat in level.items()]
        for level in lat.levels[1:]:
            for f in level:
                total = sum(mu for g, mu in flats if members(g) <= members(f))
                assert total == 0


def test_poincare_sign_pattern():
    lat = intersection_lattice(catalog("q8d8").arrangement)
    pi = poincare_polynomial(lat)
    whitney = lat.whitney_numbers()
    for k, w in enumerate(whitney):
        assert pi[k] == (-1) ** k * w
        assert pi[k] >= 0


def test_flat_family_matches_subset_ranks():
    # g4 is cyclotomic; the affine lines include a parallel pair (x = 0, x = 1)
    affine = rational_arrangement(
        2, [[1, 0], [0, 1], [1, 1], [1, -1], [1, 0]], offsets=[0, 0, 1, 2, 1]
    )
    for arrangement in (catalog("g4").arrangement, affine):
        lat = intersection_lattice(arrangement)
        flats = {(members(f), codim) for codim, level in enumerate(lat.levels) for f in level}
        assert flats == brute_force_flats(arrangement)


@pytest.mark.parametrize(
    "dim, normals",
    [
        (3, []),
        (3, [[1, 2, 0]]),
        (4, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [1, -1, 0, 0]]),
        (4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0], [1, -1, 0, 0]]),
    ],
    ids=["rank-0", "rank-1", "rank-2-of-4", "rank-3-of-4"],
)
def test_central_lattice_ends_at_the_center_of_its_rank(dim, normals):
    # (c) yields the center right after level r - 1, r the rank of the rows:
    # at rank 0 it is the ambient space, and at rank < l a line or a plane
    a = rational_arrangement(dim, normals)
    lat = intersection_lattice(a)
    flats = {(members(f), codim) for codim, level in enumerate(lat.levels) for f in level}
    assert flats == brute_force_flats(a)
    mu = brute_force_moebius(flats)
    assert all(mu[members(f)] == level[f] for level in lat.levels for f in level)
    assert lat.rank() == essential_rank(a)
    assert list(lat.levels[-1]) == [(1 << len(normals)) - 1]


def test_flat_cap_errors():
    a = catalog("q8d8").arrangement
    assert intersection_lattice(a, flat_cap=568).num_flats() == 568
    with pytest.raises(ComputationCapError, match="exceeded at codimension 5") as err:
        intersection_lattice(a, flat_cap=567)
    assert err.value.partial == {"flats_per_level": [1, 21, 130, 270, 145]}
    with pytest.raises(ComputationCapError, match="exceeded at codimension 1") as err:
        intersection_lattice(a, flat_cap=10)
    assert err.value.partial == {"flats_per_level": [1]}


def test_lattice_determinism():
    a = catalog("q8d8").arrangement
    l1 = intersection_lattice(a)
    l2 = intersection_lattice(a)

    assert [list(level) for level in l1.levels] == [list(level) for level in l2.levels]
    for level in l1.levels:
        assert list(level) == sorted(level)


def test_wreath_d5_2_lattice_matches_the_closed_form():
    # pi = (1 + t) prod_i (1 + ((n-1) h + e_i) t) for D5 (h = 8, exponents
    # 1, 3, 5, 7, 4) and n = 2
    expected = (1,)
    for b in [1] + [8 + e for e in (1, 3, 5, 7, 4)]:
        expected = tuple(_poly_mul(expected, (1, b)))
    lat = intersection_lattice(catalog("wreath:D5:2").arrangement)
    assert lat.flats_per_level() == [1, 61, 1170, 8600, 22951, 15884, 1]
    assert poincare_polynomial(lat) == expected
    assert expected == (1, 61, 1490, 18350, 116289, 331029, 231660)
    assert sum(expected) == 698_880


def test_lattice_step_memo_computes_each_residual_once(monkeypatch):
    # every reduced or normalized row goes through `_normalized`: the 5
    # basis rows of the rank, the 37 atoms, then one call per distinct
    # (residual, via) step that changes the residual, made while expanding
    # the levels below codimension 4, since (c) expands no flat of the level
    # under the center.  wreath:D4:2 makes 30,324 (residual, via) visits over
    # 6,544 distinct pairs and 241 distinct residuals
    calls = []
    real = arrangement._normalized

    def counted(row, p):
        calls.append(row)
        return real(row, p)

    monkeypatch.setattr(arrangement, "_normalized", counted)
    lat = intersection_lattice(catalog("wreath:D4:2").arrangement)
    assert lat.num_flats() == 2688
    assert len(calls) == 4679


def test_lattice_with_large_coefficients_matches_subset_ranks():
    # P = 10^12 + 39 is prime and a 3x3 minor, and H > 2^61: the lattice mod P
    # or mod a word-size prime would lose flats
    P = 10**12 + 39
    a = rational_arrangement(
        3,
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, P], [P, 1, 1], [P, P + 1, 1]],
        offsets=[0, 0, 0, 0, P, 1],
    )
    assert _hadamard_bound(_integer_rows(a), 3) > 2**61
    levels = intersection_lattice(a).levels
    flats = {(members(f), codim) for codim, level in enumerate(levels) for f in level}
    assert flats == brute_force_flats(a)


def test_q8d8_lattice_prime_is_above_the_bound_and_proven():
    a = catalog("q8d8").arrangement
    _, p = _rows_mod_prime(a)
    assert p == 193
    # p exceeds H, the product of the six (l + 1) largest row norms, taken
    # from the rows directly: the q8d8 rows are primitive integer rows
    rows = [[fraction_coords(x)[0] for x in h.row()] for h in a.hyperplanes]
    assert all(x.denominator == 1 for row in rows for x in row)
    squares = sorted((sum(x * x for x in row) for row in rows), reverse=True)
    product = 1
    for sq in squares[:6]:
        product *= sq
    assert p**2 > product
    # Proth: p - 1 = k 2^m with k < 2^m, and a^((p-1)/2) = -1 (mod p)
    m = ((p - 1) & (1 - p)).bit_length() - 1
    assert (p - 1) >> m < 2**m
    assert any(pow(b, (p - 1) // 2, p) == p - 1 for b in range(2, 10))


@pytest.mark.parametrize("label, p", [("q8d8", 193), ("g4", 97), ("wreath:D4:2", 41)])
def test_lattice_prime_of_each_catalog_entry(label, p):
    assert _rows_mod_prime(catalog(label).arrangement)[1] == p


def test_lattice_prime_above_the_small_prime_sieve():
    # candidates above 2,000 are screened by a gcd with the odd primes below it
    assert _lattice_prime(3000, cyclotomic_field(3)) == (3457, 722)
    assert _lattice_prime(2**64, rational_field()) == (18446744099479355393, 1)
    p, _ = _lattice_prime(10**30, cyclotomic_field(12))
    assert p == 1000000000000016626908250767361


def test_lattice_prime_search_near_the_bit_limit_is_fast():
    # a 1,535-bit bound costs seconds of modular powers unless the candidates
    # with a small prime factor are dropped first
    bound = 2**1535 + 12345
    start = time.perf_counter()
    p, _ = _lattice_prime(bound, rational_field())
    assert time.perf_counter() - start < 6
    assert p > bound
    # Proth: p - 1 = k 2^m with k < 2^m, and a^((p-1)/2) = -1 (mod p)
    m = ((p - 1) & (1 - p)).bit_length() - 1
    assert (p - 1) >> m < 2**m
    assert any(pow(b, (p - 1) // 2, p) == p - 1 for b in range(2, 10))


def test_rank2_lattice_keeps_one_copy_of_the_atom_masks():
    # 8,000 lines through the origin of Q^2: the atoms' masks are most of the
    # lattice, and the ambient space (mask 0) hands each atom its members
    # mask itself instead of a copy 0 | members
    a = catalog("wreath:A1:4000").arrangement
    tracemalloc.start()
    try:
        lattice = intersection_lattice(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lattice.flats_per_level() == [1, 8000, 1]
    masks = sum(map(sys.getsizeof, lattice.levels[1]))
    assert peak < 3 * masks


def test_g414_lattice_prime_and_poincare():
    a = g414_arrangement()
    bound = _hadamard_bound(_integer_rows(a), 4) ** 2
    p, omega = _lattice_prime(bound, cyclotomic_field(4))
    assert p == _rows_mod_prime(a)[1] > bound
    assert p % 4 == 1
    assert (omega * omega + 1) % p == 0  # Phi_4(omega) = 0
    pi = poincare_polynomial(intersection_lattice(a))
    expected = (1, 1)
    for b in (5, 9, 13):
        expected = tuple(_poly_mul(expected, (1, b)))
    assert pi == expected
    assert tuple(nbc_betti(a)) == pi


def test_essential_rank():
    assert essential_rank(catalog("q8d8").arrangement) == 5
    assert essential_rank(rational_arrangement(3, [[1, 0, 0], [2, 0, 0]])) == 1
