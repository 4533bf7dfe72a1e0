import hashlib
from itertools import product

import pytest

from oscount.arrangement import build_arrangement, intersection_lattice, poincare_polynomial
from oscount.errors import InvalidInputError
from oscount.fields import rational_field
from oscount.fileio import serialize_arrangement
from oscount.rootdata import (
    CatalanSpec,
    affine_catalan,
    catalan_arrangement,
    parse_type_label,
    weyl_data,
)

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 5), ("D", 6),
             ("E", 6), ("E", 7), ("E", 8)]
FULL_RANGE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5), ("E", 6)]


def test_parse_type_label():
    assert parse_type_label("A2") == ("A", 2)
    assert parse_type_label("e8") == ("E", 8)
    with pytest.raises(InvalidInputError):
        parse_type_label("B2")
    with pytest.raises(InvalidInputError):
        parse_type_label("Ax")


def test_a1_table():
    w = weyl_data("A", 1)
    assert w.exponents == (1,) and w.coxeter_number == 2 and w.weyl_order == 2


def test_a2_table():
    w = weyl_data("A", 2)
    assert w.exponents == (1, 2) and w.coxeter_number == 3 and w.weyl_order == 6
    assert len(w.positive_roots) == 3


def test_d4_table():
    w = weyl_data("D", 4)
    assert w.exponents == (1, 3, 3, 5) and w.coxeter_number == 6
    assert w.weyl_order == 192
    assert len(w.positive_roots) == 12


def test_e_tables():
    assert weyl_data("E", 6).weyl_order == 51840
    assert weyl_data("E", 7).weyl_order == 2903040
    assert weyl_data("E", 8).weyl_order == 696729600
    assert len(weyl_data("E", 8).positive_roots) == 120


@pytest.mark.parametrize("label,rank", ALL_TYPES)
def test_table_invariants(label, rank):
    w = weyl_data(label, rank)
    order = 1
    for e in w.exponents:
        order *= e + 1
    assert w.weyl_order == order
    assert len(w.positive_roots) == rank * w.coxeter_number // 2
    for i in range(rank):
        assert w.exponents[i] + w.exponents[rank - 1 - i] == w.coxeter_number
    # roots are distinct and nonzero in the recorded realization
    assert len(set(w.positive_roots)) == len(w.positive_roots)
    assert all(any(c for c in root) for root in w.positive_roots)


def test_unsupported_labels_rejected():
    with pytest.raises(InvalidInputError):
        weyl_data("D", 3)
    with pytest.raises(InvalidInputError):
        weyl_data("E", 9)
    with pytest.raises(InvalidInputError):
        weyl_data("A", 0)
    with pytest.raises(InvalidInputError, match="unsupported label 'B'; expected A, D or E"):
        weyl_data("B", 2)


def test_catalan_a1_n2():
    arr = catalan_arrangement(CatalanSpec(weyl_data("A", 1), 2))
    assert len(arr.hyperplanes) == 4
    assert arr.ambient_dim == 2 and arr.central
    keys = {str(h) for h in arr.hyperplanes}
    assert keys == {"1 0 0", "0 1 0", "1 1 0", "1 -1 0"}


def test_catalan_a1_n1():
    arr = catalan_arrangement(CatalanSpec(weyl_data("A", 1), 1))
    assert len(arr.hyperplanes) == 2


def test_catalan_a2_n2_count():
    arr = catalan_arrangement(CatalanSpec(weyl_data("A", 2), 2))
    assert len(arr.hyperplanes) == 10


@pytest.mark.parametrize("label,rank,n", [("A", 1, 1), ("A", 1, 2), ("A", 1, 3),
                                          ("A", 2, 2), ("A", 3, 2), ("D", 4, 2)])
def test_catalan_counts_and_cone_equality(label, rank, n):
    w = weyl_data(label, rank)
    spec = CatalanSpec(w, n)
    cat = catalan_arrangement(spec)
    aff = affine_catalan(spec)
    assert len(cat.hyperplanes) == len(w.positive_roots) * (2 * n - 1) + 1
    assert len(aff.hyperplanes) == len(w.positive_roots) * (2 * n - 1)


def test_affine_a1_n2_rows():
    aff = affine_catalan(CatalanSpec(weyl_data("A", 1), 2))
    assert {str(h) for h in aff.hyperplanes} == {"1 0", "1 1", "1 -1"}


def test_wreath_d4_2_serialization_is_pinned():
    # the bench's wreath-D4-2 input is this file, permuted
    text = serialize_arrangement(catalan_arrangement(CatalanSpec(weyl_data("D", 4), 2)))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "b62267b71040ac4080d094607c1eab6189d94ca025cb0886e7de5de3236f26b7"


def test_full_root_range_gives_same_hyperplanes():
    # generating the central arrangement directly, over all roots (R+ and
    # -R+) with the symmetric m-range, must canonicalize to the hyperplanes
    # of the coned affine arrangement
    f = rational_field()
    for (label, rank), n in product(FULL_RANGE_TYPES, (1, 2, 3)):
        w = weyl_data(label, rank)
        raw = []
        for root in w.positive_roots:
            for sign in (1, -1):
                for m in range(1 - n, n):
                    normal = tuple(f.from_rational(sign * c) for c in (m,) + root)
                    raw.append((normal, f.zero()))
        alpha = tuple(f.from_rational(1 if i == 0 else 0) for i in range(rank + 1))
        raw.append((alpha, f.zero()))
        full = build_arrangement(f, rank + 1, raw)
        cat = catalan_arrangement(CatalanSpec(w, n))
        assert cat.ambient_dim == rank + 1
        assert {h.row() for h in full.hyperplanes} == {h.row() for h in cat.hyperplanes}


@pytest.mark.parametrize("label,rank,n", [("A", 1, 2), ("A", 1, 3), ("A", 2, 2)])
def test_os_dimension_divisible_by_twice_weyl_order(label, rank, n):
    w = weyl_data(label, rank)
    pi = poincare_polynomial(
        intersection_lattice(catalan_arrangement(CatalanSpec(w, n)))
    )
    assert sum(pi) % (2 * w.weyl_order) == 0


def test_catalan_spec_requires_positive_n():
    with pytest.raises(InvalidInputError):
        CatalanSpec(weyl_data("A", 1), 0)
