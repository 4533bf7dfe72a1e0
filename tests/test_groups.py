from fractions import Fraction

import pytest

from conftest import (
    check_symplectic_all,
    conjugacy_classes,
    index_by_key,
    inverse,
    kernel_basis,
    pointwise_stabilizer,
)

from oscount.counting import catalog
from oscount.errors import ComputationCapError, InvalidInputError
from oscount.fields import cyclotomic_field, rational_field
from oscount.groups import (
    MatrixGroup,
    kleinian_label,
    minimal_parabolics,
    symplectic_reflections,
    verify_zeta_bijection,
)
from oscount import groups, linalg
from oscount.linalg import ExactMatrix, rank_of_rows, rref_rows


def pm_identity_group() -> MatrixGroup:
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ExactMatrix(f, [[zero, one], [-one, zero]])
    neg = ExactMatrix(f, [[-one, zero], [zero, -one]])
    return MatrixGroup([neg], omega)


def quaternion_group() -> MatrixGroup:
    f = cyclotomic_field(4)
    i_ = f.zeta()
    one, zero = f.one(), f.zero()
    omega = ExactMatrix(f, [[zero, one], [-one, zero]])
    qi = ExactMatrix(f, [[i_, zero], [zero, -i_]])
    qj = ExactMatrix(f, [[zero, one], [-one, zero]])
    return MatrixGroup([qi, qj], omega)


def binary_tetrahedral_group() -> MatrixGroup:
    f = cyclotomic_field(4)
    i_ = f.zeta()
    one, zero = f.one(), f.zero()
    half = f.from_rational(Fraction(1, 2))
    omega = ExactMatrix(f, [[zero, one], [-one, zero]])
    qi = ExactMatrix(f, [[i_, zero], [zero, -i_]])
    qj = ExactMatrix(f, [[zero, one], [-one, zero]])
    w = ExactMatrix(
        f,
        [[half * (-one + i_), half * (one + i_)], [half * (-one + i_), half * (-one - i_)]],
    )
    return MatrixGroup([qi, qj, w], omega)


def cyclic5_group() -> MatrixGroup:
    f5 = cyclotomic_field(5)
    z = f5.zeta()
    omega = ExactMatrix(f5, [[f5.zero(), f5.one()], [-f5.one(), f5.zero()]])
    c5 = ExactMatrix(f5, [[z, f5.zero()], [f5.zero(), z.inverse()]])
    return MatrixGroup([c5], omega)


GROUPS = {
    "q8d8": lambda: catalog("q8d8").group,
    "g4": lambda: catalog("g4").group,
    "Q8": quaternion_group,
    "2T": binary_tetrahedral_group,
    "C5": cyclic5_group,
}


def test_pm_identity_enumeration():
    g = pm_identity_group()
    g.enumerate_elements()
    assert g.order == 2


def test_enumeration_cap():
    g = catalog("q8d8").group
    with pytest.raises(ComputationCapError):
        g.enumerate_elements(cap=5)


def test_finite_order_exponent():
    # L = lcm{m : phi(m) <= dim phi(N)}: dim 2 over Q, dim 4 over Q, the
    # catalog groups (dim 4 over Q(zeta_4) and Q(zeta_3)); None above the cap
    assert [groups._order_exponent(b, 10**6) for b in (2, 4, 8)] == [12, 120, 5040]
    assert groups._order_exponent(8, 5039) is None
    for name in ("q8d8", "g4"):
        g = GROUPS[name]()
        assert groups._order_exponent(g.dim * g.field.degree, 10**6) == 5040


def test_finite_order_beyond_the_walk_is_settled_by_the_power():
    # blocks of orders 6 and 5 (the companion matrix of Phi_5 and a form it
    # keeps) in Sp(6, Q): order 30, past the 24-step walk for L = 2520
    f = rational_field()
    form = [[0, 1], [-1, 0]], [[0, -1, -1, 1], [1, 0, -1, -1], [1, 1, 0, -1], [-1, 1, 1, 0]]
    gen = [[0, 1], [-1, 1]], [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]

    def block_diagonal(a, b):
        rows = [r + [0] * 4 for r in a] + [[0] * 2 + r for r in b]
        return ExactMatrix(f, [[f.from_rational(x) for x in r] for r in rows])

    g = MatrixGroup([block_diagonal(*gen)], block_diagonal(*form))
    g.enumerate_elements()
    assert g.order == 30


def test_noninvertible_generator_rejected():
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ExactMatrix(f, [[zero, one], [-one, zero]])
    singular = ExactMatrix(f, [[one, zero], [zero, zero]])
    with pytest.raises(InvalidInputError):
        MatrixGroup([singular], omega)


def test_nonsymplectic_generator_rejected():
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ExactMatrix(f, [[zero, one], [-one, zero]])
    two = f.from_rational(2)
    half = f.from_rational(Fraction(1, 2))
    stretch = ExactMatrix(f, [[two, zero], [zero, two]])  # scales the form by 4
    with pytest.raises(InvalidInputError):
        MatrixGroup([stretch], omega)
    # diag(2, 1/2) does preserve it
    ok = ExactMatrix(f, [[two, zero], [zero, half]])
    MatrixGroup([ok], omega)


def test_field_and_dimension_are_read_off_the_form():
    g = quaternion_group()
    assert g.field == cyclotomic_field(4) and g.dim == 2
    # a generator over Q beside a form over Q(zeta_4) is refused when the group is made
    f = rational_field()
    neg = ExactMatrix(f, [[-f.one(), f.zero()], [f.zero(), -f.one()]])
    with pytest.raises(InvalidInputError, match="mixed-field arithmetic"):
        MatrixGroup([neg], g.symplectic_form)


def test_q8d8_group_order_and_reflections():
    g = catalog("q8d8").group
    g.enumerate_elements()
    assert g.order == 32
    assert check_symplectic_all(g)
    refl = symplectic_reflections(g)
    assert len(refl) == 5
    assert [c.size for c in refl] == [2, 2, 2, 2, 2]


def test_g4_group_order_and_reflections():
    g = catalog("g4").group
    g.enumerate_elements()
    assert g.order == 24
    assert check_symplectic_all(g)
    refl = symplectic_reflections(g)
    assert len(refl) == 2
    assert [c.size for c in refl] == [4, 4]


def test_pm_identity_reflections_and_parabolics():
    g = pm_identity_group()
    g.enumerate_elements()
    refl = symplectic_reflections(g)
    assert len(refl) == 1 and refl[0].size == 1
    paras = minimal_parabolics(g, refl)
    assert len(paras) == 1
    p = paras[0]
    assert p.subgroup_order == 2 and p.kleinian_label == "A1" and p.xi_order == 1
    report = verify_zeta_bijection(refl, paras)
    assert report["bijective"] and report["num_parabolic_orbits"] == 1


def test_q8d8_parabolics():
    g = catalog("q8d8").group
    g.enumerate_elements()
    paras = minimal_parabolics(g, symplectic_reflections(g))
    assert len(paras) == 5
    for p in paras:
        assert p.subgroup_order == 2
        assert p.kleinian_label == "A1"
        assert p.class_action_trivial
        assert p.orbit_count == 1
    report = verify_zeta_bijection(symplectic_reflections(g), paras)
    assert report["bijective"]
    assert report["num_parabolic_orbits"] == 5 == report["num_reflection_classes"]


def test_g4_parabolics():
    g = catalog("g4").group
    g.enumerate_elements()
    paras = minimal_parabolics(g, symplectic_reflections(g))
    assert len(paras) == 1
    p = paras[0]
    assert p.subgroup_order == 3
    assert p.kleinian_label == "A2"
    assert p.xi_order == 2  # the center and the subgroup itself normalize it
    assert p.class_action_trivial  # nothing conjugates s to s^2
    assert p.orbit_count == 2
    report = verify_zeta_bijection(symplectic_reflections(g), paras)
    assert report["bijective"]
    assert report["num_parabolic_orbits"] == 2 == report["num_reflection_classes"]


def test_class_equation():
    for g in (catalog("q8d8").group, catalog("g4").group):
        g.enumerate_elements()
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order


def test_fixed_spaces_are_symplectic():
    # Omega restricted to ker(1 - s) has full rank dim - 2
    for g in (catalog("q8d8").group, catalog("g4").group):
        g.enumerate_elements()
        identity = ExactMatrix.identity(g.field, g.dim)
        for cls in symplectic_reflections(g):
            for s in cls.members:
                diff = identity - g.elements[s]
                basis = kernel_basis(diff)
                assert len(basis) == g.dim - 2
                gram = []
                for u in basis:
                    row = []
                    for v in basis:
                        acc = g.field.zero()
                        for a, orow in zip(u, g.symplectic_form.rows):
                            for b, x in zip(v, orow):
                                acc = acc + a * x * b
                        row.append(acc)
                    gram.append(tuple(row))
                assert rank_of_rows(gram) == g.dim - 2


def test_subgroup_depends_only_on_fixed_space():
    g = catalog("g4").group
    g.enumerate_elements()
    by_space = {}
    for cls in symplectic_reflections(g):
        for s in cls.members:
            key = rref_rows((ExactMatrix.identity(g.field, g.dim) - g.elements[s]).rows)[0]
            members = pointwise_stabilizer(g, s)
            assert by_space.setdefault(key, members) == members
    assert len(by_space) == 4  # four subgroups in one conjugacy class


@pytest.mark.parametrize("name", ["q8d8", "g4", "Q8", "2T"])
def test_parabolics_are_the_pointwise_stabilizers(name):
    g = GROUPS[name]()
    g.enumerate_elements()
    reflections = symplectic_reflections(g)
    stabilizers = {pointwise_stabilizer(g, s) for c in reflections for s in c.members}
    index = index_by_key(g)
    covered = []
    for p in minimal_parabolics(g, reflections):
        conjugates = set()
        for x in g.elements:
            x_inv = inverse(x)
            conjugates.add(
                tuple(sorted(index[(x * g.elements[i] * x_inv).key()] for i in p.subgroup))
            )
        for sub in conjugates:
            assert sub == pointwise_stabilizer(g, sub[1])  # sub[0] is the identity
        assert len(conjugates) == p.num_conjugates
        assert p.normalizer_order * p.num_conjugates == g.order
        covered.extend(conjugates)
    # the classes are disjoint and cover the stabilizer of every reflection
    assert sorted(covered) == sorted(stabilizers)


def test_kleinian_labels():
    z2 = pm_identity_group()
    z2.enumerate_elements()
    assert kleinian_label(z2, range(z2.order)) == "A1"
    q8 = quaternion_group()
    q8.enumerate_elements()
    assert q8.order == 8
    assert kleinian_label(q8, range(q8.order)) == "D4"
    bt = binary_tetrahedral_group()
    bt.enumerate_elements()
    assert bt.order == 24
    assert kleinian_label(bt, range(bt.order)) == "E6"


def test_cyclic_labels():
    g = cyclic5_group()
    g.enumerate_elements()
    assert kleinian_label(g, range(g.order)) == "A4"


def test_kleinian_label_rejects_trivial():
    z2 = pm_identity_group()
    z2.enumerate_elements()
    with pytest.raises(InvalidInputError):
        kleinian_label(z2, [0])


def test_element_ordering_is_deterministic():
    g1 = catalog("q8d8").group
    g2 = catalog("q8d8").group
    assert [m.key() for m in g1.enumerate_elements()] == [
        m.key() for m in g2.enumerate_elements()
    ]



@pytest.mark.parametrize("name", sorted(GROUPS))
def test_index_arithmetic_matches_matrix_products(name):
    g = GROUPS[name]()
    elements = g.enumerate_elements()
    index = index_by_key(g)
    inverses = [inverse(x) for x in elements]
    for i, x in enumerate(elements):
        assert g.inverse_index(i) == index[inverses[i].key()]
        for j, y in enumerate(elements):
            product = x * y
            assert g.multiply(i, j) == index[product.key()]
            assert g.conjugate(i, j) == index[(product * inverses[i]).key()]


@pytest.mark.parametrize("name", ["q8d8", "g4"])
def test_no_matrix_arithmetic_after_enumeration(name, monkeypatch):
    g = GROUPS[name]()
    g.enumerate_elements()
    calls = []
    real = ExactMatrix.__mul__

    def counted(*args):
        calls.append("__mul__")
        return real(*args)

    monkeypatch.setattr(ExactMatrix, "__mul__", counted)
    reflections = symplectic_reflections(g)
    parabolics = minimal_parabolics(g, reflections)
    assert verify_zeta_bijection(reflections, parabolics)["bijective"]
    assert calls == []


@pytest.mark.parametrize("name", ["q8d8", "g4"])
def test_one_rref_of_one_minus_g_per_element(name, monkeypatch):
    # the reflections keep the rref rows of 1 - s that found them, and the
    # minimal parabolics compare fixed spaces by those rows
    g = GROUPS[name]()
    g.enumerate_elements()
    calls = []
    real = linalg.rref_rows

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rref_rows", counted)
    monkeypatch.setattr(groups, "rref_rows", counted)
    parabolics = minimal_parabolics(g, symplectic_reflections(g))
    assert parabolics
    assert len(calls) == g.order
