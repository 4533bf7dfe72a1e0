import hashlib
from fractions import Fraction

import pytest

from conftest import (
    catalog_group,
    check_symplectic_all,
    conjugacy_classes,
    index_by_key,
    inverse,
    kernel_basis,
    matmul,
    one_minus,
    pointwise_stabilizer,
    quaternion_group,
    sl2_group,
    wreath2,
)

from oscount.errors import ComputationCapError, InvalidInputError
from oscount.fields import cyclotomic_field, rational_field
from oscount.groups import (
    MatrixGroup,
    ParabolicClass,
    ReflectionClass,
    kleinian_label,
    minimal_parabolics,
    symplectic_reflections,
    verify_zeta_bijection,
)
from oscount import groups, linalg
from oscount.linalg import rank_of_rows, rref_rows


def pm_identity_group() -> MatrixGroup:
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ((zero, one), (-one, zero))
    neg = ((-one, zero), (zero, -one))
    return MatrixGroup([neg], omega)


# the unit quaternions i, j and (-1 + i + j + k)/2, which generate 2T
I, J, W = (0, 1, 0, 0), (0, 0, 1, 0), (Fraction(-1, 2),) + (Fraction(1, 2),) * 3


def binary_tetrahedral_group() -> MatrixGroup:
    return sl2_group(cyclotomic_field(4), [I, J, W])


def binary_octahedral_group() -> MatrixGroup:
    """2O = <2T, (1 + i)/sqrt2> over Q(zeta_8), sqrt2 = zeta - zeta^3."""
    f = cyclotomic_field(8)
    z = f.zeta()
    c = (z - z * z * z) * f.from_rational(Fraction(1, 2))  # 1/sqrt2
    return sl2_group(f, [I, J, W, (c, c, 0, 0)])


def binary_icosahedral_group() -> MatrixGroup:
    """2I = <2T, (phi + phi^-1 i + j)/2> over Q(zeta_20), phi the golden
    ratio, with sqrt5 = z - z^2 - z^3 + z^4 for z = zeta_20^4 = zeta_5."""
    f = cyclotomic_field(20)
    z = f.zeta() * f.zeta() * f.zeta() * f.zeta()
    z2 = z * z
    sqrt5 = z - z2 - z2 * z + z2 * z2
    quarter = f.from_rational(Fraction(1, 4))
    half_phi, half_phi_inv = (sqrt5 + f.one()) * quarter, (sqrt5 - f.one()) * quarter
    return sl2_group(f, [I, J, W, (half_phi, half_phi_inv, Fraction(1, 2), 0)])


def cyclic5_group() -> MatrixGroup:
    f5 = cyclotomic_field(5)
    z = f5.zeta()
    omega = ((f5.zero(), f5.one()), (-f5.one(), f5.zero()))
    c5 = ((z, f5.zero()), (f5.zero(), z.inverse()))
    return MatrixGroup([c5], omega)


GROUPS = {
    "q8d8": lambda: catalog_group("q8d8"),
    "g4": lambda: catalog_group("g4"),
    "Q8": quaternion_group,
    "2T": binary_tetrahedral_group,
    "C5": cyclic5_group,
}
# S2 wr Q8 has 128 elements: too many for the all-pairs product test
WITH_WREATH = {**GROUPS, "S2wrQ8": lambda: wreath2(quaternion_group())}


def test_pm_identity_enumeration():
    g = pm_identity_group()
    g.enumerate_elements()
    assert g.order == 2


def test_enumeration_cap():
    g = catalog_group("q8d8")
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


def test_finite_order_is_settled_by_the_power():
    # blocks of orders 6 and 5 (the companion matrix of Phi_5 and a form it
    # keeps) in Sp(6, Q): order 30, a proper divisor of L = 2520
    f = rational_field()
    form = [[0, 1], [-1, 0]], [[0, -1, -1, 1], [1, 0, -1, -1], [1, 1, 0, -1], [-1, 1, 1, 0]]
    gen = [[0, 1], [-1, 1]], [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]

    def block_diagonal(a, b):
        rows = [r + [0] * 4 for r in a] + [[0] * 2 + r for r in b]
        return tuple(tuple(f.from_rational(x) for x in r) for r in rows)

    g = MatrixGroup([block_diagonal(*gen)], block_diagonal(*form))
    g.enumerate_elements()
    assert g.order == 30


def test_noninvertible_generator_rejected():
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ((zero, one), (-one, zero))
    singular = ((one, zero), (zero, zero))
    with pytest.raises(InvalidInputError):
        MatrixGroup([singular], omega)


def test_nonsymplectic_generator_rejected():
    f = rational_field()
    one, zero = f.one(), f.zero()
    omega = ((zero, one), (-one, zero))
    two = f.from_rational(2)
    half = f.from_rational(Fraction(1, 2))
    stretch = ((two, zero), (zero, two))  # scales the form by 4
    with pytest.raises(InvalidInputError):
        MatrixGroup([stretch], omega)
    # diag(2, 1/2) does preserve it
    ok = ((two, zero), (zero, half))
    MatrixGroup([ok], omega)


def test_field_and_dimension_are_read_off_the_form():
    g = quaternion_group()
    assert g.field == cyclotomic_field(4) and g.dim == 2
    # a generator over Q beside a form over Q(zeta_4) is refused when the group is made
    f = rational_field()
    neg = ((-f.one(), f.zero()), (f.zero(), -f.one()))
    with pytest.raises(InvalidInputError, match="^generator 0 has an entry over conductor 1, not 4$"):
        MatrixGroup([neg], g.symplectic_form)


def test_the_group_checks_the_shape_and_field_of_each_matrix():
    q, c4 = rational_field(), cyclotomic_field(4)
    zero, one = q.zero(), q.one()
    omega = ((zero, one), (-one, zero))
    cases = [
        ([], ((zero, one), (-one,)), "symplectic form has the wrong shape"),
        ([((one, zero), (zero,))], omega, "generator 0 has the wrong shape"),
        ([omega, ((one,), (zero, one))], omega, "generator 1 has the wrong shape"),
        ([], ((zero, one), (-one, c4.zero())), "symplectic form has an entry over conductor 4, not 1"),
        ([((one, zero), (zero, c4.one()))], omega, "generator 0 has an entry over conductor 4, not 1"),
    ]
    for generators, form, message in cases:
        with pytest.raises(InvalidInputError) as caught:
            MatrixGroup(generators, form)
        assert str(caught.value) == message


def test_q8d8_group_order_and_reflections():
    g = catalog_group("q8d8")
    g.enumerate_elements()
    assert g.order == 32
    assert check_symplectic_all(g)
    refl = symplectic_reflections(g)
    assert len(refl) == 5
    assert [len(c.members) for c in refl] == [2, 2, 2, 2, 2]


def test_g4_group_order_and_reflections():
    g = catalog_group("g4")
    g.enumerate_elements()
    assert g.order == 24
    assert check_symplectic_all(g)
    refl = symplectic_reflections(g)
    assert len(refl) == 2
    assert [len(c.members) for c in refl] == [4, 4]


def test_pm_identity_reflections_and_parabolics():
    g = pm_identity_group()
    g.enumerate_elements()
    refl = symplectic_reflections(g)
    assert len(refl) == 1 and len(refl[0].members) == 1
    paras = minimal_parabolics(g, refl)
    assert len(paras) == 1
    p = paras[0]
    assert len(p.subgroup) == 2 and p.kleinian_label == "A1" and p.xi_order == 1
    report = verify_zeta_bijection(refl, paras)
    assert report["bijective"] and report["num_parabolic_orbits"] == 1


def hand_built(reflection_classes, orbits):
    """Reflection classes and one parabolic class with the given orbits, as
    sets of element indices; only what `verify_zeta_bijection` reads."""
    reflections = [ReflectionClass(frozenset(c), {}) for c in reflection_classes]
    members = tuple(sorted({0}.union(*orbits)))
    orbits = tuple(frozenset(o) for o in orbits)
    return reflections, [ParabolicClass(members, "A1", 1, len(members), True, orbits)]


@pytest.mark.parametrize(
    "classes, orbits, bijective",
    [
        ([{1}, {2}], [{1}, {2}], True),
        ([{1}, {2}], [{1, 2}], False),  # an orbit across two classes
        ([{1, 2}], [{1}, {2}], False),  # two orbits on one class
        ([{1}, {2}], [{1}], False),  # a class with no orbit
    ],
    ids=["bijection", "orbit-across-classes", "two-orbits-one-class", "class-without-orbit"],
)
def test_zeta_bijection_verdicts(classes, orbits, bijective):
    report = verify_zeta_bijection(*hand_built(classes, orbits))
    assert report["bijective"] is bijective
    assert report["num_reflection_classes"] == len(classes)
    assert report["num_parabolic_orbits"] == len(orbits)


def test_q8d8_parabolics():
    g = catalog_group("q8d8")
    g.enumerate_elements()
    paras = minimal_parabolics(g, symplectic_reflections(g))
    assert len(paras) == 5
    for p in paras:
        assert len(p.subgroup) == 2
        assert p.kleinian_label == "A1"
        assert p.class_action_trivial
        assert len(p.orbits) == 1
    report = verify_zeta_bijection(symplectic_reflections(g), paras)
    assert report["bijective"]
    assert report["num_parabolic_orbits"] == 5 == report["num_reflection_classes"]


def test_g4_parabolics():
    g = catalog_group("g4")
    g.enumerate_elements()
    paras = minimal_parabolics(g, symplectic_reflections(g))
    assert len(paras) == 1
    p = paras[0]
    assert len(p.subgroup) == 3
    assert p.kleinian_label == "A2"
    assert p.xi_order == 2  # the center and the subgroup itself normalize it
    assert p.class_action_trivial  # nothing conjugates s to s^2
    assert len(p.orbits) == 2
    report = verify_zeta_bijection(symplectic_reflections(g), paras)
    assert report["bijective"]
    assert report["num_parabolic_orbits"] == 2 == report["num_reflection_classes"]


def test_class_equation():
    for g in (catalog_group("q8d8"), catalog_group("g4")):
        g.enumerate_elements()
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order


def test_fixed_spaces_are_symplectic():
    # Omega restricted to ker(1 - s) has full rank dim - 2
    for g in (catalog_group("q8d8"), catalog_group("g4")):
        g.enumerate_elements()
        for cls in symplectic_reflections(g):
            for s in cls.members:
                basis = kernel_basis(one_minus(g.elements[s]))
                assert len(basis) == g.dim - 2
                gram = []
                for u in basis:
                    row = []
                    for v in basis:
                        acc = g.field.zero()
                        for a, orow in zip(u, g.symplectic_form):
                            for b, x in zip(v, orow):
                                acc = acc + a * x * b
                        row.append(acc)
                    gram.append(tuple(row))
                assert rank_of_rows(gram) == g.dim - 2


def test_subgroup_depends_only_on_fixed_space():
    g = catalog_group("g4")
    g.enumerate_elements()
    by_space = {}
    for cls in symplectic_reflections(g):
        for s in cls.members:
            key = rref_rows(one_minus(g.elements[s]))[0]
            members = pointwise_stabilizer(g, s)
            assert by_space.setdefault(key, members) == members
    assert len(by_space) == 4  # four subgroups in one conjugacy class


@pytest.mark.parametrize("name", ["q8d8", "g4", "Q8", "2T", "S2wrQ8"])
def test_parabolics_are_the_pointwise_stabilizers(name):
    # the conjugates of each parabolic B, N(B), its orbits on B minus 1 and
    # its action on the classes of B, from their definitions by matrix
    # products; the multiplication table is not read
    g = WITH_WREATH[name]()
    g.enumerate_elements()
    reflections = symplectic_reflections(g)
    stabilizers = {pointwise_stabilizer(g, s) for c in reflections for s in c.members}
    index = index_by_key(g)
    inverses = [inverse(x) for x in g.elements]
    covered = []
    for p in minimal_parabolics(g, reflections):
        # conj[x][e] is the index of g_x g_e g_x^-1, for e in B
        conj = [
            {e: index[matmul(matmul(x, g.elements[e]), x_inv)] for e in p.subgroup}
            for x, x_inv in zip(g.elements, inverses)
        ]
        conjugates = {tuple(sorted(c.values())) for c in conj}
        for sub in conjugates:
            assert sub == pointwise_stabilizer(g, sub[1])  # sub[0] is the identity
        assert len(conjugates) == p.num_conjugates
        normalizer = [c for c in conj if tuple(sorted(c.values())) == p.subgroup]
        assert len(normalizer) == p.normalizer_order
        assert len(normalizer) == p.xi_order * len(p.subgroup)
        nontrivial = p.subgroup[1:]
        assert set(p.orbits) == {frozenset(c[e] for c in normalizer) for e in nontrivial}
        assert len(p.orbits) == len(set(p.orbits))
        class_in_b = {e: {conj[h][e] for h in p.subgroup} for e in nontrivial}
        fixes_classes = all(c[e] in class_in_b[e] for c in normalizer for e in nontrivial)
        assert p.class_action_trivial == fixes_classes
        covered.extend(conjugates)
    # the classes are disjoint and cover the stabilizer of every reflection
    assert sorted(covered) == sorted(stabilizers)


def label_of(g: MatrixGroup) -> str:
    """The label of a whole subgroup of SL(2), from its order and the class
    count of the reference `conjugacy_classes`."""
    g.enumerate_elements()
    return kleinian_label(g.order, len(conjugacy_classes(g)))


def test_kleinian_labels():
    assert label_of(pm_identity_group()) == "A1"
    q8 = quaternion_group()
    assert label_of(q8) == "D4" and q8.order == 8
    for build, order, label in (
        (binary_tetrahedral_group, 24, "E6"),
        (binary_octahedral_group, 48, "E7"),
        (binary_icosahedral_group, 120, "E8"),
    ):
        g = build()
        assert label_of(g) == label and g.order == order


def test_cyclic_labels():
    assert label_of(cyclic5_group()) == "A4"


def test_kleinian_label_rejects_trivial():
    trivial = MatrixGroup([], pm_identity_group().symplectic_form)
    with pytest.raises(InvalidInputError, match="trivial subgroup"):
        label_of(trivial)
    assert trivial.order == 1


def test_kleinian_label_table():
    # the finite subgroups of SL(2) by (order, number of classes): the cyclic
    # group of order n has n classes; the binary dihedral group of order 4m
    # has m + 3 (1, -1, the m - 1 pairs {a^k, a^-k}, and two classes of
    # elements outside <a>); 2T, 2O and 2I have 7, 8 and 9
    groups_by_label = {f"A{n - 1}": (n, n) for n in range(2, 10)}
    groups_by_label |= {f"D{m + 2}": (4 * m, m + 3) for m in range(2, 7)}
    groups_by_label |= {"E6": (24, 7), "E7": (48, 8), "E8": (120, 9)}
    for label, (order, num_classes) in groups_by_label.items():
        assert kleinian_label(order, num_classes) == label
    for order, num_classes in ((1, 1), (8, 4)):
        with pytest.raises(InvalidInputError):
            kleinian_label(order, num_classes)


def test_element_ordering_is_deterministic():
    g1 = catalog_group("q8d8")
    g2 = catalog_group("q8d8")
    assert g1.enumerate_elements() == g2.enumerate_elements()


# sha256 of the element keys, one a line, in enumeration order
ELEMENT_ORDER_SHA256 = {
    "q8d8": "79803e1afb2480b51a7cfeb255d623d3a05080a53a76424895572b53b7a386de",
    "g4": "243f04174ca2d52dec9a1576480c648255d218b12025c9d45ff7d745271401e4",
    "S2wrQ8": "4d458d781e1038e2f493e56a4146a37cd98db451f6537f3113e99efe20011774",
    "S2wr2T": "86ee10036616af1ff38ce893886977dd77df3630cd559f0939d5a1f9bdf97d31",
}


@pytest.mark.parametrize("name", sorted(ELEMENT_ORDER_SHA256))
def test_canonical_element_order_is_pinned(name):
    # BFS layer, then groups._key within a layer: the order every index,
    # orbit seed and JSON list of `group analyze` is read in
    make = WITH_WREATH.get(name, lambda: wreath2(binary_tetrahedral_group()))
    keys = "\n".join(groups._key(m) for m in make().enumerate_elements())
    assert hashlib.sha256(keys.encode()).hexdigest() == ELEMENT_ORDER_SHA256[name]



@pytest.mark.parametrize("name", sorted(GROUPS))
def test_index_arithmetic_matches_matrix_products(name):
    # against conftest's schoolbook products, not the product the BFS uses
    g = GROUPS[name]()
    elements = g.enumerate_elements()
    index = index_by_key(g)
    inverses = [inverse(x) for x in elements]
    for i, x in enumerate(elements):
        assert g.inverse_index(i) == index[inverses[i]]
        for j, y in enumerate(elements):
            product = matmul(x, y)
            assert g.multiply(i, j) == index[product]
            assert g.conjugate(i, j) == index[matmul(product, inverses[i])]


@pytest.mark.parametrize("name", ["q8d8", "g4"])
def test_no_matrix_arithmetic_after_enumeration(name, monkeypatch):
    g = GROUPS[name]()
    g.enumerate_elements()
    calls = []
    real = groups._mul

    def counted(*args):
        calls.append("_mul")
        return real(*args)

    monkeypatch.setattr(groups, "_mul", counted)
    reflections = symplectic_reflections(g)
    parabolics = minimal_parabolics(g, reflections)
    assert verify_zeta_bijection(reflections, parabolics)["bijective"]
    assert calls == []


@pytest.mark.parametrize("name", ["q8d8", "g4"])
def test_one_rref_of_one_minus_g_per_class_and_reflection(name, monkeypatch):
    # rank(1 - g) is read once per nontrivial conjugacy class, the fixed
    # space once per reflection, and the minimal parabolics compare fixed
    # spaces by those rows
    g = GROUPS[name]()
    g.enumerate_elements()
    calls = []
    real = linalg.rref_rows

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "rref_rows", counted)
    monkeypatch.setattr(groups, "rref_rows", counted)
    reflections = symplectic_reflections(g)
    assert minimal_parabolics(g, reflections)
    num_reflections = sum(len(c.members) for c in reflections)
    assert len(calls) == len(conjugacy_classes(g)) - 1 + num_reflections
