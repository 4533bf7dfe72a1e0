"""Finite matrix groups inside Sp(V) over an exact field.

Breadth-first enumeration, symplectic reflections and their conjugacy
classes, minimal parabolic subgroups with their Kleinian labels and
normalizer data, and the bijection check between reflection classes and
normalizer-orbits in the minimal parabolics.

After enumeration no matrix is multiplied.  The BFS records, for each
element g_i and generator s_k, the index of g_i s_k (a right
multiplication table) and each element's parent product, which spells
g_i as a word in the generators.  A product g_i g_j walks g_j's word from
i through the table; s_k^-1 is the element before 1 on the cycle of column
k and (x s_k)^-1 = s_k^-1 x^-1; a conjugation is two products and an
inverse.  Every table entry is an exact product identified by its
canonical key and every element is the product of its word, so this index
arithmetic is exact (details in `MatrixGroup`).

A minimal parabolic P_s, the pointwise stabilizer of the fixed space V^s
of a reflection s, is 1 plus the reflections t with V^t = V^s, since V^g
is symplectic for every g of finite order (proof in `minimal_parabolics`).  Fixed spaces
are compared as canonical rref rows of 1 - s, one rref per element, so P_s
is exact, and conjugacy and normalizers follow from g P_s g^-1 = P_{g s g^-1}.

The Namikawa Weyl group is read off the minimal parabolics: one ADE Weyl
group factor per parabolic class (`namikawa_weyl_from_group`).
"""

from __future__ import annotations

from array import array
from math import factorial, prod
from typing import NamedTuple, Sequence

from .errors import (
    DEFAULT_GROUP_CAP,
    ComputationCapError,
    InvalidInputError,
    MathematicalInconsistencyError,
    UnsupportedFoldingError,
)
from .fields import is_prime
from .linalg import ExactMatrix, Row, rref_rows

__all__ = [
    "MatrixGroup",
    "ReflectionClass",
    "ParabolicClass",
    "symplectic_reflections",
    "minimal_parabolics",
    "kleinian_label",
    "verify_zeta_bijection",
    "NamikawaWeylData",
    "namikawa_weyl_from_group",
    "analyze_group",
    "diagram_automorphism_order",
    "FOLDING_OVERRIDES",
    "DEFAULT_GROUP_CAP",
]


class MatrixGroup:
    """A finite subgroup of Sp(2n) given by generators s_0, ..., s_{m-1};
    its field and its dimension 2n are those of the symplectic form.  A
    generator preserving the form is invertible: g^T omega g = omega gives
    det(g)^2 det(omega) = det(omega) != 0, so det(g) = +-1.

    `enumerate_elements` fills the canonical element store g_0 = 1, g_1, ...
    (BFS layer, then serialization key) and keeps two flat arrays from the
    products the BFS makes anyway: `_right[i*m + k]` is the index of g_i s_k,
    and `_parent[i] = p*m + k` names the product g_p s_k that first reached
    g_i, with g_p one layer closer to 1.  Following parents back to 0 spells
    g_i as a word s_{k_1} ... s_{k_d}, so after enumeration every group
    operation is index arithmetic on the table:

    - `multiply(i, j)` starts at i and follows the columns k_1, ..., k_d of
      g_j's word through `_right`;
    - s_k^-1 is the element before 1 on the cycle 1, s_k, s_k^2, ... of
      column k, and (g_p s_k)^-1 = s_k^-1 g_p^-1 fills every inverse in BFS
      order;
    - `conjugate(i, j)` is `multiply(multiply(i, j), inverse_index(i))`.

    Exactness: every table entry is the index of an exact matrix product,
    identified by its canonical key, and every element is the product of its
    BFS word, so each index these operations return is that of the exact
    matrix the product names.  No matrix is multiplied after enumeration.
    """

    def __init__(self, generators: list[ExactMatrix], symplectic_form: ExactMatrix):
        omega = symplectic_form
        dim = omega.nrows
        if dim % 2 != 0 or dim <= 0:
            raise InvalidInputError("symplectic dimension must be a positive even number")
        if omega.ncols != dim:
            raise InvalidInputError("symplectic form has the wrong shape")
        if omega.transpose() != -omega:
            raise InvalidInputError("symplectic form is not antisymmetric")
        if omega.rank() != dim:
            raise InvalidInputError("symplectic form is degenerate")
        for k, g in enumerate(generators):
            if g.nrows != dim or g.ncols != dim:
                raise InvalidInputError(f"generator {k} has the wrong shape")
            if g.transpose() * omega * g != omega:
                raise InvalidInputError(f"generator {k} does not preserve the symplectic form")
        self.field = omega.field
        self.dim = dim
        self.generators = list(generators)
        self.symplectic_form = omega
        self.elements: list[ExactMatrix] | None = None
        self.order: int | None = None
        self._keys: list[str] = []  # serialization key of each element
        self._right = array("q")
        self._parent = array("q")
        self._inverse = array("q")

    def enumerate_elements(self, cap: int = DEFAULT_GROUP_CAP) -> list[ExactMatrix]:
        """Breadth-first closure under right multiplication by the
        generators; records the table and parents, then fills the inverses.

        First a generator of infinite order is refused, by an exact test.  If
        g has finite order m, it is semisimple and each eigenvalue has an
        order m_i with phi(m_i) <= [Q(zeta_N, lambda) : Q] <= dim phi(N), so
        m divides L = lcm{m : phi(m) <= dim phi(N)}: g has finite order
        exactly when g^L = 1.  Walking g, g^2, ... reaches 1 after ord(g) - 1
        products; when it has not within twice the bits of L, repeated
        squaring settles g^L.  Both form powers g^k with k <= L, whose entries
        grow at most linearly in k, so the test runs when L <= cap.

        Then each generator, and each element the BFS adds, passes a trace
        test.  If g has finite order, t = tr g is a sum of dim roots of
        unity.  So t is an algebraic integer of K = Q(zeta_N), and its
        power-basis coordinates are integers, since the integers of K are
        Z[zeta_N].  Every embedding sigma of K sends t to a sum of dim roots
        of unity, so |sigma(t)| <= dim; K is abelian, so sigma commutes with
        complex conjugation and T2(t) = Tr_{K/Q}(t conj(t)) = sum over sigma
        of |sigma(t)|^2 <= phi(N) dim^2.  An element that fails either bound
        has infinite order.  Tr_{K/Q}(x) = sum_j x_j Tr(zeta^j), where
        Tr(zeta^j) = sum_{i < phi(N)} powers[i + j][i] is the trace of
        multiplication by zeta^j.

        Last, a generator g != 1 with (g - 1)^dim = 0 is refused.  An element
        of finite order m is semisimple in characteristic 0, since its
        minimal polynomial divides x^m - 1, which has distinct roots; a
        semisimple g whose eigenvalues are all 1 is 1.  So such a g, which
        passes both tests above when L > cap and tr g = dim, has infinite
        order."""
        if cap < 1:
            raise InvalidInputError("enumeration cap must be >= 1")
        if self.elements is not None:
            return self.elements
        identity = ExactMatrix.identity(self.field, self.dim)
        exponent = _order_exponent(self.dim * self.field.degree, cap)
        if exponent is not None:
            for k, g in enumerate(self.generators):
                power, steps = g, 2 * exponent.bit_length()
                while power != identity and steps:
                    power, steps = power * g, steps - 1
                if power != identity and _power(g, exponent) != identity:
                    raise InvalidInputError(
                        f"generator {k} has infinite order: its {exponent}th power is not 1"
                    )
        for k, g in enumerate(self.generators):
            if bad := _trace_test(g):
                raise InvalidInputError(f"generator {k} has infinite order: it has {bad}")
        for k, g in enumerate(self.generators):
            if g != identity and _power(g - identity, self.dim) == identity - identity:
                raise InvalidInputError(
                    f"generator {k} has infinite order: it is unipotent and not 1"
                )
        gens = list(enumerate(self.generators))
        m = len(gens)
        elements = [identity]
        keys = [identity.key()]
        index = {keys[0]: 0}
        right, parent = array("q"), array("q", [0])
        layer_sizes = [1]
        start = 0
        while start < len(elements):
            frontier: dict[str, tuple[ExactMatrix, int]] = {}
            products: list[str] = []  # key of g_i s_k, in table order
            for i in range(start, len(elements)):
                x = elements[i]
                for k, g in gens:
                    y = x * g
                    key = y.key()
                    products.append(key)
                    if key not in index and key not in frontier:
                        if bad := _trace_test(y):
                            raise InvalidInputError(
                                f"the group is infinite: a product of {len(layer_sizes)} "
                                f"generators has {bad}"
                            )
                        frontier[key] = (y, i * m + k)
                        if len(index) + len(frontier) > cap:
                            raise ComputationCapError(
                                f"group enumeration cap {cap} exceeded",
                                partial={"elements_per_layer": layer_sizes},
                            )
            start = len(elements)
            for key in sorted(frontier):
                y, p = frontier[key]
                index[key] = len(elements)
                elements.append(y)
                keys.append(key)
                parent.append(p)
            right.extend(map(index.__getitem__, products))
            if frontier:
                layer_sizes.append(len(frontier))
        self.elements = elements
        self.order = len(elements)
        self._keys, self._right, self._parent = keys, right, parent
        gen_inverse = []
        for k in range(m):
            before, x = 0, right[k]
            while x:
                before, x = x, right[x * m + k]
            gen_inverse.append(before)
        inverse = array("q", [0]) * len(elements)
        for i in range(1, len(elements)):
            p, k = divmod(parent[i], m)
            inverse[i] = self.multiply(gen_inverse[k], inverse[p])
        self._inverse = inverse
        return elements

    def _require_enumerated(self):
        if self.elements is None:
            raise InvalidInputError("call enumerate_elements() first")

    def multiply(self, i: int, j: int) -> int:
        """The index of g_i g_j: g_j's BFS word walked from i through the table."""
        self._require_enumerated()
        m = len(self.generators)
        word = []
        while j:
            j, k = divmod(self._parent[j], m)
            word.append(k)
        right = self._right
        for k in reversed(word):
            i = right[i * m + k]
        return i

    def inverse_index(self, i: int) -> int:
        self._require_enumerated()
        return self._inverse[i]

    def conjugate(self, i: int, j: int) -> int:
        """The index of g_i g_j g_i^-1."""
        return self.multiply(self.multiply(i, j), self.inverse_index(i))

    def conjugacy_class_of(self, i: int) -> frozenset[int]:
        """Orbit of element i under conjugation (generators suffice)."""
        self._require_enumerated()
        gens = self._right[: len(self.generators)]  # row 0: 1 s_k = s_k
        orbit = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.conjugate(g, x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(orbit)


def _order_exponent(bound: int, cap: int) -> int | None:
    """L = lcm{m : phi(m) <= bound}, or None once it exceeds cap.  Each
    prime-power part p^k of such an m has phi(p^k) <= phi(m), so L is the
    product over primes p of the largest p^k with p^(k-1) (p - 1) <= bound."""
    exponent = 1
    for p in range(2, bound + 2):
        if is_prime(p):
            q = p
            while q * (p - 1) <= bound:  # phi(q p) = q (p - 1)
                q *= p
            exponent *= q
            if exponent > cap:
                return None
    return exponent


def _trace_test(g: ExactMatrix) -> str | None:
    """None when tr g passes the trace test of `enumerate_elements`, else
    what fails it."""
    f, dim = g.field, g.nrows
    t = sum((row[i] for i, row in enumerate(g.rows)), f.zero())
    d = f.degree
    square = t * t.conjugate()
    t2 = sum(c * sum(f.powers[i + j][i] for i in range(d)) for j, c in enumerate(square.num))
    if t2 > d * dim * dim * square.den or t.den != 1:
        return f"trace {t}, which is not a sum of {dim} roots of unity"
    return None


def _power(g: ExactMatrix, e: int) -> ExactMatrix:
    """g^e by repeated squaring, e >= 1."""
    result = None
    while True:
        if e & 1:
            result = g if result is None else result * g
        e >>= 1
        if not e:
            return result
        g = g * g


def _orbits(group: MatrixGroup, items, orbit_of) -> dict[int, frozenset[int]]:
    """Partition `items` into orbits, {seed: orbit_of(seed)}, each seeded at
    its least element key; the seeds come in increasing key order."""
    orbits: dict[int, frozenset[int]] = {}
    done: set[int] = set()
    for seed in sorted(items, key=group._keys.__getitem__):
        if seed not in done:
            orbits[seed] = frozenset(orbit_of(seed))
            done |= orbits[seed]
    return orbits


class ReflectionClass(NamedTuple):
    """A conjugacy class of symplectic reflections (rank(1 - s) = 2)."""

    members: frozenset[int]
    size: int
    fixed_spaces: dict[int, tuple[Row, ...]]  # member s -> rref equations of V^s


def symplectic_reflections(group: MatrixGroup) -> list[ReflectionClass]:
    """All s with rank(1 - s) = 2, partitioned into conjugacy classes.  The
    rref of 1 - g is taken once per element; a reflection keeps its rows."""
    group._require_enumerated()
    identity = ExactMatrix.identity(group.field, group.dim)
    fixed = {}  # reflection -> the rref rows of 1 - s
    for i, g in enumerate(group.elements):
        rows = rref_rows((identity - g).rows)[0]
        if len(rows) == 2:
            fixed[i] = rows
    classes = []
    for members in _orbits(group, fixed, group.conjugacy_class_of).values():
        if not members <= fixed.keys():
            raise InvalidInputError("conjugacy class of a reflection left the reflection set")
        classes.append(ReflectionClass(members, len(members), {s: fixed[s] for s in members}))
    return classes


class ParabolicClass(NamedTuple):
    """A conjugacy class of minimal parabolic subgroups.

    `class_action_trivial` says whether the normalizer fixes each nontrivial
    conjugacy class of the subgroup itself; `orbits` are the
    normalizer-orbits on the nontrivial elements.
    """

    subgroup: tuple[int, ...]  # element indices of the representative, sorted
    subgroup_order: int
    kleinian_label: str
    num_conjugates: int
    normalizer_order: int
    xi_order: int
    class_action_trivial: bool
    orbit_count: int
    orbits: tuple[frozenset[int], ...]


def kleinian_label(group: MatrixGroup, members: Sequence[int]) -> str:
    """ADE label of a finite SL(2,C)-type subgroup of an enumerated group,
    given by its element indices; orders and commutation come from the
    group's multiplication table.

    Cyclic of order k -> A_{k-1}; nonabelian with an element of order
    |H|/2 (a cyclic subgroup of index 2) -> D_{|H|/4 + 2}; otherwise
    orders 24/48/120 -> E_6/E_7/E_8.
    """
    n = len(members)
    if n < 2:
        raise InvalidInputError("trivial subgroup has no Kleinian label")
    orders = []
    for i in members:
        power, k = i, 1
        while power:  # 0 is the identity
            power = group.multiply(power, i)
            k += 1
        orders.append(k)
    abelian = all(
        group.multiply(a, b) == group.multiply(b, a)
        for t, a in enumerate(members)
        for b in members[t + 1 :]
    )
    if abelian:
        if n in orders:
            return f"A{n - 1}"
        raise InvalidInputError(
            f"abelian subgroup of order {n} is not cyclic; not a Kleinian group"
        )
    if n % 4 == 0 and (n // 2) in orders:
        return f"D{n // 4 + 2}"
    if n == 24:
        return "E6"
    if n == 48:
        return "E7"
    if n == 120:
        return "E8"
    raise InvalidInputError(
        f"subgroup of order {n} matches no Kleinian type; upstream bug likely"
    )


def _subgroup_classes_within(group: MatrixGroup, members: tuple[int, ...]):
    """Conjugacy classes of the subgroup H as a group in its own right."""
    return _orbits(
        group, members, lambda s: {group.conjugate(h, s) for h in members}
    ).values()


def minimal_parabolics(
    group: MatrixGroup, reflections: list[ReflectionClass]
) -> list[ParabolicClass]:
    """Pointwise stabilizers P_s of the fixed spaces of `reflections` (the
    group's `symplectic_reflections`), up to conjugacy.

    For each class: the normalizer, its quotient order, whether it fixes
    each of the subgroup's nontrivial conjugacy classes, and the
    normalizer-orbits on the nontrivial elements.

    Stabilizers: P_s is 1 plus the reflections t with V^t = V^s.  Let g in
    Sp(V) have finite order.  For v in V^g, w(v, u - gu) = w(gv, gu) -
    w(v, gu) = 0, so im(1 - g) lies in the w-complement of V^g, and both
    have dimension dim V - dim V^g: they are equal.  g is semisimple (x^n - 1
    has distinct roots in characteristic 0), so V^g meets im(1 - g) only in
    0: V^g is symplectic, of even codimension.  If g fixes V^s pointwise,
    then V^s, of codimension 2, lies in V^g, so V^g is V (g = 1) or V^s (g
    is a reflection t with V^t = V^s).  V^t = V^s is tested as equality of
    the canonical rref rows of 1 - t and 1 - s, which span V^s's annihilator.

    Conjugacy.  g P_s g^-1 = P_{g s g^-1}, so P_s and P_t are conjugate
    exactly when some reflection of P_t is conjugate to s: the class of P_s
    is {P_t : t conjugate to s}, one per reflection class.

    Normalizers.  P_{g s g^-1} = P_s exactly when g s g^-1 lies in P_s, so g
    normalizes P_s iff it conjugates one reflection s of P_s into P_s.
    """
    group._require_enumerated()
    spaces: dict[tuple[Row, ...], list[int]] = {}  # fixed space -> P_s
    for cls in reflections:
        for s, rows in cls.fixed_spaces.items():
            spaces.setdefault(rows, [0]).append(s)
    parabolic = {}  # reflection -> its P_s, sorted; 0 is the identity
    for members in spaces.values():
        members = tuple(sorted(members))
        parabolic.update((s, members) for s in members[1:])

    classes: list[ParabolicClass] = []
    for cls in reflections:
        conjugates = {parabolic[s] for s in cls.members}
        members = min(conjugates)
        if any(c.subgroup == members for c in classes):
            continue  # another reflection class of the same parabolics
        member_set = frozenset(members)
        normalizer = [
            g for g in range(group.order) if group.conjugate(g, members[1]) in member_set
        ]

        # The normalizer fixes a class of H when it maps one member into it.
        nontrivial = [c for c in _subgroup_classes_within(group, members) if 0 not in c]
        trivial = all(
            group.conjugate(g, next(iter(c))) in c for g in normalizer for c in nontrivial
        )

        # Normalizer-orbits on the nontrivial elements of H.
        orbits = _orbits(
            group, members[1:], lambda e: {group.conjugate(g, e) for g in normalizer}
        ).values()

        classes.append(
            ParabolicClass(
                subgroup=members,
                subgroup_order=len(members),
                kleinian_label=kleinian_label(group, members),
                num_conjugates=len(conjugates),
                normalizer_order=len(normalizer),
                xi_order=len(normalizer) // len(members),
                class_action_trivial=trivial,
                orbit_count=len(orbits),
                orbits=tuple(orbits),
            )
        )
    classes.sort(key=lambda c: c.subgroup)
    return classes


def verify_zeta_bijection(
    reflections: list[ReflectionClass], parabolics: list[ParabolicClass]
):
    """Check the natural map from normalizer-orbits in the minimal
    parabolics to reflection classes: well defined on reflections,
    injective across all parabolic classes, surjective onto the classes.
    Both lists are of one group, from `symplectic_reflections` and
    `minimal_parabolics`.

    Returns the report of the matching; its `bijective` is the verdict.
    """
    class_of: dict[int, int] = {}
    for k, cls in enumerate(reflections):
        for i in cls.members:
            class_of[i] = k
    matching = []
    hit: dict[int, tuple[int, int]] = {}
    ok = True
    for b, pc in enumerate(parabolics):
        for o, orbit in enumerate(pc.orbits):
            targets = set()
            for i in orbit:
                if i not in class_of:
                    ok = False  # a nontrivial parabolic element is not a reflection
                    targets.add(-1)
                else:
                    targets.add(class_of[i])
            if len(targets) != 1:
                ok = False
                continue
            target = targets.pop()
            if target in hit:
                ok = False  # two orbits map to one reflection class
            else:
                hit[target] = (b, o)
            matching.append({"parabolic": b, "orbit": o, "reflection_class": target})
    if len(hit) != len(reflections):
        ok = False  # not surjective
    return {
        "num_reflection_classes": len(reflections),
        "num_parabolic_orbits": sum(pc.orbit_count for pc in parabolics),
        "matching": matching,
        "bijective": ok,
    }


class NamikawaWeylData:
    """Per parabolic class a (kleinian_label, |W_B|) factor; the total order
    is the product."""

    __slots__ = ("factors", "total_order")

    def __init__(self, factors: Sequence[tuple[str, int]]):
        self.factors = tuple(factors)
        self.total_order = prod((o for _, o in self.factors), start=1)
        if self.total_order < 1:
            raise InvalidInputError("Namikawa Weyl order must be >= 1")


def diagram_automorphism_order(label: str) -> int:
    """Order of the Dynkin-diagram automorphism group of an ADE label."""
    letter, rank = label[0], int(label[1:])
    if letter == "A":
        return 1 if rank == 1 else 2
    if letter == "D":
        return 6 if rank == 4 else 2
    return 2 if rank == 6 else 1


def _weyl_order(label: str) -> int:
    """|W| of an ADE label: (l+1)! for A_l, 2^(l-1) l! for D_l, and
    prod(e_i + 1) over the exponents for E_6, E_7, E_8."""
    letter, rank = label[0], int(label[1:])
    if letter == "A":
        return factorial(rank + 1)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[rank]


# Paper-sourced overrides for |W_B| where Xi(B) is a nontrivial group and the
# label admits diagram automorphisms, keyed by (kleinian_label, xi_order).
# The only catalog case is the order-24 rank-2 group: |W_B| = 3.
FOLDING_OVERRIDES: dict[tuple[str, int], int] = {("A2", 2): 3}


def namikawa_weyl_from_group(parabolics: list[ParabolicClass]) -> NamikawaWeylData:
    """Namikawa Weyl order from parabolic class data.

    When Xi(B) is trivial as a group, or the label admits no diagram
    automorphism (A1/E7/E8), the diagram action is forced trivial and W_B is
    the full Weyl group of the label.  Otherwise the conjugation action on
    classes does not determine the diagram action, so only the entries of
    FOLDING_OVERRIDES are accepted.
    """
    factors = []
    for pc in parabolics:
        label = pc.kleinian_label
        full_order = _weyl_order(label)
        if pc.xi_order == 1 or diagram_automorphism_order(label) == 1:
            factor = full_order
        elif (label, pc.xi_order) in FOLDING_OVERRIDES:
            factor = FOLDING_OVERRIDES[(label, pc.xi_order)]
        else:
            raise UnsupportedFoldingError(
                f"parabolic class with label {label} and |Xi| = {pc.xi_order}: "
                "the diagram action cannot be derived from class data and no "
                "override is available"
            )
        if full_order % factor != 0:
            raise MathematicalInconsistencyError(
                f"|W_B| = {factor} does not divide |W({label})| = {full_order}"
            )
        factors.append((label, factor))
    return NamikawaWeylData(factors)


def analyze_group(group: MatrixGroup, group_cap: int = DEFAULT_GROUP_CAP):
    """The group twin of `counting.analyze_arrangement`: enumerate, then
    (reflections, parabolics, zeta_report, weyl, note), where weyl is None
    and note says why when the class data cannot fix a folding."""
    group.enumerate_elements(group_cap)
    reflections = symplectic_reflections(group)
    parabolics = minimal_parabolics(group, reflections)
    zeta_report = verify_zeta_bijection(reflections, parabolics)
    try:
        weyl, note = namikawa_weyl_from_group(parabolics), None
    except UnsupportedFoldingError as exc:
        weyl, note = None, str(exc)
    return reflections, parabolics, zeta_report, weyl, note
