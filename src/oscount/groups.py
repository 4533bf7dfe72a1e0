"""Finite matrix groups inside Sp(V) over an exact field.

Breadth-first enumeration, symplectic reflections and their conjugacy
classes, minimal parabolic subgroups with their Kleinian labels and
normalizer data, and the bijection check between reflection classes and
normalizer-orbits in the minimal parabolics.  A matrix is a tuple of row
tuples of Scalars; `MatrixGroup` checks the shape and field of the form
and of each generator once.

After enumeration no matrix is multiplied.  The BFS records, for each
element g_i and generator s_k, the index of g_i s_k (a right
multiplication table) and each element's parent product, which spells
g_i as a word in the generators.  A product g_i g_j walks g_j's word from
i through the table; s_k^-1 is the element before 1 on the cycle of column
k and (x s_k)^-1 = s_k^-1 x^-1; a conjugation is two products and an
inverse.  Every table entry is an exact product identified by its
canonical rows and every element is the product of its word, so this index
arithmetic is exact (details in `MatrixGroup`).

rank(1 - g) is a class function, so one rref of 1 - g per conjugacy class
finds the reflections; each keeps the canonical rref rows of its fixed
space.  A minimal parabolic P_s, the pointwise stabilizer of the fixed
space V^s of a reflection s, is 1 plus the reflections t with V^t = V^s,
since V^g is symplectic for every g of finite order (proof in
`minimal_parabolics`), so P_s is exact, and g P_s g^-1 = P_{g s g^-1}.
By McKay its Kleinian label is read off |P_s| and its number of classes
(`kleinian_label`).  The Xi(B) data of B = P_s, Xi(B) = N(B)/B, follow
without listing N(B):

- |N(B)| = |G| / (number of conjugates of B), by orbit-stabilizer;
- the N(B)-orbits on B minus 1 are the sets (reflection class) meet B: if
  g t g^-1 lies in B for a reflection t of B, then g V^s = V^s, so g
  normalizes B;
- N(B) fixes each class of B exactly when there are as many orbits as
  nontrivial classes of B, since B lies in N(B) and each orbit is a union
  of classes of B.

The Namikawa Weyl group is read off the minimal parabolics: one ADE Weyl
group factor per parabolic class (`namikawa_weyl_from_group`).
"""

from __future__ import annotations

from array import array
from math import factorial, prod
from typing import NamedTuple

from .errors import (
    DEFAULT_GROUP_CAP,
    ComputationCapError,
    InvalidInputError,
    MathematicalInconsistencyError,
    UnsupportedFoldingError,
)
from .fields import FieldDescriptor, dot, is_prime
from .linalg import Row, rank_of_rows, rref_rows

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
    identified by its canonical rows, and every element is the product of its
    BFS word, so each index these operations return is that of the exact
    matrix the product names.  No matrix is multiplied after enumeration.
    """

    def __init__(self, generators: list[tuple[Row, ...]], symplectic_form: tuple[Row, ...]):
        dim = len(symplectic_form)
        if dim % 2 != 0 or dim <= 0:
            raise InvalidInputError("symplectic dimension must be a positive even number")
        omega, *generators = [tuple(map(tuple, m)) for m in (symplectic_form, *generators)]
        for k, m in enumerate([omega] + generators):
            name = f"generator {k - 1}" if k else "symplectic form"
            if len(m) != dim or any(len(row) != dim for row in m):
                raise InvalidInputError(f"{name} has the wrong shape")
            n = omega[0][0].field.conductor
            if bad := {x.field.conductor for row in m for x in row} - {n}:
                raise InvalidInputError(f"{name} has an entry over conductor {min(bad)}, not {n}")
        if tuple(zip(*omega)) != tuple(tuple(-x for x in row) for row in omega):
            raise InvalidInputError("symplectic form is not antisymmetric")
        if rank_of_rows(omega) != dim:
            raise InvalidInputError("symplectic form is degenerate")
        for k, g in enumerate(generators):
            if _mul(_mul(tuple(zip(*g)), omega), g) != omega:
                raise InvalidInputError(f"generator {k} does not preserve the symplectic form")
        self.field = omega[0][0].field
        self.dim = dim
        self.generators = generators
        self.symplectic_form = omega
        self.elements: list[tuple[Row, ...]] | None = None
        self.order: int | None = None
        self._right = self._parent = self._inverse = array("q")  # filled by the enumeration

    def enumerate_elements(self, cap: int = DEFAULT_GROUP_CAP) -> list[tuple[Row, ...]]:
        """Breadth-first closure under right multiplication by the
        generators; records the table and parents, then fills the inverses.

        First a generator of infinite order is refused, by an exact test.  If
        g has finite order m, it is semisimple and each eigenvalue has an
        order m_i with phi(m_i) <= [Q(zeta_N, lambda) : Q] <= dim phi(N), so
        m divides L = lcm{m : phi(m) <= dim phi(N)}: g has finite order
        exactly when g^L = 1.  Repeated squaring forms powers g^k with
        k <= L, whose entries grow at most linearly in k, so the test runs
        when L <= cap.

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
        identity = _identity(self.field, self.dim)
        exponent = _order_exponent(self.dim * self.field.degree, cap)
        for k, g in enumerate(self.generators):
            if exponent is not None and _power(g, exponent) != identity:
                raise InvalidInputError(
                    f"generator {k} has infinite order: its {exponent}th power is not 1"
                )
            if bad := _trace_test(g):
                raise InvalidInputError(f"generator {k} has infinite order: it has {bad}")
            if g != identity and _power(_one_minus(g), self.dim) == _one_minus(identity):
                raise InvalidInputError(
                    f"generator {k} has infinite order: it is unipotent and not 1"
                )
        gens = list(enumerate(self.generators))
        m = len(gens)
        elements = [identity]
        index = {identity: 0}
        right, parent = array("q"), array("q", [0])
        layer_sizes = [1]
        start = 0
        while start < len(elements):
            frontier: dict[tuple[Row, ...], int] = {}  # new element -> its parent product
            products: list[tuple[Row, ...]] = []  # g_i s_k, in table order
            for i in range(start, len(elements)):
                x = elements[i]
                for k, g in gens:
                    y = _mul(x, g)
                    products.append(y)
                    if y not in index and y not in frontier:
                        if bad := _trace_test(y):
                            raise InvalidInputError(
                                f"the group is infinite: a product of {len(layer_sizes)} "
                                f"generators has {bad}"
                            )
                        frontier[y] = i * m + k
                        if len(index) + len(frontier) > cap:
                            raise ComputationCapError(
                                f"group enumeration cap {cap} exceeded",
                                partial={"elements_per_layer": layer_sizes},
                            )
            start = len(elements)
            for y in sorted(frontier, key=_key):
                index[y] = len(elements)
                elements.append(y)
                parent.append(frontier[y])
            right.extend(map(index.__getitem__, products))
            if frontier:
                layer_sizes.append(len(frontier))
        self.elements = elements
        self.order = len(elements)
        self._right, self._parent = right, parent
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


def _trace_test(g: tuple[Row, ...]) -> str | None:
    """None when tr g passes the trace test of `enumerate_elements`, else
    what fails it."""
    f, dim = g[0][0].field, len(g)
    t = sum((row[i] for i, row in enumerate(g)), f.zero())
    d = f.degree
    square = t * t.conjugate()
    t2 = sum(c * sum(f.powers[i + j][i] for i in range(d)) for j, c in enumerate(square.num))
    if t2 > d * dim * dim * square.den or t.den != 1:
        return f"trace {t}, which is not a sum of {dim} roots of unity"
    return None


def _power(g: tuple[Row, ...], e: int) -> tuple[Row, ...]:
    """g^e by repeated squaring, e >= 1."""
    result = None
    while True:
        if e & 1:
            result = g if result is None else _mul(result, g)
        e >>= 1
        if not e:
            return result
        g = _mul(g, g)


def _identity(field: FieldDescriptor, n: int) -> tuple[Row, ...]:
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _one_minus(g: tuple[Row, ...]) -> tuple[Row, ...]:
    unit = _identity(g[0][0].field, len(g))
    return tuple(tuple(a - x for a, x in zip(u, row)) for u, row in zip(unit, g))


def _mul(a: tuple[Row, ...], b: tuple[Row, ...]) -> tuple[Row, ...]:
    """The product a b: each row of a against each column of b."""
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _key(m: tuple[Row, ...]) -> str:
    """Deterministic serialization that orders the elements of a BFS layer."""
    return ";".join(" ".join(str(x) for x in row) for row in m)


class ReflectionClass(NamedTuple):
    """A conjugacy class of symplectic reflections (rank(1 - s) = 2)."""

    members: frozenset[int]
    fixed_spaces: dict[int, tuple[Row, ...]]  # member s -> rref equations of V^s


def symplectic_reflections(group: MatrixGroup) -> list[ReflectionClass]:
    """All s with rank(1 - s) = 2, as conjugacy classes ordered by their
    least element key.  rank(1 - g) is a class function, since
    h (1 - g) h^-1 = 1 - h g h^-1, so one rref of 1 - g per nontrivial class
    finds the reflection classes; then each reflection gets the rref rows of
    its fixed space."""
    group._require_enumerated()
    classes, seen = [], {0}
    for i in range(1, group.order):
        if i not in seen:
            members = group.conjugacy_class_of(i)
            seen |= members
            if rank_of_rows(_one_minus(group.elements[i])) == 2:
                fixed = {s: rref_rows(_one_minus(group.elements[s]))[0] for s in members}
                classes.append(ReflectionClass(members, fixed))
    classes.sort(key=lambda c: min(_key(group.elements[s]) for s in c.members))
    return classes


class ParabolicClass(NamedTuple):
    """A conjugacy class of minimal parabolic subgroups B.

    `class_action_trivial` says whether N(B) fixes each nontrivial conjugacy
    class of B itself; `orbits` are the N(B)-orbits on B minus 1.
    """

    subgroup: tuple[int, ...]  # element indices of the representative, sorted
    kleinian_label: str
    num_conjugates: int
    normalizer_order: int
    class_action_trivial: bool
    orbits: tuple[frozenset[int], ...]

    @property
    def xi_order(self) -> int:
        """|Xi(B)| = |N(B) / B|."""
        return self.normalizer_order // len(self.subgroup)


def kleinian_label(order: int, num_classes: int) -> str:
    """ADE label of a minimal parabolic B = P_s from |B| and its number of
    conjugacy classes.

    B fixes V^s pointwise and keeps the form, so it keeps the plane
    im(1 - s), the w-complement of V^s (`minimal_parabolics`), and V is
    the direct sum of the two; so B acts faithfully on that plane, in
    Sp(2) = SL(2).  By McKay, the irreducible characters of a finite
    subgroup of SL(2), as many as its classes, are the nodes of its extended
    Dynkin diagram: rank + 1 of them.  The order then fixes the type of rank
    r: A_r has r + 1 (cyclic), D_r has 4(r - 2) (binary dihedral, r >= 4),
    and E_6, E_7, E_8 have 24, 48, 120; no two of these agree at one r.
    """
    if order < 2:
        raise InvalidInputError("trivial subgroup has no Kleinian label")
    r = num_classes - 1
    d_order = 4 * (r - 2) if r >= 4 else None
    for letter, n in (("A", r + 1), ("D", d_order), ("E", {6: 24, 7: 48, 8: 120}.get(r))):
        if order == n:
            return f"{letter}{r}"
    raise InvalidInputError(
        f"subgroup of order {order} with {num_classes} conjugacy classes matches no "
        "Kleinian type; upstream bug likely"
    )


def minimal_parabolics(
    group: MatrixGroup, reflections: list[ReflectionClass]
) -> list[ParabolicClass]:
    """Pointwise stabilizers P_s of the fixed spaces of `reflections` (the
    group's `symplectic_reflections`), up to conjugacy.

    For each class: |N(B)|, whether N(B) fixes each of B's nontrivial
    conjugacy classes, and the N(B)-orbits on B minus 1, ordered by their
    least element key, all read off the reflection classes and the
    conjugates of B; no element of N(B) is listed.

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
    exactly when some reflection of P_t is conjugate to s: the class of
    B = P_s is {P_t : t conjugate to s}, one per reflection class.

    |N(B)| = |G| / num_conjugates: G permutes the conjugates of B
    transitively, and N(B) is the stabilizer of B (orbit-stabilizer).

    The N(B)-orbit of t in B minus 1 is (the reflection class of t) meet B.
    An N(B)-conjugate of t lies in both.  Conversely, let u = g t g^-1 lie
    in B.  Then V^u = g V^t, and V^u = V^t = V^s since u and t are
    reflections of B, so g V^s = V^s and g P_s g^-1 = P_{g s g^-1} = P_s:
    g normalizes B.

    `class_action_trivial` is (number of orbits) == (number of nontrivial
    classes of B): B lies in N(B), so each N(B)-orbit is a union of classes
    of B, and N(B) fixes every class exactly when each orbit is one class.
    """
    group._require_enumerated()
    spaces: dict[tuple[Row, ...], list[int]] = {}  # fixed space -> P_s
    class_of: dict[int, frozenset[int]] = {}  # reflection -> its class
    for cls in reflections:
        for s, rows in cls.fixed_spaces.items():
            spaces.setdefault(rows, [0]).append(s)
            class_of[s] = cls.members
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
        orbits = sorted(
            {class_of[t] & member_set for t in members[1:]},
            key=lambda o: min(_key(group.elements[t]) for t in o),
        )
        classes_in_b = {frozenset(group.conjugate(h, t) for h in members) for t in members[1:]}
        classes.append(
            ParabolicClass(
                subgroup=members,
                kleinian_label=kleinian_label(len(members), len(classes_in_b) + 1),
                num_conjugates=len(conjugates),
                normalizer_order=group.order // len(conjugates),
                class_action_trivial=len(orbits) == len(classes_in_b),
                orbits=tuple(orbits),
            )
        )
    classes.sort(key=lambda c: c.subgroup)
    return classes


def verify_zeta_bijection(
    reflections: list[ReflectionClass], parabolics: list[ParabolicClass]
):
    """The map from normalizer-orbits in the minimal parabolics to the
    reflection classes of the same group.  Each orbit is (a reflection class)
    meet B (`minimal_parabolics`), so it maps to the class of any member, and
    every class meets some B.  The verdict `bijective` is that every class is
    hit exactly once: the table's conjugacy classes against the parabolics
    grouped by fixed space."""
    class_of = {s: k for k, cls in enumerate(reflections) for s in cls.members}
    matching = [
        {"parabolic": b, "orbit": o, "reflection_class": class_of[min(orbit)]}
        for b, pc in enumerate(parabolics)
        for o, orbit in enumerate(pc.orbits)
    ]
    hits = sorted(m["reflection_class"] for m in matching)
    return {
        "num_reflection_classes": len(reflections),
        "num_parabolic_orbits": len(matching),
        "matching": matching,
        "bijective": hits == list(range(len(reflections))),
    }


class NamikawaWeylData(NamedTuple):
    """Per parabolic class a (kleinian_label, |W_B|) factor."""

    factors: tuple[tuple[str, int], ...]

    @property
    def total_order(self) -> int:
        """|W|, the product of the factors."""
        return prod((o for _, o in self.factors), start=1)


def _weyl_order(label: str) -> int:
    """|W| of an ADE label: (l+1)! for A_l, 2^(l-1) l! for D_l, and
    prod(e_i + 1) over the exponents for E_6, E_7, E_8."""
    letter, rank = label[0], int(label[1:])
    if letter == "A":
        return factorial(rank + 1)
    if letter == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {6: 51_840, 7: 2_903_040, 8: 696_729_600}[rank]


# Paper-sourced |W_B| where Xi(B) is nontrivial and the label has diagram
# automorphisms, keyed by (kleinian_label, xi_order).  The one entry, g4's
# |W_B| = 3, is no folding of W(A2): see `namikawa_weyl_from_group`.
FOLDING_OVERRIDES: dict[tuple[str, int], int] = {("A2", 2): 3}


def namikawa_weyl_from_group(parabolics: list[ParabolicClass]) -> NamikawaWeylData:
    """Namikawa Weyl order from parabolic class data.

    When Xi(B) is trivial as a group, or the label admits no diagram
    automorphism (A1/E7/E8), the diagram action is forced trivial and W_B is
    the full Weyl group of the label.  Otherwise the conjugation action on
    classes does not determine the diagram action, so only the entries of
    FOLDING_OVERRIDES are accepted.

    g4's entry (A2, 2) -> 3 is outside that rule: |W(A2)^sigma| is 6 for the
    trivial diagram action and 2 for the flip, and only 3 | 6 is checked.  So
    selftest's g4 group row compares two typed 3s; the check that can fail
    there is the count, pi(1)/|W| = 2 against the published 2.
    """
    factors = []
    for pc in parabolics:
        label = pc.kleinian_label
        full_order = _weyl_order(label)
        if pc.xi_order == 1 or label in ("A1", "E7", "E8"):
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
    return NamikawaWeylData(tuple(factors))


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
