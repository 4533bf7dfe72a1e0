"""Finite matrix groups inside Sp(V) over an exact field.

Breadth-first enumeration, symplectic reflections and their conjugacy
classes, minimal parabolic subgroups (pointwise stabilizers of reflection
fixed spaces) with their Kleinian labels and normalizer data, and the
bijection check between reflection classes and normalizer-orbits in the
minimal parabolics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ComputationCapError, InvalidInputError
from .fields import FieldDescriptor
from .linalg import ExactMatrix, Row, reduce_row, rref_rows

__all__ = [
    "MatrixGroup",
    "ReflectionClass",
    "ParabolicClass",
    "symplectic_reflections",
    "minimal_parabolics",
    "kleinian_label",
    "verify_zeta_bijection",
    "DEFAULT_GROUP_CAP",
]

DEFAULT_GROUP_CAP = 200_000


class MatrixGroup:
    """A finite subgroup of Sp(2n) given by generators; `enumerate_elements`
    fills the canonical element store (BFS layer, then serialization key)."""

    def __init__(
        self,
        field: FieldDescriptor,
        dim: int,
        generators: list[ExactMatrix],
        symplectic_form: ExactMatrix,
    ):
        if dim % 2 != 0 or dim <= 0:
            raise InvalidInputError("symplectic dimension must be a positive even number")
        omega = symplectic_form
        if omega.nrows != dim or omega.ncols != dim:
            raise InvalidInputError("symplectic form has the wrong shape")
        if omega.transpose() != -omega:
            raise InvalidInputError("symplectic form is not antisymmetric")
        if omega.rank() != dim:
            raise InvalidInputError("symplectic form is degenerate")
        for k, g in enumerate(generators):
            if g.nrows != dim or g.ncols != dim:
                raise InvalidInputError(f"generator {k} has the wrong shape")
            try:
                g.inverse()
            except InvalidInputError:
                raise InvalidInputError(f"generator {k} is not invertible") from None
            if g.transpose() * omega * g != omega:
                raise InvalidInputError(f"generator {k} does not preserve the symplectic form")
        self.field = field
        self.dim = dim
        self.generators = list(generators)
        self.symplectic_form = omega
        self.elements: list[ExactMatrix] | None = None
        self.order: int | None = None
        self._index: dict[str, int] = {}
        self._inverse: list[int] | None = None

    def enumerate_elements(self, cap: int = DEFAULT_GROUP_CAP) -> list[ExactMatrix]:
        """Breadth-first closure under generator multiplication."""
        if cap < 1:
            raise InvalidInputError("enumeration cap must be >= 1")
        if self.elements is not None:
            return self.elements
        identity = ExactMatrix.identity(self.field, self.dim)
        seen: dict[str, ExactMatrix] = {identity.key(): identity}
        layers: list[list[ExactMatrix]] = [[identity]]
        while layers[-1]:
            frontier: dict[str, ExactMatrix] = {}
            for x in layers[-1]:
                for g in self.generators:
                    y = x * g
                    k = y.key()
                    if k not in seen and k not in frontier:
                        frontier[k] = y
                        if len(seen) + len(frontier) > cap:
                            raise ComputationCapError(
                                f"group enumeration cap {cap} exceeded"
                            )
            layer = [frontier[k] for k in sorted(frontier)]
            seen.update(frontier)
            layers.append(layer)
        elements: list[ExactMatrix] = [e for layer in layers for e in layer]
        self.elements = elements
        self.order = len(elements)
        self._index = {e.key(): i for i, e in enumerate(elements)}
        return elements

    def _require_enumerated(self):
        if self.elements is None:
            raise InvalidInputError("call enumerate_elements() first")

    def index_of(self, m: ExactMatrix) -> int:
        self._require_enumerated()
        try:
            return self._index[m.key()]
        except KeyError:
            raise InvalidInputError("matrix is not an element of the group") from None

    def inverse_index(self, i: int) -> int:
        self._require_enumerated()
        if self._inverse is None:
            self._inverse = [-1] * len(self.elements)
        if self._inverse[i] < 0:
            self._inverse[i] = self.index_of(self.elements[i].inverse())
        return self._inverse[i]

    def conjugacy_class_of(self, i: int) -> frozenset[int]:
        """Orbit of element i under conjugation (generators suffice)."""
        self._require_enumerated()
        gen_pairs = [(g, g.inverse()) for g in self.generators]
        orbit = {i}
        frontier = [self.elements[i]]
        while frontier:
            nxt = []
            for x in frontier:
                for g, ginv in gen_pairs:
                    y = g * x * ginv
                    j = self.index_of(y)
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(y)
            frontier = nxt
        return frozenset(orbit)


@dataclass(frozen=True)
class ReflectionClass:
    """A conjugacy class of symplectic reflections (rank(1 - s) = 2)."""

    representative: int
    members: frozenset[int]
    size: int
    fixed_space: tuple[Row, ...]  # rref equations of V^s


def _fixed_space_rows(group: MatrixGroup, i: int) -> tuple[Row, ...]:
    identity = ExactMatrix.identity(group.field, group.dim)
    diff = identity - group.elements[i]
    rows, _ = rref_rows(diff.rows)
    return rows


def symplectic_reflections(group: MatrixGroup) -> list[ReflectionClass]:
    """All s with rank(1 - s) = 2, partitioned into conjugacy classes."""
    group._require_enumerated()
    identity = ExactMatrix.identity(group.field, group.dim)
    reflections = [
        i
        for i, g in enumerate(group.elements)
        if (identity - g).rank() == 2
    ]
    remaining = set(reflections)
    classes = []
    while remaining:
        seed = min(remaining, key=lambda i: group.elements[i].key())
        members = group.conjugacy_class_of(seed)
        if not members <= set(reflections):
            raise InvalidInputError(
                "conjugacy class of a reflection left the reflection set"
            )
        classes.append(
            ReflectionClass(
                representative=seed,
                members=members,
                size=len(members),
                fixed_space=_fixed_space_rows(group, seed),
            )
        )
        remaining -= members
    classes.sort(key=lambda c: group.elements[c.representative].key())
    return classes


@dataclass(frozen=True)
class ParabolicClass:
    """A conjugacy class of minimal parabolic subgroups.

    `class_action_perms` are the distinct permutations induced by the
    normalizer on the nontrivial conjugacy classes of the subgroup itself;
    `orbits` are the normalizer-orbits on the nontrivial elements.
    """

    subgroup: tuple[int, ...]  # element indices of the representative, sorted
    subgroup_order: int
    kleinian_label: str
    num_conjugates: int
    normalizer_order: int
    xi_order: int
    class_action_perms: tuple[tuple[int, ...], ...]
    class_action_trivial: bool
    orbit_count: int
    orbits: tuple[frozenset[int], ...]
    fixed_space: tuple[Row, ...]


def _element_order(m: ExactMatrix) -> int:
    acc = m
    k = 1
    while not acc.is_identity():
        acc = acc * m
        k += 1
        if k > 10_000:
            raise InvalidInputError("element order exceeds sanity bound")
    return k


def kleinian_label(elements: list[ExactMatrix]) -> str:
    """ADE label of a finite SL(2,C)-type subgroup given by its element list.

    Cyclic of order k -> A_{k-1}; nonabelian with an element of order
    |H|/2 (a cyclic subgroup of index 2) -> D_{|H|/4 + 2}; otherwise
    orders 24/48/120 -> E_6/E_7/E_8.
    """
    n = len(elements)
    if n < 2:
        raise InvalidInputError("trivial subgroup has no Kleinian label")
    orders = [_element_order(m) for m in elements]
    abelian = all(
        a * b == b * a for i, a in enumerate(elements) for b in elements[i + 1 :]
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
    mats = {i: group.elements[i] for i in members}
    inv = {i: mats[i].inverse() for i in members}
    leftover = set(members)
    classes = []
    while leftover:
        seed = min(leftover, key=lambda i: group.elements[i].key())
        orbit = set()
        for j in members:
            conj = mats[j] * mats[seed] * inv[j]
            orbit.add(group.index_of(conj))
        classes.append(frozenset(orbit))
        leftover -= orbit
    classes.sort(key=lambda c: min(group.elements[i].key() for i in c))
    return classes


def minimal_parabolics(
    group: MatrixGroup, reflections: list[ReflectionClass]
) -> list[ParabolicClass]:
    """Pointwise stabilizers of the fixed spaces of `reflections` (the
    group's `symplectic_reflections`), up to conjugacy.

    For each class: the normalizer (by direct test), its quotient order,
    the permutation action on the subgroup's nontrivial conjugacy classes,
    and the normalizer-orbits on the nontrivial elements.
    """
    group._require_enumerated()
    identity = ExactMatrix.identity(group.field, group.dim)

    # Pointwise stabilizer of V^s:  g fixes V^s iff every row of (1 - g)
    # lies in the row space of (1 - s).
    subgroups: dict[tuple[int, ...], tuple[Row, ...]] = {}
    for cls in reflections:
        for s in cls.members:
            rows = _fixed_space_rows(group, s)
            pivots = tuple(next(i for i, x in enumerate(r) if not x.is_zero()) for r in rows)
            members = []
            for i, g in enumerate(group.elements):
                diff = identity - g
                if all(
                    all(x.is_zero() for x in reduce_row(row, rows, pivots))
                    for row in diff.rows
                ):
                    members.append(i)
            key = tuple(sorted(members))
            subgroups.setdefault(key, rows)

    # Group the subgroups into Gamma-conjugacy classes.
    def conjugate_subgroup(members: tuple[int, ...], g: ExactMatrix, ginv: ExactMatrix):
        return tuple(sorted(group.index_of(g * group.elements[i] * ginv) for i in members))

    gen_pairs = [(g, g.inverse()) for g in group.generators]
    leftover = set(subgroups)
    classes: list[ParabolicClass] = []
    while leftover:
        seed = min(leftover)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for sub in frontier:
                for g, ginv in gen_pairs:
                    image = conjugate_subgroup(sub, g, ginv)
                    if image not in orbit:
                        orbit.add(image)
                        nxt.append(image)
            frontier = nxt
        leftover -= orbit

        members = seed
        member_set = frozenset(members)
        h_order = len(members)

        # Normalizer by exhaustive test over the whole group.
        normalizer = []
        for i, g in enumerate(group.elements):
            ginv = group.elements[group.inverse_index(i)]
            if frozenset(conjugate_subgroup(members, g, ginv)) == member_set:
                normalizer.append(i)
        n_order = len(normalizer)
        xi_order = n_order // h_order

        # Action of the normalizer on the nontrivial H-classes.
        h_classes = _subgroup_classes_within(group, members)
        nontrivial = [c for c in h_classes if not any(group.elements[i].is_identity() for i in c)]
        class_of = {i: k for k, c in enumerate(nontrivial) for i in c}
        perms = set()
        for i in normalizer:
            g = group.elements[i]
            ginv = group.elements[group.inverse_index(i)]
            perm = []
            for c in nontrivial:
                j = next(iter(c))
                image = group.index_of(g * group.elements[j] * ginv)
                perm.append(class_of[image])
            perms.add(tuple(perm))
        trivial_action = all(p == tuple(range(len(nontrivial))) for p in perms)

        # Normalizer-orbits on the nontrivial elements of H.
        nontrivial_elements = [i for i in members if not group.elements[i].is_identity()]
        leftover_elts = set(nontrivial_elements)
        orbits = []
        while leftover_elts:
            e = min(leftover_elts, key=lambda i: group.elements[i].key())
            orb = set()
            for i in normalizer:
                g = group.elements[i]
                ginv = group.elements[group.inverse_index(i)]
                orb.add(group.index_of(g * group.elements[e] * ginv))
            orbits.append(frozenset(orb))
            leftover_elts -= orb

        classes.append(
            ParabolicClass(
                subgroup=members,
                subgroup_order=h_order,
                kleinian_label=kleinian_label([group.elements[i] for i in members]),
                num_conjugates=len(orbit),
                normalizer_order=n_order,
                xi_order=xi_order,
                class_action_perms=tuple(sorted(perms)),
                class_action_trivial=trivial_action,
                orbit_count=len(orbits),
                orbits=tuple(orbits),
                fixed_space=subgroups[seed],
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

    Returns (ok, report) where report lists the matching.
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
    report = {
        "num_reflection_classes": len(reflections),
        "num_parabolic_orbits": sum(pc.orbit_count for pc in parabolics),
        "matching": matching,
        "bijective": ok,
    }
    return ok, report
