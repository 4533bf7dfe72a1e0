"""ADE root-system data, the wreath closed forms and the Catalan arrangements:
the affine one, and the central one, which is its cone.

Realizations (recorded on each table entry, any exact one is acceptable
since only the matroid of the (m, root) vectors matters):
  A_l : e_i - e_j inside the sum-zero lattice, projected to the first l
        coordinates;
  D_l : e_i - e_j and e_i + e_j, i < j;
  E_6/7/8 : integer coordinates with respect to the simple roots, generated
        by height from the Cartan matrix (the even-lattice realization does
        not fit in l ambient coordinates).

Only the two generators build arrangements, so only they import the
arrangement and field layers, when they run.
"""

from __future__ import annotations

from math import gcd, prod
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, MathematicalInconsistencyError

if TYPE_CHECKING:
    from .arrangement import Arrangement

__all__ = [
    "WeylTypeData",
    "CatalanSpec",
    "weyl_data",
    "parse_type_label",
    "wreath_poincare",
    "wreath_count_closed_form",
    "catalan_arrangement",
    "affine_catalan",
    "SUPPORTED_LABELS",
]

SUPPORTED_LABELS = ("A", "D", "E")

_EXPONENTS_E = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17), 8: (1, 7, 11, 13, 17, 19, 23, 29)}


class WeylTypeData(NamedTuple):
    """Classical invariants of an ADE Weyl group (`weyl_data`)."""

    label: str
    rank: int
    exponents: tuple[int, ...]
    coxeter_number: int
    positive_roots: tuple[tuple[int, ...], ...]
    weyl_order: int
    realization: str

    @property
    def full_label(self) -> str:
        return f"{self.label}{self.rank}"


def parse_type_label(text: str) -> tuple[str, int]:
    """Split a combined label like 'A2' or 'E8' into (letter, rank)."""
    text = text.strip().upper()
    if len(text) < 2 or text[0] not in SUPPORTED_LABELS:
        raise InvalidInputError(f"unsupported type label {text!r}; expected A/D/E + rank")
    try:
        rank = int(text[1:])
    except ValueError:
        raise InvalidInputError(f"bad rank in type label {text!r}") from None
    return text[0], rank


def _cartan_matrix(rank: int) -> list[list[int]]:
    """The Cartan matrix of E_rank, Bourbaki numbering: the chain
    1-3-4-5-6(-7)(-8) with node 2 on node 4."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
    for a, b in [*zip(chain, chain[1:]), (1, 3)]:
        c[a][b] = c[b][a] = -1
    return c


def _roots_by_height(rank: int) -> list[tuple[int, ...]]:
    """Positive roots of E_rank in simple-root coordinates, generated by height.

    In a simply laced system r + a_i is a root iff the pairing (r, a_i)
    equals -1, and every non-simple positive root arises this way.
    """
    cartan = _cartan_matrix(rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(rank):
                pairing = sum(r[j] * cartan[j][i] for j in range(rank))
                if pairing == -1:
                    new = tuple(r[j] + (1 if j == i else 0) for j in range(rank))
                    if new not in roots:
                        roots.add(new)
                        nxt.append(new)
        frontier = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


def weyl_data(label: str, rank: int) -> WeylTypeData:
    """Type `label` at rank l, where |R+| = l h / 2 and e_i + e_{l+1-i} = h:
    A_l has l(l+1)/2 roots, exponents 1..l and h = l + 1; D_l has l(l-1),
    exponents 1, 3, ..., 2l-3 and l-1, and h = 2l - 2; E_6/7/8 have
    36/63/120 and h = 12/18/30.  `test_table_invariants` checks both."""
    if label == "A":
        if rank < 1:
            raise InvalidInputError("A_l requires l >= 1")
        exponents = tuple(range(1, rank + 1))
        h = rank + 1
        roots = []
        for i in range(rank + 1):
            for j in range(i + 1, rank + 1):
                vec = [0] * rank
                if i < rank:
                    vec[i] = 1
                if j < rank:
                    vec[j] = -1
                roots.append(tuple(vec))
        realization = "e_i - e_j in the sum-zero lattice, projected to l coordinates"
    elif label == "D":
        if rank < 4:
            raise InvalidInputError("D_l requires l >= 4")
        exponents = tuple(sorted(list(range(1, 2 * rank - 2, 2)) + [rank - 1]))
        h = 2 * rank - 2
        roots = []
        for i in range(rank):
            for j in range(i + 1, rank):
                for sign in (-1, 1):
                    vec = [0] * rank
                    vec[i] = 1
                    vec[j] = sign
                    roots.append(tuple(vec))
        realization = "e_i - e_j and e_i + e_j, i < j"
    elif label == "E":
        if rank not in (6, 7, 8):
            raise InvalidInputError("E types exist for rank 6, 7, 8 only")
        exponents = _EXPONENTS_E[rank]
        h = exponents[-1] + 1
        roots = _roots_by_height(rank)
        realization = "integer coordinates with respect to the simple roots"
    else:
        raise InvalidInputError(f"unsupported label {label!r}; expected A, D or E")
    return WeylTypeData(
        label=label,
        rank=rank,
        exponents=exponents,
        coxeter_number=h,
        positive_roots=tuple(roots),
        weyl_order=prod(e + 1 for e in exponents),
        realization=realization,
    )


def wreath_poincare(type_data: WeylTypeData, n: int) -> tuple[int, ...]:
    """pi(t) = (1 + t) prod_i (1 + ((n-1) h + e_i) t), the Poincare polynomial of
    `catalan_arrangement` (Athanasiadis, Bull. LMS 36, 2004; Yoshinaga,
    Invent. Math. 157, 2004), as its coefficients."""
    if n < 1:
        raise InvalidInputError("wreath parameter n must be >= 1")
    pi = [1, 1]
    for a in ((n - 1) * type_data.coxeter_number + e for e in type_data.exponents):
        pi = [c + a * b for c, b in zip(pi + [0], [0] + pi)]
    return tuple(pi)


def wreath_count_closed_form(type_data: WeylTypeData, n: int) -> int:
    """pi(1) of `wreath_poincare` over |A1 x W| = 2 prod_i (e_i + 1), that is
    prod_i ((n-1) h + e_i + 1) / (e_i + 1); checked integral, 1 at n = 1."""
    num = sum(wreath_poincare(type_data, n))
    den = 2 * prod(e + 1 for e in type_data.exponents)
    if num % den != 0:
        g = gcd(num, den)
        raise MathematicalInconsistencyError(
            f"closed-form product {num // g}/{den // g} is not an integer; table error"
        )
    return num // den


class CatalanSpec:
    """The Catalan-type arrangement of a root system with parameter n >= 1."""

    __slots__ = ("type", "n")

    def __init__(self, type: WeylTypeData, n: int):
        if n < 1:
            raise InvalidInputError("wreath parameter n must be >= 1")
        self.type = type
        self.n = n


def catalan_arrangement(spec: CatalanSpec) -> Arrangement:
    """The cone of `affine_catalan(spec)`: the central arrangement in l+1
    coordinates (a, x_1..x_l) of root . x + m a = 0 for positive roots and
    |m| <= n-1, plus a = 0; the hyperplane count is |R+| (2n - 1) + 1."""
    from .arrangement import cone

    return cone(affine_catalan(spec))


def affine_catalan(spec: CatalanSpec) -> Arrangement:
    """The affine arrangement root . x + m = 0 in l variables, for positive
    roots and |m| <= n-1."""
    from .arrangement import build_arrangement
    from .fields import rational_field

    f = rational_field()
    raw = []
    for root in spec.type.positive_roots:
        for m in range(1 - spec.n, spec.n):
            normal = tuple(f.from_rational(c) for c in root)
            raw.append((normal, f.from_rational(-m)))
    return build_arrangement(f, spec.type.rank, raw)
