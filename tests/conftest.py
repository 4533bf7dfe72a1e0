from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest

from oscount.arrangement import Arrangement, build_arrangement
from oscount.counting import catalog
from oscount.fields import Scalar, cyclotomic_field, rational_field
from oscount.fileio import parse_group_file
from oscount.groups import MatrixGroup
from oscount.linalg import ExactMatrix, Row, rank_of_rows, reduce_row, rref_rows


def rational_arrangement(dim: int, rows, offsets=None) -> Arrangement:
    """Arrangement over Q from integer/fraction rows (offsets optional)."""
    f = rational_field()
    raw = []
    for i, row in enumerate(rows):
        normal = tuple(f.from_rational(x) for x in row)
        offset = f.from_rational(offsets[i]) if offsets else f.zero()
        raw.append((normal, offset))
    return build_arrangement(f, dim, raw)


def g414_arrangement():
    """The reflection arrangement of G(4,1,4): x_i = 0 and x_i = zeta^k x_j."""
    field = cyclotomic_field(4)
    zero, one, zeta = field.zero(), field.one(), field.zeta()
    raw = [(tuple(one if j == i else zero for j in range(4)), zero) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            power = one
            for _ in range(4):
                normal = [zero] * 4
                normal[i], normal[j] = one, -power
                raw.append((tuple(normal), zero))
                power = power * zeta
    return build_arrangement(field, 4, raw)


def brute_force_flats(arrangement: Arrangement) -> set:
    """{(contains, codim)} of every nonempty intersection, from subset ranks
    only (`subset_flats` with exact ranks over the field)."""
    return subset_flats([h.row() for h in arrangement.hyperplanes], rank_of_rows)


def subset_flats(rows, rank) -> set:
    """{(contains, codim)} of every nonempty intersection of the hyperplanes
    with rows [normal | offset], where `rank` is the rank of a list of rows.

    A subset S meets in a nonempty flat exactly when its normals and its
    augmented rows have equal rank; that rank is the codimension, and the
    flat lies on h exactly when adding h's row keeps the rank.  Independent
    of the lattice code by construction.
    """
    normals = [row[:-1] for row in rows]
    n = len(rows)
    flats = set()
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            rows_s = [rows[i] for i in subset]
            r = rank(rows_s)
            if rank([normals[i] for i in subset]) != r:
                continue
            closure = frozenset(h for h in range(n) if rank(rows_s + [rows[h]]) == r)
            flats.add((closure, r))
    return flats


def rank_mod(q: int):
    """The rank of a list of integer rows mod the prime q, as a function:
    Gauss-Jordan elimination, one column at a time."""

    def rank(rows) -> int:
        rows = [[x % q for x in row] for row in rows]
        r = 0
        for col in range(len(rows[0]) if rows else 0):
            pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][col], -1, q)
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    c = rows[i][col] * inv
                    rows[i] = [(a - c * b) % q for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    return rank


def brute_force_points(rows, q: int) -> int:
    """Number of x in F_q^l with a.x != b (mod q) for every integer row
    [a | b]: every point of F_q^l is tried.  Uses nothing from oscount."""
    ell = len(rows[0]) - 1 if rows else 0
    return sum(
        all(sum(a * x for a, x in zip(row, point)) % q != row[-1] % q for row in rows)
        for point in product(range(q), repeat=ell)
    )


def brute_force_moebius(flats: set) -> dict:
    """{contains: mu} for the poset `flats` of (contains, codim) pairs ordered
    by inclusion of `contains`, from the definition: mu = 1 at the bottom
    (contains empty) and mu(Y) = -(sum of mu(X) over the X below Y)."""
    mu: dict = {}
    for contains, _ in sorted(flats, key=lambda flat: flat[1]):  # X < Y has lower codim
        mu[contains] = -sum(m for c, m in mu.items() if c < contains) if contains else 1
    return mu


def subspace_normals(rng, field, dim: int, k: int, n: int) -> list[tuple]:
    """Up to n nonzero normals (zero draws are dropped) in the span of k
    random vectors of field^dim, so of rank at most k; coefficients are
    small integers and zeta."""
    small = [field.from_rational(c) for c in (-2, -1, 0, 0, 1, 2)] + [field.zeta()]
    basis = [[rng.choice(small) for _ in range(dim)] for _ in range(k)]
    normals = []
    for _ in range(n):
        normal = [field.zero()] * dim
        for vector in basis:
            c = rng.choice(small)
            normal = [x + c * y for x, y in zip(normal, vector)]
        if any(not x.is_zero() for x in normal):
            normals.append(tuple(normal))
    return normals


def nbc_by_definition(arrangement: Arrangement) -> list[int]:
    """Counts by size of the nbc sets of a central arrangement, from the
    definitions: the rank of every subset of the normals, the circuits
    (dependent sets whose every proper subset is independent), the broken
    circuits (a circuit minus its least element) and the independent sets
    containing none.  Exact Scalar rows through `linalg.reduce_row`; shares
    nothing with the nbc walk."""
    normals = [h.normal for h in arrangement.hyperplanes]
    n = len(normals)
    # an echelon basis (rows, pivots) of the normals in each subset mask,
    # built from the mask without its least element
    spans = [((), ())]
    for mask in range(1, 1 << n):
        rows, pivots = spans[mask & (mask - 1)]
        reduced = reduce_row(normals[(mask & -mask).bit_length() - 1], rows, pivots)
        lead = next((j for j, x in enumerate(reduced) if not x.is_zero()), None)
        if lead is not None:
            inv = reduced[lead].inverse()
            rows, pivots = rows + (tuple(inv * x for x in reduced),), pivots + (lead,)
        spans.append((rows, pivots))
    rank = [len(pivots) for _, pivots in spans]
    size = [bin(mask).count("1") for mask in range(1 << n)]
    circuits = [
        mask
        for mask in range(1 << n)
        if rank[mask] < size[mask]
        and all(rank[mask & ~(1 << i)] == size[mask] - 1 for i in range(n) if mask >> i & 1)
    ]
    broken = [c & (c - 1) for c in circuits]  # drop the least element
    counts = [0] * (max(rank) + 1)
    for mask in range(1 << n):
        if rank[mask] == size[mask] and not any(mask & b == b for b in broken):
            counts[size[mask]] += 1
    return counts


def whitney_characteristic(arrangement: Arrangement) -> tuple[int, ...]:
    """Brute-force characteristic polynomial, ascending:
    chi(A, t) = sum over subsets with nonempty intersection of
    (-1)^{|S|} t^{dim of the intersection}; the oracle for the lattice route."""
    n = len(arrangement.hyperplanes)
    ell = arrangement.ambient_dim
    offset_col = ell
    rows_of = [h.row() for h in arrangement.hyperplanes]
    coeffs = [0] * (ell + 1)

    def walk(i: int, rows, pivots, size: int):
        if i == n:
            coeffs[ell - len(pivots)] += (-1) ** size
            return
        walk(i + 1, rows, pivots, size)
        reduced = reduce_row(rows_of[i], rows, pivots)
        lead = next((j for j, x in enumerate(reduced) if not x.is_zero()), None)
        if lead == offset_col:
            return  # empty intersection; all supersets are empty too
        if lead is None:
            walk(i + 1, rows, pivots, size + 1)
        else:
            inv = reduced[lead].inverse()
            normalized = tuple(inv * x for x in reduced)
            walk(i + 1, rows + (normalized,), pivots + (lead,), size + 1)

    walk(0, (), (), 0)
    return tuple(coeffs)


def from_rationals(field, rows) -> ExactMatrix:
    return ExactMatrix(field, [[field.from_rational(x) for x in row] for row in rows])


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """The inverse of an invertible square matrix by Gauss-Jordan elimination
    on [matrix | 1], one column at a time, in Scalar arithmetic; runs no
    `linalg` routine."""
    n, one, zero = matrix.nrows, matrix.field.one(), matrix.field.zero()
    rows = [
        list(row) + [one if j == i else zero for j in range(n)]
        for i, row in enumerate(matrix.rows)
    ]
    for col in range(n):
        pivot = next(i for i in range(col, n) if not rows[i][col].is_zero())
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [inv * x for x in rows[col]]
        for i in range(n):
            if i != col and not rows[i][col].is_zero():
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[col])]
    return ExactMatrix(matrix.field, [row[n:] for row in rows])


def kernel_basis(matrix: ExactMatrix) -> list[Row]:
    """Basis of the right null space, parametrized by non-pivot columns."""
    pivot_rows, pivots = rref_rows(matrix.rows)
    free = [j for j in range(matrix.ncols) if j not in pivots]
    one, zero = matrix.field.one(), matrix.field.zero()
    basis = []
    for j in free:
        vec = [zero] * matrix.ncols
        vec[j] = one
        for prow, p in zip(pivot_rows, pivots):
            vec[p] = -prow[j]
        basis.append(tuple(vec))
    return basis


def catalog_group(name: str) -> MatrixGroup:
    """The matrix group of a shipped catalog entry, parsed from its file."""
    return parse_group_file(catalog(name).group_file)


def index_by_key(group: MatrixGroup) -> dict[str, int]:
    """{ExactMatrix.key(): index} over the enumerated elements; reads the
    element list only, never the group's multiplication table."""
    return {m.key(): i for i, m in enumerate(group.elements)}


def quaternion_matrix(field, q) -> ExactMatrix:
    """The unit quaternion a + bi + cj + dk, q = (a, b, c, d) as Scalars,
    ints or Fractions, as [[a + bi, c + di], [-c + di, a - bi]] in SL(2)
    over Q(zeta_N), 4 | N, with i = zeta_N^(N/4)."""
    a, b, c, d = (x if isinstance(x, Scalar) else field.from_rational(x) for x in q)
    i_ = field.one()
    for _ in range(field.conductor // 4):
        i_ = i_ * field.zeta()
    return ExactMatrix(field, [[a + b * i_, c + d * i_], [-c + d * i_, a - b * i_]])


def sl2_group(field, quaternions) -> MatrixGroup:
    """The subgroup of SL(2) = Sp(2) generated by unit quaternions."""
    one, zero = field.one(), field.zero()
    omega = ExactMatrix(field, [[zero, one], [-one, zero]])
    return MatrixGroup([quaternion_matrix(field, q) for q in quaternions], omega)


def quaternion_group() -> MatrixGroup:
    """Q8 = <i, j> over Q(zeta_4)."""
    return sl2_group(cyclotomic_field(4), [(0, 1, 0, 0), (0, 0, 1, 0)])


def wreath2(gamma: MatrixGroup) -> MatrixGroup:
    """S_2 wr Gamma in Sp(4) for Gamma in Sp(2): V = C^2 + C^2 with Gamma's
    form on each block; generated by Gamma's generators on block 0 and the
    swap of the blocks."""
    f, zero, one = gamma.field, gamma.field.zero(), gamma.field.one()

    def blocks(a: ExactMatrix, b: ExactMatrix, swap: bool = False) -> ExactMatrix:
        rows = [[zero] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                rows[r][c + 2 * swap] = a.rows[r][c]
                rows[r + 2][c + 2 * (not swap)] = b.rows[r][c]
        return ExactMatrix(f, rows)

    identity = ExactMatrix.identity(f, 2)
    omega = gamma.symplectic_form
    generators = [blocks(g, identity) for g in gamma.generators]
    generators.append(blocks(identity, identity, swap=True))
    return MatrixGroup(generators, blocks(omega, omega))


def group_text(group: MatrixGroup) -> str:
    """The `.grp` text of a group: its field, dim, form and generators."""
    f = group.field
    lines = ["field rational" if f.is_rational else f"field cyclotomic {f.conductor}"]
    lines.append(f"dim {group.dim}")
    for head, matrix in [("symplectic_form", group.symplectic_form)] + [
        ("generator", g) for g in group.generators
    ]:
        lines.append(head)
        lines.extend(
            " ".join(scalar_token(f, fraction_coords(x)) for x in row) for row in matrix.rows
        )
    return "\n".join(lines) + "\n"


def conjugacy_classes(group: MatrixGroup) -> list[frozenset[int]]:
    group._require_enumerated()
    leftover = set(range(len(group.elements)))
    classes = []
    while leftover:
        seed = min(leftover, key=lambda i: group.elements[i].key())
        cls = group.conjugacy_class_of(seed)
        classes.append(cls)
        leftover -= cls
    classes.sort(key=lambda c: min(group.elements[i].key() for i in c))
    return classes


def pointwise_stabilizer(group: MatrixGroup, s: int) -> tuple[int, ...]:
    """Sorted indices of the elements fixing V^{g_s} pointwise, by the
    definition: every row of 1 - g lies in the row space of 1 - g_s."""
    identity = ExactMatrix.identity(group.field, group.dim)
    rows, pivots = rref_rows((identity - group.elements[s]).rows)
    return tuple(
        i
        for i, g in enumerate(group.elements)
        if all(
            all(x.is_zero() for x in reduce_row(r, rows, pivots))
            for r in (identity - g).rows
        )
    )


def scalar_token(field, coords) -> str:
    """The `parse_scalar` token of power-basis coordinates (ints or
    Fractions): `p/q` over Q, `(a0,a1,...)` over Q(zeta_N)."""
    text = ",".join(str(Fraction(c)) for c in coords)
    return text if field.is_rational else f"({text})"


def members(mask: int) -> frozenset[int]:
    """The hyperplane indices of the set bits of a flat's `mask`."""
    return frozenset(h for h in range(mask.bit_length()) if mask >> h & 1)


def fraction_coords(x) -> tuple:
    """The rational power-basis coordinates of a Scalar, `num` over `den`."""
    return tuple(Fraction(c, x.den) for c in x.num)


class ReferenceField:
    """Q(zeta_n) on lists of Fraction coordinates in the power basis, for
    checking `fields`: Phi_n from the Moebius product prod_{d | n}
    (x^d - 1)^mu(n/d), reduction by long division by Phi_n, and
    zeta -> zeta^k through zeta^n = 1.  Shares no code with `fields`."""

    def __init__(self, n: int):
        num, den = [1], [1]
        for d in range(1, n + 1):
            if n % d == 0 and _moebius(n // d):
                factor = [-1] + [0] * (d - 1) + [1]
                if _moebius(n // d) == 1:
                    num = _poly_mul(num, factor)
                else:
                    den = _poly_mul(den, factor)
        self.n, self.phi = n, _exact_quotient(num, den)
        self.degree = len(self.phi) - 1

    def reduce(self, poly) -> list:
        poly, d = [Fraction(c) for c in poly], self.degree
        for k in range(len(poly) - 1, d - 1, -1):
            c = poly[k]
            for j, pj in enumerate(self.phi):
                poly[k - d + j] -= c * pj
        return (poly + [Fraction(0)] * d)[:d]

    def add(self, a, b) -> list:
        return [x + y for x, y in zip(a, b)]

    def sub(self, a, b) -> list:
        return [x - y for x, y in zip(a, b)]

    def mul(self, a, b) -> list:
        return self.reduce(_poly_mul(a, b))

    def galois(self, a, k: int) -> list:
        poly = [Fraction(0)] * self.n
        for i, c in enumerate(a):
            poly[i * k % self.n] += c
        return self.reduce(poly)

    def one(self) -> list:
        return self.reduce([1])


def _moebius(m: int) -> int:
    sign, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def poly_at(coeffs, x: int) -> int:
    """The polynomial with ascending `coeffs` at x."""
    return sum(c * x**k for k, c in enumerate(coeffs))


def _poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_quotient(num, den) -> list:
    """num / den for a monic den dividing num, coefficients ascending."""
    num, d = list(num), len(den) - 1
    quot = [0] * (len(num) - d)
    for k in range(len(num) - 1, d - 1, -1):
        quot[k - d] = c = num[k]
        for j, dj in enumerate(den):
            num[k - d + j] -= c * dj
    assert not any(num[:d]), "the Moebius product left a remainder"
    return quot


def check_symplectic_all(group: MatrixGroup) -> bool:
    group._require_enumerated()
    omega = group.symplectic_form
    return all(g.transpose() * omega * g == omega for g in group.elements)


@pytest.fixture
def boolean3():
    return rational_arrangement(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.fixture
def braid3():
    return rational_arrangement(3, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])
