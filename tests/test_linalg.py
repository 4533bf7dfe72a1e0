import random

from hypothesis import given, settings, strategies as st

from conftest import from_rationals, identity, inverse, kernel_basis, matmul

from oscount.fields import cyclotomic_field, rational_field
from oscount.linalg import rank_of_rows, rref_rows

QQ = rational_field()
Q3 = cyclotomic_field(3)


def qmat(rows):
    return from_rationals(QQ, rows)


def test_rref_identity_fixed():
    m = identity(QQ, 3)
    reduced, pivots = rref_rows(m)
    assert reduced == m and pivots == (0, 1, 2)


def test_rref_dependent_rows():
    m = qmat([[1, 1], [2, 2]])
    reduced, pivots = rref_rows(m)
    assert len(reduced) == 1 and pivots == (0,)  # the zero row is dropped
    assert reduced[0] == (QQ.one(), QQ.one())


def test_g4_normals_rank_two_with_determinant_oracle():
    # any two of the three normals (1,1), (w,w^2), (w^2,w) are independent
    w = Q3.zeta()
    one = Q3.one()
    normals = [(one, one), (w, w * w), (w * w, w)]
    assert rank_of_rows(normals) == 2
    for i in range(3):
        for j in range(i + 1, 3):
            a, b = normals[i], normals[j]
            det = a[0] * b[1] - a[1] * b[0]
            assert not det.is_zero()
            assert rank_of_rows([a, b]) == 2


def test_rref_is_canonical_under_row_mixing():
    rng = random.Random(7)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [
            [QQ.from_rational(rng.randint(-3, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        # add a random multiple of one row to another (row space unchanged)
        if nrows >= 2:
            i, j = rng.sample(range(nrows), 2)
            c = QQ.from_rational(rng.randint(-2, 2))
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert rref_rows(rows) == rref_rows(mixed)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_rank_equals_rank_of_transpose(nrows, ncols, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=nrows * ncols,
            max_size=nrows * ncols,
        )
    )
    rows = [entries[i * ncols : (i + 1) * ncols] for i in range(nrows)]
    m = qmat(rows)
    assert rank_of_rows(m) == rank_of_rows(tuple(zip(*m)))


def test_inverse_and_kernel():
    m = qmat([[2, 1], [1, 1]])
    assert matmul(m, inverse(m)) == identity(QQ, 2)
    k = qmat([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(k)
    assert len(basis) == 2
    for vec in basis:
        for row in k:
            acc = QQ.zero()
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero()
