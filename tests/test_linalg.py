from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qdeg.cohomology import _is_zero_product
from qdeg.fields import QQ, PrimeField
from qdeg.linalg import matrix_rank


def _gauss_rank(rows, p):
    """Rank by textbook Gaussian elimination: Fractions over Q (p = 0),
    residues with modular inverses over F_p."""
    m = [[x % p if p else Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p) if p else 1 / m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv
            m[r] = [(x - f * y) % p if p else x - f * y
                    for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


_INT_ENTRIES = st.one_of(st.just(0), st.integers(-4, 4),
                         st.integers(-10 ** 12, 10 ** 12))
_FRACTION_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6))


@st.composite
def _matrices(draw, field, entries):
    """A matrix with planted zero rows and columns, duplicate rows and rows
    that are sums of other rows."""
    p = field.characteristic
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "copy", "sum"]),
                              max_size=3)):
        if kind == "zero" or not rows:
            rows.append([field.zero] * ncols)
        elif kind == "copy":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([(x + y) % p if p else x + y for x, y in zip(a, b)])
    if rows and draw(st.booleans()):
        col = draw(st.integers(0, ncols))
        for row in rows:
            row.insert(col, field.zero)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(rows=st.one_of(_matrices(QQ, _INT_ENTRIES),
                      _matrices(QQ, _FRACTION_ENTRIES)))
def test_rank_over_q_matches_gaussian_elimination(rows):
    assert matrix_rank(rows, QQ) == _gauss_rank(rows, 0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 7]))
def test_rank_over_fp_matches_gaussian_elimination(data, p):
    field = PrimeField(p)
    rows = data.draw(_matrices(field, st.integers(0, p - 1)))
    assert matrix_rank(rows, field) == _gauss_rank(rows, p)


def test_rank_of_empty_and_zero_matrices():
    for field in (QQ, PrimeField(7)):
        assert matrix_rank([], field) == 0
        assert matrix_rank([[]], field) == 0
        assert matrix_rank([[field.zero] * 3] * 2, field) == 0
    # integers outside 0..p-1 are read as their residues
    assert matrix_rank([[7, 14], [21, 0]], PrimeField(7)) == 0
    assert matrix_rank([[-1, 6], [1, 1]], PrimeField(7)) == 1
    assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], QQ) == 1


def _dense_product_is_zero(a, b, p):
    return all((sum(row[k] * b[k][c] for k in range(len(b))) % p if p else
                sum(row[k] * b[k][c] for k in range(len(b)))) == 0
               for row in a for c in range(len(b[0]) if b else 0))


_SIGNS = st.integers(-1, 1)


def _sign_matrix(nrows, ncols):
    return st.lists(st.lists(_SIGNS, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 5), st.integers(0, 5),
                                       st.integers(0, 5)),
       p=st.sampled_from([0, 2, 3]))
def test_zero_product_matches_dense_oracle(data, shape, p):
    r, k, c = shape
    a, b = data.draw(_sign_matrix(r, k)), data.draw(_sign_matrix(k, c))
    assert _is_zero_product(a, b, p) == _dense_product_is_zero(a, b, p)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 4),
                                       st.integers(1, 4)))
def test_zero_product_through_cancellation(data, shape):
    # [A | A] times [X ; -X] is A X - A X: zero, though its nonzero
    # products are not; one flipped sign in A can break the cancellation
    r, k, c = shape
    a, x = data.draw(_sign_matrix(r, k)), data.draw(_sign_matrix(k, c))
    wide = [row + row for row in a]
    stacked = x + [[-v for v in row] for row in x]
    assert _is_zero_product(wide, stacked, 0)
    assert _dense_product_is_zero(wide, stacked, 0)
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, k - 1))
    wide[i][j] = -wide[i][j]
    assert _is_zero_product(wide, stacked, 0) == _dense_product_is_zero(
        wide, stacked, 0)
    # over F_2 the sign never matters
    assert _is_zero_product(wide, stacked, 2)
