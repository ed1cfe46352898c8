"""Exact linear algebra: frozen oracles plus rank-nullity properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_add, dense_apply_row, dense_block_diag, dense_kernel,
                     dense_matmul, dense_rref, dense_scale, dense_solve, dense_sub,
                     dense_transpose)
from siltcheck.fields import PrimeField, RationalField, field_from_json
from siltcheck.linalg import Matrix, RowSpace, Subquotient, subquotient_from_maps

Q = RationalField()
F101 = PrimeField(101)
F2 = PrimeField(2)


# -- fields ----------------------------------------------------------------


def test_prime_field_ops():
    assert F101.add(100, 5) == 4
    assert F101.mul(51, 2) == 1
    assert F101.inv(2) == 51
    assert F101.coerce("1/2") == 51
    assert F101.coerce(-1) == 100
    with pytest.raises(ZeroDivisionError):
        F101.inv(0)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_rational_field_ops():
    # lowest-terms normalization is Fraction's contract; spot-check it anyway
    assert Q.coerce("2/4") == Fraction(1, 2)
    assert Q.to_json(Fraction(3, 1)) == 3
    assert Q.to_json(Fraction(-1, 3)) == "-1/3"
    assert field_from_json("rational") == Q
    assert field_from_json({"prime": 101}) == F101


# -- frozen elimination oracles -------------------------------------------
# Oracle: row reduction by hand.  [[1,2],[2,4]]: R2 <- R2 - 2 R1 gives a zero
# row, so rank 1 and kernel spanned by (-2, 1).


def test_rank_oracle_rationals():
    M = Matrix.from_rows(Q, [[1, 2], [2, 4]])
    assert M.rank() == 1
    K = M.kernel_basis()
    assert K.ncols == 1
    assert [r[0] for r in K.rows] == [Fraction(-2), Fraction(1)]


def test_rank_oracle_mod2():
    # Oracle: over F_2, [[1,1],[1,1]] has R2 = R1: rank 1; kernel = span (1,1).
    M = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert M.rank() == 1
    K = M.kernel_basis()
    assert K.ncols == 1 and [r[0] for r in K.rows] == [1, 1]


def test_solve_unique_and_inconsistent():
    A = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    B = Matrix.from_rows(Q, [[3], [1]])
    X = A.solve_matrix(B)
    assert A @ X == B
    assert [r[0] for r in X.rows] == [Fraction(2), Fraction(1)]
    # inconsistent: second equation contradicts the first
    A2 = Matrix.from_rows(Q, [[1, 1], [2, 2]])
    B2 = Matrix.from_rows(Q, [[1], [3]])
    assert A2.solve_matrix(B2) is None


def test_empty_shapes():
    Z = Matrix.zero(Q, 0, 3)
    assert Z.rank() == 0
    assert Z.kernel_basis().ncols == 3
    N = Matrix.zero(Q, 3, 0)
    assert N.kernel_basis().ncols == 0
    assert (Z @ N).nrows == 0 and (Z @ N).ncols == 0
    assert (N @ Z).nrows == 3 and (N @ Z).is_zero()
    assert Matrix.identity(Q, 0).rank() == 0


def test_exactness_no_drift():
    # 1/3 * 3 == 1 exactly; this is the reason floats are banned
    M = Matrix.from_rows(Q, [["1/3"]])
    P = M
    for _ in range(30):
        P = P @ M
    assert P.rows[0][0] == Fraction(1, 3**31)
    assert P.scale(3**31).rows[0][0] == 1


# -- properties ------------------------------------------------------------


def _matrix_strategy(field, coerce_domain):
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(coerce_domain, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(field, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy(F101, st.integers(-50, 50)))
def test_rank_nullity_prime(M):
    assert M.rank() + M.kernel_basis().ncols == M.ncols
    assert M.rank() == M.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(Q, st.fractions(min_value=-9, max_value=9, max_denominator=9)))
def test_rank_nullity_rational(M):
    K = M.kernel_basis()
    assert M.rank() + K.ncols == M.ncols
    assert (M @ K).is_zero()


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(F101, st.integers(-10, 10)), st.integers(0, 3))
def test_rref_idempotent_and_solve_roundtrip(M, seed):
    R, pivots = M.rref()
    R2, pivots2 = R.rref()
    assert R == R2 and pivots == pivots2
    # any column of M is solvable against M
    col = Matrix(F101, M.nrows, 1, [(r[seed % M.ncols],) for r in M.rows])
    X = M.solve_matrix(col)
    assert X is not None and M @ X == col


def test_rowspace_and_subquotient():
    rs = RowSpace(F101, 3)
    assert rs.add([1, 2, 3])
    assert not rs.add([2, 4, 6])
    assert rs.add([0, 0, 7]) and rs.dim == 2
    assert rs.contains([1, 2, 10])


def test_rowspace_residue_exact_with_out_of_order_pivots():
    # a later row whose pivot sits left of an earlier row's support must still
    # be fully eliminated from the stored basis, or residue() is wrong
    rs = RowSpace(Q, 3)
    rs.add([0, 1, 1])
    rs.add([1, 1, 0])
    r = rs.residue([1, 2, 1])
    assert tuple(r) == (0, 0, 0)
    assert rs.contains([1, 2, 1])
    rs2 = RowSpace(Q, 4)
    rs2.add([0, 0, 1, 5])
    rs2.add([0, 1, 2, 0])
    rs2.add([1, 3, 0, 0])
    for v in ([1, 3, 1, 5], [1, 4, 2, 0], [1, 4, 3, 5]):
        assert tuple(rs2.residue(v)) == (0, 0, 0, 0)
    assert tuple(rs2.residue([0, 0, 0, 1])) == (0, 0, 0, 1)

    # ambient F^3, cycles = {x3 = 0}, boundaries = span{(1,0,0)}
    sq = subquotient_from_maps(
        Matrix.from_rows(F101, [[1, 0, 0]]),
        Matrix.from_rows(F101, [[0], [0], [1]]),
        F101,
        3,
    )
    assert sq.dim == 1
    assert sq.reduce([5, 7, 0]) == (7,)
    assert sq.reduce(sq.lift((7,))) == (7,)
    with pytest.raises(ValueError):
        sq.reduce([0, 0, 1])  # not a cycle


def test_subquotient_zero_quotient():
    # boundaries fill the cycles: H = 0
    sq = Subquotient(F101, 2, [(1, 0), (0, 1)], [(1, 0), (1, 1)])
    assert sq.dim == 0
    assert sq.reduce([1, 1]) == ()


# -- factored left solves ----------------------------------------------------


def _system_strategy(field, entries):
    """(M, [(v, consistent?)]): M of shape 0..4 x 0..4, often rank-deficient
    as a product through 0..3 inner columns, with right-hand sides drawn both
    from the row space (y @ M) and at random."""
    def build(shape):
        r, c, k, low_rank = shape

        def rows(n, m):
            return st.lists(st.lists(entries, min_size=m, max_size=m),
                            min_size=n, max_size=n).map(
                lambda rs: Matrix.from_rows(field, rs, m))
        if low_rank:
            mats = st.tuples(rows(r, k), rows(k, c)).map(lambda lr: lr[0] @ lr[1])
        else:
            mats = rows(r, c)
        ys = st.lists(st.lists(entries, min_size=r, max_size=r), min_size=1, max_size=3)
        vs = st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=3)
        return st.tuples(mats, ys, vs)
    return st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3),
                     st.booleans()).flatmap(build)


def _check_left_solves(field, M, ys, vs):
    rhs = [(Matrix.from_rows(field, [y], M.nrows) @ M).rows[0] for y in ys]
    rhs += [tuple(field.coerce(a) for a in v) for v in vs]
    rank = M.rank()
    for _ in range(2):      # the second pass replays the recorded elimination
        for v in rhs:
            x = M.solve_left_rows(v)
            col = Matrix(field, len(v), 1, [(a,) for a in v])
            oracle = M.transpose().solve_matrix(col)
            in_span = M.vstack(Matrix(field, 1, M.ncols, [v])).rank() == rank
            assert (x is None) == (not in_span) == (oracle is None)
            if x is not None:
                assert x == tuple(r[0] for r in oracle.rows)
                assert Matrix(field, 1, M.nrows, [x]) @ M == Matrix(field, 1, M.ncols, [v])


@settings(max_examples=80, deadline=None)
@given(_system_strategy(F101, st.integers(-3, 3)))
def test_factored_left_solve_matches_column_rref_prime(system):
    _check_left_solves(F101, *system)


@settings(max_examples=40, deadline=None)
@given(_system_strategy(Q, st.fractions(min_value=-3, max_value=3, max_denominator=3)))
def test_factored_left_solve_matches_column_rref_rational(system):
    _check_left_solves(Q, *system)


def test_second_left_solve_eliminates_nothing(monkeypatch):
    M = Matrix.from_rows(F101, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    calls = []
    rref = Matrix.rref

    def counting(self, *args, **kwargs):
        calls.append(self)
        return rref(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "rref", counting)
    assert M.solve_left_rows((1, 3, 4)) == (1, 0, 1)
    assert len(calls) == 1
    assert M.solve_left_rows((0, 0, 1)) is None
    assert M.solve_left_rows((2, 5, 7)) == (2, 0, 1)
    assert len(calls) == 1
    # the cached factor is not part of the matrix's value
    assert M == Matrix.from_rows(F101, M.rows) and hash(M) == hash(Matrix.from_rows(F101, M.rows))


# -- sparse storage against the dense reference ------------------------------
# Real runs are mostly zeros: zero rows, all-zero matrices, 0 x n and n x 0
# shapes.  These strategies draw a density per matrix, zero and low densities
# favoured, and every Matrix operation is checked against the dense reference
# in oracles.py over F_101, F_2 and Q.

SPARSE_FIELDS = [F101, F2, Q]


def _values(field):
    if field is Q:
        return st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    return st.integers(-300, 300)


def _sparse(data, field, nrows, ncols):
    density = data.draw(st.sampled_from([0, 1, 1, 2, 5, 10]))
    cell = st.tuples(st.integers(0, 9), _values(field)).map(
        lambda t: t[1] if t[0] < density else 0)
    rows = data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    return Matrix.from_rows(field, rows, ncols)


def _check_storage(M):
    """Only nonzero rows and entries are stored, in range and canonical."""
    p = getattr(M.field, "p", None)
    for i, nz in M.entries.items():
        assert 0 <= i < M.nrows and nz
        for j, x in nz.items():
            assert 0 <= j < M.ncols
            if p is None:
                assert type(x) is Fraction and x != 0
            else:
                assert type(x) is int and 0 < x < p


def _holds(M, rows, nrows, ncols):
    """M is the reference matrix rows, stored canonically; the same matrix
    built from dense rows is equal with an equal hash, and .rows round-trips."""
    _check_storage(M)
    assert (M.nrows, M.ncols) == (nrows, ncols)
    assert M.rows == tuple(tuple(r) for r in rows)
    D = Matrix(M.field, nrows, ncols, rows)
    _check_storage(D)
    assert M == D and hash(M) == hash(D)
    assert M.is_zero() == all(x == M.field.zero for r in rows for x in r)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_algebra_matches_dense_reference(field, data):
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    A, C = _sparse(data, field, r, k), _sparse(data, field, r, k)
    B, E = _sparse(data, field, k, c), _sparse(data, field, r, c)
    a, b, cc, e = A.rows, B.rows, C.rows, E.rows
    s = data.draw(_values(field))
    _holds(A @ B, dense_matmul(field, a, b, c), r, c)
    _holds(A + C, dense_add(field, a, cc), r, k)
    _holds(A - C, dense_sub(field, a, cc), r, k)
    _holds(-A, dense_scale(field, -1, a), r, k)
    _holds(A.scale(field.coerce(s)), dense_scale(field, s, a), r, k)
    _holds(A.transpose(), dense_transpose(a, k), k, r)
    _holds(A.hstack(E), [list(x) + list(y) for x, y in zip(a, e)], r, k + c)
    _holds(A.vstack(C), list(a) + list(cc), 2 * r, k)
    _holds(Matrix.block_diag(field, [A, B, E]),
           dense_block_diag(field, [(a, k), (b, c), (e, c)]), r + k + r, k + c + c)
    _holds(Matrix.zero(field, r, c), [[field.zero] * c] * r, r, c)
    _holds(Matrix.identity(field, k), dense_block_diag(field, [([[field.one]], 1)] * k), k, k)
    assert (A == C) == (a == cc)
    v = [field.coerce(x) for x in data.draw(st.lists(_values(field), min_size=r, max_size=r))]
    assert A.apply_row(v) == tuple(dense_apply_row(field, v, a, k))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_dense_reference(field, data):
    r, c, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _sparse(data, field, r, c)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        A = _sparse(data, field, r, m) @ _sparse(data, field, m, c)
    a = A.rows
    ops = []
    R, pivots = A.rref(ops)
    want, want_pivots, want_ops = dense_rref(field, a, c)
    _holds(R, want, r, c)
    assert pivots == want_pivots and ops == want_ops and A.rank() == len(pivots)
    _holds(A.kernel_basis(), dense_kernel(field, a, c), c, c - len(pivots))
    for B in (A @ _sparse(data, field, c, 2), _sparse(data, field, r, 2)):
        X, want = A.solve_matrix(B), dense_solve(field, a, c, B.rows, 2)
        assert (X is None) == (want is None)
        if X is not None:
            _holds(X, want, c, 2)
    # the left solve replays the op record of rref(Aᵀ) on each right-hand side
    rhs = [(_sparse(data, field, 1, r) @ A).rows[0], _sparse(data, field, 1, c).rows[0]]
    for _ in range(2):
        for v in rhs:
            x = A.solve_left_rows(v)
            want = dense_solve(field, dense_transpose(a, c), r, [[y] for y in v], 1)
            assert x == (None if want is None else tuple(row[0] for row in want))
