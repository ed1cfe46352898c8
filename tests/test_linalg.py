"""Exact linear algebra: frozen oracles plus rank-nullity properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (ReferenceRowSpace, ReferenceSubquotient, dense_add, dense_apply_row, dense_block_diag,
                     dense_kernel, dense_matmul, dense_rref, dense_scale, dense_solve,
                     dense_sub, dense_transpose, nonzero_entries)
from siltcheck.fields import PrimeField, RationalField, field_from_json
from siltcheck.linalg import (Cochains, Matrix, RowSpace, Subquotient, block_ranks,
                              first_independent, quotient_map, subquotient_from_maps)

Q = RationalField()
F101 = PrimeField(101)
F2 = PrimeField(2)


# -- fields ----------------------------------------------------------------


def test_prime_field_ops():
    assert F101.add(100, 5) == 4
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
# row, so rank 1 and left kernel spanned by (-2, 1).


def test_rank_oracle_rationals():
    M = Matrix.from_rows(Q, [[1, 2], [2, 4]])
    assert M.rank() == 1
    K = M.left_kernel()
    assert K.rows == ((Fraction(-2), Fraction(1)),)


def test_rank_oracle_mod2():
    # Oracle: over F_2, [[1,1],[1,1]] has R2 = R1: rank 1; left kernel = span (1,1).
    M = Matrix.from_rows(F2, [[1, 1], [1, 1]])
    assert M.rank() == 1
    assert M.left_kernel().rows == ((1, 1),)


def test_left_kernel_oracle_with_zero_rows():
    # Oracle: rows 0 and 2 are zero, row 3 is twice row 1, and row 1 is the
    # only pivot row; each kernel row is 1 at one non-pivot row
    M = Matrix.from_rows(Q, [[0, 0], [1, 2], [0, 0], [2, 4]])
    assert M.left_pivots() == (1,)
    assert M.left_kernel().rows == ((1, 0, 0, 0), (0, 0, 1, 0), (0, -2, 0, 1))


def test_solve_unique_and_inconsistent():
    # x @ A = (3, 1): x0 = 3, x0 + x1 = 1
    A = Matrix.from_rows(Q, [[1, 1], [0, 1]])
    x = A.solve_left_rows({0: Fraction(3), 1: Fraction(1)})
    assert x == {0: Fraction(3), 1: Fraction(-2)}
    assert A.apply_entries(x) == {0: 3, 1: 1}
    # inconsistent: the second coordinate is twice the first on every row
    A2 = Matrix.from_rows(Q, [[1, 2], [1, 2]])
    assert A2.solve_left_rows({0: Fraction(1), 1: Fraction(3)}) is None


def test_empty_shapes():
    Z = Matrix.zero(Q, 0, 3)
    assert Z.rank() == 0
    assert Z.left_kernel().nrows == 0 and Z.transpose().left_kernel().nrows == 3
    N = Matrix.zero(Q, 3, 0)
    assert (N.left_kernel(), N.transpose().left_kernel().nrows) == (Matrix.identity(Q, 3), 0)
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
    assert M.rank() + M.left_kernel().nrows == M.nrows
    assert M.rank() == M.transpose().rank()


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(Q, st.fractions(min_value=-9, max_value=9, max_denominator=9)))
def test_rank_nullity_rational(M):
    K = M.left_kernel()
    assert M.rank() + K.nrows == M.nrows
    assert (K @ M).is_zero()


@settings(max_examples=40, deadline=None)
@given(_matrix_strategy(F101, st.integers(-10, 10)), st.integers(0, 3))
def test_rref_idempotent_and_solve_roundtrip(M, seed):
    R, pivots = M.rref()
    R2, pivots2 = R.rref()
    assert R == R2 and pivots == pivots2
    # any row of M is solvable against M
    row = M.entries.get(seed % M.nrows, {})
    x = M.solve_left_rows(row)
    assert x is not None and M.apply_entries(x) == row


def test_rowspace_and_subquotient():
    rs = RowSpace(Matrix.from_rows(F101, [[1, 2, 3], [2, 4, 6], [0, 0, 7]]))
    assert rs.dim == 2 and rs.pivots == (0, 2)
    assert rs.rows == [{0: 1, 1: 2}, {2: 1}]
    assert rs.coords({0: 1, 1: 2, 2: 10}) == {0: 1, 1: 10}
    assert rs.coords({2: 5}) == {1: 5}
    assert RowSpace(Matrix.zero(F101, 0, 3)).dim == 0


def test_rowspace_residue_exact_with_out_of_order_pivots():
    # a later row whose pivot sits left of an earlier row's support must
    # still be fully eliminated from the reference's stored basis, or its
    # residue() is wrong; the one-shot RREF gives the same rows
    rs = ReferenceRowSpace(Q, 3)
    rs.add([0, 1, 1])
    rs.add([1, 1, 0])
    r = rs.residue([1, 2, 1])
    assert tuple(r) == (0, 0, 0)
    assert rs.contains([1, 2, 1])
    assert RowSpace(Matrix.from_rows(Q, [[0, 1, 1], [1, 1, 0]])).rows == [{0: 1, 2: -1},
                                                                        {1: 1, 2: 1}]
    rows = [[0, 0, 1, 5], [0, 1, 2, 0], [1, 3, 0, 0]]
    rs2 = ReferenceRowSpace(Q, 4)
    for row in rows:
        rs2.add(row)
    for v in ([1, 3, 1, 5], [1, 4, 2, 0], [1, 4, 3, 5]):
        assert tuple(rs2.residue(v)) == (0, 0, 0, 0)
    assert tuple(rs2.residue([0, 0, 0, 1])) == (0, 0, 0, 1)
    one_shot = RowSpace(Matrix.from_rows(Q, rows))
    assert one_shot.rows == [nonzero_entries(r) for r in rs2.rows]
    assert one_shot.coords({0: 1, 1: 4, 2: 3, 3: 5}) == {0: 1, 1: 4, 2: 3}

    # ambient F^3, cycles = {x3 = 0}, boundaries = span{(1,0,0)}
    sq = subquotient_from_maps(
        Matrix.from_rows(F101, [[1, 0, 0]]),
        Matrix.from_rows(F101, [[0], [0], [1]]),
        F101,
        3,
    )
    assert sq.dim == 1
    assert sq.reduce({0: 5, 1: 7}) == {0: 7}
    assert sq.reduce(sq.lift({0: 7})) == {0: 7}
    assert sq.reduce({0: 5}) == {}
    with pytest.raises(ValueError):
        sq.reduce({2: 1})  # not a cycle


def test_subquotient_zero_quotient():
    # boundaries fill the cycles: H = 0
    sq = Subquotient(F101, 2, Matrix.identity(F101, 2), Matrix.from_rows(F101, [(1, 0), (1, 1)]))
    assert sq.dim == 0
    assert sq.reduce({0: 1, 1: 1}) == {}


def test_whole_space_subquotients_make_no_elimination(monkeypatch):
    # all cycles and no boundaries: the standard basis with identity
    # coordinates, and a zero degree builds neither of its differentials
    def refuse(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(Matrix, "_echelon", refuse)
    for din, dout in ((None, None), (Matrix.zero(F101, 2, 3), Matrix.zero(F101, 3, 4))):
        sq = subquotient_from_maps(din, dout, F101, 3)
        assert (sq.rep_entries, sq.boundary_dim) == ([{0: 1}, {1: 1}, {2: 1}], 0)
        assert sq.reduce({0: 4, 2: 6}) == sq.lift({0: 4, 2: 6}) == {0: 4, 2: 6}

    class OneDegree(Cochains):
        def dim(self, n):
            return 2 if n == 0 else 0

        def diff(self, n):
            raise AssertionError("built a differential")

    C = OneDegree(F101, (-1, 1))
    assert (C.h_dim(-1), C.h_dim(1)) == (0, 0)


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
            x = M.solve_left_rows(nonzero_entries(v))
            oracle = dense_solve(field, dense_transpose(M.rows, M.ncols), M.nrows,
                                 [[a] for a in v], 1)
            in_span = Matrix(field, M.nrows + 1, M.ncols, list(M.rows) + [v]).rank() == rank
            assert (x is None) == (not in_span) == (oracle is None)
            if x is not None:
                assert x == nonzero_entries(r[0] for r in oracle)
                assert M.apply_entries(x) == nonzero_entries(v)


@settings(max_examples=80, deadline=None)
@given(_system_strategy(F101, st.integers(-3, 3)))
def test_factored_left_solve_matches_column_rref_prime(system):
    _check_left_solves(F101, *system)


@settings(max_examples=40, deadline=None)
@given(_system_strategy(Q, st.fractions(min_value=-3, max_value=3, max_denominator=3)))
def test_factored_left_solve_matches_column_rref_rational(system):
    _check_left_solves(Q, *system)


def test_second_left_solve_eliminates_nothing(monkeypatch):
    # the forward echelon is built once, by the first solve, and every later
    # solve, rank, pivot choice and rref reads it
    M = Matrix.from_rows(F101, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    builds = []
    echelon = Matrix._echelon

    def counting(self):
        if self._left is None:
            builds.append(self)
        return echelon(self)

    monkeypatch.setattr(Matrix, "_echelon", counting)
    assert M.solve_left_rows({0: 1, 1: 3, 2: 4}) == {0: 1, 2: 1}
    assert builds == [M]
    assert M.solve_left_rows({2: 1}) is None
    assert M.solve_left_rows({0: 2, 1: 5, 2: 7}) == {0: 2, 2: 1}
    assert (M.rank(), M.left_pivots(), M.rref()[1]) == (2, (0, 2), (0, 1))
    assert builds == [M]
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
    _holds(Matrix.block_diag(field, [A, B, E]),
           dense_block_diag(field, [(a, k), (b, c), (e, c)]), r + k + r, k + c + c)
    _holds(Matrix.zero(field, r, c), [[field.zero] * c] * r, r, c)
    _holds(Matrix.identity(field, k), dense_block_diag(field, [([[field.one]], 1)] * k), k, k)
    assert (A == C) == (a == cc)
    v = [field.coerce(x) for x in data.draw(st.lists(_values(field), min_size=r, max_size=r))]
    assert A.apply_entries(nonzero_entries(v)) == nonzero_entries(dense_apply_row(field, v, a, k))
    # c A + d C, and one term with coefficient 1 is the matrix itself
    cs = [field.coerce(x) for x in data.draw(st.lists(_values(field), min_size=2, max_size=2))]
    _holds(Matrix.combination(field, r, k, [(x, m) for x, m in zip(cs, (A, C)) if x]),
           dense_add(field, dense_scale(field, cs[0], a), dense_scale(field, cs[1], cc)), r, k)
    assert Matrix.combination(field, r, k, [(field.one, A)]) is A


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_elimination_matches_dense_reference(field, data):
    r, c, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _sparse(data, field, r, c)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        A = _sparse(data, field, r, m) @ _sparse(data, field, m, c)
    a = A.rows
    R, pivots = A.rref()
    want, want_pivots = dense_rref(field, a, c)
    _holds(R, want, r, c)
    assert pivots == want_pivots and A.rank() == len(pivots)
    _holds(A.transpose().left_kernel().transpose(), dense_kernel(field, a, c), c, c - len(pivots))
    # the left solve gives the answer the RREF of [Aᵀ | v] gives, free variables 0
    rhs = [(_sparse(data, field, 1, r) @ A).rows[0], _sparse(data, field, 1, c).rows[0]]
    for _ in range(2):
        for v in rhs:
            x = A.solve_left_rows(nonzero_entries(v))
            want = dense_solve(field, dense_transpose(a, c), r, [[y] for y in v], 1)
            assert x == (None if want is None else nonzero_entries(row[0] for row in want))


def _dense_left_kernel(field, a, nrows, ncols):
    """Rows of the basis of {x : x @ a = 0} that is 1 at one free position
    and 0 at the others, from the dense RREF of the transpose."""
    k = dense_kernel(field, dense_transpose(a, ncols), nrows)
    return dense_transpose(k, len(k[0]) if k else 0)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_left_kernel_matches_dense_reference(field, data):
    """The left kernel read off the forward echelon is the basis the dense
    RREF of the transpose gives, zero rows and rank-deficient products
    included, whether the echelon was built before or by the kernel."""
    r, c, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _sparse(data, field, r, c)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        A = _sparse(data, field, r, m) @ _sparse(data, field, m, c)
    if data.draw(st.booleans()):
        A.rank()
    K = A.left_kernel()
    want = _dense_left_kernel(field, A.rows, r, c)
    _holds(K, want, len(want), r)
    assert K.nrows + A.rank() == r and (K @ A).is_zero()


def test_subquotient_eliminates_dout_once(monkeypatch):
    # the rank and the cycles of dout read its one echelon, and no RREF is made
    def refuse(*args):
        raise AssertionError("made an RREF")

    builds = []
    echelon = Matrix._echelon

    def counting(self):
        if self._left is None:
            builds.append(self)
        return echelon(self)

    monkeypatch.setattr(Matrix, "rref", refuse)
    monkeypatch.setattr(Matrix, "_echelon", counting)
    # row 1 is twice row 0 and row 3 is zero; the boundary is e_1 - 2 e_0
    dout = Matrix.from_rows(F101, [[1, 2], [2, 4], [0, 1], [0, 0]])
    din = Matrix.from_rows(F101, [[-2, 1, 0, 0]])
    assert dout.rank() == 2
    sq = subquotient_from_maps(din, dout, F101, 4)
    assert (sq.rep_entries, sq.boundary_dim, sq.dim) == ([{3: 1}], 1, 1)
    assert sq.reduce({0: 99, 1: 1, 3: 5}) == {0: 5}
    assert sum(m is dout for m in builds) == 1


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_rref_spans_match_the_incremental_dense_span(field, data):
    """RowSpace from one rref has the rows, pivots and coordinates of the
    span built one row at a time, and quotient_map sends every vector to its
    residue modulo that span read at the free positions."""
    r, width, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _sparse(data, field, r, width)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        A = _sparse(data, field, r, m) @ _sparse(data, field, m, width)
    want = ReferenceRowSpace(field, width)
    for row in A.rows:
        want.add(row)
    got = RowSpace(A)
    assert got.rows == [nonzero_entries(r) for r in want.rows]
    assert got.pivots == tuple(want.pivots) and got.dim == want.dim
    free, proj = quotient_map(field, width, [A.entries.get(i, {}) for i in range(r)])
    assert free == tuple(j for j in range(width) if j not in want.pivots)
    assert (proj.nrows, proj.ncols) == (width, len(free))
    for v in (_sparse(data, field, 1, r) @ A).rows + _sparse(data, field, 2, width).rows:
        assert got.coords(nonzero_entries(v)) == nonzero_entries(want.coords(v))
        residue = want.residue(v)
        assert proj.apply_entries(nonzero_entries(v)) == nonzero_entries(residue[j] for j in free)
        if want.contains(v):
            assert got.matrix.apply_entries(got.coords(nonzero_entries(v))) == nonzero_entries(v)


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_subquotient_matches_the_greedy_dense_passes(field, data):
    """ker dout / im din from one elimination of [boundaries; cycles] picks
    the representatives, the boundary rank and the class coordinates that the
    two greedy RowSpace passes over dense rows pick."""
    width, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    dout = _sparse(data, field, width, k)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        dout = _sparse(data, field, width, m) @ _sparse(data, field, m, k)
    cycles = Matrix.from_rows(field, _dense_left_kernel(field, dout.rows, width, k), width)
    # boundaries: random combinations of cycles, redundant rows included
    din = _sparse(data, field, data.draw(st.integers(0, 4)), cycles.nrows) @ cycles
    assert (din @ dout).is_zero()
    for args in ((din, dout), (None, dout), (din, None), (None, None)):
        got = subquotient_from_maps(*args, field, width)
        cyc = cycles if args[1] is not None else Matrix.identity(field, width)
        want = ReferenceSubquotient(field, width, cyc.rows,
                                    args[0].rows if args[0] is not None else [])
        assert got.rep_entries == [nonzero_entries(r) for r in want.reps]
        assert (got.boundary_dim, got.dim) == (want.boundary_dim, want.dim)
        for v in (_sparse(data, field, 1, cyc.nrows) @ cyc).rows + cyc.rows[:2]:
            assert got.reduce(nonzero_entries(v)) == nonzero_entries(want.reduce(v))
            assert got.lift(got.reduce(nonzero_entries(v))) == nonzero_entries(want.lift(want.reduce(v)))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forward_echelon_pivots_solves_and_rank(field, data):
    """The one echelon of a matrix's rows: its pivot rows are the rows that
    enlarge the span fed in order, its rank is the RREF's, and a solve
    against it lies on the pivot rows and fails exactly off the span."""
    r, c, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = _sparse(data, field, r, c)
    if data.draw(st.booleans()):       # rank-deficient through m inner columns
        A = _sparse(data, field, r, m) @ _sparse(data, field, m, c)
    span = ReferenceRowSpace(field, c)
    grew = [i for i, row in enumerate(A.rows) if span.add(row)]
    assert A.left_pivots() == tuple(grew)
    R, pivots = A.rref()
    assert A.rank() == len(pivots) == span.dim
    _holds(R, dense_rref(field, A.rows, c)[0], r, c)
    rhs = [*(_sparse(data, field, 1, r) @ A).rows, *_sparse(data, field, 2, c).rows,
           *(row for row in A.rows if data.draw(st.booleans()))]
    for v in rhs:
        x = A.solve_left_rows(nonzero_entries(v))
        assert (x is None) == (not span.contains(v))
        if x is not None:
            assert set(x) <= set(grew)
            assert A.apply_entries(x) == nonzero_entries(v)


@pytest.mark.parametrize("field", [F101, Q], ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_first_independent_matches_the_running_span(field, data):
    """A stack is chosen exactly when its first row lies outside the span of
    every row of every earlier stack, that span kept one row at a time;
    stacks mix fresh, repeated and zero rows, one-row stacks included."""
    width = data.draw(st.integers(0, 4))
    drawn, stacks = [], []
    for _ in range(data.draw(st.integers(0, 6))):
        stack = []
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(["fresh", "fresh", "repeat", "zero"]))
            if kind == "repeat" and drawn:
                row = data.draw(st.sampled_from(drawn))
            elif kind == "zero":
                row = (field.zero,) * width
            else:
                row = _sparse(data, field, 1, width).rows[0] if width else ()
            drawn.append(row)
            stack.append(row)
        stacks.append(stack)
    span, want = ReferenceRowSpace(field, width), []
    for t, stack in enumerate(stacks):
        if not span.contains(stack[0]):
            want.append(t)
        for row in stack:
            span.add(row)
    got = first_independent(field, width, [[nonzero_entries(r) for r in stack]
                                           for stack in stacks])
    assert got == want


def test_first_independent_skips_covered_and_zero_first_rows():
    e0, e1, e2 = {0: 1}, {1: 1}, {2: 1}
    stacks = [[e0], [{}, e1], [{0: 2}], [e2, e1], [{0: 1, 2: 1}], [e1]]
    # a zero first row, and first rows in the span of earlier stacks' rows
    # (e1 from the orbit of a skipped stack included), are skipped
    assert first_independent(F101, 3, stacks) == [0, 3]
    assert first_independent(F101, 3, [[e2], [e2], [e1, e2]]) == [0, 2]
    assert first_independent(F101, 0, [[{}], [{}, {}]]) == []


@pytest.mark.parametrize("field", [F101, Q], ids=repr)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_ranks_count_each_blocks_own_rank(field, data):
    """A block-diagonal matrix whose rows and columns interleave across the
    blocks: the pivot rows labelled t count the rank of block t on its own,
    by dense Gauss-Jordan, and one entry outside its block is refused."""
    count = data.draw(st.integers(1, 3))
    blocks = [_sparse(data, field, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
              for _ in range(count)]
    row_blocks = data.draw(st.permutations([t for t, b in enumerate(blocks)
                                            for _ in range(b.nrows)]))
    col_blocks = data.draw(st.permutations([t for t, b in enumerate(blocks)
                                            for _ in range(b.ncols)]))
    # row i of block t is the i-th row labelled t, and so for columns
    row_at = [[r for r, u in enumerate(row_blocks) if u == t] for t in range(count)]
    col_at = [[c for c, u in enumerate(col_blocks) if u == t] for t in range(count)]
    entries = {row_at[t][i]: {col_at[t][j]: x for j, x in nz.items()}
               for t, b in enumerate(blocks) for i, nz in b.entries.items()}
    M = Matrix.from_entries(field, len(row_blocks), len(col_blocks), entries)
    want = [len(dense_rref(field, b.rows, b.ncols)[1]) for b in blocks]
    assert block_ranks(M, row_blocks, col_blocks, count) == want
    assert sum(want) == M.rank()
    outside = [(r, c) for r, u in enumerate(row_blocks) for c, v in enumerate(col_blocks)
               if u != v]
    if outside:
        r, c = data.draw(st.sampled_from(outside))
        bad = dict(entries)
        bad[r] = {**entries.get(r, {}), c: field.one}
        with pytest.raises(ValueError):
            block_ranks(Matrix.from_entries(field, M.nrows, M.ncols, bad),
                        row_blocks, col_blocks, count)


def test_block_ranks_reads_interleaved_blocks():
    # rows 0 and 2 form block 0 (rank 1: row 2 is twice row 0), rows 1 and
    # 3 block 1 (rank 2); columns 1 and 2 are block 0, columns 0 and 3 block 1
    M = Matrix.from_rows(F101, [[0, 1, 2, 0], [1, 0, 0, 0], [0, 2, 4, 0], [0, 0, 0, 5]])
    assert block_ranks(M, [0, 1, 0, 1], [1, 0, 0, 1], 3) == [1, 2, 0]
    with pytest.raises(ValueError):
        block_ranks(M, [0, 1, 0, 1], [0, 0, 1, 1], 2)
