"""Exact linear algebra over a PrimeField or RationalField, stored sparse.

Everything downstream funnels through this module: ranks, kernels, solves,
echelon bases of spans, quotient maps and subquotient bookkeeping, and the
Cochains base that every graded class reads its cohomology from.  A Matrix
keeps only its nonzero entries, so products, sums, stacking and elimination
walk nonzeros alone; the dense row view stays available for callers that
read rows.  A vector, an algebra element included, is its nonzero entries
{index: entry}, the form apply_entries (the row action), solve_left_rows,
Subquotient.reduce and Subquotient.lift take and return.  Matrix.rref is
the one elimination: every span, kernel, solve, quotient and subquotient,
and every greedy choice of independent rows (Matrix.left_pivots), reads it.
Pivoting is deterministic (first nonzero entry in row order), so every basis
produced here is reproducible run to run.

Convention used by callers throughout the package: module elements are ROW
vectors and linear maps act on the right (x |-> x @ M), so composition of maps
is the left-to-right matrix product.  This module itself is convention-neutral:
kernel_basis gives the column kernel, and a row kernel is the column kernel of
the transpose.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Matrix:
    """Immutable matrix over an exact field, stored as its nonzero entries.

    entries maps the index of each nonzero row to a dict {column: entry} of
    that row's nonzero entries.  Zero rows and zero entries are never stored,
    entries are canonical field elements (ints in [0, p), or Fractions), and
    the row dicts are shared between matrices and never mutated, so equality
    and hashing read the entries alone.  rows is a read-only dense view, a
    tuple of row tuples: kept when the matrix was built from dense rows,
    otherwise built on first use.  The kernels add and multiply natively and
    reduce each finished row once with field.reduce_entries.

    _left caches the elimination behind solve_left_rows: filled by the first
    solve, replayed by every later one, and not part of equality or hashing.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "_rows", "_left")

    def __init__(self, field, nrows: int, ncols: int, rows):
        rows = tuple(map(tuple, rows))
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"shape mismatch: expected {nrows}x{ncols}")
        entries = {i: {j: x for j, x in enumerate(r) if x}
                   for i, r in enumerate(rows) if any(r)}
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries = entries
        self._rows = rows
        self._left = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_entries(field, nrows: int, ncols: int, entries: dict) -> "Matrix":
        """The matrix with the given {row: {column: entry}} nonzero entries.

        The caller guarantees the storage invariants of the class docstring:
        indices in range, no empty row dict, every entry nonzero and
        canonical.  The dicts are taken over, not copied.
        """
        m = object.__new__(Matrix)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.entries = entries
        m._rows = None
        m._left = None
        return m

    @staticmethod
    def from_row_entries(field, ncols: int, rows: Sequence[dict]) -> "Matrix":
        """The matrix whose row i has the nonzero entries rows[i]
        ({column: entry}, empty for a zero row), under the storage invariants
        of from_entries; the dicts are taken over."""
        return Matrix.from_entries(field, len(rows), ncols,
                                   {i: r for i, r in enumerate(rows) if r})

    @staticmethod
    def from_rows(field, rows: Sequence[Sequence], ncols: int | None = None) -> "Matrix":
        rows = [tuple(field.coerce(x) for x in r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        return Matrix(field, len(rows), ncols, rows)

    @staticmethod
    def zero(field, nrows: int, ncols: int) -> "Matrix":
        return Matrix.from_entries(field, nrows, ncols, {})

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        one = field.one
        return Matrix.from_entries(field, n, n, {i: {i: one} for i in range(n)})

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            blank = (self.field.zero,) * self.ncols
            out = []
            for i in range(self.nrows):
                nz = self.entries.get(i)
                if nz is None:
                    out.append(blank)
                else:
                    r = list(blank)
                    for j, x in nz.items():
                        r[j] = x
                    out.append(tuple(r))
            rows = self._rows = tuple(out)
        return rows

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols,
                     frozenset((i, j, x) for i, nz in self.entries.items()
                               for j, x in nz.items())))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def is_zero(self) -> bool:
        return not self.entries

    def _plus(self, other: "Matrix", c) -> "Matrix":
        """self + c * other for c = 1 or -1."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        reduce = self.field.reduce_entries
        out = dict(self.entries)
        for i, nz in other.entries.items():
            base = out.get(i)
            if base is None:
                out[i] = nz if c == 1 else reduce({j: c * x for j, x in nz.items()})
                continue
            acc = dict(base)
            for j, x in nz.items():
                acc[j] = acc.get(j, 0) + c * x
            acc = reduce(acc)
            if acc:
                out[i] = acc
            else:
                del out[i]
        return Matrix.from_entries(self.field, self.nrows, self.ncols, out)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        reduce = self.field.reduce_entries
        out = {}
        for i, nz in self.entries.items():
            r = reduce({j: c * x for j, x in nz.items()})
            if r:
                out[i] = r
        return Matrix.from_entries(self.field, self.nrows, self.ncols, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        reduce = self.field.reduce_entries
        right = other.entries
        out = {}
        for i, nz in self.entries.items():
            if len(nz) == 1:
                # a row with one nonzero entry a at k picks out a times row k
                (k, a), = nz.items()
                r = right.get(k)
                if r is not None:
                    out[i] = r if a == 1 else reduce({j: a * b for j, b in r.items()})
                continue
            acc = {}
            for k, a in nz.items():
                r = right.get(k)
                if r is not None:
                    for j, b in r.items():
                        acc[j] = acc.get(j, 0) + a * b
            if acc:
                acc = reduce(acc)
                if acc:
                    out[i] = acc
        return Matrix.from_entries(self.field, self.nrows, other.ncols, out)

    def transpose(self) -> "Matrix":
        out: dict = {}
        for i, nz in self.entries.items():
            for j, x in nz.items():
                col = out.get(j)
                if col is None:
                    out[j] = {i: x}
                else:
                    col[i] = x
        return Matrix.from_entries(self.field, self.ncols, self.nrows, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack: row count mismatch")
        nc = self.ncols
        out = dict(self.entries)
        for i, nz in other.entries.items():
            right = {j + nc: x for j, x in nz.items()}
            left = out.get(i)
            out[i] = {**left, **right} if left is not None else right
        return Matrix.from_entries(self.field, self.nrows, nc + other.ncols, out)

    @staticmethod
    def combination(field, nrows: int, ncols: int, terms: Iterable) -> "Matrix":
        """The sum of c * M over the (c, M) pairs of terms, all nrows x ncols
        with c nonzero; one term with c = 1 is M itself, not a copy."""
        terms = list(terms)
        if len(terms) == 1 and terms[0][0] == field.one:
            return terms[0][1]
        acc: dict = {}
        for c, m in terms:
            for i, nz in m.entries.items():
                row = acc.setdefault(i, {})
                for j, x in nz.items():
                    row[j] = row.get(j, 0) + c * x
        reduce = field.reduce_entries
        return Matrix.from_entries(field, nrows, ncols,
                                   {i: r for i, row in acc.items() if (r := reduce(row))})

    @staticmethod
    def block_diag(field, blocks: Iterable["Matrix"]) -> "Matrix":
        out = {}
        r0 = c0 = 0
        for b in blocks:
            for i, nz in b.entries.items():
                out[r0 + i] = {c0 + j: x for j, x in nz.items()} if c0 else nz
            r0 += b.nrows
            c0 += b.ncols
        return Matrix.from_entries(field, r0, c0, out)

    def apply_entries(self, v: dict) -> dict:
        """v |-> v @ self for v given as its nonzero entries {row: entry},
        the result as its nonzero entries {column: entry}."""
        ents = self.entries
        acc = {}
        for i, a in v.items():
            nz = ents.get(i)
            if nz is not None:
                for j, b in nz.items():
                    acc[j] = acc.get(j, 0) + a * b
        return self.field.reduce_entries(acc)

    # -- elimination -------------------------------------------------------

    def rref(self, ops: list | None = None) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        If ops is a list, one entry (selected row, inverse of the pivot,
        [(row, multiplier) eliminated]) is appended per pivot, so the same
        row operations can be replayed on another column.  Elimination never
        adds a column to the union of the rows' supports, so only the columns
        in it are searched for pivots.
        """
        f = self.field
        reduce = f.reduce_entries
        n = self.nrows
        rows = [self.entries.get(i, {}) for i in range(n)]
        pivots = []
        prow = 0
        for col in sorted({j for nz in self.entries.values() for j in nz}):
            if prow == n:
                break
            sel = None
            for i in range(prow, n):
                if col in rows[i]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[prow], rows[sel] = rows[sel], rows[prow]
            inv = f.inv(rows[prow][col])
            piv = rows[prow] = reduce({j: inv * x for j, x in rows[prow].items()})
            elims = []
            for i in range(n):
                c = rows[i].get(col)
                if c is not None and i != prow:
                    acc = dict(rows[i])
                    for j, x in piv.items():
                        acc[j] = acc.get(j, 0) - c * x
                    rows[i] = reduce(acc)
                    elims.append((i, c))
            if ops is not None:
                ops.append((sel, inv, elims))
            pivots.append(col)
            prow += 1
        out = {i: nz for i, nz in enumerate(rows) if nz}
        return Matrix.from_entries(f, n, self.ncols, out), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of {x : self @ x = 0}."""
        return self._free_kernel()[1]

    def _free_kernel(self) -> tuple:
        """The free (non-pivot) columns of the RREF, and the kernel basis
        whose k-th column is 1 at the k-th free column and 0 at the others.

        Asserts rank-nullity before returning.
        """
        f = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = {j: k for k, j in enumerate(j for j in range(self.ncols) if j not in pivset)}
        out = {j: {k: f.one} for j, k in free.items()}
        for prow, pcol in enumerate(pivots):
            # an RREF pivot row is zero at every other pivot column
            nz = {free[j]: f.neg(x) for j, x in R.entries[prow].items() if j != pcol}
            if nz:
                out[pcol] = nz
        ker = Matrix.from_entries(f, self.ncols, len(free), out)
        assert len(pivots) + ker.ncols == self.ncols, "rank-nullity violated"
        return tuple(free), ker

    def left_pivots(self) -> tuple[int, ...]:
        """Indices of the rows that are independent of the rows before them,
        in order: the pivots of rref(selfᵀ).  Its row operations are recorded
        on the first call, for solve_left_rows to replay."""
        if self._left is None:
            ops: list = []
            _, pivots = self.transpose().rref(ops)
            self._left = (ops, pivots)
        return self._left[1]

    def solve_left_rows(self, v: dict) -> dict | None:
        """x with x @ self = v, or None, both as their nonzero entries
        {index: entry}.  Free variables are set to 0.

        The row operations of rref(selfᵀ) are recorded on the first call and
        replayed on v by every call; the pivots of selfᵀ never depend on v,
        so the answer is the one the RREF of [selfᵀ | v] gives.
        """
        f = self.field
        zero, mul, sub = f.zero, f.mul, f.sub
        w = [zero] * self.ncols
        for j, x in v.items():
            w[j] = x
        pivots = self.left_pivots()
        ops = self._left[0]
        for prow, (sel, inv, elims) in enumerate(ops):
            w[prow], w[sel] = w[sel], w[prow]
            a = w[prow] = mul(inv, w[prow])
            if a != zero:
                for i, c in elims:
                    w[i] = sub(w[i], mul(c, a))
        if any(x != zero for x in w[len(pivots):]):
            return None
        return {pcol: w[prow] for prow, pcol in enumerate(pivots) if w[prow] != zero}


# -- row-space bookkeeping -------------------------------------------------


class RowSpace:
    """Echelon basis of the row span of a matrix, from one rref: rows are
    the nonzero rows of the RREF as their nonzero entries {column: entry},
    fully reduced with unit pivots, pivots their pivot columns and matrix
    the same rows as a matrix, so coordinates times it is the vector.  The
    RREF of a span is unique, so the basis does not depend on the spanning
    rows given."""

    def __init__(self, M: Matrix):
        self.field = M.field
        R, self.pivots = M.rref()
        self.dim = len(self.pivots)
        self.rows = [R.entries[k] for k in range(self.dim)]
        self.matrix = Matrix.from_entries(M.field, self.dim, M.ncols, R.entries)

    def coords(self, v: dict) -> dict:
        """Coordinates in the echelon rows of a vector lying in the span,
        both as their nonzero entries: the vector's entries at the pivots."""
        return {t: v[p] for t, p in enumerate(self.pivots) if p in v}


def quotient_map(field, width: int, relation_rows: Sequence[dict]) -> tuple:
    """The coordinate space of the given width modulo the span of the
    relation rows, each given as its nonzero entries {column: entry}.

    Returns (free positions, projection): the free positions are the
    non-pivot columns of the relations' RREF, so the class of the j-th
    ambient basis vector is read at them, and the projection, a width x
    (number of free positions) matrix, sends a vector to its class in the
    basis of those classes.  The projection is the kernel basis of the
    relation matrix: the RREF rewrites each pivot coordinate as minus its
    pivot row on the free ones.
    """
    return Matrix.from_entries(field, len(relation_rows), width,
                               {i: r for i, r in enumerate(relation_rows) if r})._free_kernel()


class Subquotient:
    """Z/B for row subspaces B <= Z of an ambient coordinate space.

    cycles and boundaries are matrices whose rows span Z and B.  One recorded
    elimination of [boundaries; cycles] (Matrix.left_pivots) picks, in row
    order, every row independent of the rows before it: the boundary rows
    among them are a basis of B, and the cycle rows among them, kept as
    rep_entries (their nonzero entries), are cocycle representatives of a
    basis of the quotient.  reduce replays that elimination on an element of
    Z and reads its coordinates off the reps.
    """

    def __init__(self, field, width: int, cycles: Matrix, boundaries: Matrix):
        self.field = field
        self.width = width
        nb = boundaries.nrows
        entries = dict(boundaries.entries)
        entries.update((nb + i, nz) for i, nz in cycles.entries.items())
        self._span = Matrix.from_entries(field, nb + cycles.nrows, width, entries)
        pivots = self._span.left_pivots()
        self._rep_rows = [r for r in pivots if r >= nb]
        self.boundary_dim = len(pivots) - len(self._rep_rows)
        self.rep_entries = [entries[r] for r in self._rep_rows]
        self.dim = len(self.rep_entries)
        self._reps = Matrix.from_entries(field, self.dim, width,
                                         dict(enumerate(self.rep_entries)))

    def reduce(self, v: dict) -> dict:
        """Nonzero coordinates of [v] in the representative basis, for v
        given as its nonzero entries.  v must lie in Z."""
        if self.dim == 0:
            return {}
        coeffs = self._span.solve_left_rows(v)
        if coeffs is None:
            raise ValueError("element does not lie in the cycle subspace")
        return {t: coeffs[r] for t, r in enumerate(self._rep_rows) if r in coeffs}

    def lift(self, coords: dict) -> dict:
        """The cocycle with the given nonzero class coordinates, as its
        nonzero entries."""
        return self._reps.apply_entries(coords)


class WholeSpace(Subquotient):
    """Z/B with Z the whole space and B = 0, made with no elimination: the
    reps are the standard basis, the ones the elimination of the identity
    picks, and reduce and lift are the identity."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.boundary_dim = 0
        self.rep_entries = [{k: field.one} for k in range(width)]
        self.dim = width

    def reduce(self, v: dict) -> dict:
        return dict(v)

    lift = reduce


def subquotient_from_maps(din: Matrix | None, dout: Matrix | None, field, width: int) -> Subquotient:
    """ker(dout) / im(din) in row convention (v |-> v @ d).

    din: previous-degree matrix mapping INTO the ambient space (or None),
    dout: matrix mapping OUT of it (or None).
    """
    if dout is None or dout.is_zero():
        if din is None or din.is_zero():
            return WholeSpace(field, width)
        cycles = Matrix.identity(field, width)
    else:
        cycles = dout.transpose().kernel_basis().transpose()
    bounds = din if din is not None else Matrix.zero(field, 0, width)
    return Subquotient(field, width, cycles, bounds)


class Cochains:
    """A bounded graded space with a degree +1 differential, and its cohomology.

    support holds the degrees that may be nonzero, or only the lowest and the
    highest of them; lo and hi are those, 0 and -1 when it is empty.  A
    subclass gives dim(n) and either diffs, degree -> the nonzero matrix of
    d: C^n -> C^{n+1} in row convention, or its own diff when it builds the
    differentials lazily.  Each degree's subquotient ker d^n / im d^{n-1} is
    built on first use and kept.
    """

    def __init__(self, field, support):
        self.field = field
        self.lo = min(support, default=0)
        self.hi = max(support, default=-1)
        self._sq: dict = {}

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def diff(self, n: int) -> Matrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zero(self.field, self.dim(n), self.dim(n + 1))

    def subquotient(self, n: int) -> Subquotient:
        if n not in self._sq:
            # a zero space builds neither of its differentials
            self._sq[n] = (subquotient_from_maps(self.diff(n - 1), self.diff(n),
                                                 self.field, self.dim(n))
                           if self.dim(n) else WholeSpace(self.field, 0))
        return self._sq[n]

    def check_square_zero(self, message: str):
        """Raise AssertionError(message.format(n)) at the first degree n
        where d^n followed by d^{n+1} is not zero."""
        for n in self.degrees():
            if not (self.diff(n) @ self.diff(n + 1)).is_zero():
                raise AssertionError(message.format(n))

    def h_dim(self, n: int) -> int:
        return self.subquotient(n).dim

    def h_table(self) -> dict:
        """degree -> dim H^n, over the degrees where it is nonzero."""
        return {n: d for n in self.degrees() if (d := self.h_dim(n))}
