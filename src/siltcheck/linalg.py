"""Dense exact linear algebra over a PrimeField or RationalField.

Everything downstream funnels through this module: ranks, kernels, solves and
subquotient bookkeeping (cohomology).  Pivoting is deterministic (first nonzero
entry in row order), so every basis produced here is reproducible run to run.

Convention used by callers throughout the package: module elements are ROW
vectors and linear maps act on the right (x |-> x @ M), so composition of maps
is the left-to-right matrix product.  This module itself is convention-neutral;
it just provides both column-kernel and row-kernel entry points.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Matrix:
    """Immutable dense matrix over an exact field.

    _left caches the elimination behind solve_left_rows: filled by the first
    solve, replayed by every later one, and not part of equality or hashing.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "_left")

    def __init__(self, field, nrows: int, ncols: int, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(f"shape mismatch: expected {nrows}x{ncols}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._left = None

    # -- constructors ------------------------------------------------------

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
        z = field.zero
        return Matrix(field, nrows, ncols, [(z,) * ncols] * nrows)

    @staticmethod
    def identity(field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, n, n, [tuple(o if i == j else z for j in range(n)) for i in range(n)])

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.field.add
        return Matrix(
            self.field, self.nrows, self.ncols,
            [tuple(add(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field, self.nrows, self.ncols,
            [tuple(sub(a, b) for a, b in zip(r, s)) for r, s in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.field, self.nrows, self.ncols, [tuple(neg(a) for a in r) for r in self.rows])

    def scale(self, c) -> "Matrix":
        mul = self.field.mul
        return Matrix(self.field, self.nrows, self.ncols, [tuple(mul(c, a) for a in r) for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        f = self.field
        add, mul, zero, one = f.add, f.mul, f.zero, f.one
        orows = other.rows
        out = []
        for r in self.rows:
            # row-times-matrix accumulation; zero entries skip whole rows
            acc = [zero] * other.ncols
            for k, a in enumerate(r):
                if a == zero:
                    continue
                if a == one:
                    for j, b in enumerate(orows[k]):
                        if b != zero:
                            acc[j] = add(acc[j], b)
                else:
                    for j, b in enumerate(orows[k]):
                        if b != zero:
                            acc[j] = add(acc[j], mul(a, b))
            out.append(tuple(acc))
        if not out:
            return Matrix.zero(f, 0, other.ncols)
        return Matrix(f, self.nrows, other.ncols, out)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, self.ncols, 0, [()] * self.ncols)
        return Matrix(self.field, self.ncols, self.nrows, list(zip(*self.rows)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack: row count mismatch")
        return Matrix(self.field, self.nrows, self.ncols + other.ncols,
                      [r + s for r, s in zip(self.rows, other.rows)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, self.rows + other.rows)

    @staticmethod
    def block_diag(field, blocks: Iterable["Matrix"]) -> "Matrix":
        blocks = list(blocks)
        nr = sum(b.nrows for b in blocks)
        nc = sum(b.ncols for b in blocks)
        z = field.zero
        out = []
        coff = 0
        for b in blocks:
            left = coff
            right = nc - coff - b.ncols
            for r in b.rows:
                out.append((z,) * left + r + (z,) * right)
            coff += b.ncols
        return Matrix(field, nr, nc, out)

    def row(self, i: int):
        return self.rows[i]

    def apply_row(self, v: Sequence):
        """Row-vector action: v |-> v @ self."""
        if len(v) != self.nrows:
            raise ValueError("apply_row: length mismatch")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = [zero] * self.ncols
        for a, r in zip(v, self.rows):
            if a == zero:
                continue
            for j, b in enumerate(r):
                if b != zero:
                    out[j] = add(out[j], mul(a, b))
        return tuple(out)

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- elimination -------------------------------------------------------

    def rref(self, ops: list | None = None) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        If ops is a list, one entry (selected row, inverse of the pivot,
        [(row, multiplier) eliminated]) is appended per pivot, so the same
        row operations can be replayed on another column.
        """
        f = self.field
        zero = f.zero
        rows = [list(r) for r in self.rows]
        pivots = []
        prow = 0
        for col in range(self.ncols):
            sel = None
            for i in range(prow, len(rows)):
                if rows[i][col] != zero:
                    sel = i
                    break
            if sel is None:
                continue
            rows[prow], rows[sel] = rows[sel], rows[prow]
            inv = f.inv(rows[prow][col])
            rows[prow] = [f.mul(inv, x) for x in rows[prow]]
            elims = []
            for i in range(len(rows)):
                if i != prow and rows[i][col] != zero:
                    c = rows[i][col]
                    rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(rows[i], rows[prow])]
                    elims.append((i, c))
            if ops is not None:
                ops.append((sel, inv, elims))
            pivots.append(col)
            prow += 1
            if prow == len(rows):
                break
        return Matrix(f, self.nrows, self.ncols, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Columns form a basis of {x : self @ x = 0}.

        Asserts rank-nullity before returning.
        """
        f = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        cols = []
        for j in free:
            vec = [f.zero] * self.ncols
            vec[j] = f.one
            for prow, pcol in enumerate(pivots):
                vec[pcol] = f.neg(R.rows[prow][j])
            cols.append(vec)
        ker = Matrix(f, self.ncols, len(cols), list(zip(*cols)) if cols else [()] * self.ncols)
        assert len(pivots) + ker.ncols == self.ncols, "rank-nullity violated"
        return ker

    def row_kernel_rows(self) -> list[tuple]:
        """Rows v with v @ self = 0 (basis)."""
        ker = self.transpose().kernel_basis()
        return [tuple(col) for col in zip(*ker.rows)] if ker.ncols else []

    def solve_matrix(self, B: "Matrix") -> "Matrix | None":
        """X with self @ X = B, or None if inconsistent.  Free vars set to 0."""
        if B.nrows != self.nrows:
            raise ValueError("solve_matrix: row mismatch")
        f = self.field
        aug = self.hstack(B)
        R, pivots = aug.rref()
        if any(p >= self.ncols for p in pivots):
            return None
        xrows = [[f.zero] * B.ncols for _ in range(self.ncols)]
        for prow, pcol in enumerate(pivots):
            xrows[pcol] = list(R.rows[prow][self.ncols:])
        return Matrix(f, self.ncols, B.ncols, xrows)

    def solve_left_rows(self, v: Sequence) -> tuple | None:
        """x with x @ self = v, or None.  Free variables are set to 0.

        The row operations of rref(selfᵀ) are recorded on the first call and
        replayed on v by every call; the pivots of selfᵀ never depend on v, so
        the answer is the one the RREF of [selfᵀ | v] gives.
        """
        if len(v) != self.ncols:
            raise ValueError("solve_left_rows: length mismatch")
        if self._left is None:
            ops: list = []
            _, pivots = self.transpose().rref(ops)
            self._left = (ops, pivots)
        ops, pivots = self._left
        f = self.field
        zero, mul, sub = f.zero, f.mul, f.sub
        w = list(v)
        for prow, (sel, inv, elims) in enumerate(ops):
            w[prow], w[sel] = w[sel], w[prow]
            a = w[prow] = mul(inv, w[prow])
            if a != zero:
                for i, c in elims:
                    w[i] = sub(w[i], mul(c, a))
        if any(x != zero for x in w[len(pivots):]):
            return None
        x = [zero] * self.nrows
        for prow, pcol in enumerate(pivots):
            x[pcol] = w[prow]
        return tuple(x)


# -- row-space bookkeeping -------------------------------------------------


class RowSpace:
    """Growable echelonized span of row vectors; deterministic insert order."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list] = []      # echelon rows, pivot normalized to 1
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, v: Sequence) -> list:
        f = self.field
        zero = f.zero
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != zero:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def contains(self, v: Sequence) -> bool:
        zero = self.field.zero
        return all(x == zero for x in self.residue(v))

    def coords(self, v: Sequence) -> tuple:
        """Coordinates in the echelon rows of a vector lying in the span.

        The rows are fully reduced with unit pivots, so these are the
        vector's entries at the pivots.
        """
        return tuple(v[p] for p in self.pivots)

    def add(self, v: Sequence) -> bool:
        """Insert v's residue; returns True if the span grew.

        Maintains fully reduced form: every stored row is zero at every other
        row's pivot, so residue() is exact in a single pass.
        """
        f = self.field
        res = self.residue(v)
        for j, x in enumerate(res):
            if x != f.zero:
                inv = f.inv(x)
                res = [f.mul(inv, a) for a in res]
                for k, row in enumerate(self.rows):
                    c = row[j]
                    if c != f.zero:
                        self.rows[k] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, res)]
                # keep echelon rows sorted by pivot for reproducibility
                k = 0
                while k < len(self.pivots) and self.pivots[k] < j:
                    k += 1
                self.rows.insert(k, res)
                self.pivots.insert(k, j)
                return True
        return False


class Subquotient:
    """Z/B for row subspaces B <= Z of an ambient coordinate space.

    Stores cocycle representatives (rows of the ambient space) for a basis of
    the quotient, and reduces arbitrary elements of Z to quotient coordinates.
    """

    def __init__(self, field, width: int, cycle_rows: Sequence[Sequence], boundary_rows: Sequence[Sequence]):
        self.field = field
        self.width = width
        bspace = RowSpace(field, width)
        for r in boundary_rows:
            bspace.add(r)
        self.boundary_dim = bspace.dim
        combined = RowSpace(field, width)
        for r in bspace.rows:
            combined.add(r)
        reps = []
        for r in cycle_rows:
            if combined.add(r):
                reps.append(tuple(field.coerce(x) for x in r))
        self.reps = reps
        self.dim = len(reps)
        # matrix [boundary basis ; reps] used for coordinate extraction
        rows = [tuple(r) for r in bspace.rows] + reps
        self._span = Matrix(field, len(rows), width, rows) if rows else None

    def reduce(self, v: Sequence) -> tuple:
        """Coordinates of [v] in the representative basis.  v must lie in Z."""
        if self.dim == 0:
            return ()
        coeffs = self._span.solve_left_rows(v)
        if coeffs is None:
            raise ValueError("element does not lie in the cycle subspace")
        return tuple(coeffs[self.boundary_dim:])

    def lift(self, coords: Sequence) -> tuple:
        f = self.field
        out = [f.zero] * self.width
        for c, rep in zip(coords, self.reps):
            if c != f.zero:
                for j, x in enumerate(rep):
                    out[j] = f.add(out[j], f.mul(c, x))
        return tuple(out)


class QuotientSpace:
    """Ambient coordinate space modulo the span of some rows.

    The quotient basis is the set of non-pivot ambient coordinates (after
    echelonizing the relation rows), so classes of ambient basis vectors remain
    meaningful: project() rewrites a vector modulo the relations and reads off
    the surviving coordinates.
    """

    def __init__(self, field, width: int, relation_rows: Iterable[Sequence]):
        self.field = field
        self.width = width
        space = RowSpace(field, width)
        for r in relation_rows:
            space.add(r)
        self._space = space
        pivset = set(space.pivots)
        self.free_positions = tuple(j for j in range(width) if j not in pivset)
        self.dim = len(self.free_positions)

    def project(self, v: Sequence) -> tuple:
        res = self._space.residue(v)
        return tuple(res[j] for j in self.free_positions)


def subquotient_from_maps(din: Matrix | None, dout: Matrix | None, field, width: int) -> Subquotient:
    """ker(dout) / im(din) in row convention (v |-> v @ d).

    din: previous-degree matrix mapping INTO the ambient space (or None),
    dout: matrix mapping OUT of it (or None).
    """
    if dout is None or dout.ncols == 0:
        cycles = [tuple(field.one if i == j else field.zero for j in range(width)) for i in range(width)]
    else:
        cycles = dout.row_kernel_rows()
    if din is None or din.nrows == 0:
        bounds = []
    else:
        bounds = list(din.rows)
    return Subquotient(field, width, cycles, bounds)
