"""Exact linear algebra over a PrimeField or RationalField, stored sparse.

Everything downstream funnels through this module: ranks, kernels, solves and
subquotient bookkeeping (cohomology).  A Matrix keeps only its nonzero
entries, so products, sums, stacking and elimination walk nonzeros alone; the
dense row view stays available for callers that read rows.  Pivoting is
deterministic (first nonzero entry in row order), so every basis produced
here is reproducible run to run.

Convention used by callers throughout the package: module elements are ROW
vectors and linear maps act on the right (x |-> x @ M), so composition of maps
is the left-to-right matrix product.  This module itself is convention-neutral;
it just provides both column-kernel and row-kernel entry points.
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

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack: column count mismatch")
        nr = self.nrows
        out = dict(self.entries)
        out.update((i + nr, nz) for i, nz in other.entries.items())
        return Matrix.from_entries(self.field, nr + other.nrows, self.ncols, out)

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

    def row(self, i: int):
        return self.rows[i]

    def apply_row(self, v: Sequence):
        """Row-vector action: v |-> v @ self."""
        if len(v) != self.nrows:
            raise ValueError("apply_row: length mismatch")
        ents = self.entries
        acc = {}
        for i, a in enumerate(v):
            if a:
                nz = ents.get(i)
                if nz is not None:
                    for j, b in nz.items():
                        acc[j] = acc.get(j, 0) + a * b
        out = [self.field.zero] * self.ncols
        for j, x in self.field.reduce_entries(acc).items():
            out[j] = x
        return tuple(out)

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
        """Columns form a basis of {x : self @ x = 0}.

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
        return ker

    def row_kernel_rows(self) -> list[tuple]:
        """Rows v with v @ self = 0 (basis)."""
        return list(self.transpose().kernel_basis().transpose().rows)

    def solve_matrix(self, B: "Matrix") -> "Matrix | None":
        """X with self @ X = B, or None if inconsistent.  Free vars set to 0."""
        if B.nrows != self.nrows:
            raise ValueError("solve_matrix: row mismatch")
        nc = self.ncols
        R, pivots = self.hstack(B).rref()
        if pivots and pivots[-1] >= nc:
            return None
        out = {}
        for prow, pcol in enumerate(pivots):
            nz = {j - nc: x for j, x in R.entries[prow].items() if j >= nc}
            if nz:
                out[pcol] = nz
        return Matrix.from_entries(self.field, nc, B.ncols, out)

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
