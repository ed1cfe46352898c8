"""Exact linear algebra over a PrimeField or RationalField, stored sparse.

Everything downstream funnels through this module: ranks, kernels, solves,
echelon bases of spans, quotient maps and subquotient bookkeeping, and the
Cochains base that every graded class reads its cohomology from.  A Matrix
keeps only its nonzero entries, so products, sums, stacking and elimination
walk nonzeros alone; the dense row view stays available for callers that
read rows.  A vector, an algebra element included, is its nonzero entries
{index: entry}, the form apply_entries (the row action), solve_left_rows,
Subquotient.reduce and Subquotient.lift take and return.  Each Matrix has
one elimination, the forward echelon of its rows, built once in row order
and kept: the greedy choice of independent rows (Matrix.left_pivots), every
solve, every rank and every kernel and quotient map (Matrix.left_kernel)
read it, and Matrix.rref, behind every span, is that echelon plus
back-substitution.  The echelon depends only on the order of the rows and
the RREF only on their span, so every basis produced here is reproducible
run to run.  Cochains reads dim H^n off the ranks of its differentials and
builds a subquotient only where classes are read.

Convention used by callers throughout the package: module elements are ROW
vectors and linear maps act on the right (x |-> x @ M), so composition of maps
is the left-to-right matrix product.  Matrix.left_kernel is the kernel in that
convention, {x : x @ M = 0}; the kernel of x |-> M @ x is the left kernel of
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

    _left holds the forward echelon of the rows (_echelon): built by the
    first rank, pivot choice, solve or rref, read by every later one, and
    not part of equality or hashing.
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
            acc = _minus(self.field, base, -c, nz)
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

    def _echelon(self) -> tuple:
        """The forward echelon of the rows, built on the first read and kept.

        The rows are taken in order.  Each is reduced at its lowest column
        against the echelon rows before it (_reduce); a row that stays
        nonzero is a pivot row, and its remainder, scaled to 1 at its lowest
        column, joins the echelon with its coefficients over the original
        rows, which lie on the pivot rows alone.  Returns ({lowest column:
        (echelon row, coefficients)}, the pivot rows in order), both rows as
        nonzero entries.
        """
        if self._left is None:
            f = self.field
            reduce = f.reduce_entries
            echelon, pivots = {}, []
            for i in sorted(self.entries):
                w, used = _reduce(f, echelon, self.entries[i])
                if w:
                    j = min(w)
                    inv = f.inv(w[j])
                    coeffs = reduce({k: -inv * c for k, c in used.items()})
                    coeffs[i] = inv
                    echelon[j] = (reduce({k: inv * c for k, c in w.items()}), coeffs)
                    pivots.append(i)
            self._left = (echelon, tuple(pivots))
        return self._left

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices: the forward
        echelon rows in the order of their pivot columns, each cleared at the
        pivot columns after its own by back-substitution.  The RREF of a
        span is unique, so it does not depend on the order of the rows."""
        f = self.field
        echelon, _ = self._echelon()
        pivots = tuple(sorted(echelon))
        out = {}
        for t, col in enumerate(pivots):
            row = echelon[col][0]
            # clearing a later pivot column adds entries only to the right of
            # it, so one pass in column order clears them all
            for later in pivots[t + 1:]:
                a = row.get(later)
                if a is not None:
                    row = _minus(f, row, a, echelon[later][0])
            out[t] = row
        return Matrix.from_entries(f, self.nrows, self.ncols, out), pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def left_kernel(self) -> "Matrix":
        """Rows form a basis of {x : x @ self = 0}: one per row i that is not
        a pivot row of the echelon, e_i minus its coefficients over the pivot
        rows.  Row i is reduced against the echelon again for them; it meets
        the rows it met when the echelon was built, all before it, so the
        echelon keeps nothing more.  This is the one basis that is 1 at one
        non-pivot row and 0 at the others."""
        f = self.field
        echelon, pivots = self._echelon()
        pivset = set(pivots)
        rows = []
        for i in range(self.nrows):
            if i not in pivset:
                _, used = _reduce(f, echelon, self.entries.get(i, {}))
                row = {k: f.neg(c) for k, c in used.items()}
                row[i] = f.one
                rows.append(row)
        return Matrix.from_row_entries(f, self.nrows, rows)

    def left_pivots(self) -> tuple[int, ...]:
        """Indices of the rows that are independent of the rows before them,
        in order: the pivot rows of the forward echelon."""
        return self._echelon()[1]

    def solve_left_rows(self, v: dict) -> dict | None:
        """x with x @ self = v, or None, both as their nonzero entries
        {index: entry}: v reduced against the forward echelon, None when
        something is left.  x lies on the pivot rows alone, which are
        independent, so it is the answer with every other row at 0."""
        w, used = _reduce(self.field, self._echelon()[0], v)
        return None if w else used


def _minus(field, w: dict, a, row: dict) -> dict:
    """w - a * row, for rows given as their nonzero entries."""
    acc = dict(w)
    for k, c in row.items():
        acc[k] = acc.get(k, 0) - a * c
    return field.reduce_entries(acc)


def _reduce(field, echelon: dict, w: dict) -> tuple[dict, dict]:
    """The one elimination loop: reduce w at its lowest column against the
    echelon ({lowest column: (row with 1 there, coefficients)}) for as long
    as an echelon row has that column.  Returns (the remainder, the sum of
    a * coefficients over the rows taken a times), rows as nonzero entries;
    w is the remainder plus the rows taken."""
    used: dict = {}
    while w:
        j = min(w)
        hit = echelon.get(j)
        if hit is None:
            break
        row, coeffs = hit
        a = w[j]
        w = _minus(field, w, a, row)
        for k, c in coeffs.items():
            used[k] = used.get(k, 0) + a * c
    return w, field.reduce_entries(used)


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
    non-pivot columns of the relations, so the class of the j-th ambient
    basis vector is read at them, and the projection, a width x (number of
    free positions) matrix, sends a vector to its class in the basis of those
    classes.  Its columns are the left kernel of the transposed relations,
    whose non-pivot rows are the free positions: each rewrites a pivot
    coordinate as minus its combination of the free ones.
    """
    rel_t = Matrix.from_entries(field, len(relation_rows), width,
                                {i: r for i, r in enumerate(relation_rows) if r}).transpose()
    pivots = set(rel_t.left_pivots())
    return (tuple(j for j in range(width) if j not in pivots),
            rel_t.left_kernel().transpose())


class Subquotient:
    """Z/B for row subspaces B <= Z of an ambient coordinate space.

    cycles and boundaries are matrices whose rows span Z and B.  The forward
    echelon of [boundaries; cycles] (Matrix.left_pivots) picks, in row
    order, every row independent of the rows before it: the boundary rows
    among them are a basis of B, and the cycle rows among them, kept as
    rep_entries (their nonzero entries), are cocycle representatives of a
    basis of the quotient.  reduce solves an element of Z against the same
    echelon and reads its coordinates off the reps.
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
        cycles = dout.left_kernel()
    bounds = din if din is not None else Matrix.zero(field, 0, width)
    return Subquotient(field, width, cycles, bounds)


class Cochains:
    """A bounded graded space with a degree +1 differential, and its cohomology.

    support holds the degrees that may be nonzero, or only the lowest and the
    highest of them; lo and hi are those, 0 and -1 when it is empty.  A
    subclass gives dim(n) and either diffs, degree -> the nonzero matrix of
    d: C^n -> C^{n+1} in row convention, or its own diff when it builds the
    differentials lazily.  Each degree's subquotient ker d^n / im d^{n-1} is
    built on first use and kept.  dim H^n needs no subquotient: it is
    dim C^n - rk d^n - rk d^{n-1}, and each differential keeps its rank in
    its own echelon, so it is eliminated once whichever degree reads it.
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
        """dim H^n: the subquotient's when it is built, else read off ranks;
        a zero space builds neither of its differentials."""
        sq = self._sq.get(n)
        if sq is not None:
            return sq.dim
        dim = self.dim(n)
        return dim and dim - self.diff(n).rank() - self.diff(n - 1).rank()

    def h_table(self) -> dict:
        """degree -> dim H^n, over the degrees where it is nonzero."""
        return {n: d for n in self.degrees() if (d := self.h_dim(n))}
