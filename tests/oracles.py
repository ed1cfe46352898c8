"""Module-level oracles independent of the dg machinery, a dense linear
algebra reference independent of the sparse Matrix storage, the incremental
dense row space and the greedy dense subquotient built on it, reference
routes for the coresolution loop, its long exact sequences and the H^0
algebra, a coordinate reader that checks every row of a map, and
composite-matrix routes through it for the hom-complex differential, the
composition tables and the postcomposition action, with a dense route for the
action on a semifree module.

The module oracles are computed with hom_space and dimension vectors only, so
the numbers frozen into the verifier tests do not come from the code under
test.
"""

from dataclasses import dataclass

from siltcheck import silting
from siltcheck.algebra import (Algebra, Module, direct_sum_modules,
                               generator_image, hom_space)
from siltcheck.complexes import (ChainMap, cone, hom_complex, is_acyclic,
                                 projective_complex, read_image, zero_complex)
from siltcheck.dg import end_h0
from siltcheck.linalg import Matrix


def hom_dim(M: Module, N: Module) -> int:
    return len(hom_space(M, N))


def euler_pairing(M: Module, N: Module) -> int:
    """hom - ext1 over the two-vertex arrow algebra, from dimension vectors.

    For the quiver with one arrow from the first vertex to the second the
    pairing is m1*n1 + m2*n2 - m1*n2; the algebra is hereditary, so this plus
    hom_dim determines ext1.
    """
    m1, m2 = M.dimension_vector()
    n1, n2 = N.dimension_vector()
    return m1 * n1 + m2 * n2 - m1 * n2


def ext1_dim(M: Module, N: Module) -> int:
    return hom_dim(M, N) - euler_pairing(M, N)


def weight_dims(M: Module) -> tuple:
    """Dimension of M at each vertex: dim Hom(P_v, M) for every projective."""
    return M.dimension_vector()


def endomorphism_algebra(A: Algebra, summands) -> Algebra:
    """End_A(T) for T the direct sum of the summands, from hom_space alone.

    Multiplication is in function order (x*y = "apply y, then x").  The
    basis is adapted so that each diagonal block starts with the identity of
    its summand; those identities are the idempotents.
    """
    f = A.field
    T = direct_sum_modules(A, summands)
    offs = T.summand_offsets
    n = T.dim

    def embed(small: Matrix, i: int, j: int) -> Matrix:
        big = [[f.zero] * n for _ in range(n)]
        oi, di = offs[i]
        oj, dj = offs[j]
        for r in range(di):
            for c in range(dj):
                big[oi + r][oj + c] = small.rows[r][c]
        return Matrix(f, n, n, big)

    labels, big_mats, blocks, idem_positions = [], [], [], []
    for i, Si in enumerate(summands):
        for j, Sj in enumerate(summands):
            mats = [h.mat for h in hom_space(Si, Sj)]
            if i == j:
                # a basis of the block that starts with the identity
                space = ReferenceRowSpace(f, Si.dim ** 2 or 1)
                mats = [m for m in [Matrix.identity(f, Si.dim)] + mats
                        if space.add([x for r in m.rows for x in r] or [f.one])]
                idem_positions.append(len(labels))
            for k, mat in enumerate(mats):
                labels.append(f"p{i}" if i == j and k == 0 else f"f{i}{j}_{k}")
                big_mats.append(embed(mat, i, j))
                blocks.append((i, j))
    # coordinates: block-restricted flattening, solved against block bases
    by_block: dict = {}
    for idx, b in enumerate(blocks):
        by_block.setdefault(b, []).append(idx)
    span_of_block = {}
    for b, idxs in by_block.items():
        rows = [tuple(x for r in big_mats[i].rows for x in r) for i in idxs]
        span_of_block[b] = (idxs, Matrix(f, len(rows), n * n, rows))
    mult = {}
    for x, bx in enumerate(blocks):
        for y, by in enumerate(blocks):
            # function order: x*y applies y first; nonzero iff y's target == x's source
            if by[1] != bx[0]:
                continue
            comp = big_mats[y] @ big_mats[x]
            key = (by[0], bx[1])
            if key not in span_of_block:
                # no hom basis in that block: only a zero composite fits
                if comp.is_zero():
                    continue
                raise AssertionError("End(T) not closed under composition")
            idxs, span = span_of_block[key]
            sol = span.solve_left_rows(nonzero_entries(v for r in comp.rows for v in r))
            if sol is None:
                raise AssertionError("End(T) not closed under composition")
            if sol:
                mult[(x, y)] = {idxs[k]: c for k, c in sol.items()}
    return Algebra(f, labels, mult, {p: f.one for p in idem_positions}, idem_positions)


# -- dense reference for linalg ---------------------------------------------
# Lists of rows, one field call per cell and nothing skipped: the storage-free
# definitions the sparse Matrix kernels are checked against.  The elimination
# is the one Matrix.rref promises: pivot on the first nonzero row in order,
# swap it up, scale it to a unit pivot, clear the column in every other row.


def dense_matmul(f, a, b, ncols):
    return [[_dot(f, r, [s[j] for s in b]) for j in range(ncols)] for r in a]


def dense_add(f, a, b):
    return [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_sub(f, a, b):
    return [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_scale(f, c, a):
    c = f.coerce(c)
    return [[f.coerce(c * x) for x in r] for r in a]


def dense_transpose(a, ncols):
    return [[r[j] for r in a] for j in range(ncols)]


def dense_block_diag(f, blocks):
    """blocks: (rows, ncols) pairs."""
    width = sum(c for _, c in blocks)
    out, c0 = [], 0
    for rows, c in blocks:
        out += [[f.zero] * c0 + list(r) + [f.zero] * (width - c0 - c) for r in rows]
        c0 += c
    return out


def dense_apply_row(f, v, a, ncols):
    return [_dot(f, v, [r[j] for r in a]) for j in range(ncols)]


def dense_rref(f, a, ncols):
    """(reduced rows, pivot columns) in Matrix.rref's format, by Gauss-Jordan."""
    rows = [list(r) for r in a]
    pivots = []
    for col in range(ncols):
        if len(pivots) == len(rows):
            break
        prow = len(pivots)
        sel = next((i for i in range(prow, len(rows)) if rows[i][col] != f.zero), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = f.inv(rows[prow][col])
        rows[prow] = [f.coerce(inv * x) for x in rows[prow]]
        for i, r in enumerate(rows):
            c = r[col]
            if i != prow and c != f.zero:
                rows[i] = [f.coerce(x - c * y) for x, y in zip(r, rows[prow])]
        pivots.append(col)
    return rows, tuple(pivots)


def dense_kernel(f, a, ncols):
    """Rows of the kernel basis matrix: column k is the k-th free column's
    solution of a @ x = 0, with that free variable 1 and the others 0."""
    R, pivots = dense_rref(f, a, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    cols = []
    for j in free:
        x = [f.zero] * ncols
        x[j] = f.one
        for prow, pcol in enumerate(pivots):
            x[pcol] = f.neg(R[prow][j])
        cols.append(x)
    return dense_transpose(cols, ncols)


def dense_solve(f, a, ncols, b, bcols):
    """x with a @ x = b from the RREF of [a | b], free variables 0; None if
    inconsistent."""
    R, pivots = dense_rref(f, [list(r) + list(s) for r, s in zip(a, b)], ncols + bcols)
    if any(p >= ncols for p in pivots):
        return None
    x = [[f.zero] * bcols for _ in range(ncols)]
    for prow, pcol in enumerate(pivots):
        x[pcol] = R[prow][ncols:]
    return x


class ReferenceRowSpace:
    """Growable echelonized span of dense row vectors, one row at a time:
    the incremental elimination that linalg.RowSpace replaces with one rref
    of all the rows, and the greedy loops with left pivots."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows: list[list] = []      # echelon rows, pivot normalized to 1
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, v) -> list:
        f = self.field
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != f.zero:
                v = [f.coerce(a - c * b) for a, b in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return all(x == self.field.zero for x in self.residue(v))

    def coords(self, v) -> tuple:
        return tuple(v[p] for p in self.pivots)

    def add(self, v) -> bool:
        """Insert v's residue; True if the span grew.  Every stored row stays
        zero at every other row's pivot, so residue() is exact in one pass."""
        f = self.field
        res = self.residue(v)
        for j, x in enumerate(res):
            if x != f.zero:
                inv = f.inv(x)
                res = [f.coerce(inv * a) for a in res]
                for k, row in enumerate(self.rows):
                    c = row[j]
                    if c != f.zero:
                        self.rows[k] = [f.coerce(a - c * b) for a, b in zip(row, res)]
                k = 0
                while k < len(self.pivots) and self.pivots[k] < j:
                    k += 1
                self.rows.insert(k, res)
                self.pivots.insert(k, j)
                return True
        return False


class ReferenceSubquotient:
    """Z/B by two greedy ReferenceRowSpace passes over dense rows: an echelon
    basis of the boundary rows, then every cycle row that enlarges the span
    of the boundaries and of the cycle rows kept before it.  reduce solves
    against [boundary basis; reps] and keeps the coordinates on the reps."""

    def __init__(self, field, width, cycle_rows, boundary_rows):
        self.field = field
        self.width = width
        bspace = ReferenceRowSpace(field, width)
        for r in boundary_rows:
            bspace.add(r)
        self.boundary_dim = bspace.dim
        combined = ReferenceRowSpace(field, width)
        for r in bspace.rows:
            combined.add(r)
        self.reps = [tuple(field.coerce(x) for x in r) for r in cycle_rows if combined.add(r)]
        self.dim = len(self.reps)
        rows = [tuple(r) for r in bspace.rows] + self.reps
        self._span = Matrix(field, len(rows), width, rows) if rows else None

    def reduce(self, v):
        if self.dim == 0:
            return ()
        coeffs = self._span.solve_left_rows(nonzero_entries(v))
        if coeffs is None:
            raise ValueError("element does not lie in the cycle subspace")
        return dense_row(self.field, coeffs, self._span.nrows)[self.boundary_dim:]

    def lift(self, coords):
        f = self.field
        out = [f.zero] * self.width
        for c, rep in zip(coords, self.reps):
            if c != f.zero:
                for j, x in enumerate(rep):
                    out[j] = f.coerce(out[j] + c * x)
        return tuple(out)


def sparse_products(table):
    """A structure table given as dense product rows, table[i][j], in the form
    DgAlgebra and DgModule store: each product as the {column: entry} dict of
    its nonzero entries."""
    return [[nonzero_entries(p) for p in row] for row in table]


def nonzero_entries(row) -> dict:
    """A dense row as its nonzero entries {index: entry}."""
    return {k: x for k, x in enumerate(row) if x}


def _dot(f, u, v):
    acc = f.zero
    for x, y in zip(u, v):
        acc = f.coerce(acc + x * y)
    return acc


# -- reference silting routes --------------------------------------------------


@dataclass
class ReferenceCoresolution:
    """The steps of a coresolution: the approximation X -> U_k of each step
    and its cone, which the next step approximates."""
    steps: list
    multiplicities: list
    n: int


def reference_coresolutions(U, max_steps: int, B) -> list:
    """What the coresolution loop with no stuck test returns at every step cap
    0..max_steps, from one run of that loop to max_steps, with its steps.

    A stuck X is approximated by zero and the loop goes on through its shifts
    until the cap.  The loop's state after k steps does not depend on the cap,
    so at cap k the result is the coresolution when it took at most k steps,
    and None otherwise.
    """
    A = U.algebra
    summands = silting._summands(U)
    E = end_h0(B.gh)
    rad = silting.end_radical(B.gh)
    X = projective_complex(A, {0: list(range(len(A.idempotents)))})
    steps, mults = [], []
    while not is_acyclic(X):
        if len(steps) >= max_steps:
            return [None] * (max_steps + 1)
        approx = silting._minimal_approximation(X, U, B.gh, E, rad, summands)
        if approx is None:
            approx = ChainMap(X, zero_complex(A), {}, validate=False), {}
        fmap, mult = approx
        X = cone(fmap)
        steps.append((fmap, X))
        mults.append(mult)
    cor = ReferenceCoresolution(steps, mults, len(steps) - 1)
    return [cor if k >= len(steps) else None for k in range(max_steps + 1)]


# -- long-exact dimension checks ----------------------------------------------
# Each step of a coresolution is a triangle X -> Y -> C -> X[1], C the cone of
# f: X -> Y.  Its long exact sequences in cohomology and in homs into U pin the
# dimensions of C from f alone.


def cone_les_dims_ok(f, C) -> bool:
    """dim H^n(C) = coker + ker of the maps f induces, in every degree."""
    X, Y = f.source, f.target
    lo = min((w.lo for w in (X, Y, C) if not w.is_empty()), default=0)
    hi = max((w.hi for w in (X, Y, C) if not w.is_empty()), default=-1)
    rk = {n: f.induced(n).rank() for n in range(lo, hi + 2)}
    for n in range(lo - 1, hi + 2):
        coker = Y.h_dim(n) - rk.get(n, 0)
        ker = X.h_dim(n + 1) - rk.get(n + 1, 0)
        if C.h_dim(n) != coker + ker:
            return False
    return True


def hom_les_dims_ok(f, C, U) -> bool:
    """Dimension-level exactness of the hom-into-U sequence of the triangle.

    Writing rho_n for the map f induces on degree-n hom classes, checks
    dim H^n(hom(C, U)) = dim coker rho_{n-1} + dim ker rho_n.
    """
    X, Y = f.source, f.target
    ghX, ghY, ghZ = (hom_complex(W, U) for W in (X, Y, C))
    fld = U.algebra.field
    spans = [g for g in (ghX, ghY, ghZ) if g.hi >= g.lo]
    if not spans:
        return True
    lo = min(g.lo for g in spans)
    hi = max(g.hi for g in spans)

    def rho_rank_and_ker(n):
        sqY = ghY.subquotient(n)
        sqX = ghX.subquotient(n)
        rows = []
        for rep in sqY.rep_entries:
            pre = {}
            for i, mm in ghY.component_maps(n, rep).items():
                cm = f.mat(i) @ mm
                if not cm.is_zero():
                    pre[i] = cm
            coords = reference_coords_of(ghX, n, pre)
            if coords is None:
                raise AssertionError("precomposition escaped the hom basis")
            rows.append(sqX.reduce(coords))
        r = Matrix.from_entries(fld, len(rows), sqX.dim,
                                {i: c for i, c in enumerate(rows) if c}).rank()
        return r, len(rows) - r

    data = {n: rho_rank_and_ker(n) for n in range(lo, hi + 1)}
    for n in range(lo - 1, hi + 2):
        coker = ghX.h_dim(n - 1) - data.get(n - 1, (0, 0))[0]
        ker = data.get(n, (0, ghY.h_dim(n)))[1]
        if ghZ.h_dim(n) != coker + ker:
            return False
    return True


def coresolution_les_ok(cor: ReferenceCoresolution, U) -> bool:
    """Every step passes both dimension checks and the endpoint is hom-acyclic."""
    if not all(cone_les_dims_ok(f, C) and hom_les_dims_ok(f, C, U) for f, C in cor.steps):
        return False
    ghf = hom_complex(cor.steps[-1][1], U)
    return all(ghf.h_dim(n) == 0 for n in range(ghf.lo, ghf.hi + 1))


def reference_h0_algebra(B) -> Algebra:
    """dg.h0_algebra with every product of classes taken per call: lift both
    classes to cocycles, multiply them in B, reduce the product."""
    f = B.field
    sq = B.subquotient(0)
    h = sq.dim

    def dense(cls):
        return dense_row(f, cls, h)

    unit_cls = dense(sq.reduce(B.unit))

    def mult_classes(u_cls, v_cls):
        u, v = (sq.lift(nonzero_entries(c)) for c in (u_cls, v_cls))
        return dense(sq.reduce(B.product(0, u, 0, v)))

    idem_cls, kept = [], []
    for pos, v in enumerate(B.idempotents):
        cls = dense(sq.reduce(v))
        if any(c != f.zero for c in cls):
            idem_cls.append(cls)
            kept.append(pos)
    basis_cls, blocks, idem_positions = [], [], []
    for j, ej in enumerate(idem_cls):
        for k, ek in enumerate(idem_cls):
            piece = ReferenceRowSpace(f, h)
            ordered = []
            if j == k:
                piece.add(ej)
                ordered.append(ej)
                idem_positions.append(len(basis_cls))
            for rep_i in range(h):
                u = tuple(f.one if t == rep_i else f.zero for t in range(h))
                w = mult_classes(mult_classes(ej, u), ek)
                if piece.add(w):
                    ordered.append(w)
            for w in ordered:
                basis_cls.append(tuple(w))
                blocks.append((j, k))
    span = Matrix(f, len(basis_cls), h, basis_cls)
    labels = [f"p{j}" if t in idem_positions else f"h{j}{k}_{t}"
              for t, (j, k) in enumerate(blocks)]
    mult = {}
    for x in range(h):
        for y in range(h):
            coords = span.solve_left_rows(nonzero_entries(mult_classes(basis_cls[x], basis_cls[y])))
            if coords:
                mult[(x, y)] = coords
    alg = Algebra(f, labels, mult, span.solve_left_rows(nonzero_entries(unit_cls)),
                  idem_positions)
    alg.class_reps = [sq.lift(nonzero_entries(cls)) for cls in basis_cls]
    alg.kept_idempotents = kept
    return alg


# -- composite-matrix routes ---------------------------------------------------
# Each composite is built as a whole matrix and read back through
# reference_coords_of, which checks every row of it: the route the generator
# images replace.


def _checked_image(homs, rows: dict) -> dict | None:
    """The image w of the generator e_v under the map P = e_v A -> N with the
    given nonzero rows {row: {column: entry}}, for homs = Hom(P, N), or None
    when they are not a module map: the map is one exactly when each of its
    rows is w times its ambient row."""
    w = generator_image(homs.P, rows)
    for r, a in enumerate(homs.acts):
        if a.apply_entries(w) != rows.get(r, {}):
            return None
    return w


def reference_coords_of(gh, n: int, comps: dict) -> dict | None:
    """GradedHom.coords_of with every row of every component checked:
    the nonzero coordinates of a family of component maps, source degree ->
    matrix, or None if some component is not a module map."""
    out: dict = {}
    cells = gh.cells.get(n, ())
    for i, mat in comps.items():
        if mat.is_zero():
            continue
        if not any(c[0] == i for c in cells):
            return None
        for _, start, homs, pos in (c for c in cells if c[0] == i):
            end = start + len(homs.acts)
            w = _checked_image(homs, {r - start: nz for r, nz in mat.entries.items()
                                      if start <= r < end})
            if w is None:
                return None
            read_image(out, homs, pos, w)
    return out


def reference_hom_diff(gh, n):
    """The differential of gh in degree n: h d_Y - (-1)^n d_X h for each
    basis map h, read back through reference_coords_of."""
    f = gh.field
    sign = f.one if n % 2 == 0 else f.neg(f.one)
    rows = {}
    for r, (i, h) in enumerate(gh.basis.get(n, ())):
        dx_h = (gh.X.diff(i - 1) @ h).scale(f.neg(sign))
        coords = reference_coords_of(gh, n + 1, {i: h @ gh.Y.diff(n + i), i - 1: dx_h})
        if coords is None:
            raise AssertionError("component map escaped its hom-space span")
        if coords:
            rows[r] = coords
    return Matrix.from_entries(f, gh.dim(n), gh.dim(n + 1), rows)


def reference_composition_tables(gh, maps):
    """dg._composition_tables with every composite b then x built as a
    matrix and read back through reference_coords_of."""
    tables = {}
    for m in gh.degrees():
        for n, elems in maps.items():
            if not gh.dim(m) or not elems or not gh.dim(m + n):
                continue
            table = []
            for sx, hx in gh.basis[m]:
                row = []
                for b in elems:
                    mb = b.get(sx - n)
                    coords = ({} if mb is None
                              else reference_coords_of(gh, m + n, {sx - n: mb @ hx}))
                    if coords is None:
                        raise AssertionError("composite escaped the hom basis")
                    row.append(coords)
                table.append(row)
            tables[(m, n)] = table
    return tables


def reference_hom_class_action(X, U, end, E):
    """silting._hom_class_action with each postcomposite built as a matrix
    and read back through reference_coords_of: the matrices of the E-classes
    acting on the homotopy classes of chain maps X -> U."""
    gh = hom_complex(X, U)
    sq = gh.subquotient(0)
    f = E.field
    rep_comps = [gh.component_maps(0, rep) for rep in sq.rep_entries]
    mats = []
    for ecls in E.class_reps:
        ec = end.component_maps(0, ecls)
        rows = []
        for mc in rep_comps:
            comp = {i: mm @ ec[i] for i, mm in mc.items() if i in ec}
            coords = reference_coords_of(gh, 0, comp)
            if coords is None:
                raise AssertionError("postcomposition escaped the hom basis")
            rows.append(sq.reduce(coords))
        mats.append(Matrix.from_row_entries(f, sq.dim, rows))
    return mats


def reference_semifree_act(P, n, vec, cdeg, cvec):
    """SemifreeModule.act over dense rows: each component expanded over its
    cell's echelon rows, multiplied in the base one table entry at a time,
    and read back at the pivots of the target cell; the result as nonzero
    entries."""
    C = P.algebra
    f = C.field
    comps = {}
    for p, ((k, b), c) in enumerate(zip(P.layout(n), dense_row(f, vec, P.dim(n)))):
        d = n - P.gens[k]
        row = dense_row(f, C.cell(P.cells[k], d).rows[b], C.dim(d))
        acc = comps.get(k, [f.zero] * C.dim(d))
        comps[k] = [f.coerce(a + c * x) for a, x in zip(acc, row)]
    out = []
    for k, cell in P.blocks(n + cdeg):
        d = n - P.gens[k]
        w = [f.zero] * C.dim(d + cdeg)
        table = C.mult.get((d, cdeg))
        if k in comps and table is not None:
            u, v = comps[k], dense_row(f, cvec, C.dim(cdeg))
            for i, a in enumerate(u):
                for j, x in enumerate(v):
                    for t, y in table[i][j].items():
                        w[t] = f.coerce(w[t] + a * x * y)
        out.extend(w[p] for p in cell.pivots)
    return nonzero_entries(out)


def dense_row(f, v: dict, width: int) -> tuple:
    """The row of the given width with the nonzero entries v."""
    return tuple(v.get(k, f.zero) for k in range(width))
