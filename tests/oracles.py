"""Module-level oracles independent of the dg machinery, a dense linear
algebra reference independent of the sparse Matrix storage, the incremental
dense row space and the greedy dense subquotient built on it, reference
routes for the coresolution loop, its long exact sequences and the H^0
algebra, the summand projections of a direct sum as chain maps, a
coordinate reader that checks every row of a map, and
composite-matrix routes through it for the hom-complex differential, the
composition tables and the postcomposition action, with a dense route for the
action on a semifree module and routes from the definitions for the
differentials of a semifree module and of the hom complex out of one, two
readers of cell coordinates (by cell rows and block by block), the
naturality square read on each summand's own resolution and tensor, the
resolution construction that builds the orbit of every component, and the
dense action of every basis element of A on each kind of module the program
builds, read off its construction rather than off the arrows of a path.

The module oracles are computed with hom_space and dimension vectors only, so
the numbers frozen into the verifier tests do not come from the code under
test.
"""

from dataclasses import dataclass
from itertools import product

from siltcheck import silting, verifier
from siltcheck.algebra import Algebra, Module, generator_image, hom_space
from siltcheck.complexes import (ChainMap, Complex, Layout, cone, hom_complex, is_acyclic,
                                 projective_cache, projective_complex, zero_complex)
from siltcheck.dg import DgAlgebra, end_h0, table_product
from siltcheck.linalg import Matrix, RowSpace, first_independent, subquotient_from_maps
from siltcheck.semifree import GENERATOR_CAP, SemifreeCapError, tensor_map


def summand_projection_maps(X: Complex) -> list:
    """Idempotent chain maps projecting a direct_sum_complexes result onto
    each summand slice, built as matrices: the reference for the summand
    idempotents that dg.end_units reads off the unit's coordinates."""
    if X.summands is None:
        raise ValueError("complex does not carry direct-sum data")
    f = X.algebra.field
    maps = []
    for k, s in enumerate(X.summands):
        mats = {}
        for n in X.degrees():
            dim = X.term(n).dim
            if dim == 0:
                continue
            off = X.summand_offsets[n][k]
            mats[n] = Matrix.from_entries(
                f, dim, dim, {off + i: {off + i: f.one} for i in range(s.term(n).dim)})
        maps.append(ChainMap(X, X, mats, validate=False))
    return maps


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """The chain map "f, then g", degree by degree as matrices, unchecked."""
    return ChainMap(f.source, g.target, {n: f.mat(n) @ g.mat(n) for n in f.source.degrees()},
                    validate=False)


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
    offs, n = [], 0
    for S in summands:
        offs.append((n, S.dim))
        n += S.dim

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
    return [[f.add(x, f.neg(y)) for x, y in zip(r, s)] for r, s in zip(a, b)]


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
    summands = U.summands or [U]
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


def approximation_checks(f, U) -> tuple[bool, bool]:
    """For a coresolution step f: X -> T, T a direct sum of summand copies
    of U or zero: whether H^0 Hom(T, U) -> H^0 Hom(X, U), phi |-> phi . f,
    is onto, and whether it stops being onto when any one copy is dropped
    from T.

    The image of copy i is spanned by the classes of phi . pi_i . f, for
    pi_i the projection of T onto that copy and phi over the class
    representatives of H^0 Hom(T, U): honest chain maps composed, read
    back through reference_coords_of and spanned one row at a time.
    """
    X, T = f.source, f.target
    ghX, ghT = hom_complex(X, U), hom_complex(T, U)
    sqX = ghX.subquotient(0)
    phis = [ghT.chain_map_from_cocycle(rep) for rep in ghT.subquotient(0).rep_entries]
    images = []
    for pi in summand_projection_maps(T) if T.summands else []:
        rows = []
        for phi in phis:
            coords = reference_coords_of(ghX, 0, compose(compose(f, pi), phi).mats)
            if coords is None:
                raise AssertionError("composite escaped the hom basis")
            rows.append(dense_row(U.algebra.field, sqX.reduce(coords), sqX.dim))
        images.append(rows)

    def onto(copies) -> bool:
        span = ReferenceRowSpace(U.algebra.field, sqX.dim)
        for rows in copies:
            for row in rows:
                span.add(row)
        return span.dim == sqX.dim

    return onto(images), not any(onto(images[:i] + images[i + 1:])
                                 for i in range(len(images)))


def coresolution_les_ok(cor: ReferenceCoresolution, U) -> bool:
    """Every step passes both dimension checks and the endpoint is hom-acyclic."""
    if not all(cone_les_dims_ok(f, C) and hom_les_dims_ok(f, C, U) for f, C in cor.steps):
        return False
    ghf = hom_complex(cor.steps[-1][1], U)
    return all(ghf.h_dim(n) == 0 for n in range(ghf.lo, ghf.hi + 1))


def reference_h0_algebra(B) -> Algebra:
    """dg.h0_algebra with every product of classes taken per call: lift both
    classes to cocycles, multiply them in B, reduce the product.  The basis
    is the nonzero idempotent classes, then each class-basis vector outside
    the span of the vectors before it, found by incremental elimination.
    reps holds a representative of each: the idempotent itself, or the
    subquotient's representative of the class-basis vector."""
    f = B.field
    sq = B.subquotient(0)
    h = sq.dim

    def dense(cls):
        return dense_row(f, cls, h)

    unit_cls = dense(sq.reduce(B.unit))

    def mult_classes(u_cls, v_cls):
        u, v = (sq.lift(nonzero_entries(c)) for c in (u_cls, v_cls))
        return dense(sq.reduce(B.product(0, u, 0, v)))

    idem_cls, idem_reps, kept = [], [], []
    for pos, v in enumerate(B.idempotents):
        cls = dense(sq.reduce(v))
        if any(c != f.zero for c in cls):
            idem_cls.append(cls)
            idem_reps.append(v)
            kept.append(pos)
    # the idempotent classes, then each class-basis vector outside the span so far
    span_so_far = ReferenceRowSpace(f, h)
    basis_cls, reps = [], []
    for w, rep in zip(idem_cls + [tuple(f.one if t == u else f.zero for t in range(h))
                                  for u in range(h)], idem_reps + sq.rep_entries):
        if span_so_far.add(w):
            basis_cls.append(tuple(w))
            reps.append(rep)
        elif len(basis_cls) < len(idem_cls):
            raise AssertionError("idempotent classes are dependent")
    k = len(idem_cls)
    span = Matrix(f, len(basis_cls), h, basis_cls)
    labels = [f"p{j}" for j in range(k)] + [f"h{t}" for t in range(k, h)]
    mult = {}
    for x in range(h):
        for y in range(h):
            coords = span.solve_left_rows(nonzero_entries(mult_classes(basis_cls[x], basis_cls[y])))
            if coords:
                mult[(x, y)] = coords
    alg = Algebra(f, labels, mult, span.solve_left_rows(nonzero_entries(unit_cls)), range(k))
    alg.reps = reps
    alg.kept_idempotents = kept
    return alg


# -- composite-matrix routes ---------------------------------------------------
# Each composite is built as a whole matrix and read back through
# reference_coords_of, which checks every row of it: the route the generator
# images replace.


def _yoneda_action(N, v: int) -> list:
    """The action matrix on N of each ambient row of P = e_v A, built here
    from N's action: a map out of P is its image w of e_v, and sends row r
    to w times the r-th."""
    return [N.action_of(r) for r in projective_cache(N.algebra, v).ambient_rows]


def _checked_image(N, v: int, rows: dict) -> dict | None:
    """The image w of the generator e_v under the map P = e_v A -> N with the
    given nonzero rows {row: {column: entry}}, or None when they are not a
    module map: the map is one exactly when each of its rows is w times its
    ambient row."""
    w = generator_image(projective_cache(N.algebra, v), rows)
    for r, a in enumerate(_yoneda_action(N, v)):
        if a.apply_entries(w) != rows.get(r, {}):
            return None
    return w


def basis_maps(gh, n: int) -> list:
    """(source degree, matrix) of each degree-n basis element of gh, in
    coordinate order: for each block, the map out of its summand with each
    echelon row of its cell as generator value, by Yoneda, placed at the
    summand's rows."""
    out = []
    for k, j, cell in gh.layout(n).blocks:
        i, start, T = gh.gens[k], gh.starts[k], gh.Y.term(j)
        acts = _yoneda_action(T, gh.cells[k])
        for y in cell.rows:
            rows = {start + r: img for r, a in enumerate(acts) if (img := a.apply_entries(y))}
            out.append((i, Matrix.from_entries(gh.field, gh.X.term(i).dim, T.dim, rows)))
    return out


def reference_component_maps(gh, n: int, coords: dict) -> dict:
    """GradedHom.component_maps by basis maps: each coordinate's multiple of
    its basis map (basis_maps), summed per source degree."""
    basis, terms = basis_maps(gh, n), {}
    for t, c in coords.items():
        i, h = basis[t]
        terms.setdefault(i, []).append((c, h))
    return {i: Matrix.combination(gh.field, gh.X.term(i).dim, gh.Y.term(n + i).dim, ts)
            for i, ts in terms.items()}


def reference_coords_of(gh, n: int, comps: dict) -> dict | None:
    """GradedHom.coords_of with every row of every component checked:
    the nonzero coordinates of a family of component maps, source degree ->
    matrix, or None if some component is not a module map."""
    out: dict = {}
    offsets = gh.layout(n).offsets
    for i, mat in comps.items():
        if mat.is_zero():
            continue
        T = gh.Y.term(n + i)
        summands = [k for k, g in enumerate(gh.gens) if g == i]
        if not summands or T.dim == 0:
            return None
        for k in summands:
            start = gh.starts[k]
            end = start + projective_cache(gh.X.algebra, gh.cells[k]).dim
            w = _checked_image(T, gh.cells[k], {r - start: nz for r, nz in mat.entries.items()
                                                if start <= r < end})
            if w is None:
                return None
            if k in offsets:
                pos, cell = offsets[k]
                out.update((pos + t, x) for t, x in cell.coords(w).items())
    return out


def reference_hom_diff(gh, n):
    """The differential of gh in degree n: h d_Y - (-1)^n d_X h for each
    basis map h, read back through reference_coords_of."""
    f = gh.field
    sign = f.one if n % 2 == 0 else f.neg(f.one)
    rows = {}
    for r, (i, h) in enumerate(basis_maps(gh, n)):
        dx_h = (gh.X.diff(i - 1) @ h).scale(f.neg(sign))
        coords = reference_coords_of(gh, n + 1, {i: h @ gh.Y.diff(n + i), i - 1: dx_h})
        if coords is None:
            raise AssertionError("component map escaped its hom-space span")
        if coords:
            rows[r] = coords
    return Matrix.from_entries(f, gh.dim(n), gh.dim(n + 1), rows)


def reference_composition_tables(gh, maps):
    """dg._composition_tables of gh = Hom(U, X) with the elements of End(U)
    given as their component maps U -> U, maps[n] those of degree n, with
    every composite b then x built as a matrix and read back through
    reference_coords_of."""
    tables = {}
    for m in gh.degrees():
        for n, elems in maps.items():
            if not gh.dim(m) or not elems or not gh.dim(m + n):
                continue
            table = []
            for sx, hx in basis_maps(gh, m):
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
    for ecls in E.sq.rep_entries:
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


def reference_components(f, blocks, coords: dict) -> dict:
    """Layout(blocks).values(coords) by cell rows: each block's rows given
    the positions (k, b) in order, and each nonzero coordinate at (k, b)
    adding its multiple of row b of k's cell to the element of k."""
    positions = [(k, b) for k, _, cell in blocks for b in range(cell.dim)]
    rows = {k: cell.rows for k, _, cell in blocks}
    out: dict = {}
    for p, c in coords.items():
        k, b = positions[p]
        acc = out.setdefault(k, {})
        for j, x in rows[k][b].items():
            acc[j] = acc.get(j, 0) + c * x
    return {k: r for k, acc in out.items() if (r := f.reduce_entries(acc))}


def reference_values(blocks, coords: dict) -> dict:
    """Layout(blocks).values(coords) block by block: each block's slice of
    the coordinates, from a running offset, times its cell's basis."""
    out, off = {}, 0
    for k, _, cell in blocks:
        part = {t: c for t in range(cell.dim) if (c := coords.get(off + t))}
        if part and (v := cell.matrix.apply_entries(part)):
            out[k] = v
        off += cell.dim
    return out


def reference_semifree_act(P, n, vec, cdeg, cvec):
    """SemifreeModule.times of layout(n).values(vec) over dense rows: each
    component expanded over its cell's echelon rows, multiplied in the base
    one table entry at a time, and read back at the pivots of the target
    cell; the result as nonzero entries."""
    C = P.algebra
    f = C.field
    comps = {}
    for p, ((k, b), c) in enumerate(zip(P.layout(n).positions, dense_row(f, vec, P.dim(n)))):
        d = n - P.gens[k]
        row = dense_row(f, C.cell(P.cells[k], d).rows[b], C.dim(d))
        acc = comps.get(k, [f.zero] * C.dim(d))
        comps[k] = [f.coerce(a + c * x) for a, x in zip(acc, row)]
    out = []
    for k, _, cell in P.layout(n + cdeg).blocks:
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


def reference_semifree_diff(P, n):
    """SemifreeModule.diff_matrix(n) as the differential of the semifree
    module itself, not of P (x)_C C: the row of each cell basis element beta
    of generator k (degree g) is d(gen k) beta + (-1)^g gen k d(beta),
    d(gen k) expanded from its positions in gen_diffs over the cell rows,
    and each component written at the pivots of its generator's cell, every
    generator's cell laid out in order."""
    C = P.algebra
    f = C.field

    def offsets(m):
        out, width = {}, 0
        for k, g in enumerate(P.gens):
            cell = C.cell(P.cells[k], m - g)
            out[k] = (width, cell)
            width += cell.dim
        return out, width

    out_offsets, width = offsets(n + 1)
    rows = []
    for k, (_, cell) in offsets(n)[0].items():
        g = P.gens[k]
        dgen = {}
        for (k2, b2), c in P.gen_diffs[k].items():
            row = C.cell(P.cells[k2], g + 1 - P.gens[k2]).rows[b2]
            acc = dgen.setdefault(k2, {})
            for j, x in row.items():
                acc[j] = f.coerce(acc.get(j, f.zero) + c * x)
        dgen = {k2: {j: x for j, x in acc.items() if x} for k2, acc in dgen.items()}
        for beta in cell.rows:
            comps = {k2: C.product(g + 1 - P.gens[k2], delta, n - g, beta)
                     for k2, delta in dgen.items()}
            d = C.apply_diff(n - g, beta)
            comps[k] = {j: f.neg(x) for j, x in d.items()} if g % 2 else d
            out = {}
            for k2, v in comps.items():
                start, cell2 = out_offsets[k2]
                for t, c in cell2.coords(v).items():
                    out[start + t] = c
            rows.append(out)
    return Matrix.from_row_entries(f, width, rows)


def reference_semifree_hom_diff(sh, m):
    """SemifreeHom.diff(m) from the definition of the hom complex out of the
    semifree module P = sh.P into N = sh.N: a degree-m map phi has the
    differential d_N phi(gen k) - (-1)^m phi(d gen k), with d gen k expanded
    from its positions in gen_diffs over the cell rows of the base (not
    from gen_dcomps) and phi(gen k2 . c) = phi(gen k2) . c acted with N.act.
    A map is written as its generator values at the pivots of each
    generator's cell of N, lowest generator degree first and the generators
    of one degree in order."""
    P, N = sh.P, sh.N
    C, f = P.algebra, N.field
    gens = P.gens

    def layout(d):
        out, width = {}, 0
        for k in sorted(range(len(gens)), key=lambda k: (gens[k], k)):
            if N.lo <= d + gens[k] <= N.hi:
                cell = N.cell(P.cells[k], d + gens[k])
                if cell.dim:
                    out[k] = (width, cell)
                    width += cell.dim
        return out, width

    dgen = []
    for k, g in enumerate(gens):
        comps = {}
        for (k2, b2), c in P.gen_diffs[k].items():
            acc = comps.setdefault(k2, {})
            for j, x in C.cell(P.cells[k2], g + 1 - gens[k2]).rows[b2].items():
                acc[j] = f.coerce(acc.get(j, f.zero) + c * x)
        dgen.append({k2: nz for k2, acc in comps.items()
                     if (nz := {j: x for j, x in acc.items() if x != f.zero})})
    sign = f.one if m % 2 == 0 else f.neg(f.one)  # (-1)^m
    source, _ = layout(m)
    target, width = layout(m + 1)
    rows = []
    for k, (_, cell) in source.items():
        j = m + gens[k]
        for v in cell.rows:
            values = {k: N.apply_diff(j, v)}
            for k3, comps in enumerate(dgen):
                if k in comps:
                    w = N.act(j, v, gens[k3] + 1 - gens[k], comps[k])
                    acc = values.setdefault(k3, {})
                    for t, x in w.items():
                        acc[t] = f.coerce(acc.get(t, f.zero) - sign * x)
            row = {}
            for k3, value in values.items():
                value = {t: x for t, x in value.items() if x != f.zero}
                if not value:
                    continue
                if k3 not in target:
                    raise AssertionError("a generator value escaped the cells of N")
                start, cell3 = target[k3]
                row.update((start + t, x) for t, x in cell3.coords(value).items())
            rows.append(row)
    return Matrix.from_row_entries(f, width, rows)


def dense_row(f, v: dict, width: int) -> tuple:
    """The row of the given width with the nonzero entries v."""
    return tuple(v.get(k, f.zero) for k in range(width))


def zero_on_summand(evaluation, broken):
    """An evaluation-map builder that agrees with evaluation(T, gh, X) except
    on the summand broken of X (or X itself, when it is broken), where the map
    is zero: the counit of that summand alone fails, wherever it is checked."""
    def broken_evaluation(T, gh, X):
        eps = evaluation(T, gh, X)
        parts = X.summands or [X]
        if not any(s is broken for s in parts):
            return eps
        t = next(t for t, s in enumerate(parts) if s is broken)
        mats = {}
        for n, m in eps.mats.items():
            lo = X.summand_offsets[n][t] if X.summands else 0
            hi = lo + broken.dim(n)
            rows = {r: kept for r, nz in m.entries.items()
                    if (kept := {c: x for c, x in nz.items() if not lo <= c < hi})}
            mats[n] = Matrix.from_entries(m.field, m.nrows, m.ncols, rows)
        return ChainMap(T, X, mats, validate=False)
    return broken_evaluation


def reference_naturality_probe(ctx, X, Xp, window) -> dict:
    """The verdict of the naturality square of the first degree-0 map
    g: Y -> Y' between summands of X and X', each read on its own: the
    resolutions P of Hom(U, Y) and P' of Hom(U, Y'), their tensors and
    evaluation maps, and the lift P -> P' of composing with g.  Returns
    {"passed": ...} or {"vacuous": ...}, as the notes of naturality_probe
    name it.  The verifier's helpers are read off the module at call time,
    so a test that replaces one breaks this route too."""
    lo, hi = window
    win = verifier.DegreeWindow(lo, hi)
    for Y, Yp in product(X.summands or [X], Xp.summands or [Xp]):
        gh = ctx.hom(Y, Yp)
        if gh.subquotient(0).dim:
            break
    else:
        return {"vacuous": "no nonzero map to test"}
    grep = gh.subquotient(0).rep_entries[0]
    g = gh.chain_map_from_cocycle(grep)
    MX, MXp = ctx.hom_module(Y), ctx.hom_module(Yp)
    TX, TXp = ctx.tensor(MX, win), ctx.tensor(MXp, win)
    P, Pp = TX.resolution, TXp.resolution
    if not (P.gens and Pp.gens):
        return {"vacuous": "degenerate tensor, nothing to compare"}
    epsX = verifier._evaluation_chain_map(TX, MX.gh, Y)
    epsXp = verifier._evaluation_chain_map(TXp, MXp.gh, Yp)
    # each augmentation value's component maps U -> Y, then g, read back in
    # Hom(U, Y'): the lift targets built from matrices, not from generator values
    targets = []
    for deg, aug in zip(P.gens, P.gen_augs):
        comps = {i: m @ g.mat(deg + i) for i, m in MX.gh.component_maps(deg, aug).items()}
        coords = reference_coords_of(MXp.gh, deg, comps)
        assert coords is not None, "a composite escaped the hom basis"
        targets.append(coords)
    lam = verifier.lift_up_to_homotopy(P, Pp, targets)
    assert lam is not None
    comps = [reference_components(Pp.algebra.field, Pp.layout(deg).blocks, value)
             for deg, value in zip(P.gens, lam)]
    tlam = ChainMap(TX, TXp, {n: tensor_map(ctx.Uc, P, layout.blocks, Pp,
                                            TXp.block_layout.get(n, Layout(())), comps)
                              for n, layout in TX.block_layout.items()})
    return {"passed": all(epsX.induced(n) @ g.induced(n) == tlam.induced(n) @ epsXp.induced(n)
                          for n in range(lo, hi + 1))}


def _joined(q: dict, x: dict, split: int) -> dict:
    """The nonzero entries of the row holding q from position 0 and x from
    position split: the element (q, x) of the augmentation cone of P -> M."""
    out = dict(q)
    out.update((split + j, c) for j, c in x.items())
    return out


def reference_kill_cone(P, top: int):
    """semifree._kill_cone with the orbit of every component of every class,
    boundaries included, under every basis row of its piece's cell e.C^0.

    A cone class (q, x) is the sum of its components (q.e, x.e) over the
    idempotents e of the base C.  A degree-n cell e.C with differential q.e
    and augmentation -x.e kills that component together with its orbit
    under C^0.  Components with larger orbits come first, and a component
    gets a cell when its class is independent of the classes and orbits of
    the components before it.
    """
    M, C = P.target, P.algebra
    f = C.field
    for n in range(min(top, M.hi), P.cutoff - 1, -1):
        if n < M.lo and (not P.gens or P.gens[-1] > n + 1 - C.lo):
            break
        din, dout, dim = P.cone_diff(n - 1), P.cone_diff(n), P.cone_dim(n)
        if dim == din.rank() + dout.rank():
            continue
        sq = subquotient_from_maps(din, dout, f, dim)
        width = sq.dim
        split = P.dim(n + 1)
        layout_up = P.layout(n + 1)
        comps = []
        for rep in sq.rep_entries:
            q = layout_up.values({j: c for j, c in rep.items() if j < split})
            x = {j - split: c for j, c in rep.items() if j >= split}
            for i, e in enumerate(C.idempotents):
                orbit = [sq.reduce(_joined(P.times(n + 1, q, 0, c), M.act(n, x, 0, c), split))
                         for c in C.cell(i, 0).rows]
                comps.append((i, P.times(n + 1, q, 0, e), M.act(n, x, 0, e), orbit))
        ranks = [Matrix.from_row_entries(f, width, orbit).rank() for *_, orbit in comps]
        order = sorted(range(len(comps)), key=lambda t: (-ranks[t], t))
        stacks = ([sq.reduce(_joined(qe, xe, split)), *orbit]
                  for _, qe, xe, orbit in (comps[t] for t in order))
        for pos in first_independent(f, width, stacks):
            if len(P.gens) >= GENERATOR_CAP:
                raise SemifreeCapError(
                    f"semifree resolution exceeded {GENERATOR_CAP} generators at degree {n}")
            i, qe, xe, _ = comps[order[pos]]
            P.add_generator(n, {layout_up.positions[s]: c for s, c in qe.items()},
                            {j: f.neg(c) for j, c in xe.items()}, i)
    return P


# -- modules as one action matrix per basis element ---------------------------
# A Module keeps the matrices of the generators and builds any other basis
# element's as the product along its path.  These build the matrix of every
# basis element of A from the module's construction, as the dense action
# modules held before: the reference for Module.action on each kind of module.


def dense_projective_action(A, v: int) -> list:
    """e_v A: each basis element b_j acts by right multiplication, solved
    back into the echelon basis of e_v A."""
    span = RowSpace(A.left_mult_matrix(A.idempotents[v])).matrix
    d = span.nrows
    return [Matrix.from_entries(A.field, d, d, {
        r: span.solve_left_rows(w) for r, w in (span @ A.right_mult_matrix(j)).entries.items()})
        for j in range(A.dim)]


def dense_simple_action(A, v: int) -> list:
    """The vertex simple: e_v acts as 1 and every other basis element as 0."""
    f, e = A.field, A.idempotents[v]
    return [Matrix.from_entries(f, 1, 1, {0: {0: f.one}} if j == e else {}) for j in range(A.dim)]


def dense_sum_action(A, actions: list) -> list:
    """The direct sum of modules given by their dense actions."""
    return [Matrix.block_diag(A.field, [a[j] for a in actions]) for j in range(A.dim)]


def dense_projective_sum_action(A, types) -> list:
    return dense_sum_action(A, [dense_projective_action(A, v) for v in types])


def dense_subquotient_action(sq, action: list) -> list:
    """The action induced on the classes of sq (cohomology): each
    representative acted on and reduced."""
    return [Matrix.from_row_entries(sq.field, sq.dim, [sq.reduce(a.apply_entries(rep))
                                                       for rep in sq.rep_entries])
            for a in action]


def dense_cell_action(cell, action: list) -> list:
    """The action on the span of a RowSpace closed under it, in its echelon
    basis: each basis row acted on and read at the pivots."""
    out = []
    for a in action:
        img = (cell.matrix @ a).entries
        out.append(Matrix.from_row_entries(cell.field, cell.dim,
                                           [cell.coords(img.get(r, {})) for r in range(cell.dim)]))
    return out


def reference_smart_truncate(B: DgAlgebra) -> DgAlgebra:
    """The non-positive truncation of B = dg_end(U), restricted from B: degree
    0 becomes ker d^0, positive degrees die, and each product and
    differential is B's, read in ker d^0 when it lands in degree 0.  The
    reference for dg.smart_truncate, which builds it off Hom(U, U) with no
    dg-end.  ker d^0 has the basis found by incremental elimination: each
    idempotent of B and each representative of B.subquotient(0) outside the
    span of the boundaries and of the ones kept before it, then each row of
    d^{-1} outside the span of the rows before it."""
    f, w = B.field, B.dim(0)
    bounds = ReferenceRowSpace(f, w)
    boundary_rows = [nonzero_entries(r) for r in B.diff(-1).rows if bounds.add(r)]
    cocycles = ReferenceRowSpace(f, w)
    for r in bounds.rows:
        cocycles.add(r)
    reps = [v for v in B.idempotents + B.subquotient(0).rep_entries
            if cocycles.add(dense_row(f, v, w))]
    kmat = Matrix.from_row_entries(f, w, reps + boundary_rows)
    dims = {n: B.dim(n) for n in B.degrees() if n < 0}
    if kmat.nrows:
        dims[0] = kmat.nrows
    embed = {n: Matrix.identity(f, B.dim(n)) for n in B.degrees() if n < 0}
    embed[0] = kmat

    def restrict(nz: dict, n: int) -> dict:
        """The coordinates in the truncation of a degree-n element of B lying
        in it, from its coordinates in B."""
        if n < 0 or not nz:
            return nz
        sol = kmat.solve_left_rows(nz)
        if sol is None:
            raise AssertionError("element is not a degree-0 cocycle")
        return sol

    basis = {n: [embed[n].entries.get(j, {}) for j in range(d)] for n, d in dims.items()}
    diffs, mult = {}, {}
    for n in dims:
        if dims.get(n + 1):
            P = embed[n] @ B.diff(n)
            diffs[n] = Matrix.from_entries(f, dims[n], dims[n + 1], {
                i: r for i, nz in P.entries.items() if (r := restrict(nz, n + 1))})
        for m in dims:
            t = B.mult.get((m, n))
            if dims.get(m + n) and t is not None:
                mult[(m, n)] = [[restrict(table_product(f, t, a, b), m + n) for b in basis[n]]
                                for a in basis[m]]
    return DgAlgebra(f, dims, mult, diffs, restrict(B.unit, 0),
                     idempotents=[restrict(e, 0) for e in B.idempotents], gh=B.gh, embed=embed)
