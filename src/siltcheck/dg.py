"""Finite-dimensional dg-algebras and dg-modules.

Elements are homogeneous: a degree plus the nonzero coordinates
{index: entry} in that degree's basis, the form every product, action,
differential and cell takes and returns.  Multiplication and action tables
are stored sparse per degree pair, each product as the dict {column: entry}
of its nonzero entries, and every product is read off them by the one
table_product.  Every constructor validates the graded axioms: d^2 = 0 in
every degree, the unit law on every basis element and the graded Leibniz
rule d(xy) = d(x)y + (-1)^{|x|} x d(y) on every basis pair, and
associativity on every basis triple.  Each axiom is one matrix identity per
degree pair or triple between blocks of the structure tables, read off the
sparse products and compared as sparse entries.

The central construction is dg_end of a complex of projectives U, built on
the hom complex of U with itself (end_dg keeps one on that hom complex): its
degree-n part is the degree-n piece of that hom complex, and the product
a*b is "apply b, then a", with no auxiliary sign.  That choice makes the
Leibniz rule hold exactly for the hom-complex differential, which the
constructor re-checks on every basis pair.  Its H^0 algebra needs no dg-end:
end_h0 reads it off the hom complex itself, multiplying class
representatives by composing them, and keeps it there for the dg-end built
later, if any, to share.  dg_end and its non-positive
smart_truncate both record .maps, each basis element as its component maps
U -> U, so hom modules and the evaluation module of U are built over either
one by composing those maps; each composite is read off generator images
(complexes.GradedHom), never built as a matrix.
"""

from __future__ import annotations

from .algebra import Algebra
from .complexes import (Complex, GradedHom, hom_complex, read_image,
                        summand_projection_maps)
from .linalg import Cochains, Matrix, RowSpace


def table_product(field, table, u: dict, v: dict) -> dict:
    """The product of u and v, both given as their nonzero entries, read off
    a structure table: the sum of u_i v_j table[i][j], as its nonzero
    entries, or zero when table is None.  Adds natively and reduces once,
    as Matrix.apply_entries does."""
    if table is None:
        return {}
    acc: dict = {}
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            p = row[j]
            if p:
                c = a * b
                for k, x in p.items():
                    acc[k] = acc.get(k, 0) + c * x
    return field.reduce_entries(acc)


def _swap_factors(field, tables: dict) -> dict:
    """tables[(m, n)][i][j] moved to [(n, m)][j][i] with the Koszul sign
    (-1)^{mn}: the table of the same products with their factors swapped."""
    out = {}
    for (m, n), t in tables.items():
        if (m * n) % 2:
            t = [[{k: field.neg(x) for k, x in p.items()} if p else p for p in row]
                 for row in t]
        out[(n, m)] = [list(col) for col in zip(*t)]
    return out


# -- the axioms as matrix identities; a table's missing pairs are zero -----
#
# Every stacked or flattened block, every product and every comparison is
# sparse: both sides of each identity are matrix products, whose entries are
# canonical, so comparing their entries decides what comparing rows would.


def _stacked(field, table, key, outer, inner, width) -> Matrix:
    """One row per product table[key][o][q], o in outer and q in inner."""
    t = table.get(key)
    rows = (t[o][q] for o in outer for q in inner) if t else ()
    return Matrix.from_entries(field, len(outer) * len(inner), width,
                               {r: p for r, p in enumerate(rows) if p})


def _flat(field, table, key, outer, inner, width, swap=False) -> Matrix:
    """Row o concatenates table[key][o][q] (table[key][q][o] with swap) over q in inner."""
    t, out = table.get(key), {}
    for r, o in enumerate(outer if t else ()):
        row = {}
        for s, p in enumerate([t[q][o] for q in inner] if swap else [t[o][q] for q in inner]):
            if p:
                base = s * width
                for k, x in p.items():
                    row[base + k] = x
        if row:
            out[r] = row
    return Matrix.from_entries(field, len(outer), len(inner) * width, out)


def _per_block(M: Matrix, w: int, run: int = 1) -> Matrix:
    """Each row of M holds consecutive width-w blocks, one per basis element;
    the result has one row per block index i and per run of consecutive rows
    of M, holding those rows' i-th blocks side by side."""
    groups = -(-M.nrows // run)
    out: dict = {}
    for r, nz in M.entries.items():
        g, s = divmod(r, run)
        for j, x in nz.items():
            i, k = divmod(j, w)
            row = out.get(i * groups + g)
            if row is None:
                row = out[i * groups + g] = {}
            row[s * w + k] = x
    return Matrix.from_entries(M.field, M.ncols // w * groups, run * w, out)


def _row_blocks(M: Matrix, w: int) -> Matrix:
    """Each row of M cut into its consecutive width-w blocks, one row per
    block, rows in order and a row's blocks in order."""
    blocks = M.ncols // w
    out: dict = {}
    for r, nz in M.entries.items():
        for j, x in nz.items():
            b, k = divmod(j, w)
            row = out.get(r * blocks + b)
            if row is None:
                row = out[r * blocks + b] = {}
            row[k] = x
    return Matrix.from_entries(M.field, M.nrows * blocks, w, out)


def _unit_products(Z, table, n, B, right: bool) -> dict:
    """unit*e_i, or e_i*unit when right, for each degree-n basis element e_i
    of Z and the unit of the dg-algebra B, as row i of the nonzero entries
    of one product of the unit with the flattened table block."""
    d, f = Z.dim(n), Z.field
    if not d:
        return {}
    flat = _flat(f, table, (n, 0) if right else (0, n), range(B.dim(0)), range(d), d,
                 swap=right)
    unit = Matrix.from_entries(f, 1, B.dim(0), {0: B.unit} if B.unit else {})
    return _per_block(unit @ flat, d).entries


def _check_leibniz(Z, table, X, Y, message: str):
    """d(xy) = d(x)y + (-1)^{|x|} x d(y) on every basis pair x of X, y of Y;
    table holds the products xy in Z.  Per degree pair
    (m, n), table[m, n] (stacked) @ d_Z[m+n] holds each d(x_i y_j),
    d_Y[n] @ table[m, n+1] (flattened over x) each x_i d(y_j), and
    d_X[m] @ table[m+1, n] (flattened over y) each d(x_i)y_j; the last two
    are regrouped by index remaps and the sides compared as entries."""
    f = Z.field
    for m in X.degrees():
        I = range(X.dim(m))
        for n in Y.degrees():
            J, w = range(Y.dim(n)), Z.dim(m + n + 1)
            if not (I and J and w):
                continue
            d_xy = _stacked(f, table, (m, n), I, J, Z.dim(m + n)) @ Z.diff(m + n)
            x_dy = _per_block(Y.diff(n) @ _flat(f, table, (m, n + 1), range(Y.dim(n + 1)), I,
                                                w, swap=True), w)
            dx_y = X.diff(m) @ _flat(f, table, (m + 1, n), range(X.dim(m + 1)), J, w)
            if (d_xy - x_dy if m % 2 == 0 else d_xy + x_dy).entries != \
                    _row_blocks(dx_y, w).entries:
                raise AssertionError(message.format(m, n))


def _check_associativity(Z, table, factors, xy, yz, message: str):
    """(xy)z = x(yz) on every basis triple of factors; xy and yz are
    (table, space) of the inner products, table holds the outer ones in Z.
    Per degree triple (m, n, p),
    table_xy[m, n] (stacked) @ table[m+n, p] (flattened) holds each
    (x_i y_j)z_k, and table_yz[n, p] (stacked) @ table[m, n+p] (flattened
    over x) each x_i(y_j z_k), regrouped by _per_block and compared as
    entries."""
    f = Z.field
    (t_xy, XY), (t_yz, YZ) = xy, yz
    px, py, pz = ({n: range(F.dim(n)) for n in F.degrees() if F.dim(n)} for F in factors)
    for m, I in px.items():
        for n, J in py.items():
            xi_yj = _stacked(f, t_xy, (m, n), I, J, XY.dim(m + n))
            for p, K in pz.items():
                w = Z.dim(m + n + p)
                if not w:
                    continue
                xy_z = xi_yj @ _flat(f, table, (m + n, p), range(XY.dim(m + n)), K, w)
                x_yz = (_stacked(f, t_yz, (n, p), J, K, YZ.dim(n + p))
                        @ _flat(f, table, (m, n + p), range(YZ.dim(n + p)), I, w, swap=True))
                if xy_z.entries != _per_block(x_yz, w, len(K)).entries:
                    raise AssertionError(message.format(m, n, p))


class _Graded(Cochains):
    """Degreewise dimensions and a degree +1 differential, with cohomology.

    dims: degree -> basis size (zero entries dropped); diff[n]: matrix of
    d: X^n -> X^{n+1} in row convention (zero matrices dropped).  cell(i, n)
    is the degree-n part of the cell of the i-th idempotent of the base
    algebra: e.B of an algebra B, M.e of a right module M, e.M of a left one.
    """

    def __init__(self, field, dims: dict, diff: dict):
        self.dims = {n: d for n, d in dims.items() if d > 0}
        super().__init__(field, self.dims)
        self.diffs = {n: m for n, m in diff.items() if not m.is_zero()}
        self._cells = {}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def apply_diff(self, n: int, u: dict) -> dict:
        return self.diff(n).apply_entries(u)

    def cell(self, i: int, n: int) -> RowSpace:
        """Echelon basis of the i-th cell in degree n, built once from the
        products of the degree-n basis with the idempotent, read off the
        structure table.

        Its rows and coords() are nonzero entries; for the unit idempotent
        the basis is the standard one.
        """
        if (i, n) not in self._cells:
            one, d = self.field.one, self.dim(n)
            rows = {b: r for b in range(d) if (r := self._times_idempotent(i, n, {b: one}))}
            self._cells[(i, n)] = RowSpace(Matrix.from_entries(self.field, d, d, rows))
        return self._cells[(i, n)]


class DgAlgebra(_Graded):
    """Graded algebra with square-zero degree +1 differential.

    mult[(m, n)][i][j]: the product of the i-th degree-m and j-th degree-n
    basis elements as its nonzero coordinates {column: entry}, a missing pair
    (m, n) meaning zero products; unit: its nonzero coordinates in degree 0.
    idempotents: orthogonal degree-0 cocycle idempotents summing to the unit,
    each as its nonzero coordinates, the unit alone when not given; their
    cells e.B are the building blocks of semifree resolutions over the
    algebra.  Elements are passed as their nonzero coordinates
    {index: entry} throughout.
    """

    def __init__(self, field, dims: dict, mult: dict, diff: dict, unit: dict,
                 labels: dict | None = None, idempotents=None):
        super().__init__(field, dims, diff)
        self.mult = mult
        self.unit = dict(unit)
        self.labels = labels or {}
        self.idempotents = ([dict(e) for e in idempotents] if idempotents is not None
                            else [self.unit])
        self.validate()

    def product(self, m: int, u: dict, n: int, v: dict) -> dict:
        """(deg-m element u) * (deg-n element v), in degree m+n."""
        return table_product(self.field, self.mult.get((m, n)), u, v)

    def is_nonpositive(self) -> bool:
        return self.hi <= 0

    def _times_idempotent(self, i: int, n: int, x):
        return self.product(0, self.idempotents[i], n, x)

    def validate(self):
        f = self.field
        self.check_square_zero("dg differential does not square to zero at degree {}")
        # unit: two-sided identity and a cocycle
        if any(not 0 <= k < self.dim(0) for k in self.unit):
            raise AssertionError("unit has an entry outside degree 0")
        if self.apply_diff(0, self.unit):
            raise AssertionError("unit is not a cocycle")
        mult = self.mult
        for n in self.degrees():
            sides = {side: _unit_products(self, mult, n, self, side == "right")
                     for side in ("left", "right")}
            for i in range(self.dim(n)):
                for side, products in sides.items():
                    if products.get(i) != {i: f.one}:
                        raise AssertionError(f"{side} unit fails in degree {n}")
        _check_leibniz(self, mult, self, self, "graded Leibniz fails on degrees ({}, {})")
        _check_associativity(self, mult, (self, self, self), (mult, self), (mult, self),
                             "associativity fails on degrees ({}, {}, {})")


class DgModule(_Graded):
    """Graded module over a DgAlgebra, right or left.

    For side "right", action[(m, n)][i][j] holds the nonzero coordinates
    {column: entry} of (i-th degree-m module basis) * (j-th degree-n algebra
    basis); for side "left" the roles are swapped: action[(m, n)][i][j] is
    (i-th degree-m algebra basis) * (j-th degree-n module basis).
    """

    def __init__(self, algebra: DgAlgebra, side: str, dims: dict, action: dict,
                 diff: dict, validate: bool = True):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        super().__init__(algebra.field, dims, diff)
        self.algebra = algebra
        self.side = side
        self.action = action
        if validate:
            self.validate()

    def act(self, m: int, x: dict, n: int, a: dict) -> dict:
        """Right: x*a for x in M^m, a in B^n.  Left: a*x for a in B^m, x in M^n."""
        return table_product(self.field, self.action.get((m, n)), x, a)

    def _times_idempotent(self, i: int, n: int, x):
        e = self.algebra.idempotents[i]
        return self.act(n, x, 0, e) if self.side == "right" else self.act(0, e, n, x)

    def validate(self):
        """The module axioms, with products in their order as elements: x*a
        for a right module, a*x for a left one.  The Koszul sign of Leibniz
        comes from the degree of the first factor either way."""
        B, one = self.algebra, self.field.one
        right = self.side == "right"
        self.check_square_zero("module differential does not square to zero at {}")
        action, mult = self.action, B.mult
        for n in self.degrees():
            products = _unit_products(self, action, n, B, right)
            if any(products.get(i) != {i: one} for i in range(self.dim(n))):
                raise AssertionError(f"unit action fails in degree {n}")
        first, second = (self, B) if right else (B, self)
        _check_leibniz(self, action, first, second, "module Leibniz fails on degrees ({}, {})")
        # (uv)w = u(vw) on triples x, a, b (right) or a, b, x (left)
        factors, xy, yz = (((self, B, B), (action, self), (mult, B)) if right else
                           ((B, B, self), (mult, B), (action, self)))
        _check_associativity(self, action, factors, xy, yz,
                             "action associativity fails on ({}, {}, {})")


# -- dg-end and hom modules ------------------------------------------------


def _composition_tables(gh, maps: dict) -> dict:
    """Products of hom-complex bases: [(m, n)][i][j] holds the nonzero
    coordinates in gh of x . b, "apply b, then x", for the i-th basis element
    x of gh^m and the j-th element b of maps[n], given by its component maps
    U -> U.

    Each b is taken once as its generator images, one per witness summand of
    each degree of U.  On such a summand of U^j, x . b has the generator
    image y @ h_x, for y the image under b and h_x the component of x at
    j + n, read at the pivots of the summand's cell of gh^{m+n}: one
    vector-matrix product per source summand and no composite matrix.
    """
    # images[n][b][j]: (first row, image under b) per witness summand of U^j
    images = {n: [{j: [(start, y) for start, y in gh.generator_images(j, mat) if y]
                   for j, mat in b.items()} for b in elems]
              for n, elems in maps.items()}
    at = {n: {(i, start): (homs, pos) for i, start, homs, pos in cells}
          for n, cells in gh.cells.items()}
    tables, zero = {}, {}
    for m in gh.degrees():
        for n, elems in maps.items():
            if not gh.dim(m) or not elems or not gh.dim(m + n):
                continue
            cells = at[m + n]
            table = []
            for (sx, hx) in gh.basis[m]:
                row = []
                for imgs in images[n]:
                    coords: dict = {}
                    for start, y in imgs.get(sx - n, ()):
                        read_image(coords, *cells[(sx - n, start)], hx.apply_entries(y))
                    row.append(coords or zero)
                table.append(row)
            tables[(m, n)] = table
    return tables


def end_units(gh: GradedHom) -> tuple[dict, list]:
    """(unit, idempotents) of End(U) as coordinates in degree 0 of gh =
    Hom(U, U): the identity of U, and the summand projections of U when U
    carries direct-sum data, the unit alone otherwise.  Read once and kept
    on gh, for its H^0 algebra and its dg-end alike."""
    units = getattr(gh, "_units", None)
    if units is None:
        U, f = gh.X, gh.field
        ident = {i: Matrix.identity(f, U.term(i).dim) for i in U.degrees() if U.term(i).dim}
        unit = gh.coords_of(0, ident)
        idempotents = ([gh.coords_of(0, pm.mats) for pm in summand_projection_maps(U)]
                       if hasattr(U, "summands") else [unit])
        units = gh._units = (unit, idempotents)
    return units


def dg_end(U: Complex, gh: GradedHom | None = None) -> DgAlgebra:
    """The endomorphism dg-algebra of a complex of projectives, built on gh
    = hom_complex(U, U), or on a new one when gh is None.

    Its unit and idempotents are end_units(gh): the summand projections of
    U when U carries direct-sum data.  Carries .gh, .complex and .maps, each
    degree-n basis element as its component maps U -> U.  Its H^0 algebra
    is end_h0(gh), read off gh without it; end_dg keeps one dg-end on its
    gh.
    """
    if not U.is_projective_complex():
        raise ValueError("dg_end needs a complex of projectives")
    if gh is None:
        gh = hom_complex(U, U)
    elif gh.X is not U or gh.Y is not U:
        raise ValueError("dg_end needs the hom complex of U with itself")
    dims = {n: gh.dim(n) for n in gh.degrees()}
    maps = {n: [{i: h} for i, h in gh.basis[n]] for n in gh.degrees()}
    diffs = {n: gh.diff(n) for n in gh.degrees()}
    unit, idempotents = end_units(gh)
    B = DgAlgebra(U.algebra.field, dims, _composition_tables(gh, maps), diffs, unit,
                  idempotents=idempotents)
    B.gh = gh
    B.complex = U
    B.maps = maps
    return B


def end_dg(gh: GradedHom) -> DgAlgebra:
    """dg_end(U, gh) for gh = Hom(U, U), built once per gh and kept on it,
    as end_h0 keeps H^0 on gh."""
    B = getattr(gh, "_end", None)
    if B is None:
        B = gh._end = dg_end(gh.X, gh)
    return B


def dg_hom_module(gh: GradedHom, base: DgAlgebra) -> DgModule:
    """The hom complex gh = Hom(U, X) as a right dg-module over base:
    dg_end(U) or its smart_truncate.

    The action is composition, f*b = "apply b, then f".  Carries .gh.
    """
    dims = {n: gh.dim(n) for n in gh.degrees()}
    diffs = {n: gh.diff(n) for n in gh.degrees()}
    M = DgModule(base, "right", dims, _composition_tables(gh, base.maps), diffs)
    M.gh = gh
    return M


def evaluation_left_module(base: DgAlgebra, U: Complex) -> DgModule:
    """U as a left dg-module over base, dg_end(U) or its smart_truncate, b
    acting by evaluation b(u)."""
    if base.complex is not U:
        raise ValueError("base must be the dg-end of U or its truncation")
    dims = {n: U.term(n).dim for n in U.degrees()}
    action, zero = {}, {}
    for m, elems in base.maps.items():
        for n in U.degrees():
            if not elems or not dims.get(n) or not dims.get(m + n):
                continue
            # b(u_j) = u_j @ b[n], row j of the component of b at degree n
            action[(m, n)] = [[b[n].entries.get(j, zero) if n in b else zero
                               for j in range(dims[n])] for b in elems]
    diffs = {n: U.diff(n) for n in U.degrees()}
    M = DgModule(base, "left", dims, action, diffs)
    M.complex = U
    return M


# -- cohomology-level algebra ----------------------------------------------


def h0_algebra(X, unit: dict | None = None, idempotents: list | None = None,
               products=None) -> Algebra:
    """H^0 of X as an ordinary algebra, for X a dg-algebra or the hom
    complex Hom(U, U) (end_h0).

    unit and idempotents are degree-0 cocycles, and products(reps) the table
    [[a * b for b in reps] for a in reps] of degree-0 products of the given
    cocycles, all as nonzero entries; for a dg-algebra they default to its
    own.  Its idempotents are the classes of the given ones (for a dg-end,
    the summand projections of the complex); classes that vanish in H^0 are
    dropped.  The basis is adapted so each idempotent class is itself a basis
    element.  Everything is read off one table of products of the
    representatives, as the h x h matrices of left and right multiplication
    by each class.  The result carries .class_reps (a degree-0 cocycle per
    basis element, as its nonzero entries) and .sq.
    """
    if products is None:
        unit, idempotents = X.unit, X.idempotents

        def products(reps):
            return [[X.product(0, a, 0, b) for b in reps] for a in reps]
    f = X.field
    sq = X.subquotient(0)
    h = sq.dim
    unit_cls = sq.reduce(unit)
    if not unit_cls:
        raise ValueError("H^0 is degenerate: the unit class vanishes")

    # the class of the product of the a-th and b-th representatives is row b
    # of L[a], left multiplication by the a-th class, and row a of R[b]
    base = [[sq.reduce(p) for p in row] for row in products(sq.rep_entries)]
    L = [Matrix.from_row_entries(f, h, base[a]) for a in range(h)]
    R = [Matrix.from_row_entries(f, h, [base[b][a] for b in range(h)]) for a in range(h)]

    idem_cls = []
    kept = []
    for pos, v in enumerate(idempotents):
        cls = sq.reduce(v)
        if cls:
            idem_cls.append(cls)
            kept.append(pos)
    total = Matrix.from_entries(f, len(idem_cls), h, dict(enumerate(idem_cls)))
    if total.apply_entries({t: f.one for t in range(len(idem_cls))}) != unit_cls:
        raise AssertionError("idempotent classes do not sum to the unit class")

    # Peirce pieces e_j H e_k, with e_j leading its own diagonal block: the
    # rows e_j u e_k of L[e_j] @ R[e_k] over the representatives u, each kept
    # when independent of the rows before it
    basis_cls = []
    blocks = []
    idem_positions = []
    for j, ej in enumerate(idem_cls):
        Lj = Matrix.combination(f, h, h, ((x, L[a]) for a, x in ej.items()))
        for k, ek in enumerate(idem_cls):
            top = int(j == k)
            piece = Lj @ Matrix.combination(f, h, h, ((x, R[a]) for a, x in ek.items()))
            rows = {top + u: p for u, p in piece.entries.items()}
            if top:
                rows[0] = ej
                idem_positions.append(len(basis_cls))
            for t in Matrix.from_entries(f, top + h, h, rows).left_pivots():
                basis_cls.append(rows[t])
                blocks.append((j, k))
    span = Matrix.from_entries(f, len(basis_cls), h, dict(enumerate(basis_cls)))
    inverse = ([span.solve_left_rows({t: f.one}) for t in range(h)]
               if len(basis_cls) == h else [None])
    if None in inverse:
        raise AssertionError("Peirce decomposition of H^0 is not direct")
    inverse = Matrix.from_entries(f, h, h, dict(enumerate(inverse)))

    labels = []
    for t, (j, k) in enumerate(blocks):
        if t in idem_positions:
            labels.append(f"p{j}")
        else:
            labels.append(f"h{j}{k}_{t}")
    # row y of span @ L[b_x] is b_x b_y; times the inverse, its coordinates
    mult = {}
    for x in range(h):
        Lx = Matrix.combination(f, h, h, ((c, L[a]) for a, c in basis_cls[x].items()))
        mult.update(((x, y), nz) for y, nz in (span @ Lx @ inverse).entries.items())
    alg = Algebra(f, labels, mult, inverse.apply_entries(unit_cls), idem_positions)
    alg.class_reps = [sq.lift(cls) for cls in basis_cls]
    alg.sq = sq
    alg.kept_idempotents = kept
    return alg


def _composites(gh: GradedHom, reps: list) -> list:
    """[[a . b for b in reps] for a in reps], "apply b, then a", for degree-0
    elements of gh = Hom(U, U) given as their nonzero coordinates: each
    composite read off the generator images of b and the component maps of
    a, each taken once per element."""
    images = [gh.images(0, b) for b in reps]
    comps = [gh.component_maps(0, a) for a in reps]
    return [[gh.postcomposed(0, y, c, gh, 0) for y in images] for c in comps]


def end_h0(gh: GradedHom) -> Algebra:
    """H^0 End(U) as an ordinary algebra, read off gh = Hom(U, U) and kept
    on it: homotopy classes of chain maps U -> U, multiplied by composing
    representatives, so no dg-end is built.  It equals h0_algebra of
    dg_end(U, gh), whose degree-0 products are the same composites.

    The idempotents are the classes of end_units(gh): of the summand
    projections of U when U carries direct-sum data, the unit class alone
    otherwise.
    """
    E = getattr(gh, "_h0", None)
    if E is None:
        unit, idempotents = end_units(gh)
        E = gh._h0 = h0_algebra(gh, unit, idempotents, lambda reps: _composites(gh, reps))
    return E


# -- truncation, opposite, side swap ---------------------------------------


def smart_truncate(B: DgAlgebra) -> DgAlgebra:
    """Non-positive truncation of B = dg_end(U): degree 0 becomes ker d^0,
    positive degrees die.

    The result carries .embed (per-degree inclusion matrices into B), .maps
    (each basis element as its component maps U -> U, as on B) and
    .complex = U; the inclusion is a map of dg-algebras and induces H^n
    isomorphisms for n <= 0.
    """
    f = B.field
    kmat = B.diff(0).left_kernel()
    dims = {n: B.dim(n) for n in B.degrees() if n < 0}
    if kmat.nrows:
        dims[0] = kmat.nrows
    embed = {n: Matrix.identity(f, B.dim(n)) for n in B.degrees() if n < 0}
    embed[0] = kmat

    def cocycle(vec: dict) -> dict:
        """Nonzero coordinates in ker d^0 of a degree-0 cocycle of B."""
        sol = kmat.solve_left_rows(vec)
        if sol is None:
            raise AssertionError("element is not a degree-0 cocycle")
        return sol

    def restrict(nz: dict, n: int) -> dict:
        """The nonzero coordinates in the truncation of a degree-n element of
        B lying in it, from its nonzero coordinates in B."""
        return nz if n < 0 or not nz else cocycle(nz)

    # each basis element as its nonzero coordinates in B
    basis = {n: [embed[n].entries.get(i, {}) for i in range(d)] for n, d in dims.items()}
    diffs, mult, zero = {}, {}, {}
    for n in dims:
        if dims.get(n + 1):
            P = embed[n] @ B.diff(n)
            diffs[n] = Matrix.from_entries(f, dims[n], dims[n + 1], {
                i: r for i, nz in P.entries.items() if (r := restrict(nz, n + 1))})
        for m in dims:
            t = B.mult.get((m, n))
            if dims.get(m + n) and t is not None:
                mult[(m, n)] = [[restrict(table_product(f, t, a, b), m + n) or zero
                                 for b in basis[n]] for a in basis[m]]
    C = DgAlgebra(f, dims, mult, diffs, cocycle(B.unit),
                  idempotents=[cocycle(e) for e in B.idempotents])
    C.embed = embed
    C.maps = {n: B.maps[n] for n in dims if n < 0}
    if kmat.nrows:
        C.maps[0] = [B.gh.component_maps(0, kmat.entries[r]) for r in range(kmat.nrows)]
    C.complex = B.complex
    return C


def opposite_dg(B: DgAlgebra) -> DgAlgebra:
    """Multiplication reversed with the Koszul sign (-1)^{mn}."""
    return DgAlgebra(B.field, dict(B.dims), _swap_factors(B.field, B.mult), dict(B.diffs),
                     B.unit, idempotents=B.idempotents)


def side_swap(M: DgModule, Bop: DgAlgebra) -> DgModule:
    """Left B-module to right B^op-module via x*a = (-1)^{|a||x|} a*x."""
    if M.side != "left":
        raise ValueError("side_swap expects a left module")
    return DgModule(Bop, "right", dict(M.dims), _swap_factors(M.field, M.action),
                    dict(M.diffs))
