"""Finite-dimensional dg-algebras and dg-modules.

Elements are homogeneous: a degree plus the nonzero coordinates
{index: entry} in that degree's basis, the form every product, action,
differential and cell takes and returns.  Multiplication and action tables
are stored sparse per degree pair, each product as the dict {column: entry}
of its nonzero entries, and every product is read off them by the one
table_product.  Every constructor validates the graded axioms: d^2 = 0,
then, reading each block of a table X (x) Y -> Z as the matrix mu_{m,n} of
X^m (x) Y^n -> Z^{m+n}, three identities compared as sparse entries:
  unit:          (u (x) id) mu_{0,n} = id and (id (x) u) mu_{n,0} = id;
  Leibniz:       mu_{m,n} d_Z = (d_X (x) id) mu_{m+1,n}
                                + (-1)^m (id (x) d_Y) mu_{m,n+1};
  associativity: (mu_xy (x) id) mu_out = (id (x) mu_yz) mu_in.
A dg-algebra is checked as a right module over itself, plus its left unit
and its idempotents.

The central construction is the endomorphism dg-algebra of a complex of
projectives U, built on the hom complex Hom(U, U) by the one _end_algebra:
its degree-n basis is a basis of a piece of that hom complex closed under
composition and d, and the product a*b is "apply b, then a", with no
auxiliary sign.  That choice makes the Leibniz rule hold exactly for the
hom-complex differential, which the constructor re-checks on every basis
pair.  dg_end takes the whole hom complex, and smart_truncate, the
non-positive truncation C, takes ker d^0 in degree 0 and the hom complex
below, so C is read straight off Hom(U, U) and no dg-end is built for it.
Its H^0 algebra E needs no dg-end either: end_h0 reads it off the hom
complex itself, multiplying class representatives by composing them.  E
and C^0 share one splitting Z^0 = span(reps) + B^0 (end_classes): E's
basis is the classes of the reps, C^0's the reps, then a basis of B^0.
Both algebras declare gh and embed, so an element of either is its
coordinates in Hom(U, U).  Every product of such elements, in either
algebra, in a hom module over either and in H^0, is made by the one
_composition_tables from generator values alone (GradedHom.after), never as
a matrix.
"""

from __future__ import annotations

import itertools

from .algebra import Algebra
from .complexes import Complex, GradedHom, hom_complex, summand_blocks
from .linalg import Cochains, Matrix, RowSpace, Subquotient


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


# -- the axioms as identities between structure maps; a missing block is zero
#
# Both sides of each identity are sparse matrix products, whose entries are
# canonical, so comparing their entries decides what comparing rows would.


class _Structure:
    """A structure table X (x) Y -> Z read block by block as the matrices
    mu(m, n) of X^m (x) Y^n -> Z^{m+n}, row i * dim Y^n + j holding the
    product of the i-th and j-th basis elements.  Each mu, and each laying
    of its rows side by side for times, is built on first request and kept
    for the validation that made this."""

    def __init__(self, table: dict, X, Y, Z):
        self.table, self.X, self.Y, self.Z = table, X, Y, Z
        self._built = {}

    def mu(self, m: int, n: int) -> Matrix:
        if (m, n) not in self._built:
            t, d = self.table.get((m, n)), self.Y.dim(n)
            rows = {i * d + j: p for i, row in enumerate(t or ()) for j, p in enumerate(row) if p}
            self._built[(m, n)] = Matrix.from_entries(self.Z.field, self.X.dim(m) * d,
                                                      self.Z.dim(m + n), rows)
        return self._built[(m, n)]

    def times(self, M: Matrix, m: int, n: int, first: bool) -> Matrix:
        """(M (x) id) mu(m, n) when first, else (id (x) M) mu(m, n), id on
        the d basis elements of the other factor, with no Kronecker product:
        mu's rows are laid side by side, d blocks to a row, one row per basis
        element of the factor M acts on, so one product with M makes every
        block at once, and each row of it is cut back into its blocks."""
        d, w = (self.Y.dim(n) if first else self.X.dim(m)), self.Z.dim(m + n)
        laid = self._built.get((m, n, first))
        if laid is None:
            rows: dict = {}
            for r, p in self.mu(m, n).entries.items():
                i, j = divmod(r, self.Y.dim(n))
                i, j = (i, j) if first else (j, i)
                rows.setdefault(i, {}).update({j * w + k: x for k, x in p.items()})
            laid = self._built[(m, n, first)] = Matrix.from_entries(
                self.Z.field, self.X.dim(m) if first else self.Y.dim(n), d * w, rows)
        out: dict = {}
        for r, nz in (M @ laid).entries.items():
            for c, x in nz.items():
                j, k = divmod(c, w)
                i = r * d + j if first else j * M.nrows + r
                row = out.get(i)
                if row is None:
                    row = out[i] = {}
                row[k] = x
        return Matrix.from_entries(self.Z.field, M.nrows * d, w, out)


def _check_unit(table: _Structure, B, sides, message: str):
    """u x = x (side "left") and x u = x ("right") for u the unit of the
    dg-algebra B and x each basis element of table.Z, as the identities
    (u (x) id) mu(0, n) = id and (id (x) u) mu(n, 0) = id; raises
    message.format(side=side, n=n) at the first basis element that fails,
    each side in the given order."""
    Z, one = table.Z, B.field.one
    u = Matrix.from_entries(B.field, 1, B.dim(0), {0: B.unit} if B.unit else {})
    for n in Z.degrees():
        got = [(table.times(u, 0, n, True) if side == "left" else
                table.times(u, n, 0, False)).entries for side in sides]
        for i in range(Z.dim(n)):
            for side, products in zip(sides, got):
                if products.get(i) != {i: one}:
                    raise AssertionError(message.format(side=side, n=n))


def _check_leibniz(table: _Structure, message: str):
    """d(xy) = d(x)y + (-1)^{|x|} x d(y) on every basis pair x of X, y of Y
    for table X (x) Y -> Z, per degree pair (m, n) as the identity
    mu(m, n) d_Z = (d_X (x) id) mu(m+1, n) + (-1)^m (id (x) d_Y) mu(m, n+1)."""
    X, Y, Z = table.X, table.Y, table.Z
    for m, n in itertools.product(X.degrees(), Y.degrees()):
        if Z.dim(m + n + 1):
            dx_y = table.times(X.diff(m), m + 1, n, True)
            x_dy = table.times(Y.diff(n), m, n + 1, False)
            if (table.mu(m, n) @ Z.diff(m + n)).entries != \
                    (dx_y - x_dy if m % 2 else dx_y + x_dy).entries:
                raise AssertionError(message.format(m, n))


def _check_associativity(table: _Structure, xy: _Structure, yz: _Structure, message: str):
    """(xy)z = x(yz) on every basis triple x of X, y of Y, z of W, for xy:
    X (x) Y -> XY, yz: Y (x) W -> YZ and table the products XY (x) W -> Z
    and X (x) YZ -> Z, per degree triple (m, n, p) as the identity
    (mu_xy(m, n) (x) id) mu(m+n, p) = (id (x) mu_yz(n, p)) mu(m, n+p)."""
    for m, n, p in itertools.product(xy.X.degrees(), xy.Y.degrees(), yz.Y.degrees()):
        if table.Z.dim(m + n + p) and table.times(xy.mu(m, n), m + n, p, True).entries != \
                table.times(yz.mu(n, p), m, n + p, False).entries:
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
    checked by validate, each as its nonzero coordinates, the unit alone
    when not given; their cells e.B are the building blocks of semifree
    resolutions over the algebra.  Elements are passed as their nonzero coordinates
    {index: entry} throughout.  The dg-end of U (dg_end) and its truncation
    (smart_truncate) have gh = Hom(U, U), embed, their degree-n basis as the
    rows of embed[n], coordinates in gh, and basis_cuts, that basis cut once
    for every hom module over it (_cuts); all three are None elsewhere.
    """

    def __init__(self, field, dims: dict, mult: dict, diff: dict, unit: dict,
                 idempotents=None, gh=None, embed: dict | None = None,
                 basis_cuts: dict | None = None):
        super().__init__(field, dims, diff)
        self.gh, self.embed, self.basis_cuts = gh, embed, basis_cuts
        self.mult = mult
        self.unit = dict(unit)
        self.idempotents = ([dict(e) for e in idempotents] if idempotents is not None
                            else [self.unit])
        self.validate()

    def product(self, m: int, u: dict, n: int, v: dict) -> dict:
        """(deg-m element u) * (deg-n element v), in degree m+n."""
        return table_product(self.field, self.mult.get((m, n)), u, v)

    # the algebra as a left module over itself: act(m, a, n, x) = a*x, as
    # for a left DgModule
    act = product

    def is_nonpositive(self) -> bool:
        return self.hi <= 0

    def _times_idempotent(self, i: int, n: int, x):
        return self.product(0, self.idempotents[i], n, x)

    def validate(self):
        self.check_square_zero("dg differential does not square to zero at degree {}")
        if any(not 0 <= k < self.dim(0) for k in self.unit):
            raise AssertionError("unit has an entry outside degree 0")
        if self.apply_diff(0, self.unit):
            raise AssertionError("unit is not a cocycle")
        mult = _Structure(self.mult, self, self, self)
        _check_unit(mult, self, ("left", "right"), "{side} unit fails in degree {n}")
        _check_leibniz(mult, "graded Leibniz fails on degrees ({}, {})")
        _check_associativity(mult, mult, mult, "associativity fails on degrees ({}, {}, {})")
        es = self.idempotents
        if any(not 0 <= k < self.dim(0) for e in es for k in e):
            raise AssertionError("an idempotent has an entry outside degree 0")
        if any(self.apply_diff(0, e) for e in es):
            raise AssertionError("an idempotent is not a cocycle")
        if any(self.product(0, e, 0, g) != (e if i == j else {})
               for i, e in enumerate(es) for j, g in enumerate(es)):
            raise AssertionError("idempotents are not orthogonal idempotents")
        ones = dict.fromkeys(range(len(es)), self.field.one)
        if Matrix.from_row_entries(self.field, self.dim(0), es).apply_entries(ones) != self.unit:
            raise AssertionError("idempotents do not sum to the unit")


class DgModule(_Graded):
    """Graded module over a DgAlgebra, right or left.

    For side "right", action[(m, n)][i][j] holds the nonzero coordinates
    {column: entry} of (i-th degree-m module basis) * (j-th degree-n algebra
    basis); for side "left" the roles are swapped: action[(m, n)][i][j] is
    (i-th degree-m algebra basis) * (j-th degree-n module basis).  A hom
    module (dg_hom_module) has its hom complex as gh, the evaluation module of
    U (evaluation_left_module) has U as complex; each is None otherwise.
    """

    def __init__(self, algebra: DgAlgebra, side: str, dims: dict, action: dict,
                 diff: dict, validate: bool = True, gh=None, complex=None):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        super().__init__(algebra.field, dims, diff)
        self.gh, self.complex = gh, complex
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
        B, right = self.algebra, self.side == "right"
        self.check_square_zero("module differential does not square to zero at {}")
        action = _Structure(self.action, *((self, B) if right else (B, self)), self)
        mult = _Structure(B.mult, B, B, B)
        _check_unit(action, B, (self.side,), "unit action fails in degree {n}")
        _check_leibniz(action, "module Leibniz fails on degrees ({}, {})")
        # (uv)w = u(vw) on triples x, a, b (right) or a, b, x (left)
        _check_associativity(action, *((action, mult) if right else (mult, action)),
                             "action associativity fails on ({}, {}, {})")


# -- dg-end and hom modules ------------------------------------------------


def _cuts(end: GradedHom, elems: dict) -> dict:
    """n -> the values of each element elems[n][j] of end = Hom(U, U) cut
    along U's generators (GradedHom.cuts), alike in every hom out of U."""
    return {n: [end.cuts(end, n, b) for b in ls] for n, ls in elems.items() if ls}


def _composition_tables(gh: GradedHom, bs: dict, left: dict | None = None) -> dict:
    """[(m, n)][i][j]: x . b, "apply b, then x", as its nonzero coordinates
    in gh^{m+n}, for x = left[m][i] (by default the i-th basis element of
    gh^m, gh = Hom(U, X)) and b the element of End(U) whose cut values
    (_cuts) are bs[n][j]: the one builder of products of End(U), of its
    action and of H^0.  Each x is applied to the cuts (GradedHom.after)."""
    one, zero = gh.field.one, {}
    left = left or {m: [{t: one} for t in range(gh.dim(m))] for m in gh.degrees()}
    xs = {m: [gh.values(m, x) for x in ls] for m, ls in left.items() if ls}
    return {(m, n): [[gh.assemble(m + n, v) if (v := gh.after(m, x, c)) else zero for c in cs]
                     for x in vs] for m, vs in xs.items() for n, cs in bs.items() if gh.dim(m + n)}


def _basis(embed: dict) -> dict:
    """n -> each row of embed[n], a degree-n basis element of the dg-end of
    U or of its truncation, as its nonzero coordinates in Hom(U, U)."""
    return {n: [M.entries.get(j, {}) for j in range(M.nrows)] for n, M in embed.items() if M.nrows}


def end_units(gh: GradedHom) -> tuple[dict, list]:
    """(unit, idempotents) of End(U) as coordinates in degree 0 of gh =
    Hom(U, U): the identity of U, and the summand projections of U when U
    is a direct sum, the unit alone otherwise.  The projection onto a
    summand is the unit's coordinates on the generators lying in it.  Read
    once and kept on gh, for its H^0 algebra and every dg-algebra built on it."""
    def build():
        U = gh.X
        unit = gh.coords_of(0, {i: Matrix.identity(gh.field, U.term(i).dim)
                                for i in U.degrees() if U.term(i).dim})
        if U.summands is None:
            return unit, [unit]
        # the summand of each degree-0 position: its generator's
        blocks = summand_blocks(U)
        owner = [blocks[gh.gens[k]][gh.starts[k]] for k, _ in gh.layout(0).positions]
        return unit, [{p: c for p, c in unit.items() if owner[p] == s}
                      for s in range(len(U.summands))]
    return gh.kept("units", build)


def _end_algebra(gh: GradedHom, embed: dict) -> DgAlgebra:
    """The dg-algebra whose degree-n basis is the rows of embed[n], elements
    of gh^n for gh = Hom(U, U) closed under composition and d.  Its products
    and differential are the composites (_composition_tables) and the
    differentials of that basis in gh, read back in the basis; its unit and
    idempotents are end_units(gh), read back likewise.  The basis is cut
    once, and those cuts are its basis_cuts."""
    basis = _basis(embed)
    cuts = _cuts(gh, basis)

    def read(n: int, v: dict) -> dict:
        """The nonzero coordinates in the degree-n basis of v in gh^n."""
        x = embed[n].solve_left_rows(v) if v else v
        if x is None:
            raise AssertionError(f"a degree-{n} element lies outside the algebra")
        return x

    mult = {(m, n): [[read(m + n, p) for p in row] for row in t]
            for (m, n), t in _composition_tables(gh, cuts, basis).items()}
    diffs = {n: Matrix.from_entries(gh.field, M.nrows, embed[n + 1].nrows, {
                 i: r for i, v in (M @ gh.diff(n)).entries.items() if (r := read(n + 1, v))})
             for n, M in embed.items() if n + 1 in embed}
    unit, idempotents = end_units(gh)
    return DgAlgebra(gh.field, {n: M.nrows for n, M in embed.items()}, mult, diffs,
                     read(0, unit), idempotents=[read(0, e) for e in idempotents],
                     gh=gh, embed=embed, basis_cuts=cuts)


def dg_end(U: Complex, gh: GradedHom | None = None) -> DgAlgebra:
    """The endomorphism dg-algebra of a complex of projectives, built on gh
    = hom_complex(U, U), or on a new one when gh is None: _end_algebra with
    gh's own basis in every degree.

    Its unit and idempotents are end_units(gh): the summand projections of
    U when U is a direct sum.  Its H^0 algebra is end_h0(gh), read off gh
    without it, and its truncation smart_truncate(gh), built without it.
    """
    if not U.is_projective_complex():
        raise ValueError("dg_end needs a complex of projectives")
    if gh is None:
        gh = hom_complex(U, U)
    elif gh.X is not U or gh.Y is not U:
        raise ValueError("dg_end needs the hom complex of U with itself")
    return _end_algebra(gh, {n: Matrix.identity(gh.field, gh.dim(n)) for n in gh.degrees()})


def dg_hom_module(gh: GradedHom, base: DgAlgebra) -> DgModule:
    """The hom complex gh = Hom(U, X) as a right dg-module over base:
    dg_end(U) or its smart_truncate, acting through their basis_cuts.

    The action is composition, f*b = "apply b, then f", b read as its
    coordinates in base.gh = Hom(U, U).
    """
    dims = {n: gh.dim(n) for n in gh.degrees()}
    diffs = {n: gh.diff(n) for n in gh.degrees()}
    action = _composition_tables(gh, base.basis_cuts)
    return DgModule(base, "right", dims, action, diffs, gh=gh)


def evaluation_left_module(base: DgAlgebra, U: Complex) -> DgModule:
    """U as a left dg-module over base, dg_end(U) or its smart_truncate, b
    acting by evaluation b(u): each basis element of base read once as its
    component maps U -> U, from its coordinates in base.gh = Hom(U, U)."""
    if base.gh is None or base.gh.X is not U:
        raise ValueError("base must be the dg-end of U or its truncation")
    dims = {n: U.term(n).dim for n in U.degrees()}
    action, zero = {}, {}
    for m, elems in _basis(base.embed).items():
        comps = [base.gh.component_maps(m, b) for b in elems]
        for n in U.degrees():
            if not dims.get(n) or not dims.get(m + n):
                continue
            # b(u_j) = u_j @ b[n], row j of the component of b at degree n
            action[(m, n)] = [[b[n].entries.get(j, zero) if n in b else zero
                               for j in range(dims[n])] for b in comps]
    diffs = {n: U.diff(n) for n in U.degrees()}
    return DgModule(base, "left", dims, action, diffs, complex=U)


# -- cohomology-level algebra ----------------------------------------------


class H0Algebra(Algebra):
    """H^0 as an ordinary algebra (h0_algebra): its basis is the classes of
    sq.rep_entries (h0_classes), p0, p1, ... for the given idempotents whose
    classes survive, at the positions kept_idempotents, then h<t>."""

    def __init__(self, field, labels, mult, unit, idempotents, sq, kept):
        super().__init__(field, labels, mult, unit, idempotents)
        self.sq, self.kept_idempotents = sq, kept


def h0_classes(X, idempotents: list) -> Subquotient:
    """The splitting Z^0 = span(rep_entries) + B^0 of a dg-algebra or of
    Hom(U, U), as a subquotient over X.diff(-1): its reps are the given
    degree-0 cocycle idempotents whose classes survive, then those of
    X.subquotient(0) independent of them."""
    f, w = X.field, X.dim(0)
    cycles = Matrix.from_row_entries(f, w, [*idempotents, *X.subquotient(0).rep_entries])
    return Subquotient(f, w, cycles, X.diff(-1))


def end_classes(gh: GradedHom) -> Subquotient:
    """h0_classes of gh = Hom(U, U) and end_units(gh)'s idempotents, kept on gh."""
    return gh.kept("h0 classes", lambda: h0_classes(gh, end_units(gh)[1]))


def h0_algebra(X, unit: dict | None = None, idempotents: list | None = None,
               products=None, sq: Subquotient | None = None) -> H0Algebra:
    """H^0 of X as an ordinary algebra, for X a dg-algebra or the hom
    complex Hom(U, U) (end_h0).

    unit and idempotents are degree-0 cocycles, and products(reps) the table
    [[a * b for b in reps] for a in reps] of degree-0 products of the given
    cocycles, all as nonzero entries; for a dg-algebra they default to its
    own.  The basis is the classes of the reps of sq = h0_classes(X,
    idempotents), built when not given: the surviving idempotents first
    (for a dg-end, the summand projections), whose sum is the unit, and
    mult[(x, y)] reduces the product of reps x and y.
    """
    if products is None:
        unit, idempotents = X.unit, X.idempotents

        def products(reps):
            return [[X.product(0, a, 0, b) for b in reps] for a in reps]
    f = X.field
    sq = sq or h0_classes(X, idempotents)
    unit_cls = sq.reduce(unit)
    if not unit_cls:
        raise ValueError("H^0 is degenerate: the unit class vanishes")
    kept = [pos for pos, v in enumerate(idempotents) if sq.reduce(v)]
    k = len(kept)
    # each surviving idempotent is its own rep, in order
    if sq.rep_entries[:k] != [idempotents[pos] for pos in kept]:
        raise AssertionError("idempotent classes of H^0 are not independent")
    ones = {t: f.one for t in range(k)}
    if unit_cls != ones:
        raise AssertionError("idempotent classes do not sum to the unit class")
    mult = {(x, y): c for x, row in enumerate(products(sq.rep_entries))
            for y, p in enumerate(row) if (c := sq.reduce(p))}
    labels = [f"p{j}" for j in range(k)] + [f"h{t}" for t in range(k, sq.dim)]
    return H0Algebra(f, labels, mult, ones, range(k), sq, kept)


def end_h0(gh: GradedHom) -> H0Algebra:
    """H^0 End(U) as an ordinary algebra, read off gh = Hom(U, U) and kept
    on it: homotopy classes of chain maps U -> U, multiplied by composing
    representatives, so no dg-end is built.  It equals h0_algebra of
    dg_end(U, gh), whose degree-0 products are the same composites.

    The idempotents are the classes of end_units(gh): of the summand
    projections of U when U is a direct sum, the unit class alone otherwise.
    """
    def products(reps):
        return _composition_tables(gh, _cuts(gh, {0: reps}), {0: reps})[(0, 0)]
    return gh.kept("h0", lambda: h0_algebra(gh, *end_units(gh), products, end_classes(gh)))


# -- truncation, opposite, side swap ---------------------------------------


def smart_truncate(gh: GradedHom) -> DgAlgebra:
    """The non-positive truncation C of the dg-end of U, built on gh =
    Hom(U, U) with no dg-end: _end_algebra with ker d^0 in degree 0, gh's
    own basis below it, and no positive degrees.

    C^0's basis is E's reps (end_classes), then the independent rows of
    d^{-1}, boundaries alone for a contractible U.  embed holds its
    per-degree inclusions into gh, so each basis element is its coordinates
    in Hom(U, U).  The inclusion is a map of dg-algebras and induces H^n
    isomorphisms for n <= 0.
    """
    if gh.X is not gh.Y:
        raise ValueError("smart_truncate needs the hom complex of U with itself")
    embed = {n: Matrix.identity(gh.field, gh.dim(n)) for n in gh.degrees() if n < 0 and gh.dim(n)}
    d = gh.diff(-1)
    embed[0] = Matrix.from_row_entries(gh.field, gh.dim(0), end_classes(gh).rep_entries
                                       + [d.entries[r] for r in d.left_pivots()])
    return _end_algebra(gh, embed)


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
