"""Bounded cochain complexes of right modules.

Shifts, mapping cones, cohomology with its induced action, chain maps and
their induced maps on cohomology, the graded hom complex, projective
replacement (read off the semifree resolution over A) and acyclicity testing.

A complex of projectives is its witness and its generator values.  By
Yoneda a map out of e_v A is its value on e_v, so a map X^n -> Y^m between
sums of indecomposable projectives, a differential or a chain map, is a
matrix over A, {(p, q): a}: a in e_w A e_v is the component on summand q =
e_w A of Y^m of the image of e_v, for summand p = e_v A of X^n.  It is
A-linear by construction, and shifts, direct sums, cones and approximations
are built from values; a k-matrix enters only through the constructors of
Complex and ChainMap, and is checked once there to be the expansion of its
values.

A degree made of cells is laid out by Layout, which converts its coordinates
into cell elements and back.  Maps out of cells have one implementation,
CellHom, with one Layout per degree and one differential.  A complex of
projectives is semifree over A, each witness summand e_v A a generator with
cell e_v: the graded hom complex is CellHom out of it, as
semifree.SemifreeHom is CellHom out of a semifree resolution.

Sign conventions, fixed once and asserted by constructor validation:
* shift: X[k]^n = X^{n+k}, differential scaled by (-1)^k;
* cone of f: X -> Y: C^n = X^{n+1} (+) Y^n with d(x, y) = (-x d_X, x f + y d_Y);
* graded hom differential: (df)_i = f_i d_Y - (-1)^n d_X f_{i+1} in degree n.
With these choices the long exact sequence identities of a cone hold without
auxiliary signs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate
from operator import neg
from typing import Sequence

from .algebra import (
    Algebra,
    Module,
    ModuleMap,
    direct_sum_modules,
    generator_image,
)
from .linalg import Cochains, Matrix, RowSpace


class ResolutionCapError(RuntimeError):
    """Projective replacement did not terminate within the length cap."""


def block_matrix(field, blocks, row_dims: Sequence[int], col_dims: Sequence[int]) -> Matrix:
    """Assemble a matrix from a grid of blocks; None means a zero block."""
    entries: dict = {}
    r0 = 0
    for bi, rd in enumerate(row_dims):
        c0 = 0
        for bj, cd in enumerate(col_dims):
            blk = blocks[bi][bj]
            if blk is not None:
                if blk.nrows != rd or blk.ncols != cd:
                    raise ValueError("block shape mismatch")
                for r, nz in blk.entries.items():
                    row = entries.setdefault(r0 + r, {})
                    row.update({c0 + c: x for c, x in nz.items()} if c0 else nz)
            c0 += cd
        r0 += rd
    return Matrix.from_entries(field, r0, sum(col_dims), entries)


# -- matrices over A ---------------------------------------------------------


def yoneda_rows(M: Module, v: int, y: dict) -> dict:
    """r -> the nonzero image of row r of e_v A under the map e_v A -> M
    with value y in M.e_v on e_v: y times that row's action (Module.yoneda).
    The one expansion of a generator value into matrix rows."""
    return {r: img for r, a in enumerate(M.yoneda(v)) if (img := a.apply_entries(y))}


def expand(X: "Complex", n: int, Y: "Complex", m: int, vals: dict) -> Matrix:
    """The k-matrix X^n -> Y^m with the given generator values: the rows of
    summand p hold, at the columns of summand q = e_w A, the Yoneda
    expansion of its value, written in e_w A's basis."""
    A, src, tgt, entries = X.algebra, X.proj_types.get(n, ()), Y.proj_types.get(m, ()), {}
    for (p, q), a in vals.items():
        P, start, at = A.projective(tgt[q]), X.starts(n)[p], Y.starts(m)[q]
        for r, img in yoneda_rows(P, src[p], P.ambient.solve_left_rows(a)).items():
            entries.setdefault(start + r, {}).update((at + c, x) for c, x in img.items())
    return Matrix.from_entries(A.field, X.dim(n), Y.dim(m), entries)


def _cut(X: "Complex", n: int, Y: "Complex", m: int, given, what: str) -> tuple:
    """(generator values, k-matrix) of a map X^n -> Y^m given as either.
    Values are checked to lie in their cells, each value of e_v A on e_w A
    in e_w A e_v, and expanded.  A k-matrix, given from outside, is cut:
    each summand's generator image is cut along Y^m's summands, and the
    matrix must be the expansion of its cut.  Either check is what
    A-linearity amounts to; a failed one raises naming what."""
    A, src, tgt = X.algebra, X.proj_types.get(n, ()), Y.proj_types.get(m, ())
    if not isinstance(given, Matrix):
        one, prod, es = A.field.one, A.dg.product, A.idempotents
        if any(prod(0, {es[tgt[q]]: one}, 0, prod(0, a, 0, {es[src[p]]: one})) != a
               for (p, q), a in given.items()):
            raise AssertionError(f"{what} does not commute with the action of A")
        return given, expand(X, n, Y, m, given)
    if given.nrows != X.dim(n) or given.ncols != Y.dim(m):
        raise ValueError(f"{what} has wrong shape")
    vals = {(p, q): a for p, (v, start) in enumerate(zip(src, X.starts(n)))
            for q, a in Y.cut(m, generator_image(A.projective(v), given.entries, start)).items()}
    if expand(X, n, Y, m, vals) != given:
        raise AssertionError(f"{what} does not commute with the action of A")
    return vals, given


def _components(X: "Complex", Y: "Complex", given: dict, up: int, what: str) -> tuple:
    """(values, k-matrices) of the nonzero maps X^n -> Y^{n+up} given per
    degree n: between complexes of projectives as values or k-matrices, each
    through _cut; else as k-matrices, only checked for shape, and values is
    None.  what names degree n by what.format(n)."""
    proj = X.is_projective_complex() and Y.is_projective_complex()
    vals, mats = ({} if proj else None), {}
    for n, m in given.items():
        if proj:
            v, m = _cut(X, n, Y, n + up, m, what.format(n))
            if v:
                vals[n] = v
        elif m.nrows != X.dim(n) or m.ncols != Y.dim(n + up):
            raise ValueError(f"{what.format(n)} has wrong shape")
        if not m.is_zero():
            mats[n] = m
    return vals, mats


def _moved(vals: dict, dp: int, dq: int, f=None) -> dict:
    """Generator values with each source summand moved on by dp and each
    target summand by dq, negated when the field f is given."""
    return {(p + dp, q + dq): {i: f.neg(c) for i, c in a.items()} if f else a
            for (p, q), a in vals.items()}


class Complex(Cochains):
    """Bounded complex of right modules; degree-indexed terms and differentials.

    A complex of projectives is built from its projective witness:
    proj_types lists each degree's indecomposable projectives (by idempotent
    position), and dvalues[n] the generator values of a nonzero d^n, given
    so or as a k-matrix (_cut); diffs[n] is its k-matrix either way, and
    dvalues is None on any other complex.  Its
    terms, the projective_sum of the witness in the basis of
    projective_cache, are built on first read, by a hom complex into it,
    its cohomology or its action, never by a cone.  The hom complex reads
    maps out of X off the witness, so it requires one on its source.  Any
    other complex is given its terms; one complex takes terms or
    proj_types, never both.  validate checks d^2 = 0, and that each
    differential of a complex of general modules is a module map.
    summands is None unless direct_sum_complexes built the complex, whose
    summand_offsets are read off them.
    """

    def __init__(self, algebra: Algebra, terms: dict | None, diffs: dict,
                 proj_types: dict | None = None, validate: bool = True,
                 summands: list | None = None):
        if (terms is None) == (proj_types is None):
            raise ValueError("a complex takes either its terms or a projective witness")
        self.algebra, self.summands, self.proj_types = algebra, summands, None
        if proj_types is None:
            # shadows terms, which a complex of projectives reads off its witness
            self.terms = {n: m for n, m in terms.items() if m.dim > 0}
            super().__init__(algebra.field, self.terms)
        else:
            self.proj_types = {n: tuple(v) for n, v in proj_types.items() if v}
            super().__init__(algebra.field, self.proj_types)
            self._starts = {n: tuple(accumulate((algebra.projective(v).dim for v in vs),
                                                initial=0)) for n, vs in self.proj_types.items()}
        self.dvalues, self.diffs = _components(self, self, diffs, 1, "differential at degree {}")
        if validate:
            self.validate()

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def term(self, n: int) -> Module:
        if self.proj_types is not None:
            return self.algebra.projective_sum(self.proj_types.get(n, ()))
        m = self.terms.get(n)
        # the zero module is the empty sum, built once per algebra
        return m if m is not None else self.algebra.projective_sum(())

    @cached_property
    def terms(self) -> dict:
        return {n: self.term(n) for n in self.proj_types}

    def dim(self, n: int) -> int:
        return self.starts(n)[-1] if self.proj_types is not None else self.term(n).dim

    def starts(self, n: int) -> tuple:
        """The first row of each witness summand of X^n, and dim X^n last."""
        return self._starts.get(n, (0,))

    def cut(self, n: int, w: dict, shift: int = 0) -> dict:
        """w, an element of X^n read from row shift on, cut along X^n's
        witness: p -> a_p in A, w's entries on summand p times the rows of
        e_v A in A (ambient), so that w is the sum of e_v a_p over the
        summands; a zero a_p is left out, and so are rows outside X^n."""
        starts, types, parts = self.starts(n), self.proj_types.get(n, ()), {}
        for r, x in w.items():
            # row r lies in the last summand starting at or before it
            p = bisect_right(starts, r - shift) - 1
            if 0 <= p < len(types):
                parts.setdefault(p, {})[r - shift - starts[p]] = x
        return {p: a for p, part in parts.items()
                if (a := self.algebra.projective(types[p]).ambient.apply_entries(part))}

    def is_projective_complex(self) -> bool:
        return self.proj_types is not None

    @cached_property
    def summand_offsets(self) -> dict:
        """degree -> the first row of each summand in X^n."""
        return {n: list(accumulate((x.dim(n) for x in self.summands[:-1]), initial=0))
                for n in self.degrees()}

    def block_start(self, n: int, s: int | None) -> int:
        """The first row of summand s in X^n: 0 when s is None or X declares
        no summands, X then being its own one block."""
        return self.summand_offsets[n][s] if s is not None and self.summands else 0

    def validate(self):
        if self.proj_types is None:
            for n, d in self.diffs.items():
                ModuleMap(self.term(n), self.term(n + 1), d)
        self.check_square_zero("differential does not square to zero at degree {}")

    # the complex as the target of maps out of cells over A (GradedHom)

    def cell(self, v: int, n: int) -> RowSpace:
        """X^n.e_v, the echelon basis Hom(e_v A, X^n) is read in (Module.cell)."""
        return self.term(n).cell(v)

    def apply_diff(self, n: int, x: dict) -> dict:
        return self.diff(n).apply_entries(x)

    def act(self, n: int, x: dict, cdeg: int, a: dict) -> dict:
        """x.a for x in X^n and a in A, which sits in degree cdeg = 0, read
        off the action matrices of the basis elements in a, reduced once."""
        action, acc = self.term(n).action, {}
        for i, c in a.items():
            ents = action(i).entries
            for r, y in x.items():
                for j, z in ents.get(r, {}).items():
                    acc[j] = acc.get(j, 0) + c * y * z
        return self.field.reduce_entries(acc)

    def shift(self, k: int) -> "Complex":
        if k == 0:
            return self
        if self.summands is not None:  # a direct sum shifts summand by summand
            return direct_sum_complexes([s.shift(k) for s in self.summands])
        A, f = self.algebra, self.algebra.field
        if self.proj_types is not None:
            return Complex(A, None, {n - k: _moved(v, 0, 0, f if k % 2 else None)
                                     for n, v in self.dvalues.items()},
                           {n - k: v for n, v in self.proj_types.items()}, validate=False)
        sign = f.one if k % 2 == 0 else f.neg(f.one)
        return Complex(A, {n - k: m for n, m in self.terms.items()},
                       {n - k: d.scale(sign) for n, d in self.diffs.items()}, validate=False)

    def cohomology(self, n: int) -> Module:
        """H^n as a module with its induced action, and its sq for reduce/lift,
        built on each call (h_dim and induced read the subquotient alone)."""
        sq = self.subquotient(n)
        return Module(self.algebra, sq.dim, [Matrix.from_row_entries(
            self.field, sq.dim, [sq.reduce(a.apply_entries(rep)) for rep in sq.rep_entries])
            for a in map(self.term(n).action, self.algebra.generators)], sq=sq)

    def __repr__(self):
        dims = {n: self.dim(n) for n in self.degrees()}
        return f"Complex({dims})"


# the projectives each algebra keeps, under the names the package exports
projective_cache = Algebra.projective
projective_sum = Algebra.projective_sum


def zero_complex(A: Algebra) -> Complex:
    return Complex(A, None, {}, {}, validate=False)


def projective_complex(A: Algebra, types: dict, diffs: dict | None = None) -> Complex:
    """Complex whose degree-n term is the direct sum of the listed projectives;
    one projective alone in degree 0 is its stalk."""
    if not diffs and [(n, len(vs)) for n, vs in types.items() if vs] == [(0, 1)]:
        return projective_cache(A, types[0][0]).stalk
    return Complex(A, None, diffs or {}, types)


def direct_sum_complexes(xs: Sequence[Complex]) -> Complex:
    """Degreewise direct sum, with its summands.

    When every summand carries a projective witness, the sum carries their
    concatenated witness and generator values, so its hom modules are built
    once per algebra."""
    if not xs:
        raise ValueError("empty direct sum")
    A = xs[0].algebra
    if all(x.is_projective_complex() for x in xs):
        types, vals = {}, {}
        for x in xs:
            for n, v in x.dvalues.items():
                vals.setdefault(n, {}).update(
                    _moved(v, len(types.get(n, ())), len(types.get(n + 1, ()))))
            for n, vs in x.proj_types.items():
                types[n] = types.get(n, ()) + vs
        return Complex(A, None, vals, types, validate=False, summands=list(xs))
    lo = min(x.lo for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else 0
    hi = max(x.hi for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else -1
    diffs = {n: Matrix.block_diag(A.field, [x.diff(n) for x in xs]) for n in range(lo, hi + 1)}
    return Complex(A, {n: direct_sum_modules(A, [x.term(n) for x in xs])
                       for n in range(lo, hi + 1)}, diffs, validate=False, summands=list(xs))


def summand_blocks(X: Complex) -> dict:
    """degree -> the summand of X each position lies in, summands in order
    (summand_offsets); one block when X declares none."""
    parts = X.summands or [X]
    return {n: [t for t, s in enumerate(parts) for _ in range(s.dim(n))] for n in X.degrees()}


class ChainMap:
    """Degreewise module maps commuting with the differentials.

    Between complexes of projectives values[n] holds the generator values
    of the degree-n component, given so or as a k-matrix (_cut), and
    mats[n] its k-matrix either way; any other chain map is given its
    matrices, and values is None (_components).  validate checks the
    squares, and that each component of the latter is a module map."""

    def __init__(self, source: Complex, target: Complex, mats: dict, validate: bool = True):
        self.source = source
        self.target = target
        self.values, self.mats = _components(source, target, mats, 0,
                                             "chain map component at degree {}")
        if validate:
            self.validate()

    def mat(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is not None:
            return m
        return Matrix.zero(self.source.field, self.source.dim(n), self.target.dim(n))

    def validate(self):
        X, Y = self.source, self.target
        for n in range(min(X.lo, Y.lo), max(X.hi, Y.hi) + 1):
            m = self.mat(n)
            if self.values is None and not m.is_zero():
                ModuleMap(X.term(n), Y.term(n), m)
            if X.diff(n) @ self.mat(n + 1) != m @ Y.diff(n):
                raise AssertionError(f"chain map square fails at degree {n}")

    def induced(self, n: int) -> Matrix:
        """Matrix of H^n(source) -> H^n(target) on cohomology class coordinates."""
        S, T = self.source.subquotient(n), self.target.subquotient(n)
        m = self.mat(n)
        rows = [T.reduce(m.apply_entries(rep)) for rep in S.rep_entries]
        return Matrix.from_row_entries(self.source.field, T.dim, rows)


def identity_chain_map(X: Complex) -> ChainMap:
    if X.is_projective_complex():
        one, es = X.field.one, X.algebra.idempotents
        return ChainMap(X, X, {n: {(p, p): {es[v]: one} for p, v in enumerate(vs)}
                               for n, vs in X.proj_types.items()}, validate=False)
    return ChainMap(X, X, {n: Matrix.identity(X.field, X.dim(n)) for n in X.degrees()},
                    validate=False)


def cone(f: ChainMap) -> Complex:
    X, Y = f.source, f.target
    A = X.algebra
    fld = A.field
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi - 1, Y.hi)
    if f.values is not None:
        # [[-d_X, f], [0, d_Y]] as a matrix over A
        vals = {}
        for n in range(lo, hi + 1):
            below, at = len(X.proj_types.get(n + 1, ())), len(X.proj_types.get(n + 2, ()))
            vals[n] = {**_moved(X.dvalues.get(n + 1, {}), 0, 0, fld),
                       **_moved(f.values.get(n + 1, {}), 0, at),
                       **_moved(Y.dvalues.get(n, {}), below, at)}
        return Complex(A, None, vals, {n: X.proj_types.get(n + 1, ()) + Y.proj_types.get(n, ())
                                       for n in range(lo, hi + 1)})
    diffs = {n: block_matrix(fld, [[-X.diff(n + 1), f.mat(n + 1)], [None, Y.diff(n)]],
                             [X.dim(n + 1), Y.dim(n)], [X.dim(n + 2), Y.dim(n + 1)])
             for n in range(lo, hi + 1)}
    return Complex(A, {n: direct_sum_modules(A, [X.term(n + 1), Y.term(n)])
                       for n in range(lo, hi + 1)}, diffs)


def is_acyclic(X: Complex) -> bool:
    """Exactness, read off ranks by Cochains.h_dim: dim X^n = rk d^{n-1} +
    rk d^n in every degree, up to the first degree where it fails."""
    return not any(X.h_dim(n) for n in X.degrees())


# -- maps out of cells -----------------------------------------------------


def gen_slice(gens: list, lo: int, hi: int) -> range:
    """The k with lo <= gens[k] <= hi: one slice of the non-increasing gens."""
    return range(bisect_left(gens, -hi, key=neg), bisect_right(gens, -lo, key=neg))


class Layout:
    """One degree of an object made of cells, laid out as blocks of cell rows.

    blocks are (k, j, cell), in the caller's order: generator k contributes
    the echelon basis cell (a RowSpace) of its cell in degree j, whose rows
    are the positions from offsets[k][0] on.  positions[p] is (k, t) for
    position p, row t of the cell of k, and dim counts the positions.  An
    element is its nonzero coordinates: values reads it as one element of
    each cell, and row writes cell elements back as coordinates.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        self.offsets: dict = {}  # k -> (first position, cell)
        self.positions: list = []
        for k, _, cell in blocks:
            self.offsets[k] = (len(self.positions), cell)
            self.positions += [(k, t) for t in range(cell.dim)]
        self.dim = len(self.positions)

    def values(self, coords: dict) -> dict:
        """k -> the element of k's cell at the given nonzero coordinates,
        for each k with a nonzero one; only the nonzero coordinates are read."""
        parts: dict = {}
        for p, c in coords.items():
            k, t = self.positions[p]
            parts.setdefault(k, {})[t] = c
        return {k: v for k, part in parts.items()
                if (v := self.offsets[k][1].matrix.apply_entries(part))}

    def row(self, f, images) -> dict:
        """The nonzero entries of the row summing s * (cell coordinates of v)
        into the block of k, over the images (k, s, v); an image whose k has
        no block adds nothing.  Cell coordinates are entries of v, so a row
        whose positions are each written once with s = 1 is already reduced."""
        acc, reduced = {}, True
        for k, s, v in images:
            if k in self.offsets:
                off, cell = self.offsets[k]
                reduced = reduced and s == f.one
                for t, c in cell.coords(v).items():
                    reduced = reduced and off + t not in acc
                    acc[off + t] = acc.get(off + t, 0) + s * c
        return acc if reduced else f.reduce_entries(acc)


class CellHom(Cochains):
    """Maps out of a semifree object into N, written as generator values.

    Generator k has degree gens[k], non-increasing along the list, and is a
    cell e, the cells[k]-th idempotent of the base.  A degree-m map is fixed
    by its value on each generator, an element of N^{m + gens[k]}.e written
    in the echelon basis N.cell(cells[k], m + gens[k]), so the degrees run
    from N.lo - max(gens) to N.hi - min(gens); values and assemble convert
    coordinates through layout(m).  N gives cell, apply_diff (its
    differential) and act (the right action of the base).  A subclass
    gives gen_dcomps, read on the first diff: gen_dcomps[k] maps k2 to the
    component of d gen k at generator k2, an element of the base in degree
    gens[k] + 1 - gens[k2].  The differential is
    phi -> d_N phi - (-1)^m phi d, the value on a generator k3 picking up
    phi(gen k) times the component of d gen k3 at k.
    """

    def __init__(self, gens: list, cells: list, N):
        super().__init__(N.field, (N.lo - gens[0], N.hi - gens[-1])
                         if gens and N.lo <= N.hi else ())
        self.gens, self.cells, self.N = gens, cells, N
        self._layouts = {m: Layout([
            (k, m + gens[k], cell)
            for k in sorted(gen_slice(gens, N.lo - m, N.hi - m), key=gens.__getitem__)
            if (cell := N.cell(cells[k], m + gens[k])).dim]) for m in self.degrees()}
        self._diffs: dict = {}

    def layout(self, m: int) -> Layout:
        """The degree-m layout: a block (k, j, N.cell(cells[k], j)) for each
        generator k of degree j - m whose cell in N^j is nonzero, lowest
        generator degree first and the generators of one degree in order."""
        return self._layouts.get(m) or Layout(())

    def dim(self, m: int) -> int:
        return self.layout(m).dim

    def values(self, m: int, coords: dict) -> dict:
        """k -> the value on generator k of the degree-m element with the
        given nonzero coordinates, for each nonzero value."""
        return self.layout(m).values(coords)

    def assemble(self, m: int, values: dict) -> dict:
        """Nonzero coordinates of the degree-m element with the given
        generator values, each an element of N^{m + gens[k]} lying in its
        cell."""
        layout = self.layout(m)
        if any(v and k not in layout.offsets for k, v in values.items()):
            raise ValueError("generator value outside the degrees of N")
        return layout.row(self.field, ((k, self.field.one, v) for k, v in values.items()))

    @cached_property
    def _meets(self) -> dict:
        """k -> (k3, the component of d gen k3 at k) for each generator k3
        whose differential meets k."""
        out: dict = {}
        for k3, dcomps in enumerate(self.gen_dcomps):
            for k, delta in dcomps.items():
                out.setdefault(k, []).append((k3, delta))
        return out

    def diff(self, m: int) -> Matrix:
        if m not in self._diffs:
            gens, N, f = self.gens, self.N, self.field
            one, up = f.one, self.layout(m + 1)
            rows = []
            for k, j, cell in self.layout(m).blocks:
                # a value lands in a cell of N, so one missing from degree
                # m + 1 is zero; the sign -(-1)^m of phi d goes on the base
                later = [(k3, gens[k3] + 1 - gens[k],
                          delta if m % 2 else {i: f.neg(c) for i, c in delta.items()})
                         for k3, delta in self._meets.get(k, ()) if k3 in up.offsets]
                for v in cell.rows:
                    images = [(k, one, N.apply_diff(j, v))] if k in up.offsets else []
                    images += [(k3, one, N.act(j, v, cdeg, delta)) for k3, cdeg, delta in later]
                    rows.append(up.row(f, images))
            self._diffs[m] = Matrix.from_row_entries(f, up.dim, rows)
        return self._diffs[m]


# -- graded hom complex ----------------------------------------------------


class GradedHom(CellHom):
    """The hom complex out of a complex of projectives into a bounded complex.

    Degree-n elements are families of module maps X^i -> Y^{n+i}.  The source
    must carry its projective witness, and is read as a semifree A-module:
    each witness summand e_v A of X^i is a generator of degree i with cell
    e_v, from the top degree of X down and in witness order within a degree,
    and starts[k] its first row in X^i.  A map out of it is fixed by the
    image of e_v in Y^{n+i}.e_v (Yoneda), whose coordinates are its entries
    at the pivots of that echelon basis, with no system to solve.  An
    element of X^j is cut into one element of A per summand (cut, through
    Complex.cut), and a map applies to it by acting on its values with them
    (apply): d_X of each generator is X's generator values (gen_dcomps),
    making the layout and the differential (df)_i = f_i d_Y - (-1)^n d_X
    f_{i+1} CellHom's, and each composite is read so off generator values
    (after).  An element becomes matrices only in component_maps, and
    coords_of reads them back; into a complex of projectives it is read as
    generator values cut along the target's summands (value_rows).
    Hom(U, U) keeps its units, H^0 algebra and radical (kept).
    """

    def __init__(self, X: Complex, Y: Complex):
        if not X.is_projective_complex():
            raise ValueError("hom complex needs a source with projective witness; "
                             "run proj_replacement")
        self.X, self.Y = X, Y
        gens, cells, self.starts = [], [], []
        self._first = {}  # degree i -> the first generator of degree i
        for i in reversed(X.degrees()):
            self._first[i] = len(gens)
            gens += [i] * len(X.proj_types.get(i, ()))
            cells += X.proj_types.get(i, ())
            self.starts += X.starts(i)[:-1]
        super().__init__(gens, cells, Y)
        self._kept = {}

    def kept(self, name: str, build):
        """build(), run on the first call for name and kept; a build that
        raises keeps nothing, so it raises again on the next call."""
        if name not in self._kept:
            self._kept[name] = build()
        return self._kept[name]

    @cached_property
    def gen_dcomps(self) -> list:
        """k -> {k2: the component of d_X gen k at generator k2, in A}: X's
        generator values of d_X on summand k, renumbered."""
        out, first = [{} for _ in self.gens], self._first
        for i, vals in self.X.dvalues.items():
            for (p, q), a in vals.items():
                out[first[i] + p][first[i + 1] + q] = a
        return out

    def cut(self, j: int, w: dict, block: tuple | None = None) -> dict:
        """w in X^j cut along X's degree-j generators (Complex.cut): k ->
        a_k in A.  With block = (Z, s), w lies in Z^j, whose summand s is
        X^j."""
        shift = block[0].block_start(j, block[1]) if block else 0
        first = self._first.get(j, 0)
        return {first + p: a for p, a in self.X.cut(j, w, shift).items()}

    def apply(self, m: int, values: dict, cut: dict, block: tuple | None = None) -> dict:
        """x(w) in Y^{m + j} for x of degree m with the given generator values
        and w in X^j given by its cut: the sum of x's value on k times a_k
        (Yoneda).  With block = (Z, t), it is placed on summand t of Z."""
        acc = {}
        for k, a in cut.items():
            if y := values.get(k):
                start = block[0].block_start(m + self.gens[k], block[1]) if block else 0
                for c, z in self.Y.act(m + self.gens[k], y, 0, a).items():
                    acc[start + c] = acc.get(start + c, 0) + z
        return self.field.reduce_entries(acc) if acc else acc

    def cuts(self, source: "GradedHom", n: int, coords: dict, block: tuple | None = None) -> dict:
        """k -> the cut (with block as there) of the value on generator k of
        the degree-n element of source, a hom complex into X, with the given
        coordinates: each value cut once for every map applied after it."""
        return {k: c for k, v in source.values(n, coords).items()
                if (c := self.cut(n + source.gens[k], v, block))}

    def after(self, m: int, values: dict, cuts: dict, block: tuple | None = None) -> dict:
        """The generator values of "b, then x": x, of degree m with the given
        generator values, applied (block as there) to each value of b (cuts)."""
        return {k: z for k, c in cuts.items() if (z := self.apply(m, values, c, block))}

    def component_maps(self, n: int, coords: dict) -> dict:
        """The degree-n element with the given nonzero coordinates as its
        nonzero component maps, source degree -> matrix.  By Yoneda the map
        out of summand k is its generator value times the action of each row
        of e_v A (yoneda_rows, which expand shares), placed at the summand's
        rows."""
        rows: dict = {}
        for k, y in self.values(n, coords).items():
            i, start = self.gens[k], self.starts[k]
            images = yoneda_rows(self.Y.term(n + i), self.cells[k], y)
            rows.setdefault(i, {}).update((start + r, img) for r, img in images.items())
        return {i: Matrix.from_entries(self.field, self.X.dim(i), self.Y.dim(n + i), e)
                for i, e in rows.items()}

    def generator_rows(self, n: int, comps: dict) -> dict:
        """k -> the nonzero image of the generator of summand k under a
        family of module maps, source degree -> matrix, for each block of
        degree n: the rows of the family that fix it as a module map."""
        return {k: row for k, _, _ in self.layout(n).blocks
                if (mat := comps.get(self.gens[k])) is not None
                and (row := generator_image(projective_cache(self.X.algebra, self.cells[k]),
                                            mat.entries, self.starts[k]))}

    def coords_of(self, n: int, comps: dict) -> dict:
        """Nonzero coordinates of a family of module maps, source degree ->
        matrix: its generator rows, read at the pivots of their cells."""
        return self.assemble(n, self.generator_rows(n, comps))

    def value_rows(self, coords: dict, s: int | None = None) -> dict:
        """The degree-0 element with the given coordinates as generator
        values (see expand) into Y, a complex of projectives, or with s
        given into its summand s alone: degree i -> {(p, q): a}, the value
        on summand p of X^i cut along the witness of Y^i (or of summand s)."""
        first, Y, out = self._first, self.Y, {}
        Z = Y if s is None else (Y.summands or [Y])[s]
        for k, v in self.values(0, coords).items():
            i = self.gens[k]
            out.setdefault(i, {}).update(
                ((k - first[i], q), a) for q, a in Z.cut(i, v, Y.block_start(i, s)).items())
        return out

    def chain_map_from_cocycle(self, coords: dict) -> ChainMap:
        """Nonzero degree-0 cocycle coordinates -> an honest chain map X -> Y."""
        if self.Y.is_projective_complex():
            return ChainMap(self.X, self.Y, self.value_rows(coords))
        return ChainMap(self.X, self.Y, self.component_maps(0, coords))


def hom_complex(X: Complex, Y: Complex) -> GradedHom:
    if X.algebra is not Y.algebra:
        raise ValueError("complexes over different algebras")
    return GradedHom(X, Y)


# -- projective replacement ------------------------------------------------


def proj_replacement(X: Complex, cap: int = 16) -> tuple[Complex, ChainMap]:
    """A quasi-isomorphism P -> X with P a complex of projectives.

    P is the semifree resolution of X over A in degree 0, whose cells e.A
    are the indecomposable projectives, and the map is its augmentation.  It
    is built down to X.lo - cap - 1; ResolutionCapError names that degree
    when a generator lands there, as the resolution then runs longer than
    cap extra degrees below the support of X.
    """
    from .semifree import semifree_resolve

    A = X.algebra
    if X.is_projective_complex():
        return X, identity_chain_map(X)
    floor = X.lo - cap - 1
    R = semifree_resolve(X, floor)
    if R.gens and R.gens[-1] == floor:
        raise ResolutionCapError(
            f"projective replacement reached degree {floor} (cap {cap} below the support)")
    types, first = {}, {}
    for k, (g, e) in enumerate(zip(R.gens, R.cells)):
        first.setdefault(g, k)
        types.setdefault(g, []).append(e)
    # d gen k is the sum of gen k2 times a, for the generators k2 one degree up
    P = projective_complex(A, types, {g: {
        (p, k2 - first[g + 1]): a for p in range(len(vs))
        for k2, a in R.gen_dcomps[first[g] + p].items()} for g, vs in types.items()})
    return P, ChainMap(P, X, {n: R.aug_matrix(n) for n in types})
