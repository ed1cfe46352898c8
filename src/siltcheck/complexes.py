"""Bounded cochain complexes of right modules.

Shifts, mapping cones, cohomology with its induced action, chain maps and
their induced maps on cohomology, the graded hom complex, projective
replacement (read off the semifree resolution over A) and acyclicity testing.

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


class Complex(Cochains):
    """Bounded complex of right modules; degree-indexed terms and differentials.

    A complex of projectives is built from its projective witness alone:
    proj_types lists each degree's indecomposable projectives (by idempotent
    position), and its term is their projective_sum, in the basis of
    projective_cache.  The hom complex reads maps out of each term off that
    basis, so it requires the witness on its source.  Any other complex is
    given its terms; one complex takes terms or proj_types, never both.
    summands is None unless direct_sum_complexes built the complex, whose
    summand_offsets are read off them.
    """

    def __init__(self, algebra: Algebra, terms: dict | None, diffs: dict,
                 proj_types: dict | None = None, validate: bool = True,
                 summands: list | None = None):
        if (terms is None) == (proj_types is None):
            raise ValueError("a complex takes either its terms or a projective witness")
        self.algebra, self.summands, self.proj_types = algebra, summands, None
        if proj_types is not None:
            self.proj_types = {n: tuple(v) for n, v in proj_types.items() if v}
            terms = {n: algebra.projective_sum(v) for n, v in self.proj_types.items()}
        self.terms = {n: m for n, m in terms.items() if m.dim > 0}
        super().__init__(algebra.field, self.terms)
        self.diffs = {}
        for n, d in diffs.items():
            if d.nrows != self.term(n).dim or d.ncols != self.term(n + 1).dim:
                raise ValueError(f"differential at degree {n} has wrong shape")
            if not d.is_zero():
                self.diffs[n] = d
        self._cohom = {}
        self._linear = set()  # degrees whose differential is checked A-linear
        if validate:
            self.validate()

    def is_empty(self) -> bool:
        return not self.terms

    def term(self, n: int) -> Module:
        m = self.terms.get(n)
        # the zero module is the empty sum, built once per algebra
        return m if m is not None else self.algebra.projective_sum(())

    def dim(self, n: int) -> int:
        return self.term(n).dim

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
        for n in self.degrees():
            d = self.linear_diff(n)
            if not d.is_zero() and not (d @ self.diff(n + 1)).is_zero():
                raise AssertionError(f"differential does not square to zero at degree {n}")

    def linear_diff(self, n: int) -> Matrix:
        """d^n, checked to be a module map on its first read, whether or not
        the complex was validated when built."""
        d = self.diff(n)
        if n not in self._linear:
            if not d.is_zero():
                ModuleMap(self.term(n), self.term(n + 1), d)
            self._linear.add(n)
        return d

    # the complex as the target of maps out of cells over A (GradedHom)

    def cell(self, v: int, n: int) -> RowSpace:
        """X^n.e_v, the echelon basis Hom(e_v A, X^n) is read in (Module.cell)."""
        return self.term(n).cell(v)

    def apply_diff(self, n: int, x: dict) -> dict:
        return self.linear_diff(n).apply_entries(x)

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
        sign = f.one if k % 2 == 0 else f.neg(f.one)
        diffs = {n - k: d.scale(sign) for n, d in self.diffs.items()}
        if self.proj_types is not None:
            return Complex(A, None, diffs, {n - k: v for n, v in self.proj_types.items()},
                           validate=False)
        return Complex(A, {n - k: m for n, m in self.terms.items()}, diffs, validate=False)

    def cohomology(self, n: int) -> Module:
        """H^n as a module with its induced action, and its sq for reduce/lift."""
        if n not in self._cohom:
            sq = self.subquotient(n)
            self._cohom[n] = Module(self.algebra, sq.dim, [Matrix.from_row_entries(
                self.field, sq.dim, [sq.reduce(a.apply_entries(rep)) for rep in sq.rep_entries])
                for a in map(self.term(n).action, self.algebra.generators)], sq=sq)
        return self._cohom[n]

    def __repr__(self):
        dims = {n: self.term(n).dim for n in self.degrees()}
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
    concatenated witness, its terms the same block diagonal, so its hom
    modules are built once per algebra."""
    if not xs:
        raise ValueError("empty direct sum")
    A = xs[0].algebra
    lo = min(x.lo for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else 0
    hi = max(x.hi for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else -1
    diffs = {n: Matrix.block_diag(A.field, [x.diff(n) for x in xs]) for n in range(lo, hi + 1)}
    if all(x.is_projective_complex() for x in xs):
        return Complex(A, None, diffs, {n: tuple(v for x in xs for v in x.proj_types.get(n, ()))
                                        for n in range(lo, hi + 1)},
                       validate=False, summands=list(xs))
    return Complex(A, {n: direct_sum_modules(A, [x.term(n) for x in xs])
                       for n in range(lo, hi + 1)}, diffs, validate=False, summands=list(xs))


def summand_blocks(X: Complex) -> dict:
    """degree -> the summand of X each position lies in, summands in order
    (summand_offsets); one block when X declares none."""
    parts = X.summands or [X]
    return {n: [t for t, s in enumerate(parts) for _ in range(s.dim(n))] for n in X.degrees()}


class ChainMap:
    """Degreewise module maps commuting with the differentials."""

    def __init__(self, source: Complex, target: Complex, mats: dict, validate: bool = True):
        self.source = source
        self.target = target
        self.mats = {}
        for n, m in mats.items():
            if m.nrows != source.term(n).dim or m.ncols != target.term(n).dim:
                raise ValueError(f"chain map component at degree {n} has wrong shape")
            if not m.is_zero():
                self.mats[n] = m
        if validate:
            self.validate()

    def mat(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is not None:
            return m
        return Matrix.zero(self.source.algebra.field,
                           self.source.term(n).dim, self.target.term(n).dim)

    def validate(self):
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for n in range(lo, hi + 1):
            m = self.mat(n)
            if not m.is_zero():
                ModuleMap(self.source.term(n), self.target.term(n), m)
            if self.source.diff(n) @ self.mat(n + 1) != m @ self.target.diff(n):
                raise AssertionError(f"chain map square fails at degree {n}")

    def induced(self, n: int) -> Matrix:
        """Matrix of H^n(source) -> H^n(target) on cohomology class coordinates."""
        S, T = self.source.subquotient(n), self.target.subquotient(n)
        m = self.mat(n)
        rows = [T.reduce(m.apply_entries(rep)) for rep in S.rep_entries]
        return Matrix.from_row_entries(self.source.field, T.dim, rows)


def identity_chain_map(X: Complex) -> ChainMap:
    f = X.algebra.field
    return ChainMap(X, X, {n: Matrix.identity(f, X.term(n).dim) for n in X.degrees()},
                    validate=False)


def cone(f: ChainMap) -> Complex:
    X, Y = f.source, f.target
    A = X.algebra
    fld = A.field
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi - 1, Y.hi)
    diffs = {n: block_matrix(fld, [[-X.diff(n + 1), f.mat(n + 1)], [None, Y.diff(n)]],
                             [X.dim(n + 1), Y.dim(n)], [X.dim(n + 2), Y.dim(n + 1)])
             for n in range(lo, hi + 1)}
    if X.is_projective_complex() and Y.is_projective_complex():
        return Complex(A, None, diffs, {n: X.proj_types.get(n + 1, ()) + Y.proj_types.get(n, ())
                                        for n in range(lo, hi + 1)})
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
    starts[k] its first row in X^i and projectives[k] that e_v A.  A map out
    of it is fixed by the image of e_v in Y^{n+i}.e_v (Yoneda), whose
    coordinates are its entries at the pivots of that echelon basis, with no
    system to solve.  An element of X^j is cut into one element of A per
    summand (cut), and a map applies to it by acting on its values with them
    (apply): d_X of each generator is so cut (gen_dcomps), making the layout
    and the differential (df)_i = f_i d_Y - (-1)^n d_X f_{i+1} CellHom's, and
    each composite is read so off generator values (after).  An element
    becomes matrices only in component_maps, and coords_of reads them back.
    Each differential of X and Y it reads is checked to be a module map.
    Hom(U, U) keeps its units, H^0 algebra and radical (kept).
    """

    def __init__(self, X: Complex, Y: Complex):
        if not X.is_projective_complex():
            raise ValueError("hom complex needs a source with projective witness; "
                             "run proj_replacement")
        self.X, self.Y = X, Y
        gens, self.starts, self.projectives = [], [], []
        for i in reversed(X.degrees()):
            start = 0
            for v in X.proj_types.get(i, ()):
                P = projective_cache(X.algebra, v)
                gens.append(i)
                self.starts.append(start)
                self.projectives.append(P)
                start += P.dim
        super().__init__(gens, [P.vertex for P in self.projectives], Y)
        self._kept = {}

    def kept(self, name: str, build):
        """build(), run on the first call for name and kept; a build that
        raises keeps nothing, so it raises again on the next call."""
        if name not in self._kept:
            self._kept[name] = build()
        return self._kept[name]

    @cached_property
    def gen_dcomps(self) -> list:
        """k -> {k2: the component of d_X gen k at generator k2, in A}: the
        generator image of d_X on summand k, cut."""
        return [self.cut(i + 1, generator_image(self.projectives[k], self.X.linear_diff(i).entries,
                                                self.starts[k]))
                for k, i in enumerate(self.gens)]

    def cut(self, j: int, w: dict, block: tuple | None = None) -> dict:
        """w in X^j cut along X's degree-j generators: k -> a_k in A, w's
        entries on summand k times the rows of e_v A in A (ambient), so that w
        is the sum of e_v a_k over the summands; a zero a_k is left out.  With
        block = (Z, s), w lies in Z^j, whose summand s is X^j."""
        shift = block[0].block_start(j, block[1]) if block else 0
        ks, parts = gen_slice(self.gens, j, j), {}
        for r, x in w.items():
            # row r lies in the last summand of degree j starting at or before it
            k = bisect_right(self.starts, r - shift, ks.start, ks.stop) - 1
            if k >= ks.start and (i := r - shift - self.starts[k]) < self.projectives[k].dim:
                parts.setdefault(k, {})[i] = x
        return {k: a for k, part in parts.items()
                if (a := self.projectives[k].ambient.apply_entries(part))}

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
        nonzero component maps, source degree -> matrix: the one place a map
        out of a projective becomes a matrix.  By Yoneda the map out of
        summand k is its generator value times the action of each row of
        e_v A (Module.yoneda), placed at the summand's rows."""
        rows: dict = {}
        for k, y in self.values(n, coords).items():
            i, start = self.gens[k], self.starts[k]
            acts = self.Y.term(n + i).yoneda(self.cells[k])
            rows.setdefault(i, {}).update(
                (start + r, img) for r, a in enumerate(acts) if (img := a.apply_entries(y)))
        return {i: Matrix.from_entries(self.field, self.X.term(i).dim, self.Y.term(n + i).dim, e)
                for i, e in rows.items()}

    def generator_rows(self, n: int, comps: dict) -> dict:
        """k -> the nonzero image of the generator of summand k under a
        family of module maps, source degree -> matrix, for each block of
        degree n: the rows of the family that fix it as a module map."""
        gens = self.gens
        return {k: row for k, _, _ in self.layout(n).blocks
                if (mat := comps.get(gens[k])) is not None
                and (row := generator_image(self.projectives[k], mat.entries, self.starts[k]))}

    def coords_of(self, n: int, comps: dict) -> dict:
        """Nonzero coordinates of a family of module maps, source degree ->
        matrix: its generator rows, read at the pivots of their cells."""
        return self.assemble(n, self.generator_rows(n, comps))

    def chain_map_from_cocycle(self, coords: dict) -> ChainMap:
        """Nonzero degree-0 cocycle coordinates -> an honest chain map X -> Y."""
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
    types: dict = {}
    for g, e in zip(R.gens, R.cells):
        types.setdefault(g, []).append(e)
    P = projective_complex(A, types, {n: R.diff_matrix(n) for n in types})
    return P, ChainMap(P, X, {n: R.aug_matrix(n) for n in types})
