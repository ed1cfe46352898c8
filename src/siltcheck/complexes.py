"""Bounded cochain complexes of right modules.

Shifts, mapping cones, cohomology with its induced action, chain maps and
their induced maps on cohomology, the graded hom complex, projective
replacement (read off the semifree resolution over A) and acyclicity testing.

Sign conventions, fixed once and asserted by constructor validation:
* shift: X[k]^n = X^{n+k}, differential scaled by (-1)^k;
* cone of f: X -> Y: C^n = X^{n+1} (+) Y^n with d(x, y) = (-x d_X, x f + y d_Y);
* graded hom differential: (df)_i = f_i d_Y - (-1)^n d_X f_{i+1} in degree n.
With these choices the long exact sequence identities of a cone hold without
auxiliary signs.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .algebra import (
    Algebra,
    Module,
    ModuleMap,
    direct_sum_modules,
    generator_image,
)
from .linalg import Cochains, Matrix


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

    proj_types, when given, witnesses each nonzero term as the direct sum of
    the listed indecomposable projectives (by idempotent position), in the
    basis of projective_cache: the hom complex reads maps out of each term
    off that basis, so it requires the witness on its source.  validate
    checks the witness exactly, each term's action on the algebra generators
    against the block diagonal of the listed projectives' actions.
    summands and summand_offsets (degree -> first row of each summand) are
    None unless direct_sum_complexes built the complex.
    """

    def __init__(self, algebra: Algebra, terms: dict, diffs: dict,
                 proj_types: dict | None = None, validate: bool = True,
                 summands: list | None = None, summand_offsets: dict | None = None):
        self.algebra = algebra
        self.summands = summands
        self.summand_offsets = summand_offsets
        self.terms = {n: m for n, m in terms.items() if m.dim > 0}
        super().__init__(algebra.field, self.terms)
        self.diffs = {}
        for n, d in diffs.items():
            if d.nrows != self.term(n).dim or d.ncols != self.term(n + 1).dim:
                raise ValueError(f"differential at degree {n} has wrong shape")
            if not d.is_zero():
                self.diffs[n] = d
        self.proj_types = None
        if proj_types is not None:
            self.proj_types = {n: tuple(v) for n, v in proj_types.items() if self.term(n).dim > 0}
            for n in self.terms:
                types = self.proj_types.get(n)
                if types is None:
                    raise ValueError(f"missing projective witness in degree {n}")
                want = sum(projective_cache(algebra, v).dim for v in types)
                if want != self.terms[n].dim:
                    raise ValueError(f"projective witness in degree {n} does not match the term")
        self._cohom = {}
        self._linear = set()  # degrees whose differential is checked A-linear
        if validate:
            self.validate()

    def is_empty(self) -> bool:
        return not self.terms

    def term(self, n: int) -> Module:
        m = self.terms.get(n)
        # the zero module is the empty sum, built once per algebra
        return m if m is not None else projective_sum(self.algebra, ())

    def dim(self, n: int) -> int:
        return self.term(n).dim

    def is_projective_complex(self) -> bool:
        return self.proj_types is not None

    def validate(self):
        A = self.algebra
        for n, types in (self.proj_types or {}).items():
            want = projective_sum(A, types)
            for g in A.generators:
                if self.terms[n].action[g] != want.action[g]:
                    raise ValueError(f"projective witness in degree {n} does not match "
                                     f"the action of {A.labels[g]}")
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

    def shift(self, k: int) -> "Complex":
        if k == 0:
            return self
        if self.summands is not None:  # a direct sum shifts summand by summand
            return direct_sum_complexes([s.shift(k) for s in self.summands])
        f = self.algebra.field
        terms = {n - k: m for n, m in self.terms.items()}
        sign = f.one if k % 2 == 0 else f.neg(f.one)
        diffs = {n - k: d.scale(sign) for n, d in self.diffs.items()}
        types = None
        if self.proj_types is not None:
            types = {n - k: v for n, v in self.proj_types.items()}
        return Complex(self.algebra, terms, diffs, types, validate=False)

    def cohomology(self, n: int) -> Module:
        """H^n as a module with its induced action, and its sq for reduce/lift."""
        if n not in self._cohom:
            sq = self.subquotient(n)
            action = [Matrix.from_row_entries(self.field, sq.dim,
                                              [sq.reduce(a.apply_entries(rep))
                                               for rep in sq.rep_entries])
                      for a in self.term(n).action]
            self._cohom[n] = Module(self.algebra, sq.dim, action, validate=False, sq=sq)
        return self._cohom[n]

    def __repr__(self):
        dims = {n: self.term(n).dim for n in self.degrees()}
        return f"Complex({dims})"


# the projectives each algebra keeps, under the names the package exports
projective_cache = Algebra.projective
projective_sum = Algebra.projective_sum


def zero_complex(A: Algebra) -> Complex:
    return Complex(A, {}, {}, proj_types={}, validate=False)


def module_complex(M: Module) -> Complex:
    """M as a complex in degree 0; M in degree d is module_complex(M).shift(-d)."""
    return Complex(M.algebra, {0: M}, {}, validate=False)


def projective_complex(A: Algebra, types: dict, diffs: dict | None = None) -> Complex:
    """Complex whose degree-n term is the direct sum of the listed projectives."""
    terms = {n: projective_sum(A, vs) for n, vs in types.items() if vs}
    return Complex(A, terms, diffs or {}, proj_types={n: tuple(vs) for n, vs in types.items()})


def direct_sum_complexes(xs: Sequence[Complex]) -> Complex:
    """Degreewise direct sum, with its summands and per-degree summand offsets.

    When every summand carries a projective witness, each term is the
    projective_sum of the concatenated witness, the same block diagonal,
    so its hom modules are built once per algebra."""
    if not xs:
        raise ValueError("empty direct sum")
    A = xs[0].algebra
    f = A.field
    lo = min(x.lo for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else 0
    hi = max(x.hi for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else -1
    types = None
    if all(x.is_projective_complex() for x in xs):
        types = {n: tuple(v for x in xs for v in x.proj_types.get(n, ()))
                 for n in range(lo, hi + 1)}
    terms, diffs = {}, {}
    offsets = {}
    for n in range(lo, hi + 1):
        mods = [x.term(n) for x in xs]
        offs, off = [], 0
        for m in mods:
            offs.append(off)
            off += m.dim
        offsets[n] = offs
        if off:
            terms[n] = (direct_sum_modules(A, mods) if types is None
                        else projective_sum(A, types[n]))
        diffs[n] = Matrix.block_diag(f, [x.diff(n) for x in xs])
    return Complex(A, terms, diffs, types, validate=False, summands=list(xs),
                   summand_offsets=offsets)


def summand_projection_maps(X: Complex) -> list["ChainMap"]:
    """Idempotent chain maps projecting a direct_sum_complexes result onto each summand slice."""
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

    def compose(self, other: "ChainMap") -> "ChainMap":
        """Diagrammatic: self then other."""
        mats = {n: self.mat(n) @ other.mat(n)
                for n in self.source.degrees()}
        return ChainMap(self.source, other.target, mats, validate=False)

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
    types = None
    if X.is_projective_complex() and Y.is_projective_complex():
        types = {n: X.proj_types.get(n + 1, ()) + Y.proj_types.get(n, ())
                 for n in range(lo, hi + 1)}
    terms, diffs = {}, {}
    for n in range(lo, hi + 1):
        xs, ys = X.term(n + 1), Y.term(n)
        if xs.dim + ys.dim:
            terms[n] = (direct_sum_modules(A, [xs, ys]) if types is None
                        else projective_sum(A, types[n]))
        diffs[n] = block_matrix(
            fld,
            [[-X.diff(n + 1), f.mat(n + 1)], [None, Y.diff(n)]],
            [xs.dim, ys.dim],
            [X.term(n + 2).dim, Y.term(n + 1).dim],
        )
    return Complex(A, terms, diffs, types)


def is_acyclic(X: Complex) -> bool:
    """Exactness, read off ranks by Cochains.h_dim: dim X^n = rk d^{n-1} +
    rk d^n in every degree, up to the first degree where it fails."""
    return not any(X.h_dim(n) for n in X.degrees())


# -- graded hom complex ----------------------------------------------------


def read_image(out: dict, homs, pos: int, w: dict, negate: bool = False):
    """Write into out, from position pos on, the coordinates in the basis of
    homs = Hom(e_v A, N) of the map whose generator image is w (nonzero
    entries), negated when asked: the coordinates of w in the echelon basis
    of N.e_v."""
    neg = homs.space.field.neg
    for t, x in homs.space.coords(w).items():
        out[pos + t] = neg(x) if negate else x


class GradedHom(Cochains):
    """The hom complex out of a complex of projectives into a bounded complex.

    Degree-n elements are families of module maps X^i -> Y^{n+i}.  The source
    must carry its projective witness: a map out of a summand e_v A of X^i is
    fixed by the image of e_v in Y^{n+i}.e_v (Yoneda).  cells[n] lists, for
    each source degree i and witness summand (first row start) with a
    nonzero target, (i, start, Hom(e_v A, Y^{n+i}), first coordinate): the
    degree-n basis runs over the cells in order, then over the echelon rows
    of Y^{n+i}.e_v, and the coordinates of a map on a cell are its generator
    image read at the pivots of that echelon basis, with no system to solve.
    Composites are read the same way: the generator image of "g, then h" is
    the generator image of g times h, so no composite matrix is built.  The
    differential in degree n implements (df)_i = f_i d_Y - (-1)^n d_X f_{i+1};
    each differential of X and Y it reads is checked to be a module map.
    Hom(U, U) keeps its units, dg-end, H^0 algebra and radical (kept).
    """

    def __init__(self, X: Complex, Y: Complex):
        if not X.is_projective_complex():
            raise ValueError("hom complex needs a source with projective witness; "
                             "run proj_replacement")
        self.X = X
        self.Y = Y
        super().__init__(X.field, () if X.is_empty() or Y.is_empty()
                         else (Y.lo - X.hi, Y.hi - X.lo))
        self.cells = {}      # n -> list of (source degree, first row, homs, first coordinate)
        self._dims = {}
        for n in self.degrees():
            cells, pos = [], 0
            for i in X.degrees():
                S, T = X.term(i), Y.term(n + i)
                if S.dim == 0 or T.dim == 0:
                    continue
                for start, homs in self._summands(i, T):
                    cells.append((i, start, homs, pos))
                    pos += homs.space.dim
            self.cells[n] = cells
            self._dims[n] = pos
        self._diffs = {}
        self._kept = {}

    def kept(self, name: str, build):
        """build(), run on the first call for name and kept; a build that
        raises keeps nothing, so it raises again on the next call."""
        if name not in self._kept:
            self._kept[name] = build()
        return self._kept[name]

    @cached_property
    def basis(self) -> dict:
        """n -> list of (source degree, matrix of the map), one per basis
        element: each block of each cell placed at its summand's rows.  Built
        on first read, since the coordinates, differentials and composites
        read the cells alone."""
        out = {}
        for n, cells in self.cells.items():
            entries = []
            for i, start, homs, _ in cells:
                S, T = self.X.term(i), self.Y.term(n + i)
                for blk in homs.blocks:
                    rows = {start + r: nz for r, nz in blk.entries.items()}
                    entries.append((i, Matrix.from_entries(self.field, S.dim, T.dim, rows)))
            out[n] = entries
        return out

    def _summands(self, i: int, T) -> list:
        """(first row, Hom(e_v A, T)) for each witness summand of X^i."""
        A = self.X.algebra
        out, start = [], 0
        for v in self.X.proj_types[i]:
            P = projective_cache(A, v)
            out.append((start, T.homs_from(P)))
            start += P.dim
        return out

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    def images(self, n: int, coords: dict) -> list:
        """The generator image on each cell of cells[n] of the degree-n
        element with the given nonzero coordinates, as nonzero entries."""
        out = []
        for _, _, homs, pos in self.cells.get(n, ()):
            space = homs.space
            out.append(space.matrix.apply_entries(
                {b: c for b in range(space.dim) if (c := coords.get(pos + b))}))
        return out

    def generator_images(self, i: int, mat: Matrix) -> list:
        """(first row, image) for each witness summand of X^i: the image of
        its generator under mat, a matrix out of X^i, as nonzero entries."""
        A = self.X.algebra
        out, start = [], 0
        for v in self.X.proj_types.get(i, ()):
            P = projective_cache(A, v)
            out.append((start, generator_image(P, mat.entries, start)))
            start += P.dim
        return out

    def postcomposed(self, n: int, images: list, comps: dict, target: "GradedHom",
                     m: int) -> dict:
        """The nonzero coordinates in target, in degree m, of "x, then comps":
        x is the degree-n element with the given generator images (as
        images(n, ...) returns them) and comps its follow-up, target degree
        -> matrix.  The generator image of the composite on a summand of X^i
        is x's there times comps[n + i].  target has the source X too, but
        its cells differ, so they are matched by (source degree, first row)."""
        at = {(i, start): (homs, pos) for i, start, homs, pos in target.cells.get(m, ())}
        out: dict = {}
        for (i, start, _, _), y in zip(self.cells.get(n, ()), images):
            c, cell = comps.get(n + i), at.get((i, start))
            if y and c is not None and cell is not None:
                read_image(out, *cell, c.apply_entries(y))
        return out

    def diff(self, n: int) -> Matrix:
        if n in self._diffs:
            return self._diffs[n]
        f = self.field
        X, Y = self.X, self.Y
        negate = n % 2 == 0  # the sign -(-1)^n of the d_X term
        up = {(i, start): (homs, pos) for i, start, homs, pos in self.cells.get(n + 1, ())}
        # each summand of X^{i-1} as its cell in degree n + 1 and the image
        # of its generator under d_X, an element of X^i
        dx_images: dict = {}
        for i, start, homs, pos in self.cells.get(n + 1, ()):
            if X.diff(i).entries:
                img = generator_image(homs.P, X.linear_diff(i).entries, start)
                if img:
                    dx_images.setdefault(i + 1, []).append(((homs, pos), img))
        rows = {}
        for i, start, homs, pos in self.cells.get(n, ()):
            # h then d_Y, on h's own summand
            same = up.get((i, start))
            dY = Y.linear_diff(n + i) if same is not None else None
            # d_X then h: the generator images cut to the rows of h's summand
            end = start + len(homs.acts)
            below = [(at, z) for at, img in dx_images.get(i, ())
                     if (z := {r - start: x for r, x in img.items() if start <= r < end})]
            for b, (y, blk) in enumerate(zip(homs.space.rows, homs.blocks)):
                # the terms land on distinct cells, so each coordinate is written once
                row: dict = {}
                if dY is not None:
                    read_image(row, *same, dY.apply_entries(y))
                for at, z in below:
                    read_image(row, *at, blk.apply_entries(z), negate)
                if row:
                    rows[pos + b] = row
        d = Matrix.from_entries(f, self.dim(n), self.dim(n + 1), rows)
        self._diffs[n] = d
        return d

    def component_maps(self, n: int, coords: dict) -> dict:
        """Expand the nonzero coordinates of a degree-n element into
        per-source-degree matrices."""
        basis = self.basis.get(n, ())
        terms: dict = {}
        for t, c in coords.items():
            i, h = basis[t]
            terms.setdefault(i, []).append((c, h))
        return {i: Matrix.combination(self.field, self.X.term(i).dim, self.Y.term(n + i).dim, ts)
                for i, ts in terms.items()}

    def coords_of(self, n: int, comps: dict) -> dict:
        """Nonzero coordinates of a family of module maps, source degree ->
        matrix: each component's generator image on each cell of cells[n],
        read at the pivots of the cell.  Only the generator rows are read,
        which fix a module map."""
        out: dict = {}
        for i, start, homs, pos in self.cells.get(n, ()):
            mat = comps.get(i)
            if mat is not None:
                read_image(out, homs, pos, generator_image(homs.P, mat.entries, start))
        return out

    def chain_map_from_cocycle(self, coords: dict) -> ChainMap:
        """Nonzero degree-0 cocycle coordinates -> an honest chain map X -> Y."""
        comps = self.component_maps(0, coords)
        return ChainMap(self.X, self.Y, {i: m for i, m in comps.items()})


def hom_complex(X: Complex, Y: Complex) -> GradedHom:
    if X.algebra is not Y.algebra and X.algebra.dim != Y.algebra.dim:
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
    from .dg import DgModule
    from .semifree import semifree_resolve

    A = X.algebra
    if X.is_projective_complex():
        return X, identity_chain_map(X)
    if X.is_empty():
        P = zero_complex(A)
        return P, ChainMap(P, X, {}, validate=False)
    action = {(n, 0): [[a.entries.get(i, {}) for a in M.action] for i in range(M.dim)]
              for n, M in X.terms.items()}
    dims = {n: M.dim for n, M in X.terms.items()}
    floor = X.lo - cap - 1
    R = semifree_resolve(DgModule(A.dg, "right", dims, action, X.diffs, validate=False),
                         floor)
    if R.gens and R.gens[-1] == floor:
        raise ResolutionCapError(
            f"projective replacement reached degree {floor} (cap {cap} below the support)")
    types: dict = {}
    for g, e in zip(R.gens, R.cells):
        types.setdefault(g, []).append(e)
    P = projective_complex(A, types, {n: R.diff_matrix(n) for n in types})
    return P, ChainMap(P, X, {n: R.aug_matrix(n) for n in types})
