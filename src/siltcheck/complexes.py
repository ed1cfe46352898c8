"""Bounded cochain complexes of right modules.

Shifts, mapping cones, cohomology with its induced action, chain maps and
their induced maps on cohomology, the graded hom complex, projective
replacement and quasi-isomorphism testing.

Sign conventions, fixed once and asserted by constructor validation:
* shift: X[k]^n = X^{n+k}, differential scaled by (-1)^k;
* cone of f: X -> Y: C^n = X^{n+1} (+) Y^n with d(x, y) = (-x d_X, x f + y d_Y);
* graded hom differential: (df)_i = f_i d_Y - (-1)^n d_X f_{i+1} in degree n.
With these choices the canonical triangle maps Y -> C -> X[1] commute on the
nose and the long exact sequence identities hold without auxiliary signs.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    Algebra,
    Module,
    ModuleMap,
    direct_sum_modules,
    projective_module,
)
from .linalg import Matrix, RowSpace, subquotient_from_maps


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


class Complex:
    """Bounded complex of right modules; degree-indexed terms and differentials.

    proj_types, when given, witnesses each nonzero term as the direct sum of
    the listed indecomposable projectives (by idempotent position), in the
    basis of projective_cache: the hom complex reads maps out of each term
    off that basis, so it requires the witness on its source.  validate
    checks the witness exactly, each term's action on the algebra generators
    against the block diagonal of the listed projectives' actions.
    """

    def __init__(self, algebra: Algebra, terms: dict, diffs: dict,
                 proj_types: dict | None = None, validate: bool = True):
        self.algebra = algebra
        self.terms = {n: m for n, m in terms.items() if m.dim > 0}
        degrees = sorted(self.terms)
        self.lo = degrees[0] if degrees else 0
        self.hi = degrees[-1] if degrees else -1
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
        if validate:
            self.validate()

    def is_empty(self) -> bool:
        return not self.terms

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def term(self, n: int) -> Module:
        m = self.terms.get(n)
        # the zero module is the empty sum, built once per algebra
        return m if m is not None else projective_sum(self.algebra, ())

    def diff(self, n: int) -> Matrix:
        d = self.diffs.get(n)
        if d is not None:
            return d
        return Matrix.zero(self.algebra.field, self.term(n).dim, self.term(n + 1).dim)

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
            d = self.diff(n)
            if d.is_zero():
                continue
            ModuleMap(self.term(n), self.term(n + 1), d)  # module-map check
            if not (d @ self.diff(n + 1)).is_zero():
                raise AssertionError(f"differential does not square to zero at degree {n}")

    def shift(self, k: int) -> "Complex":
        if k == 0:
            return self
        f = self.algebra.field
        terms = {n - k: m for n, m in self.terms.items()}
        sign = f.one if k % 2 == 0 else f.neg(f.one)
        diffs = {n - k: d.scale(sign) for n, d in self.diffs.items()}
        types = None
        if self.proj_types is not None:
            types = {n - k: v for n, v in self.proj_types.items()}
        return Complex(self.algebra, terms, diffs, types, validate=False)

    def cohomology(self, n: int) -> Module:
        """H^n with its induced action; carries .sq for reduce/lift."""
        if n in self._cohom:
            return self._cohom[n]
        A = self.algebra
        f = A.field
        M = self.term(n)
        sq = subquotient_from_maps(self.diff(n - 1), self.diff(n), f, M.dim)
        h = len(sq.reps)
        action = []
        for j in range(A.dim):
            rows = [sq.reduce(M.action[j].apply_row(rep)) for rep in sq.reps]
            action.append(Matrix(f, h, h, rows))
        H = Module(A, h, action, validate=False)
        H.sq = sq
        self._cohom[n] = H
        return H

    def h_dim(self, n: int) -> int:
        return self.cohomology(n).dim

    def h_table(self) -> dict:
        return {n: self.h_dim(n) for n in self.degrees() if self.h_dim(n) > 0}

    def __repr__(self):
        dims = {n: self.term(n).dim for n in self.degrees()}
        return f"Complex({dims})"


def projective_cache(A: Algebra, v: int) -> Module:
    """The indecomposable projective at idempotent v, built once per algebra."""
    if v not in A._proj:
        A._proj[v] = projective_module(A, v)
    return A._proj[v]


def projective_sum(A: Algebra, types: Sequence[int]) -> Module:
    """The direct sum of the listed indecomposable projectives, in the listed
    order: the term a projective witness names, built once per algebra."""
    types = tuple(types)
    if types not in A._proj_sums:
        A._proj_sums[types] = direct_sum_modules(A, [projective_cache(A, v) for v in types])
    return A._proj_sums[types]


def zero_complex(A: Algebra) -> Complex:
    return Complex(A, {}, {}, proj_types={}, validate=False)


def module_complex(M: Module, degree: int = 0) -> Complex:
    return Complex(M.algebra, {degree: M}, {}, validate=False)


def projective_complex(A: Algebra, types: dict, diffs: dict | None = None) -> Complex:
    """Complex whose degree-n term is the direct sum of the listed projectives."""
    terms = {n: projective_sum(A, vs) for n, vs in types.items() if vs}
    return Complex(A, terms, diffs or {}, proj_types={n: tuple(vs) for n, vs in types.items()})


def direct_sum_complexes(xs: Sequence[Complex]) -> Complex:
    """Degreewise direct sum; remembers per-degree summand offsets."""
    if not xs:
        raise ValueError("empty direct sum")
    A = xs[0].algebra
    f = A.field
    lo = min(x.lo for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else 0
    hi = max(x.hi for x in xs if not x.is_empty()) if any(not x.is_empty() for x in xs) else -1
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
            terms[n] = direct_sum_modules(A, mods)
        diffs[n] = Matrix.block_diag(f, [x.diff(n) for x in xs])
    types = None
    if all(x.is_projective_complex() for x in xs):
        types = {}
        for n in range(lo, hi + 1):
            types[n] = tuple(v for x in xs for v in (x.proj_types.get(n, ()) if x.proj_types else ()))
    out = Complex(A, terms, diffs, types, validate=False)
    out.summands = list(xs)
    out.summand_offsets = offsets
    return out


def summand_projection_maps(X: Complex) -> list["ChainMap"]:
    """Idempotent chain maps projecting a direct_sum_complexes result onto each summand slice."""
    if not hasattr(X, "summands"):
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
            sdim = s.term(n).dim
            rows = [[f.zero] * dim for _ in range(dim)]
            for i in range(sdim):
                rows[off + i][off + i] = f.one
            mats[n] = Matrix(f, dim, dim, rows)
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

    def shift(self, k: int) -> "ChainMap":
        return ChainMap(self.source.shift(k), self.target.shift(k),
                        {n - k: m for n, m in self.mats.items()}, validate=False)

    def induced(self, n: int) -> Matrix:
        """Matrix of H^n(source) -> H^n(target) on cohomology class coordinates."""
        HS = self.source.cohomology(n)
        HT = self.target.cohomology(n)
        m = self.mat(n)
        rows = [HT.sq.reduce(m.apply_row(rep)) for rep in HS.sq.reps]
        return Matrix(self.source.algebra.field, HS.dim, HT.dim, rows)


def identity_chain_map(X: Complex) -> ChainMap:
    f = X.algebra.field
    return ChainMap(X, X, {n: Matrix.identity(f, X.term(n).dim) for n in X.degrees()},
                    validate=False)


class Triangle:
    """X -> Y -> cone -> X[1] with the canonical inclusion and projection."""

    def __init__(self, f: ChainMap, cone: Complex, incl: ChainMap, proj: ChainMap):
        self.f = f
        self.cone = cone
        self.incl = incl
        self.proj = proj


def cone(f: ChainMap) -> tuple[Complex, Triangle]:
    X, Y = f.source, f.target
    A = X.algebra
    fld = A.field
    terms, diffs = {}, {}
    lo = min(X.lo - 1, Y.lo)
    hi = max(X.hi - 1, Y.hi)
    for n in range(lo, hi + 1):
        xs, ys = X.term(n + 1), Y.term(n)
        if xs.dim + ys.dim:
            terms[n] = direct_sum_modules(A, [xs, ys])
        diffs[n] = block_matrix(
            fld,
            [[-X.diff(n + 1), f.mat(n + 1)], [None, Y.diff(n)]],
            [xs.dim, ys.dim],
            [X.term(n + 2).dim, Y.term(n + 1).dim],
        )
    types = None
    if X.is_projective_complex() and Y.is_projective_complex():
        types = {n: X.proj_types.get(n + 1, ()) + Y.proj_types.get(n, ())
                 for n in range(lo, hi + 1)}
    C = Complex(A, terms, diffs, types)
    incl = ChainMap(Y, C, {
        n: block_matrix(fld, [[None, Matrix.identity(fld, Y.term(n).dim)]],
                        [Y.term(n).dim], [X.term(n + 1).dim, Y.term(n).dim])
        for n in Y.degrees()
    })
    Xs = X.shift(1)
    proj = ChainMap(C, Xs, {
        n: block_matrix(fld, [[Matrix.identity(fld, X.term(n + 1).dim)], [None]],
                        [X.term(n + 1).dim, Y.term(n).dim], [X.term(n + 1).dim])
        for n in range(lo, hi + 1)
    })
    return C, Triangle(f, C, incl, proj)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(cone(f)[0])


def is_acyclic(X: Complex) -> bool:
    """Exactness read off ranks: dim X^n = rk d^{n-1} + rk d^n in every degree."""
    ranks = {n: d.rank() for n, d in X.diffs.items()}
    return all(X.term(n).dim == ranks.get(n - 1, 0) + ranks.get(n, 0) for n in X.degrees())


# -- graded hom complex ----------------------------------------------------


class GradedHom:
    """The hom complex out of a complex of projectives into a bounded complex.

    Degree-n elements are families of module maps X^i -> Y^{n+i}.  The source
    must carry its projective witness: a map out of a summand e_v A of X^i is
    fixed by the image of e_v in Y^{n+i}.e_v (Yoneda), so the degree-n basis
    is ordered by source degree, then witness summand, then echelon row of
    Y^{n+i}.e_v, and coordinates are read at the pivots of that image, with
    no system to solve.  The differential matrix in degree n implements
    (df)_i = f_i d_Y - (-1)^n d_X f_{i+1}.
    """

    def __init__(self, X: Complex, Y: Complex):
        if not X.is_projective_complex():
            raise ValueError("hom complex needs a source with projective witness; "
                             "run proj_replacement")
        self.X = X
        self.Y = Y
        self.field = X.algebra.field
        if X.is_empty() or Y.is_empty():
            self.lo, self.hi = 0, -1
        else:
            self.lo = Y.lo - X.hi
            self.hi = Y.hi - X.lo
        self.basis = {}      # n -> list of (source degree, matrix of the map)
        self.offsets = {}    # n -> {source degree: start index}
        for n in range(self.lo, self.hi + 1):
            entries, offs = [], {}
            for i in X.degrees():
                S, T = X.term(i), Y.term(n + i)
                if S.dim == 0 or T.dim == 0:
                    continue
                offs[i] = len(entries)
                for start, homs in self._summands(i, T):
                    for blk in homs.blocks:
                        rows = {start + r: nz for r, nz in blk.entries.items()}
                        entries.append((i, Matrix.from_entries(self.field, S.dim, T.dim, rows)))
            self.basis[n] = entries
            self.offsets[n] = offs
        self._diffs = {}
        self._cohom = {}

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
        return len(self.basis.get(n, ()))

    def diff(self, n: int) -> Matrix:
        if n in self._diffs:
            return self._diffs[n]
        f = self.field
        sign = f.one if n % 2 == 0 else f.neg(f.one)
        rows = []
        for i, h in self.basis.get(n, ()):
            # at source degree i: h then d_Y; at i-1: d_X then h, sign -(-1)^n
            dx_h = (self.X.diff(i - 1) @ h).scale(f.neg(sign))
            coords = self.coords_of(n + 1, {i: h @ self.Y.diff(n + i), i - 1: dx_h})
            if coords is None:
                raise AssertionError("component map escaped its hom-space span")
            rows.append(coords)
        d = Matrix(f, len(rows), self.dim(n + 1), rows)
        self._diffs[n] = d
        return d

    def subquotient(self, n: int):
        if n not in self._cohom:
            self._cohom[n] = subquotient_from_maps(self.diff(n - 1), self.diff(n),
                                                   self.field, self.dim(n))
        return self._cohom[n]

    def h_dim(self, n: int) -> int:
        return len(self.subquotient(n).reps)

    def component_maps(self, n: int, coords: Sequence) -> dict:
        """Expand coordinates in degree n into per-source-degree matrices."""
        sums: dict = {}
        for c, (i, h) in zip(coords, self.basis.get(n, ())):
            if not c:
                continue
            acc = sums.setdefault(i, {})
            for r, nz in h.entries.items():
                row = acc.setdefault(r, {})
                for j, x in nz.items():
                    row[j] = row.get(j, 0) + c * x
        f = self.field
        out = {}
        for i, acc in sums.items():
            reduced = {r: red for r, row in acc.items() if (red := f.reduce_entries(row))}
            out[i] = Matrix.from_entries(f, self.X.term(i).dim, self.Y.term(n + i).dim, reduced)
        return out

    def coords_of(self, n: int, comps: dict):
        """Coordinates of a family of component maps; None if some component
        is not a module map."""
        f = self.field
        vec = [f.zero] * self.dim(n)
        offs = self.offsets.get(n, {})
        for i, mat in comps.items():
            if mat.is_zero():
                continue
            if i not in offs:
                return None
            pos = offs[i]
            for start, homs in self._summands(i, self.Y.term(n + i)):
                end = start + len(homs.acts)
                coords = homs.coords({r - start: nz for r, nz in mat.entries.items()
                                      if start <= r < end})
                if coords is None:
                    return None
                vec[pos:pos + len(coords)] = coords
                pos += len(coords)
        return tuple(vec)

    def chain_map_from_cocycle(self, coords: Sequence) -> ChainMap:
        """Degree-0 cocycle coordinates -> an honest chain map X -> Y."""
        comps = self.component_maps(0, coords)
        return ChainMap(self.X, self.Y, {i: m for i, m in comps.items()})


def hom_complex(X: Complex, Y: Complex) -> GradedHom:
    if X.algebra is not Y.algebra and X.algebra.dim != Y.algebra.dim:
        raise ValueError("complexes over different algebras")
    return GradedHom(X, Y)


# -- projective replacement ------------------------------------------------


def proj_replacement(X: Complex, cap: int = 16) -> tuple[Complex, ChainMap]:
    """A quasi-isomorphism P -> X with P a complex of projectives.

    Builds P degreewise from the top: at each degree the classes of the
    augmentation cone are killed by adjoining projective pre-covers, chosen
    greedily one idempotent weight at a time.  Terminates when the cone is
    exhausted below the support of X; raises ResolutionCapError naming the
    degree reached if the resolution runs longer than cap extra degrees.
    """
    A = X.algebra
    f = A.field
    if X.is_projective_complex():
        return X, identity_chain_map(X)
    if X.is_empty():
        P = zero_complex(A)
        return P, ChainMap(P, X, {}, validate=False)
    p_terms: dict = {}
    p_diffs: dict = {}
    p_types: dict = {}
    eps: dict = {}
    floor = X.lo - cap
    n = X.hi
    while True:
        if n < floor:
            raise ResolutionCapError(
                f"projective replacement reached degree {n} (cap {cap} below the support)")
        Pn1 = p_terms.get(n + 1)
        pdim = Pn1.dim if Pn1 is not None else 0
        Xn = X.term(n)
        width = pdim + Xn.dim
        Pn2 = p_terms.get(n + 2)
        din = block_matrix(f, [[None, X.diff(n - 1)]],
                           [X.term(n - 1).dim], [pdim, Xn.dim])
        dout = block_matrix(
            f,
            [[-p_diffs.get(n + 1, Matrix.zero(f, pdim, Pn2.dim if Pn2 else 0)),
              eps.get(n + 1, Matrix.zero(f, pdim, X.term(n + 1).dim))],
             [None, X.diff(n)]],
            [pdim, Xn.dim],
            [Pn2.dim if Pn2 else 0, X.term(n + 1).dim],
        )
        sq = subquotient_from_maps(din, dout, f, width)
        if not sq.reps and n < X.lo:
            break
        if sq.reps:
            def act(j):
                za = Pn1.action[j] if Pn1 is not None else Matrix.zero(f, 0, 0)
                return Matrix.block_diag(f, [za, Xn.action[j]])

            killed = RowSpace(f, len(sq.reps))
            gens = []
            for rep in sq.reps:
                for pos, e in enumerate(A.idempotents):
                    w = act(e).apply_row(rep)
                    cls = sq.reduce(w)
                    if any(c != f.zero for c in cls) and killed.add(cls):
                        gens.append((pos, tuple(w)))
                        for j in range(A.dim):
                            killed.add(sq.reduce(act(j).apply_row(w)))
            summands = [projective_cache(A, pos) for pos, _ in gens]
            Pn = projective_sum(A, [pos for pos, _ in gens])
            d_rows, e_rows = [], []
            for (pos, w), proj in zip(gens, summands):
                q, x = w[:pdim], w[pdim:]
                for r in proj.ambient_rows:
                    if Pn1 is not None:
                        img = Pn1.action_of(r).apply_row(q)
                        d_rows.append([f.neg(c) for c in img])
                    else:
                        d_rows.append([])
                    e_rows.append(Xn.action_of(r).apply_row(x))
            p_terms[n] = Pn
            p_types[n] = tuple(pos for pos, _ in gens)
            p_diffs[n] = Matrix(f, Pn.dim, pdim, d_rows)
            eps[n] = Matrix(f, Pn.dim, Xn.dim, e_rows)
        else:
            p_types[n] = ()
        n -= 1
    P = Complex(A, p_terms, p_diffs, p_types)
    return P, ChainMap(P, X, eps)
