"""Windowed semifree resolutions, derived tensor/Hom, and maps out of them.

A semifree module is free over its non-positive base on a filtered list of
generators; the differential of each generator only involves strictly earlier
generators of strictly higher degree.  Resolutions are built top-down: at each
degree the surviving cocycle classes of the augmentation cone are killed by
adjoining fresh free generators, which over a non-positive base cannot disturb
any higher degree.  A cutoff bounds how far down the construction digs; the
derived functors pick their cutoff from the requested window with one spare
degree so that cohomology at the window edge is already exact.  Since each
degree's generators depend only on those above it, one resolution answers
for every cutoff: to_cutoff reads a shallower one off its generators and
continues the same construction for a deeper one.

Freeness also makes maps out of a semifree module easy to write down: a map
is its list of values on the generators.  SemifreeHom is the hom complex out
of a semifree module into a dg-module in those coordinates, and derived Hom
over the base is its cohomology.  lift_generators builds a degree-0 map one
generator at a time in filtration order, each value solving the chain-map
condition against the values already chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import direct_sum_modules
from .complexes import Complex, zero_complex
from .dg import DgAlgebra, DgModule
from .linalg import Matrix, RowSpace, subquotient_from_maps


class SemifreeCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def widen(self, k: int) -> "DegreeWindow":
        return DegreeWindow(self.lo - k, self.hi + k)


class SemifreeModule:
    """Free right dg-module over a non-positive base, with augmentation.

    gens[k] is the degree of the k-th generator (non-increasing along the
    list); gen_diffs[k] maps free-basis positions (k2, b2) to coefficients,
    with k2 < k and gens[k2] = gens[k] + 1 - (degree of basis b2) > gens[k];
    gen_augs[k] is the augmentation value in target^{gens[k]}.  Generators
    are only ever added through add_generator, which drops the per-degree
    matrices kept by diff_matrix, aug_matrix and lift_system.  cutoff is the
    lowest degree the construction has reached, or None for the regular
    module, which resolves itself in every degree.
    """

    def __init__(self, algebra: DgAlgebra, target: DgModule, cutoff: int | None):
        self.algebra = algebra
        self.target = target
        self.cutoff = cutoff
        self.gens: list[int] = []
        self.gen_diffs: list[dict] = []
        self.gen_augs: list[tuple] = []
        self._matrices: dict = {}

    def add_generator(self, degree: int, diff: dict, aug: tuple):
        self.gens.append(degree)
        self.gen_diffs.append(diff)
        self.gen_augs.append(aug)
        self._matrices.clear()

    def to_cutoff(self, cutoff: int) -> "SemifreeModule":
        """What semifree_resolve(self.target, cutoff) returns, built from self.

        A new module holding the generators of degree >= cutoff; below
        self.cutoff the construction carries on down to the new cutoff.
        self is left as it is, so modules built on it stay valid.
        """
        if self.cutoff is None:
            return self
        Q = SemifreeModule(self.algebra, self.target, cutoff)
        for k, g in enumerate(self.gens):
            if g >= cutoff:
                Q.add_generator(g, self.gen_diffs[k], self.gen_augs[k])
        return _kill_cone(Q, self.cutoff - 1)

    def _memo(self, kind: str, n: int, build) -> Matrix:
        key = (kind, n)
        if key not in self._matrices:
            self._matrices[key] = build(n)
        return self._matrices[key]

    def layout(self, n: int) -> list:
        return [(k, b) for k, g in enumerate(self.gens)
                for b in range(self.algebra.dim(n - g))]

    def dim(self, n: int) -> int:
        return sum(self.algebra.dim(n - g) for g in self.gens)

    def support(self):
        if not self.gens:
            return range(0)
        return range(min(self.gens) + self.algebra.lo, max(self.gens) + 1)

    def act(self, n: int, vec, cdeg: int, cvec):
        """Right action of a degree-cdeg base element on a degree-n element."""
        C = self.algebra
        f = C.field
        src = self.layout(n)
        tgt = self.layout(n + cdeg)
        pos = {kb: t for t, kb in enumerate(tgt)}
        out = [f.zero] * len(tgt)
        for (k, b), coeff in zip(src, vec):
            if coeff == f.zero:
                continue
            prod = C.product(n - self.gens[k], C.basis_vector(n - self.gens[k], b),
                             cdeg, cvec)
            for b2, c2 in enumerate(prod):
                if c2 != f.zero:
                    t = pos[(k, b2)]
                    out[t] = f.add(out[t], f.mul(coeff, c2))
        return tuple(out)

    def diff_matrix(self, n: int) -> Matrix:
        return self._memo("diff", n, self._diff_matrix)

    def aug_matrix(self, n: int) -> Matrix:
        return self._memo("aug", n, self._aug_matrix)

    def lift_system(self, n: int) -> Matrix:
        """[aug | diff] in degree n: x solves it for (augmentation, boundary)."""
        return self._memo("lift", n, self._lift_system)

    def _diff_matrix(self, n: int) -> Matrix:
        C = self.algebra
        f = C.field
        src = self.layout(n)
        tgt = self.layout(n + 1)
        pos = {kb: t for t, kb in enumerate(tgt)}
        rows = []
        for (k, b) in src:
            g = self.gens[k]
            row = [f.zero] * len(tgt)
            bdeg = n - g
            bvec = C.basis_vector(bdeg, b)
            # d(gen) acted by the base coefficient
            for (k2, b2), coeff in self.gen_diffs[k].items():
                g2 = self.gens[k2]
                prod = C.product(g + 1 - g2, C.basis_vector(g + 1 - g2, b2), bdeg, bvec)
                for b3, c3 in enumerate(prod):
                    if c3 != f.zero:
                        t = pos[(k2, b3)]
                        row[t] = f.add(row[t], f.mul(coeff, c3))
            # sign from moving d past the generator
            dcb = C.diff(bdeg).row(b) if C.dim(bdeg) else ()
            sign = f.one if g % 2 == 0 else f.neg(f.one)
            for b3, c3 in enumerate(dcb):
                if c3 != f.zero:
                    t = pos[(k, b3)]
                    row[t] = f.add(row[t], f.mul(sign, c3))
            rows.append(row)
        return Matrix(f, len(src), len(tgt), rows)

    def _aug_matrix(self, n: int) -> Matrix:
        M = self.target
        f = self.algebra.field
        src = self.layout(n)
        rows = []
        for (k, b) in src:
            g = self.gens[k]
            rows.append(M.act(g, self.gen_augs[k], n - g,
                              self.algebra.basis_vector(n - g, b)))
        return Matrix(f, len(src), M.dim(n), rows)

    def _lift_system(self, n: int) -> Matrix:
        return self.aug_matrix(n).hstack(self.diff_matrix(n))

    def cone_dim(self, n: int) -> int:
        return self.dim(n + 1) + self.target.dim(n)

    def cone_diff(self, n: int) -> Matrix:
        f = self.algebra.field
        dP = self.diff_matrix(n + 1)
        aug = self.aug_matrix(n + 1)
        dM = self.target.diff(n)
        top = dP.scale(f.neg(f.one)).hstack(aug)
        bottom = Matrix.zero(f, self.target.dim(n), self.dim(n + 2)).hstack(dM)
        rows = list(top.rows) + list(bottom.rows)
        return Matrix(f, self.cone_dim(n), self.cone_dim(n + 1), rows)

    def cone_subquotient(self, n: int):
        return subquotient_from_maps(self.cone_diff(n - 1), self.cone_diff(n),
                                     self.algebra.field, self.cone_dim(n))

    def cone_h_dim(self, n: int) -> int:
        return len(self.cone_subquotient(n).reps)

    def cone_support(self):
        lows = [self.target.lo]
        highs = [self.target.hi]
        if self.gens:
            lows.append(min(self.gens) + self.algebra.lo - 1)
            highs.append(max(self.gens) - 1)
        return range(min(lows), max(highs) + 1)

    def gen_counts(self) -> dict:
        out = {}
        for g in self.gens:
            out[g] = out.get(g, 0) + 1
        return out

    def as_dg_module(self, validate: bool = True) -> DgModule:
        C = self.algebra
        f = C.field
        dims = {n: self.dim(n) for n in self.support()}
        action = {}
        for m in self.support():
            for n in C.degrees():
                if not dims.get(m) or not C.dim(n) or not dims.get(m + n):
                    continue
                table = []
                for t in range(dims[m]):
                    x = tuple(f.one if s == t else f.zero for s in range(dims[m]))
                    table.append([self.act(m, x, n, C.basis_vector(n, j))
                                  for j in range(C.dim(n))])
                action[(m, n)] = table
        diffs = {n: self.diff_matrix(n) for n in self.support()}
        return DgModule(C, "right", dims, action, diffs, validate=validate)


def regular_dg_module(B: DgAlgebra) -> DgModule:
    """B as a right dg-module over itself."""
    action = {key: [list(row) for row in table] for key, table in B.mult.items()}
    return DgModule(B, "right", dict(B.dims), action, dict(B.diffs), validate=False)


def _is_regular(M: DgModule) -> bool:
    B = M.algebra
    if M.side != "right" or M.dims != B.dims:
        return False
    for n in B.degrees():
        if M.diff(n).rows != B.diff(n).rows:
            return False
    for m in B.degrees():
        for n in B.degrees():
            if not B.dim(m) or not B.dim(n) or not B.dim(m + n):
                continue
            for i in range(B.dim(m)):
                x = B.basis_vector(m, i)
                for j in range(B.dim(n)):
                    a = B.basis_vector(n, j)
                    if tuple(M.act(m, x, n, a)) != tuple(B.product(m, x, n, a)):
                        return False
    return True


def semifree_resolve(M: DgModule, cutoff: int, cap: int = 4096) -> SemifreeModule:
    """Kill the augmentation cone's cohomology from the top of M down to the cutoff.

    The result has generators only in degrees >= cutoff and its augmentation
    cone is acyclic in every degree >= cutoff (hence >= cutoff + 1).
    """
    C = M.algebra
    if not C.is_nonpositive():
        raise ValueError("base dg-algebra has a positive-degree component")
    if _is_regular(M):
        P = SemifreeModule(C, M, None)
        P.add_generator(0, {}, tuple(C.unit))
        return P
    return _kill_cone(SemifreeModule(C, M, cutoff), M.hi, cap)


def _kill_cone(P: SemifreeModule, top: int, cap: int = 4096) -> SemifreeModule:
    """Add generators to P from degree top (or the top of its target) down to
    P.cutoff, each degree killing the cone's cohomology there; returns P."""
    M, C = P.target, P.algebra
    f = C.field
    for n in range(min(top, M.hi), P.cutoff - 1, -1):
        sq = P.cone_subquotient(n)
        if not sq.reps:
            continue
        width = len(sq.reps)
        split = P.dim(n + 1)
        orbits = []
        for rep in sq.reps:
            q = tuple(rep[:split])
            x = tuple(rep[split:])
            rows = []
            for b0 in range(C.dim(0)):
                cvec = C.basis_vector(0, b0)
                qc = P.act(n + 1, q, 0, cvec)
                xc = M.act(n, x, 0, cvec)
                rows.append(sq.reduce(tuple(qc) + tuple(xc)))
            orbits.append(rows)
        # classes with a large action orbit first: one free generator then
        # kills everything in its span, keeping the cover near minimal
        ranks = [Matrix(f, len(rows), width, rows).rank() for rows in orbits]
        order = sorted(range(width), key=lambda r: (-ranks[r], r))
        killed = RowSpace(f, width)
        for r in order:
            cls = tuple(f.one if t == r else f.zero for t in range(width))
            if killed.contains(cls):
                continue
            if len(P.gens) >= cap:
                raise SemifreeCapError(
                    f"semifree resolution exceeded {cap} generators at degree {n}")
            rep = sq.reps[r]
            q = tuple(rep[:split])
            x = tuple(rep[split:])
            layout_up = P.layout(n + 1)
            P.add_generator(n, {layout_up[t]: c for t, c in enumerate(q) if c != f.zero},
                            tuple(f.neg(c) for c in x))
            for row in orbits[r]:
                killed.add(row)
    return P


# -- maps out of a semifree module -------------------------------------------


class SemifreeHom:
    """Base-linear maps from a semifree module into a dg-module.

    A degree-m element assigns to the k-th generator (degree g) a value in
    N^{m+g}; freeness extends this to the whole module.  The differential is
    phi -> d_N . phi - (-1)^m phi . d_P, the same convention as the hom
    complex of two complexes of modules.
    """

    def __init__(self, P: SemifreeModule, N: DgModule):
        self.P = P
        self.N = N
        self.field = N.algebra.field
        self._diffs: dict = {}
        self._sq: dict = {}

    def layout(self, m: int) -> list:
        return [(k, t) for k, g in enumerate(self.P.gens)
                for t in range(self.N.dim(m + g))]

    def dim(self, m: int) -> int:
        return sum(self.N.dim(m + g) for g in self.P.gens)

    def assemble(self, m: int, values: dict) -> tuple:
        """Coordinate vector of the element with the given generator values."""
        f = self.field
        out = []
        for k, g in enumerate(self.P.gens):
            d = self.N.dim(m + g)
            v = values.get(k)
            if v is None:
                out.extend([f.zero] * d)
            else:
                if len(v) != d:
                    raise ValueError("generator value has the wrong length")
                out.extend(v)
        return tuple(out)

    def diff(self, m: int) -> Matrix:
        if m in self._diffs:
            return self._diffs[m]
        P, N = self.P, self.N
        C = P.algebra
        f = self.field
        src = self.layout(m)
        tgt = self.layout(m + 1)
        pos = {kt: t for t, kt in enumerate(tgt)}
        sign = f.one if m % 2 == 0 else f.neg(f.one)
        nsign = f.neg(sign)
        rows = []
        for (k, t) in src:
            g = P.gens[k]
            row = [f.zero] * len(tgt)
            dN = N.diff(m + g)
            if dN.nrows:
                for c2, c in enumerate(dN.rows[t]):
                    if c != f.zero:
                        row[pos[(k, c2)]] = f.add(row[pos[(k, c2)]], c)
            # the value on each later generator picks up phi(d gen)
            for k3, gd in enumerate(P.gen_diffs):
                for (k2, b2), coeff in gd.items():
                    if k2 != k:
                        continue
                    cdeg = P.gens[k3] + 1 - g
                    cvec = C.basis_vector(cdeg, b2)
                    xvec = tuple(f.one if s == t else f.zero
                                 for s in range(N.dim(m + g)))
                    img = N.act(m + g, xvec, cdeg, cvec)
                    for c2, c in enumerate(img):
                        if c != f.zero:
                            row[pos[(k3, c2)]] = f.add(
                                row[pos[(k3, c2)]], f.mul(nsign, f.mul(coeff, c)))
            rows.append(row)
        d = Matrix(f, len(src), len(tgt), rows)
        self._diffs[m] = d
        return d

    def subquotient(self, m: int):
        if m not in self._sq:
            self._sq[m] = subquotient_from_maps(self.diff(m - 1), self.diff(m),
                                                self.field, self.dim(m))
        return self._sq[m]

    def h_dim(self, m: int) -> int:
        return len(self.subquotient(m).reps)


def lift_generators(P: SemifreeModule, target, solve) -> list | None:
    """Values of a degree-0 map out of P, chosen generator by generator.

    Generators are taken in filtration order.  For the k-th one (degree g),
    the values already chosen determine the image of its differential,
    rhs = sum of coeff * act(target value of k2, base element) over the
    terms of gen_diffs[k], a vector in target degree g + 1; solve(k, g, rhs)
    returns the generator's value in target degree g, or None when there is
    none.  target is any module with dim and act (a dg-module or another
    semifree module).  Returns None as soon as one generator has no value.
    """
    C = P.algebra
    f = C.field
    vals: list = []
    for k, g in enumerate(P.gens):
        rhs = [f.zero] * target.dim(g + 1)
        for (k2, b2), coeff in P.gen_diffs[k].items():
            g2 = P.gens[k2]
            cvec = C.basis_vector(g + 1 - g2, b2)
            img = target.act(g2, vals[k2], g + 1 - g2, cvec)
            rhs = [f.add(x, f.mul(coeff, y)) for x, y in zip(rhs, img)]
        sol = solve(k, g, tuple(rhs))
        if sol is None:
            return None
        vals.append(tuple(sol))
    return vals


def lift_to_resolution(P: SemifreeModule, Q: SemifreeModule, targets) -> list | None:
    """A strict map P -> Q whose k-th generator augments to targets[k].

    Each generator value solves augmentation = targets[k] and differential =
    the lifted differential of the generator at once; None when no strict
    solution exists.
    """
    def solve(k, g, rhs):
        return Q.lift_system(g).solve_left_rows(tuple(targets[k]) + rhs)

    return lift_generators(P, Q, solve)


# -- derived functors -------------------------------------------------------
#
# Each functor resolves one degree deeper than its window needs, so that
# cohomology at the window edge is already exact.


def hom_cutoff(N: DgModule, window: DegreeWindow, extra_margin: int = 0) -> int:
    """Resolution cutoff for Hom over the base into N inside the window."""
    return N.lo - (window.hi + 1) - extra_margin


def tensor_cutoff(U: DgModule, window: DegreeWindow, extra_margin: int = 0) -> int:
    """Resolution cutoff for tensoring with U inside the window."""
    return (window.lo - 1) - U.hi - extra_margin


def derived_tensor(M: DgModule, U: DgModule, window: DegreeWindow,
                   extra_margin: int = 0, cap: int = 4096) -> Complex:
    """P (x)_B U for a semifree resolution P of M, exact inside the window.

    U must be a left dg-module carrying .complex (terms over the base ring A);
    the cutoff is tensor_cutoff.  See resolution_tensor for the result.
    """
    if M.side != "right" or U.side != "left":
        raise ValueError("derived_tensor needs a right module and a left module")
    if not U.dims:
        return zero_complex(U.complex.algebra)
    P = semifree_resolve(M, tensor_cutoff(U, window, extra_margin), cap=cap)
    return resolution_tensor(P, U)


def resolution_tensor(P: SemifreeModule, U: DgModule) -> Complex:
    """P (x)_B U for a semifree module P and a left dg-module U with .complex.

    The result carries .resolution = P and per-degree .block_layout mapping
    generators to offsets; with no generators or no U it is the zero complex.
    """
    A = U.complex.algebra
    f = A.field
    if not U.dims or not P.gens:
        return zero_complex(A)

    def blocks(n):
        out = []
        for k, g in enumerate(P.gens):
            d = U.dim(n - g)
            if d:
                out.append((k, n - g, d))
        return out

    lo = min(P.gens) + U.lo
    hi = max(P.gens) + U.hi
    terms, layouts = {}, {}
    for n in range(lo, hi + 1):
        bl = blocks(n)
        if not bl:
            continue
        terms[n] = direct_sum_modules(A, [U.complex.term(j) for _, j, _ in bl])
        layouts[n] = bl
    diffs = {}
    for n in sorted(terms):
        if n + 1 not in terms:
            continue
        src, tgt = layouts[n], layouts[n + 1]
        offs = {}
        acc = 0
        for k, j, d in tgt:
            offs[k] = acc
            acc += d
        rows = [[f.zero] * acc for _ in range(sum(d for _, _, d in src))]
        base = 0
        for k, j, d in src:
            g = P.gens[k]
            sign = f.one if g % 2 == 0 else f.neg(f.one)
            # generator kept, U differential applied
            if k in offs and U.dim(j + 1):
                dmat = U.diff(j)
                for r in range(d):
                    for ccol in range(dmat.ncols):
                        c = dmat.rows[r][ccol]
                        if c != f.zero:
                            rows[base + r][offs[k] + ccol] = f.add(
                                rows[base + r][offs[k] + ccol], f.mul(sign, c))
            # generator differential, base element pushed into U
            for (k2, b2), coeff in P.gen_diffs[k].items():
                if k2 not in offs:
                    continue
                cdeg = g + 1 - P.gens[k2]
                cvec = P.algebra.basis_vector(cdeg, b2)
                for r in range(d):
                    uvec = tuple(f.one if s == r else f.zero for s in range(d))
                    img = U.act(cdeg, cvec, j, uvec)
                    for ccol, c in enumerate(img):
                        if c != f.zero:
                            rows[base + r][offs[k2] + ccol] = f.add(
                                rows[base + r][offs[k2] + ccol], f.mul(coeff, c))
            base += d
        diffs[n] = Matrix(f, len(rows), acc, rows)
    out = Complex(A, terms, diffs)
    out.resolution = P
    out.block_layout = layouts
    return out


def derived_hom_over_B(M: DgModule, N: DgModule, n: int, window: DegreeWindow,
                       extra_margin: int = 0, cap: int = 4096) -> int:
    """dim H^n of Hom over the base from a semifree resolution of M into N."""
    if n not in window:
        raise ValueError("window/margin inconsistency: degree outside the window")
    if M.side != "right" or N.side != "right":
        raise ValueError("derived_hom_over_B needs right modules")
    if not N.dims:
        return 0
    return SemifreeHom(semifree_resolve(M, hom_cutoff(N, window, extra_margin),
                                        cap=cap), N).h_dim(n)
