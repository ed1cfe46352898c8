"""Windowed semifree resolutions, derived tensor/Hom, and maps out of them.

A semifree module over a non-positive base C is built from cells: each
generator is a cell e.C, for e one of C.idempotents (the summand projections
of U when C comes from the dg-end of a direct sum U, the unit otherwise), and
the differential of each generator only involves strictly earlier generators
of strictly higher degree.  Resolutions are built top-down: at each degree
every surviving cocycle class of the augmentation cone is split into its
components under the idempotents, and each component not yet killed is
killed by adjoining a fresh cell, which over a non-positive base cannot
disturb any higher degree; a component that is a boundary is killed already,
with its orbit.  Over a base concentrated in degree 0 the cells
are projective covers, so a module of finite projective dimension stops
gaining generators once the cutoff passes its bottom.  Over A itself the
cells e.A are the indecomposable projectives: complexes.proj_replacement
resolves a complex over A itself and reads the result back as a complex of
projectives.  A cutoff bounds how
far down the construction digs; the derived functors pick their cutoff from
the requested window with one spare degree so that cohomology at the window
edge is already exact.  Since each degree's generators depend only on those
above it, one resolution answers for every cutoff: to_cutoff reads a
shallower one off its generators and continues the same construction for a
deeper one.

A resolution P is P (x)_C C, with C acting on itself, so its terms and its
differential are built by the code that builds P (x)_C U for a left module U:
tensor_blocks lists the cells e.N^j of each degree of P (x)_C N, laid out
by complexes.Layout, and tensor_map writes f (x) N for a map f of semifree
modules given by its components on the generators.  The differential of
P (x)_C N is d_P (x) N plus the differential of N; the lift of a map of
resolutions, tensored with U, is the same rows without it.

Maps out of a semifree module are easy to write down: a map is its list of
values on the generators, the value on a cell e.C lying in N.e.
SemifreeHom is the hom complex out of a semifree module into a dg-module in
those coordinates, complexes.CellHom on its generators, the one class the
hom complex out of a complex of projectives is too; derived Hom over the
base is its cohomology.  Along a
resolution a map lifts only up to homotopy, so lift_up_to_homotopy builds a
degree-0 map one generator at a time in filtration order, each value solving
the chain-map condition in the augmentation cone (SemifreeModule.cone_times).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import Module, direct_sum_modules
from .complexes import CellHom, Complex, Layout, block_matrix, gen_slice
from .dg import DgAlgebra, DgModule
from .linalg import Matrix, first_independent, subquotient_from_maps


class SemifreeCapError(RuntimeError):
    pass


GENERATOR_CAP = 4096  # the most generators a semifree resolution may have


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window must satisfy lo <= hi")


class SemifreeModule:
    """Semifree right dg-module over a non-positive base C, with augmentation.

    Generator k is a cell e.C: gens[k] is its degree (non-increasing along
    the list) and cells[k] the index of e among C.idempotents, so in degree
    n it contributes the echelon basis of C.cell(cells[k], n - gens[k]),
    its block of layout(n).  gen_diffs[k] maps positions (k2, b2) of that
    basis in degree gens[k] + 1 to coefficients, with k2 < k and
    gens[k2] > gens[k]; gen_dcomps[k] holds the same differential as
    k2 -> its component in C^{gens[k] + 1 - gens[k2]}, in the standard
    basis of C.  gen_augs[k] is the augmentation value in target^{gens[k]}.e,
    as its nonzero entries.  Generators are only ever added through
    add_generator, which drops the layouts and matrices of the degrees the
    new cell reaches and of the differentials into them.  cutoff is the
    lowest degree the construction has reached.  The augmentation cone is
    P^{n+1} + target^n in degree n, acted on by cone_parts and cone_times.
    """

    def __init__(self, algebra: DgAlgebra, target: DgModule | Complex, cutoff: int):
        self.algebra = algebra
        self.target = target
        self.cutoff = cutoff
        self.gens: list[int] = []
        self.cells: list[int] = []
        self.gen_diffs: list[dict] = []
        self.gen_dcomps: list[dict] = []
        self.gen_augs: list[dict] = []
        self._matrices: dict = {}

    def add_generator(self, degree: int, diff: dict, aug: dict, cell: int):
        up = self.layout(degree + 1)
        self.gen_dcomps.append(up.values({up.offsets[k][0] + b: c for (k, b), c in diff.items()}))
        self.gens.append(degree)
        self.cells.append(cell)
        self.gen_diffs.append(diff)
        self.gen_augs.append(aug)
        # the cell lives in degrees degree + C.lo .. degree; the differential
        # from the degree below them reads it too
        for n in range(degree + self.algebra.lo - 1, degree + 1):
            self._matrices.pop(n, None)

    def _kept(self, keep, cutoff: int) -> "SemifreeModule":
        """The generators k with keep(k), renumbered in order, as a new
        module with the given cutoff; self and modules built on it stay valid."""
        Q = SemifreeModule(self.algebra, self.target, cutoff)
        kept = {}
        for k, g in enumerate(self.gens):
            if keep(k):
                kept[k] = len(Q.gens)
                Q.add_generator(g, {(kept[k2], b): c for (k2, b), c in self.gen_diffs[k].items()},
                                self.gen_augs[k], self.cells[k])
        return Q

    def to_cutoff(self, cutoff: int) -> "SemifreeModule":
        """What semifree_resolve(self.target, cutoff) returns: the prefix of
        degree >= cutoff, continued below self.cutoff down to cutoff."""
        return _kill_cone(self._kept(lambda k: self.gens[k] >= cutoff, cutoff), self.cutoff - 1)

    def block(self, blocks: list, t) -> "SemifreeModule":
        """The generators k with blocks[k] == t: a direct summand when the
        differential of each meets its own block alone."""
        return self._kept(lambda k: blocks[k] == t, self.cutoff)

    def _memo(self, kind: str, n: int, build):
        memo = self._matrices.setdefault(n, {})
        if kind not in memo:
            memo[kind] = build(n)
        return memo[kind]

    def layout(self, n: int) -> Layout:
        """Layout(tensor_blocks(self, C, n)): the module is P (x)_C C, so
        generator k contributes the cell basis of e.C^{n - gens[k]}."""
        return self._memo("layout", n, lambda n: Layout(tensor_blocks(self, self.algebra, n)))

    def dim(self, n: int) -> int:
        return self.layout(n).dim

    def times(self, n: int, comps: dict, cdeg: int, cvec: dict) -> dict:
        """The right action of a degree-cdeg base element on the degree-n
        element with the given components, so that one expansion into
        components serves many base elements."""
        C = self.algebra
        return self.layout(n + cdeg).row(C.field, (
            (k, C.field.one, C.product(n - self.gens[k], v, cdeg, cvec)) for k, v in comps.items()))

    def diff_matrix(self, n: int) -> Matrix:
        """The differential of P (x)_C C, as tensor_map builds it."""
        return self._memo("diff", n, lambda n: tensor_map(
            self.algebra, self, self.layout(n).blocks, self, self.layout(n + 1), self.gen_dcomps,
            1, diff=True))

    def aug_matrix(self, n: int) -> Matrix:
        M, f = self.target, self.algebra.field
        return self._memo("aug", n, lambda n: Matrix.from_row_entries(f, M.dim(n), [
            M.act(self.gens[k], self.gen_augs[k], j, beta)
            for k, j, cell in self.layout(n).blocks for beta in cell.rows]))

    def cone_dim(self, n: int) -> int:
        return self.dim(n + 1) + self.target.dim(n)

    def cone_parts(self, n: int, vec: dict) -> tuple:
        """The degree-n cone element with the given entries as its generator
        components and its part in the target."""
        split = self.dim(n + 1)
        return (self.layout(n + 1).values({j: c for j, c in vec.items() if j < split}),
                {j - split: c for j, c in vec.items() if j >= split})

    def cone_times(self, n: int, parts: tuple, cdeg: int, cvec: dict) -> dict:
        """The entries of the degree-n cone element with the given parts
        times a degree-cdeg base element."""
        comps, x = parts
        out = self.times(n + 1, comps, cdeg, cvec)
        split = self.dim(n + 1 + cdeg)
        out.update((split + j, c) for j, c in self.target.act(n, x, cdeg, cvec).items())
        return out

    def cone_diff(self, n: int) -> Matrix:
        # kept with degree n + 1: it reads only the matrices of n + 1 and n + 2
        M = self.target
        return self._memo("cone", n + 1, lambda m: block_matrix(
            self.algebra.field,
            [[-self.diff_matrix(m), self.aug_matrix(m)], [None, M.diff(n)]],
            [self.dim(m), M.dim(n)], [self.dim(m + 1), M.dim(m)]))

    def gen_counts(self) -> dict:
        return dict(Counter(self.gens))


def semifree_resolve(M: DgModule | Complex, cutoff: int) -> SemifreeModule:
    """Kill the augmentation cone's cohomology from the top of M down to the cutoff.

    The result has generators only in degrees >= cutoff and its augmentation
    cone is acyclic in every degree >= cutoff (hence >= cutoff + 1).  A
    complex over A is a right module over A.dg, acted on by Complex.act.
    """
    C = M.algebra.dg if isinstance(M, Complex) else M.algebra
    if not C.is_nonpositive():
        raise ValueError("base dg-algebra has a positive-degree component")
    return _kill_cone(SemifreeModule(C, M, cutoff), M.hi)


def _kill_cone(P: SemifreeModule, top: int) -> SemifreeModule:
    """Add cells to P from degree top (or the top of its target) down to
    P.cutoff, each degree killing the cone's cohomology there; returns P.

    A cone class is the sum of its components, its products with the
    idempotents e of the base C.  A degree-n cell e.C whose differential and
    augmentation are read off a component kills it with its orbit under
    C^0.  A component that is a boundary gets no orbit: C^0 is all cocycles,
    so its orbit is boundaries too.  Components with larger orbits come
    first, and one gets a cell when its class is independent of the classes
    and orbits before it (linalg.first_independent, the rule the
    coresolution's approximations choose by).  A degree where the cone has
    no cohomology, dim - rk d^n - rk d^{n-1} = 0, builds no subquotient.
    """
    M, C = P.target, P.algebra
    f = C.field
    for n in range(min(top, M.hi), P.cutoff - 1, -1):
        # below M and below every cell e.C (its lowest degree g + C.lo, gens
        # non-increasing) the cone is zero here and in every lower degree
        if n < M.lo and (not P.gens or P.gens[-1] > n + 1 - C.lo):
            break
        din, dout, dim = P.cone_diff(n - 1), P.cone_diff(n), P.cone_dim(n)
        if dim == din.rank() + dout.rank():
            continue
        sq = subquotient_from_maps(din, dout, f, dim)
        comps = []
        for rep in sq.rep_entries:
            parts = P.cone_parts(n, rep)
            for i, e in enumerate(C.idempotents):
                comp = P.cone_times(n, parts, 0, e)
                if head := sq.reduce(comp):
                    orbit = [sq.reduce(P.cone_times(n, parts, 0, c)) for c in C.cell(i, 0).rows]
                    comps.append((i, comp, [head, *orbit]))
        # components with a large action orbit first: one cell then kills
        # everything in its span, keeping the cover near minimal
        ranks = [Matrix.from_row_entries(f, sq.dim, stack[1:]).rank() for *_, stack in comps]
        order = sorted(range(len(comps)), key=lambda t: (-ranks[t], t))
        split, layout_up = P.dim(n + 1), P.layout(n + 1)
        for pos in first_independent(f, sq.dim, (comps[t][2] for t in order)):
            if len(P.gens) >= GENERATOR_CAP:
                raise SemifreeCapError(
                    f"semifree resolution exceeded {GENERATOR_CAP} generators at degree {n}")
            i, comp, _ = comps[order[pos]]
            P.add_generator(n, {layout_up.positions[s]: c for s, c in comp.items() if s < split},
                            {s - split: f.neg(c) for s, c in comp.items() if s >= split}, i)
    return P


def tensor_blocks(P: SemifreeModule, N, n: int) -> list:
    """The blocks of degree n of P (x)_C N, for N a left module over the base
    C or C itself: (k, j, echelon basis of e.N^j) for each generator k, a
    cell e.C of degree g, with e.N^j nonzero at j = n - g."""
    return [(k, n - P.gens[k], cell) for k in gen_slice(P.gens, n - N.hi, n - N.lo)
            if (cell := N.cell(P.cells[k], n - P.gens[k])).dim]


def tensor_map(N, P: SemifreeModule, blocks: list, Q: SemifreeModule, target: Layout,
               comps, shift: int = 0, diff: bool = False) -> Matrix:
    """The rows of f (x) N from the blocks of P (x)_C N in one degree to the
    target blocks of Q (x)_C N, shift degrees up, for the map f: P -> Q of
    degree shift sending generator k of P to the sum over k2 of generator k2
    of Q times comps[k][k2], an element of C in the standard basis.  With
    diff, each row also holds P (x) d_N, (-1)^g gen k (x) d u: for f = d_P,
    given by P.gen_dcomps, that is the differential of P (x)_C N.  N is a
    left module over the base C, or C itself."""
    f = N.field
    rows = []
    for k, j, cell in blocks:
        g = P.gens[k]
        sign = f.neg(f.one) if g % 2 else f.one
        for u in cell.rows:
            images = [(k, sign, N.apply_diff(j, u))] if diff else []
            images += [(k2, f.one, N.act(g + shift - Q.gens[k2], c, j, u))
                       for k2, c in comps[k].items() if k2 in target.offsets]
            rows.append(target.row(f, images))
    return Matrix.from_row_entries(f, target.dim, rows)


# -- maps out of a semifree module -------------------------------------------


class SemifreeHom(CellHom):
    """Base-linear maps from a semifree module into a dg-module: CellHom on
    the generators and cells of P, with d gen k read off P.gen_dcomps.  The
    differential phi -> d_N . phi - (-1)^m phi . d_P is the convention of
    the hom complex of two complexes of modules.
    """

    def __init__(self, P: SemifreeModule, N: DgModule):
        super().__init__(P.gens, P.cells, N)
        self.P = P
        self.gen_dcomps = P.gen_dcomps


def lift_up_to_homotopy(P: SemifreeModule, Q: SemifreeModule, targets) -> list | None:
    """A chain map lam: P -> Q whose augmentation is homotopic to the map with
    generator values targets, as its values; None when a class of Q's cone
    obstructs, which cannot happen at or above Q.cutoff.

    Generators are taken in filtration order, so the values on d gen k are
    known when generator k (degree g) is reached.  lam_k and the homotopy's
    value h_k on it are one cone element (lam_k, -h_k) of degree g - 1,
    solving Q.cone_diff(g - 1) against (0, targets[k]) minus the values on
    d gen k: d lam_k = lam(d gen k) and aug lam_k - targets[k] =
    d h_k + h(d gen k).  The generator is a cell e.C, so its value is that
    solution times e, which still solves because the right-hand side
    already lies in the cone times e.
    """
    C, f = P.algebra, P.algebra.field
    vals: list = []
    for k, g in enumerate(P.gens):
        want = {Q.dim(g + 1) + j: c for j, c in targets[k].items()}
        for k2, delta in P.gen_dcomps[k].items():
            n2 = P.gens[k2] - 1
            for j, x in Q.cone_times(n2, Q.cone_parts(n2, vals[k2]), g - n2, delta).items():
                want[j] = want.get(j, 0) - x
        sol = Q.cone_diff(g - 1).solve_left_rows(f.reduce_entries(want))
        if sol is None:
            return None
        vals.append(Q.cone_times(g - 1, Q.cone_parts(g - 1, sol), 0, C.idempotents[P.cells[k]]))
    return [{j: c for j, c in v.items() if j < Q.dim(g)} for v, g in zip(vals, P.gens)]


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


class TensorComplex(Complex):
    """P (x)_B U over A (resolution_tensor), with P as its resolution and
    per degree its block_layout, the Layout of tensor_blocks(P, U, n):
    empty, and the complex zero, when P has no generators."""

    def __init__(self, A, terms: dict, diffs: dict, resolution: SemifreeModule,
                 block_layout: dict):
        super().__init__(A, terms, diffs)
        self.resolution, self.block_layout = resolution, block_layout


def derived_tensor(M: DgModule, U: DgModule, window: DegreeWindow,
                   extra_margin: int = 0) -> TensorComplex:
    """P (x)_B U for a semifree resolution P of M, exact inside the window.

    U must be a left dg-module with a complex (terms over the base ring A);
    the cutoff is tensor_cutoff.  See resolution_tensor for the result.
    """
    if M.side != "right" or U.side != "left":
        raise ValueError("derived_tensor needs a right module and a left module")
    P = semifree_resolve(M, tensor_cutoff(U, window, extra_margin))
    return resolution_tensor(P, U)


def resolution_tensor(P: SemifreeModule, U: DgModule) -> TensorComplex:
    """P (x)_B U for a semifree module P and a left dg-module U with a complex.

    The cell e.B of a generator of degree g contributes e.U^j to degree g + j,
    an A-submodule of the term U^j; the differential is tensor_map with
    d_P and the differential of U.
    """
    A = U.complex.algebra
    f = A.field
    submodules = {}

    def submodule(e, j):
        # the action of each generator of A on e.U^j: one product of the
        # cell basis with its action matrix, read at the pivots
        if (e, j) not in submodules:
            cell = U.cell(e, j)
            span = Matrix.from_entries(f, cell.dim, U.dim(j), dict(enumerate(cell.rows)))
            submodules[(e, j)] = Module(A, cell.dim, [Matrix.from_entries(f, cell.dim, cell.dim, {
                r: cell.coords(v) for r, v in (span @ a).entries.items()})
                for a in map(U.complex.term(j).action, A.generators)])
        return submodules[(e, j)]

    terms, layouts = {}, {}
    for n in range(P.gens[-1] + U.lo, P.gens[0] + U.hi + 1) if P.gens else ():
        if bl := tensor_blocks(P, U, n):
            terms[n] = direct_sum_modules(A, [submodule(P.cells[k], j) for k, j, _ in bl])
            layouts[n] = Layout(bl)
    diffs = {n: tensor_map(U, P, layouts[n].blocks, P, layouts[n + 1], P.gen_dcomps, 1, diff=True)
             for n in layouts if n + 1 in layouts}
    return TensorComplex(A, terms, diffs, P, layouts)
