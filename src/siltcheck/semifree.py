"""Windowed semifree resolutions, derived tensor/Hom, and maps out of them.

A semifree module over a non-positive base C is built from cells: each
generator is a cell e.C, for e one of C.idempotents (the summand projections
of U when C comes from the dg-end of a direct sum U, the unit otherwise), and
the differential of each generator only involves strictly earlier generators
of strictly higher degree.  Resolutions are built top-down: at each degree
every surviving cocycle class of the augmentation cone is split into its
components under the idempotents, and each component not yet killed is
killed by adjoining a fresh cell, which over a non-positive base cannot
disturb any higher degree.  Over a base concentrated in degree 0 the cells
are projective covers, so a module of finite projective dimension stops
gaining generators once the cutoff passes its bottom.  Over A itself the
cells e.A are the indecomposable projectives: complexes.proj_replacement
reads this construction back as a complex.  A cutoff bounds how
far down the construction digs; the derived functors pick their cutoff from
the requested window with one spare degree so that cohomology at the window
edge is already exact.  Since each degree's generators depend only on those
above it, one resolution answers for every cutoff: to_cutoff reads a
shallower one off its generators and continues the same construction for a
deeper one.

Maps out of a semifree module are easy to write down: a map is its list of
values on the generators, the value on a cell e.C lying in N.e.
SemifreeHom is the hom complex out of a semifree module into a dg-module in
those coordinates, and derived Hom over the base is its cohomology.
lift_generators builds a degree-0 map one generator at a time in filtration
order, each value solving the chain-map condition against the values
already chosen.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import neg

from .algebra import Module, direct_sum_modules
from .complexes import Complex, block_matrix, zero_complex
from .dg import DgAlgebra, DgModule
from .linalg import Cochains, Matrix, subquotient_from_maps


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
    n it contributes the echelon basis of C.cell(cells[k], n - gens[k]).
    gen_diffs[k] maps positions (k2, b2) of that basis in degree gens[k] + 1
    to coefficients, with k2 < k and gens[k2] > gens[k]; gen_dcomps[k] holds
    the same differential as k2 -> its component in C^{gens[k] + 1 - gens[k2]},
    in the standard basis of C.  gen_augs[k] is the augmentation value in
    target^{gens[k]}.e, as its nonzero entries.  Generators are only ever added through
    add_generator, which drops the layouts and matrices of the degrees the
    new cell reaches and of the differentials into them.  cutoff is the
    lowest degree the construction has reached.
    """

    def __init__(self, algebra: DgAlgebra, target: DgModule, cutoff: int):
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
        self.gen_dcomps.append(self.components(degree + 1, diff.items()))
        self.gens.append(degree)
        self.cells.append(cell)
        self.gen_diffs.append(diff)
        self.gen_augs.append(aug)
        # the cell lives in degrees degree + C.lo .. degree; the differential
        # from the degree below them reads it too
        for n in range(degree + self.algebra.lo - 1, degree + 1):
            self._matrices.pop(n, None)

    def to_cutoff(self, cutoff: int) -> "SemifreeModule":
        """What semifree_resolve(self.target, cutoff) returns, built from self.

        A new module holding the generators of degree >= cutoff; below
        self.cutoff the construction carries on down to the new cutoff.
        self is left as it is, so modules built on it stay valid.
        """
        Q = SemifreeModule(self.algebra, self.target, cutoff)
        for k, g in enumerate(self.gens):
            if g >= cutoff:
                Q.add_generator(g, self.gen_diffs[k], self.gen_augs[k], self.cells[k])
        return _kill_cone(Q, self.cutoff - 1)

    def _memo(self, kind: str, n: int, build):
        memo = self._matrices.setdefault(n, {})
        if kind not in memo:
            memo[kind] = build(n)
        return memo[kind]

    def blocks(self, n: int) -> list:
        """(k, the cell basis of generator k in degree n) for every generator
        whose cell can be nonzero there."""
        return self._memo("blocks", n, self._blocks)

    def _blocks(self, n: int) -> list:
        # the cell of a degree-g generator sits in degrees g + C.lo .. g, so
        # n <= g <= n - C.lo: one slice of the non-increasing gens
        C = self.algebra
        start = bisect_left(self.gens, C.lo - n, key=neg)
        stop = bisect_right(self.gens, -n, key=neg)
        return [(k, C.cell(self.cells[k], n - self.gens[k])) for k in range(start, stop)]

    def layout(self, n: int) -> list:
        """(k, b) for each position of the degree-n basis: the b-th cell row
        of generator k."""
        return self._memo("layout", n, lambda n: [
            (k, b) for k, cell in self.blocks(n) for b in range(cell.dim)])

    def offsets(self, n: int) -> dict:
        """k -> (first position, cell) of each block of blocks(n)."""
        return self._memo("offsets", n, lambda n: block_offsets(self.blocks(n))[0])

    def dim(self, n: int) -> int:
        return len(self.layout(n))

    def components(self, n: int, entries) -> dict:
        """k -> the component at generator k, an element of C^{n - gens[k]} in
        the standard basis, of the degree-n element with the given
        ((k, b), coefficient) entries; elements and components are nonzero
        entries {index: entry}."""
        C = self.algebra
        out: dict = {}
        for (k, b), c in entries:
            acc = out.setdefault(k, {})
            for j, x in C.cell(self.cells[k], n - self.gens[k]).rows[b].items():
                acc[j] = acc.get(j, 0) + c * x
        reduce = C.field.reduce_entries
        return {k: r for k, acc in out.items() if (r := reduce(acc))}

    def element(self, n: int, comps: dict) -> dict:
        """The degree-n element with the given components, each lying in its
        generator's cell."""
        offsets = self.offsets(n)
        out = {}
        for k, v in comps.items():
            if v and k in offsets:
                start, cell = offsets[k]
                for t, c in cell.coords(v).items():
                    out[start + t] = c
        return out

    def act(self, n: int, vec: dict, cdeg: int, cvec: dict) -> dict:
        """Right action of a degree-cdeg base element on a degree-n element."""
        layout = self.layout(n)
        return self.times(n, self.components(n, ((layout[p], c) for p, c in vec.items())),
                          cdeg, cvec)

    def times(self, n: int, comps: dict, cdeg: int, cvec: dict) -> dict:
        """The right action of a degree-cdeg base element on the degree-n
        element with the given components, so that one expansion into
        components serves many base elements."""
        C = self.algebra
        return self.element(n + cdeg, {
            k: C.product(n - self.gens[k], v, cdeg, cvec) for k, v in comps.items()})

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
        rows = []
        for k, cell in self.blocks(n):
            g = self.gens[k]
            bdeg = n - g
            for beta in cell.rows:
                # d(gen) acted on by the base coefficient
                comps = {k2: C.product(g + 1 - self.gens[k2], delta, bdeg, beta)
                         for k2, delta in self.gen_dcomps[k].items()}
                # the generator kept, with the sign from moving d past it
                d = C.apply_diff(bdeg, beta)
                comps[k] = {j: f.neg(x) for j, x in d.items()} if g % 2 else d
                rows.append(self.element(n + 1, comps))
        return Matrix.from_row_entries(f, self.dim(n + 1), rows)

    def _aug_matrix(self, n: int) -> Matrix:
        M = self.target
        return Matrix.from_row_entries(self.algebra.field, M.dim(n), [
            M.act(self.gens[k], self.gen_augs[k], n - self.gens[k], beta)
            for k, cell in self.blocks(n) for beta in cell.rows])

    def _lift_system(self, n: int) -> Matrix:
        return self.aug_matrix(n).hstack(self.diff_matrix(n))

    def cone_dim(self, n: int) -> int:
        return self.dim(n + 1) + self.target.dim(n)

    def cone_diff(self, n: int) -> Matrix:
        M = self.target
        return block_matrix(self.algebra.field,
                            [[-self.diff_matrix(n + 1), self.aug_matrix(n + 1)],
                             [None, M.diff(n)]],
                            [self.dim(n + 1), M.dim(n)], [self.dim(n + 2), M.dim(n + 1)])

    def gen_counts(self) -> dict:
        out = {}
        for g in self.gens:
            out[g] = out.get(g, 0) + 1
        return out


def semifree_resolve(M: DgModule, cutoff: int) -> SemifreeModule:
    """Kill the augmentation cone's cohomology from the top of M down to the cutoff.

    The result has generators only in degrees >= cutoff and its augmentation
    cone is acyclic in every degree >= cutoff (hence >= cutoff + 1).
    """
    C = M.algebra
    if not C.is_nonpositive():
        raise ValueError("base dg-algebra has a positive-degree component")
    return _kill_cone(SemifreeModule(C, M, cutoff), M.hi)


def _kill_cone(P: SemifreeModule, top: int) -> SemifreeModule:
    """Add cells to P from degree top (or the top of its target) down to
    P.cutoff, each degree killing the cone's cohomology there; returns P.

    A cone class (q, x) is the sum of its components (q.e, x.e) over the
    idempotents e of the base C.  A degree-n cell e.C with differential q.e
    and augmentation -x.e kills that component together with its orbit
    under C^0.  Components with larger orbits come first, and a component
    gets a cell when its class is independent of the orbits of the
    components before it: the left pivots of one forward echelon of their
    stacked classes and orbits.  A degree where the cone has no cohomology,
    dim - rk d^n - rk d^{n-1} = 0, builds no subquotient.
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
        width = sq.dim
        split = P.dim(n + 1)
        layout_up = P.layout(n + 1)
        comps = []
        for rep in sq.rep_entries:
            q = P.components(n + 1, ((layout_up[j], c) for j, c in rep.items() if j < split))
            x = {j - split: c for j, c in rep.items() if j >= split}
            for i, e in enumerate(C.idempotents):
                orbit = [sq.reduce(_joined(P.times(n + 1, q, 0, c), M.act(n, x, 0, c), split))
                         for c in C.cell(i, 0).rows]
                comps.append((i, P.times(n + 1, q, 0, e), M.act(n, x, 0, e), orbit))
        # components with a large action orbit first: one cell then kills
        # everything in its span, keeping the cover near minimal
        ranks = [Matrix.from_row_entries(f, width, orbit).rank() for *_, orbit in comps]
        order = sorted(range(len(comps)), key=lambda t: (-ranks[t], t))
        # The orbits of earlier components span a C^0-submodule of H^n of
        # the cone, so a component skipped for its class lying in that span
        # has its orbit there too: a class row is a left pivot of the stack
        # exactly when killing the classes one at a time gives it a cell.
        rows, heads = [], []
        for t in order:
            i, qe, xe, orbit = comps[t]
            heads.append(len(rows))
            rows.append(sq.reduce(_joined(qe, xe, split)))
            rows.extend(orbit)
        pivots = set(Matrix.from_row_entries(f, width, rows).left_pivots())
        for t, head in zip(order, heads):
            if head not in pivots:
                continue
            if len(P.gens) >= GENERATOR_CAP:
                raise SemifreeCapError(
                    f"semifree resolution exceeded {GENERATOR_CAP} generators at degree {n}")
            i, qe, xe, _ = comps[t]
            P.add_generator(n, {layout_up[s]: c for s, c in qe.items()},
                            {j: f.neg(c) for j, c in xe.items()}, i)
    return P


def _joined(q: dict, x: dict, split: int) -> dict:
    """The nonzero entries of the row holding q from position 0 and x from
    position split: an element (q, x) of the cone of P -> M, or a right-hand
    side (augmentation, differential) of a lift system."""
    out = dict(q)
    out.update((split + j, c) for j, c in x.items())
    return out


def block_offsets(blocks) -> tuple[dict, int]:
    """k -> (start, cell) for blocks (k, cell) laid out in order, and the width."""
    offsets, width = {}, 0
    for k, cell in blocks:
        offsets[k] = (width, cell)
        width += cell.dim
    return offsets, width


def block_row(f, offsets: dict, images) -> dict:
    """The nonzero entries of the row summing s * (cell coordinates of v)
    into the block of k, over the images (k, s, v); an image whose k has no
    block adds nothing."""
    acc: dict = {}
    for k, s, v in images:
        if k not in offsets:
            continue
        off, cell = offsets[k]
        for t, c in cell.coords(v).items():
            acc[off + t] = acc.get(off + t, 0) + s * c
    return f.reduce_entries(acc)


# -- maps out of a semifree module -------------------------------------------


class SemifreeHom(Cochains):
    """Base-linear maps from a semifree module into a dg-module.

    A degree-m element assigns to the k-th generator (degree g, a cell e.C)
    a value in N^{m+g}.e, in the echelon basis of N.cell; freeness extends
    this to the whole module, so every degree lies between N.lo - max(gens)
    and N.hi - min(gens).  The differential is
    phi -> d_N . phi - (-1)^m phi . d_P, the same convention as the hom
    complex of two complexes of modules.
    """

    def __init__(self, P: SemifreeModule, N: DgModule):
        super().__init__(N.field, (N.lo - max(P.gens), N.hi - min(P.gens))
                         if P.gens and N.dims else ())
        self.P = P
        self.N = N
        self._diffs: dict = {}
        self._blocks: dict = {}
        # the value on each later generator k3 picks up phi(d gen k3), which
        # meets generator k through the component of d gen k3 at k
        self._meets: dict = {}
        for k3, dcomps in enumerate(P.gen_dcomps):
            for k, delta in dcomps.items():
                self._meets.setdefault(k, []).append((k3, delta))

    def blocks(self, m: int) -> list:
        """(k, the basis of N^{m+g}.e holding generator k's values) for the
        generators whose values can be nonzero: N.lo <= m + g <= N.hi, one
        slice of the non-increasing gens, built once per degree."""
        if m not in self._blocks:
            P, N = self.P, self.N
            start = bisect_left(P.gens, m - N.hi, key=neg)
            stop = bisect_right(P.gens, m - N.lo, key=neg)
            self._blocks[m] = [(k, N.cell(P.cells[k], m + P.gens[k]))
                               for k in range(start, stop)]
        return self._blocks[m]

    def dim(self, m: int) -> int:
        return sum(cell.dim for _, cell in self.blocks(m))

    def assemble(self, m: int, values: dict) -> dict:
        """Nonzero coordinates of the element with the given generator
        values, each an element of N^{m+g} lying in N^{m+g}.e."""
        offsets, _ = block_offsets(self.blocks(m))
        if any(v and k not in offsets for k, v in values.items()):
            raise ValueError("generator value outside the degrees of N")
        return block_row(self.field, offsets,
                         ((k, self.field.one, v) for k, v in values.items()))

    def diff(self, m: int) -> Matrix:
        if m in self._diffs:
            return self._diffs[m]
        P, N = self.P, self.N
        f = self.field
        nsign = f.one if m % 2 else f.neg(f.one)
        offsets, width = block_offsets(self.blocks(m + 1))
        rows = []
        for k, cell in self.blocks(m):
            g = P.gens[k]
            for v in cell.rows:
                images = [(k, f.one, N.apply_diff(m + g, v))]
                images += [(k3, nsign, N.act(m + g, v, P.gens[k3] + 1 - g, delta))
                           for k3, delta in self._meets.get(k, ())]
                rows.append(block_row(f, offsets, images))
        d = Matrix.from_row_entries(f, width, rows)
        self._diffs[m] = d
        return d


def lift_generators(P: SemifreeModule, target, solve) -> list | None:
    """Values of a degree-0 map out of P, chosen generator by generator.

    Generators are taken in filtration order.  For the k-th one (degree g),
    the values already chosen determine the image of its differential,
    rhs = the sum of act(target value of k2, component of d gen k at k2)
    over gen_dcomps[k], a vector in target degree g + 1; solve(k, g, rhs)
    returns a value in target degree g, or None when there is none.  The
    generator is a cell e.C, so its value is that solution times e, which
    still solves the system because rhs and the augmentation target already
    lie in target.e.  target is any module with dim and act (a dg-module or
    another semifree module).  Returns None as soon as one generator has no
    value.
    """
    C = P.algebra
    reduce = C.field.reduce_entries
    vals: list = []
    for k, g in enumerate(P.gens):
        rhs: dict = {}
        for k2, delta in P.gen_dcomps[k].items():
            for j, x in target.act(P.gens[k2], vals[k2], g + 1 - P.gens[k2], delta).items():
                rhs[j] = rhs.get(j, 0) + x
        sol = solve(k, g, reduce(rhs))
        if sol is None:
            return None
        vals.append(target.act(g, sol, 0, C.idempotents[P.cells[k]]))
    return vals


def lift_to_resolution(P: SemifreeModule, Q: SemifreeModule, targets) -> list | None:
    """A strict map P -> Q whose k-th generator augments to targets[k].

    Each generator value solves augmentation = targets[k] and differential =
    the lifted differential of the generator at once; None when no strict
    solution exists.
    """
    def solve(k, g, rhs):
        return Q.lift_system(g).solve_left_rows(_joined(targets[k], rhs, Q.target.dim(g)))

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
                   extra_margin: int = 0) -> Complex:
    """P (x)_B U for a semifree resolution P of M, exact inside the window.

    U must be a left dg-module carrying .complex (terms over the base ring A);
    the cutoff is tensor_cutoff.  See resolution_tensor for the result.
    """
    if M.side != "right" or U.side != "left":
        raise ValueError("derived_tensor needs a right module and a left module")
    if not U.dims:
        return zero_complex(U.complex.algebra)
    P = semifree_resolve(M, tensor_cutoff(U, window, extra_margin))
    return resolution_tensor(P, U)


def resolution_tensor(P: SemifreeModule, U: DgModule) -> Complex:
    """P (x)_B U for a semifree module P and a left dg-module U with .complex.

    The cell e.B of a generator of degree g contributes e.U^j to degree g + j,
    an A-submodule of the term U^j.  The result carries .resolution = P and
    per-degree .block_layout, the list of (generator, j, echelon basis of
    e.U^j in the coordinates of U^j) in block order; with no generators or
    no U it is the zero complex.
    """
    A = U.complex.algebra
    f = A.field
    if not U.dims or not P.gens:
        return zero_complex(A)
    submodules = {}

    def submodule(e, j):
        # the action of each basis element of A on e.U^j: one product of the
        # cell basis with its action matrix, read at the pivots
        if (e, j) not in submodules:
            cell = U.cell(e, j)
            span = Matrix.from_entries(f, cell.dim, U.dim(j), dict(enumerate(cell.rows)))
            action = []
            for a in U.complex.term(j).action:
                img = (span @ a).entries
                action.append(Matrix.from_row_entries(
                    f, cell.dim, [cell.coords(img.get(r, {})) for r in range(cell.dim)]))
            submodules[(e, j)] = Module(A, cell.dim, action, validate=False)
        return submodules[(e, j)]

    lo = min(P.gens) + U.lo
    hi = max(P.gens) + U.hi
    terms, layouts = {}, {}
    for n in range(lo, hi + 1):
        # the generators with U.lo <= n - g <= U.hi: one slice of the gens
        start = bisect_left(P.gens, U.lo - n, key=neg)
        stop = bisect_right(P.gens, U.hi - n, key=neg)
        bl = [(k, n - P.gens[k], cell) for k in range(start, stop)
              if (cell := U.cell(P.cells[k], n - P.gens[k])).dim]
        if not bl:
            continue
        terms[n] = direct_sum_modules(A, [submodule(P.cells[k], j) for k, j, _ in bl])
        layouts[n] = bl
    diffs = {}
    for n in sorted(terms):
        if n + 1 not in terms:
            continue
        offsets, width = block_offsets((k, cell) for k, _, cell in layouts[n + 1])
        rows = []
        for k, j, cell in layouts[n]:
            g = P.gens[k]
            sign = f.one if g % 2 == 0 else f.neg(f.one)
            for u in cell.rows:
                # generator kept, U differential applied; then the generator
                # differential, its base components pushed into U
                images = [(k, sign, U.apply_diff(j, u))]
                images += [(k2, f.one, U.act(g + 1 - P.gens[k2], delta, j, u))
                           for k2, delta in P.gen_dcomps[k].items()]
                rows.append(block_row(f, offsets, images))
        diffs[n] = Matrix.from_row_entries(f, width, rows)
    out = Complex(A, terms, diffs)
    out.resolution = P
    out.block_layout = layouts
    return out
