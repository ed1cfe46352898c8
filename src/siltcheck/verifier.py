"""Mechanical checks for the derived equivalences attached to a silting complex.

For a silting complex U over a finite-dimensional algebra A, the machinery in
this module certifies, on the nose and in exact arithmetic, the statements
that make U useful: the dg-endomorphism algebra B of U has no cohomology in
positive degrees, the hom functor into U and the tensor functor back are
mutually inverse on a probe set, right multiplication identifies A with the
derived endomorphisms of U over the truncated algebra, and modules whose
image under the hom functor sits in a single cohomological degree survive the
roundtrip unchanged.  When U is a tilting complex with cohomology in degree
0 alone, the same results are read once more as the classical tilting
theorem for that module.

Every check takes the SiltingContext of U as its first argument and reads
U, the truncation C of its dg-end and every hom complex out of it, so no
object is built twice;
verify_all is the one place that builds a context from U.  Both functors are
additive and every map the counit and fully-faithful checks read is block
diagonal for the declared summands of their target, so the context checks
its probes as one direct sum T: one counit batch per context and one
fully-faithful check per source summand, each block's rows kept.

Every check works inside a stated degree window.  Semifree resolutions are
truncated one degree deeper than the window requires, so cohomology at the
window edge is already exact; enlarging the margin must not change any
reported number, and a context built with a larger margin confirms it.
Caps that run out produce an inconclusive verdict, never a silent pass.

Reports are plain data: lists of named check records with integer tables.
The command line writes them with instances.json_text, whose bytes equal
json.dumps(report.as_dict(), indent=2, sort_keys=True) plus a newline, so
reruns are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

from .algebra import Algebra, Module, direct_sum_modules, simple_module
from .complexes import (ChainMap, Complex, GradedHom, direct_sum_complexes,
                        hom_complex, proj_replacement, projective_cache, summand_blocks)
from .dg import (DgAlgebra, DgModule, dg_hom_module, end_h0, evaluation_left_module,
                 opposite_dg, side_swap, smart_truncate)
from .linalg import Matrix, block_ranks
from .semifree import (DegreeWindow, SemifreeHom, SemifreeModule, hom_cutoff,
                       lift_up_to_homotopy, resolution_tensor, semifree_resolve,
                       tensor_cutoff, tensor_map)
from .silting import SiltingReport, end_radical, silting_report


# -- reports ----------------------------------------------------------------


@dataclass
class CheckRecord:
    """One named assertion with the numbers that back it."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    at_bound: bool = False  # failed at a bound, with no witness; reports leave it out


@dataclass
class VerificationReport:
    """A check's records."""

    kind: str
    subject: str
    checks: list
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def filed_as(self, subject: str) -> "VerificationReport":
        """The same report under another subject, with its own notes."""
        return VerificationReport(self.kind, subject, list(self.checks), dict(self.notes))

    def as_raw_dict(self) -> dict:
        """The report's fields as nested dicts and lists, keys and scalars as
        the checks left them; instances.json_text writes it as it stands."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                       for c in self.checks],
            "notes": self.notes,
        }

    def as_dict(self) -> dict:
        return _plain(self.as_raw_dict())


def _plain(x):
    """JSON-ready copy: string keys, lists for tuples, str() for field scalars.

    instances.json_text(x) is json.dumps(_plain(x), indent=2, sort_keys=True)
    plus a newline, written without the copy."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) or x is None:
        return x
    return str(x)


def _window(w) -> DegreeWindow:
    if isinstance(w, DegreeWindow):
        return w
    lo, hi = w
    return DegreeWindow(lo, hi)


# -- shared context ----------------------------------------------------------


class SiltingContext:
    """The one silting analysis of a complex U that every check shares.

    gh is the hom complex Hom(U, U), report the silting report of U read
    off gh, C the non-positive truncation of the dg-endomorphism algebra B
    of U, read straight off gh (smart_truncate; B itself is never built),
    and Uc is U turned into a left C-module through evaluation.  Each is
    built on first use and then kept, so a refuted U, decided by its report
    alone, never gets a truncation.  H^0 End(U) and its radical are kept on
    gh (GradedHom.kept, through dg.end_h0 and silting.end_radical), where
    the report's coresolution left them.  A module is read as itself, its
    one complex in degree 0 (Module.stalk).  The depth settings are fixed
    here: max_steps bounds the coresolution, extra_margin deepens every
    cutoff and cap bounds each probe's projective replacement.  All else the
    context keeps, from hom complexes to rows, goes through one memo, _kept,
    by kind and by the objects it comes from; a key keeps its object alive,
    so an entry can never answer for another.  Counit and fully-faithful
    rows [lhs, rhs, rank] are kept per degree, keyed by summand or by
    (source, target); counits and pairs check the summands missing one as
    one direct sum (_sum, one per list, so both share its hom module and
    resolution), and summed adds rows up.
    """

    def __init__(self, U: Complex, max_steps: int = 8, extra_margin: int = 0, cap: int = 16):
        if not U.is_projective_complex():
            raise ValueError("context needs a complex of projectives")
        self.U = U
        self.A = U.algebra
        self.max_steps = max_steps
        self.extra_margin = extra_margin
        self.cap = cap
        self._memo: dict = {}  # kind -> {key: kept object}

    def _kept(self, kind: str, key, build):
        """The object of this kind kept under key, built by build() on first ask."""
        kept = self._memo.setdefault(kind, {})
        if key not in kept:
            kept[key] = build()
        return kept[key]

    @cached_property
    def gh(self) -> GradedHom:
        return hom_complex(self.U, self.U)

    @cached_property
    def report(self) -> SiltingReport:
        return silting_report(self.U, self.max_steps, self.gh)

    @cached_property
    def C(self) -> DgAlgebra:
        return smart_truncate(self.gh)

    @cached_property
    def Uc(self) -> DgModule:
        return evaluation_left_module(self.C, self.U)

    def hom(self, X: Complex, Y: Complex) -> GradedHom:
        """The hom complex of X into Y, built once per pair; Hom(U, U) is
        gh, the one under the truncation C."""
        if X is self.U and Y is self.U:
            return self.gh
        return self._kept("hom", (X, Y), lambda: hom_complex(X, Y))

    def hom_module(self, X: Complex) -> DgModule:
        """Hom(U, X) as a right module over the truncation C."""
        return self._kept("hom module", X, lambda: dg_hom_module(self.hom(self.U, X), self.C))

    def tensor(self, M: DgModule, win: DegreeWindow) -> Complex:
        """P (x)_C Uc for the resolution P of M that resolve keeps, exact
        inside the window."""
        P = self.resolve(M, tensor_cutoff(self.Uc, win, self.extra_margin))
        return self._kept("tensor", P, lambda: resolution_tensor(P, self.Uc))

    def evaluation(self, X: Complex, win: DegreeWindow) -> ChainMap:
        """The evaluation map onto X from its tensor at the window, one per tensor."""
        MX = self.hom_module(X)
        T = self.tensor(MX, win)
        return self._kept("evaluation", T, lambda: _evaluation_chain_map(T, MX.gh, X))

    def batch(self, Ys: list, win: DegreeWindow) -> ChainMap:
        """The evaluation map of a counit batch at the window's cutoff whose
        sum holds all of Ys, checking them as one more batch when none does."""
        cutoff = tensor_cutoff(self.Uc, win, self.extra_margin)
        for T, eps in self._memo.get("evaluation", {}).items():
            blocks = eps.target.summands or [eps.target]
            if T.resolution.cutoff == cutoff and set(Ys) <= set(blocks):
                return eps
        S = self._sum(_leaves(Ys))
        verify_counit(self, S, win)
        return self.evaluation(S, win)

    def counit(self, X: Complex, window) -> VerificationReport:
        """The counit report of X at the window, from the rows of its
        declared summands, each checked by counits."""
        win = _window(window)
        self.counits([X], win)
        check = self.summed("evaluation map induces cohomology isomorphisms",
                            _parts(X), range(win.lo, win.hi + 1))
        return VerificationReport("counit", "probe", [check],
                                  {"window": [win.lo, win.hi], "extra_margin": self.extra_margin})

    def counits(self, Xs: list, window):
        """Check the counit of every summand of Xs missing a row in the
        window in one verify_counit, on their direct sum."""
        win = _window(window)
        need = set(range(win.lo, win.hi + 1))
        todo = [s for s in _leaves(Xs) if not self._kept("rows", s, dict).keys() >= need]
        if todo:
            verify_counit(self, self._sum(todo), win)

    def fully_faithful(self, X: Complex, Xp: Complex, degrees) -> VerificationReport:
        """The fully-faithful report of the pair at the degrees, from the
        rows of pairs of declared summands, each checked by pairs."""
        self.pairs([X], [Xp], degrees)
        return _pair_report(self, [(s, t) for s in _parts(X) for t in _parts(Xp)], degrees)

    def pairs(self, Xs: list, Ys: list, degrees):
        """Check every pair of a summand of Xs and a summand of Ys missing a
        row at these degrees, one verify_fully_faithful per source summand,
        into the direct sum of its targets."""
        targets, need = _leaves(Ys), set(degrees)
        for S in _leaves(Xs):
            todo = [t for t in targets if not self._kept("rows", (S, t), dict).keys() >= need]
            if todo:
                verify_fully_faithful(self, S, self._sum(todo), degrees)

    def file_rows(self, keys: list, degrees, lhs, lhs_blocks: dict, rhs, rhs_blocks: dict,
                  induced):
        """Keep under each block's key its rows [dim H^n lhs, dim H^n rhs, rank
        of induced(n)], read off the block; induced(n), the map on classes, is
        built only where some block has both sides."""
        count = len(keys)
        for n in degrees:
            ls, rs = lhs.block_h_dims(n, lhs_blocks, count), rhs.block_h_dims(n, rhs_blocks, count)
            ranks = (block_ranks(induced(n), lhs.class_blocks(n, lhs_blocks),
                                 rhs.class_blocks(n, rhs_blocks), count)
                     if any(a and b for a, b in zip(ls, rs)) else [0] * count)
            for key, row in zip(keys, zip(ls, rs, ranks)):
                self._kept("rows", key, dict)[n] = list(row)

    def summed(self, name: str, keys: list, degrees) -> CheckRecord:
        """The check that the kept rows of keys, added degree by degree (a
        repeated key counts again), are isomorphisms: maps of direct sums are
        block diagonal, so their rows add up."""
        rows = [self._kept("rows", k, dict) for k in keys]
        table = {n: [sum(col) for col in zip(*(r[n] for r in rows))] for n in degrees}
        return CheckRecord(name, all(a == b == rk for a, b, rk in table.values()),
                           {"h_dims": table})

    def _sum(self, parts: list) -> Complex:
        """The direct sum of parts, a single complex as itself; built once per
        list, so the counits and every source's pairs share its hom module."""
        if len(parts) == 1:
            return parts[0]
        return self._kept("sum", tuple(parts), lambda: direct_sum_complexes(parts))

    def classification(self, X: Module) -> XiClassification:
        """classify_Xi(self, X), run once per module."""
        return self._kept("classification", X, lambda: classify_Xi(self, X))

    def canonical_sequence(self, X: Module) -> tuple[Module, Module]:
        """_canonical_sequence(self, X), built once per module."""
        return self._kept("canonical sequence", X, lambda: _canonical_sequence(self, X))

    def resolve(self, M: DgModule, cutoff: int) -> SemifreeModule:
        """semifree_resolve(M, cutoff), built at most once per module and degree.

        Every module handed out is kept and never changed afterwards; a new
        cutoff is served from the deepest resolution of M built so far.
        """
        built = self._kept("resolutions", M, dict)
        if cutoff not in built:
            built[cutoff] = (built[min(built)].to_cutoff(cutoff) if built
                             else semifree_resolve(M, cutoff))
        return built[cutoff]


# -- maps out of resolutions -------------------------------------------------


def _evaluation_chain_map(T: Complex, gh, X: Complex) -> ChainMap:
    """The map (resolution (x)_C U) -> X evaluating each generator's augmentation.

    The augmentation value of the k-th generator is an element of the hom
    complex gh = Hom(U, X) at the generator's degree; on the block e.U^{n-g}
    of that generator in degree n the map is the component U^{n-g} -> X^n
    of that hom element.  Strictness of the augmentation makes this an
    honest chain map, which the ChainMap constructor re-checks.
    """
    f = X.algebra.field
    P = T.resolution
    augs = [gh.component_maps(g, aug) for g, aug in zip(P.gens, P.gen_augs)]
    mats = {}
    for n, layout in T.block_layout.items():
        xdim = X.term(n).dim
        rows = []
        for k, j, cell in layout.blocks:
            blockmat = augs[k].get(j)
            rows.extend({} if blockmat is None else blockmat.apply_entries(u)
                        for u in cell.rows)
        mats[n] = Matrix.from_row_entries(f, xdim, rows)
    return ChainMap(T, X, mats)


def _after_augmentations(P: SemifreeModule, hom: GradedHom, h: GradedHom, target: GradedHom,
                         s: int | None = None, t: int | None = None):
    """(n, rep) -> {k: the coordinates in target = Hom(U, Z') of "the
    augmentation of generator k of P, then x"}, x the degree-n element of h
    with the coordinates rep.  The augmentation values, in hom = Hom(U, Z),
    are cut along h.X once: h.X is Z, or with s its block s, and h.Y is Z',
    or with t its block t."""
    cuts = [h.cuts(hom, g, aug, (hom.Y, s)) for g, aug in zip(P.gens, P.gen_augs)]

    def after(n: int, rep: dict) -> dict:
        values = h.values(n, rep)
        return {k: target.assemble(g + n, h.after(n, values, c, (target.Y, t)))
                for k, (g, c) in enumerate(zip(P.gens, cuts))}
    return after


def _parts(X: Complex) -> list:
    """The declared summands of X down to those that declare none, in order
    and with repeats; a complex declaring none is its own."""
    return [t for s in X.summands for t in _parts(s)] if X.summands else [X]


def _leaves(Xs: list) -> list:
    """The distinct parts of the complexes Xs, in order."""
    return list(dict.fromkeys(s for X in Xs for s in _parts(X)))


def _placed(f, comps: dict, X: Complex, s: int, t: int) -> dict:
    """The components of a degree-0 map out of block s of X into block t
    moved onto X's rows and columns: an endomorphism of X."""
    return {i: Matrix.from_entries(f, X.dim(i), X.dim(i), {
        X.block_start(i, s) + r: {X.block_start(i, t) + c: x for c, x in nz.items()}
        for r, nz in m.entries.items()}) for i, m in comps.items()}


# Each map a counit or fully-faithful check reads is block diagonal for the
# declared summands of its target X: complexes.summand_blocks and the blocks
# below label every position of a space, degree by degree, with the summand
# it lies in.


def _cell_blocks(h, target: dict) -> dict:
    """The blocks of maps out of cells (complexes.CellHom) into a target
    with the given blocks: a cell row lies in one block, its pivot column's."""
    return {m: [target[j][p] for _, j, cell in h.layout(m).blocks for p in cell.pivots]
            for m in h.degrees()}


def _generator_blocks(P: SemifreeModule, module: dict) -> list:
    """The block of each generator of a resolution P of a module with the
    given blocks: its augmentation's, or when that is zero the block of the
    generators its differential meets."""
    out = []
    for g, aug, diff in zip(P.gens, P.gen_augs, P.gen_diffs):
        out.append(module[g][next(iter(aug))] if aug else out[next(iter(diff))[0]])
    return out


def _pair_report(ctx: SiltingContext, keys: list, degrees) -> VerificationReport:
    ns = sorted(degrees)
    check = ctx.summed("morphism spaces match through the functor", keys, ns)
    return VerificationReport("fully-faithful", "pair", [check],
                              {"degrees": ns, "extra_margin": ctx.extra_margin})


# -- individual checks -------------------------------------------------------


def verify_weak_nonpositive(ctx: SiltingContext) -> VerificationReport:
    """No self-extensions in positive shifts, as cohomology of the dg-end,
    read off gh = Hom(U, U), whose differential the dg-end's is."""
    w = ctx.report.presilting_witness
    table = ctx.gh.h_table()
    pos_ok = all(n <= 0 for n in table)
    checks = [
        CheckRecord("no positive self-extensions", w is None,
                    {"witness": list(w) if w else None}),
        CheckRecord("dg-end cohomology vanishes above degree 0", pos_ok,
                    {"h_table": table}),
    ]
    return VerificationReport("weak-nonpositivity", "silting complex", checks)


def verify_E_iso(ctx: SiltingContext) -> VerificationReport:
    """H^0 End(U), as the coresolution read it off Hom(U, U), agrees with
    the truncation C and with chain maps modulo homotopy.

    E's basis is E.sq's reps, which are C^0's first E.dim basis elements
    (smart_truncate).  Each product of two of them is taken on two
    independent routes and compared with E's table: route one multiplies
    them in C and keeps the first E.dim coordinates, and route two composes
    honest chain maps, each right factor's generator rows times the left
    factor's matrices (_composite), and reduces the composite by E.sq.
    When U resolves a module, the result is also compared structurally
    with the ordinary endomorphism algebra of that module.
    """
    U, C, gh = ctx.U, ctx.C, ctx.gh
    one = C.field.one
    E = end_h0(gh)
    chain_maps = [gh.chain_map_from_cocycle(rep) for rep in E.sq.rep_entries]
    rows = [gh.generator_rows(0, phi.mats) for phi in chain_maps]
    mult_ok = True
    for x in range(E.dim):
        for y in range(E.dim):
            in_c = {k: c for k, c in C.product(0, {x: one}, 0, {y: one}).items() if k < E.dim}
            composite = E.sq.reduce(_composite(gh, rows[y], chain_maps[x]))
            if not in_c == composite == E.basis_product(x, y):
                mult_ok = False
    checks = [CheckRecord("products agree with chain-map composition", mult_ok, {})]

    notes: dict = {"idempotents": len(E.idempotents)}
    if all(U.h_dim(n) == 0 for n in U.degrees() if n != 0):
        # U resolves H^0 U, so End_A(H^0 U) is H^0 Hom(U, H^0 U)
        end_dim = ctx.hom(U, U.cohomology(0).stalk).h_dim(0)
        try:
            rad_e = len(end_radical(gh))
        except ValueError:
            rad_e = None
        checks.append(CheckRecord(
            "H^0 algebra matches endomorphisms of the zeroth cohomology",
            E.dim == end_dim, {"h0_end_dim": end_dim, "radical_dim": rad_e}))
    return VerificationReport("cohomology-endomorphisms", "silting complex",
                              checks, notes)


def _composite(gh: GradedHom, rows: dict, then: ChainMap) -> dict:
    """The coordinates in gh = Hom(U, U) of "phi, then then" for the chain
    map phi with the given generator rows (GradedHom.generator_rows), read
    as coords_of reads the composite: each row times then's matrix, with no
    composite built."""
    return gh.assemble(0, {k: v for k, row in rows.items()
                           if (m := then.mats.get(gh.gens[k])) is not None
                           and (v := m.apply_entries(row))})


def verify_counit(ctx: SiltingContext, X: Complex, window) -> VerificationReport:
    """Resolve Hom(U, X) over the truncation, tensor back, evaluate onto X.

    Passes when the evaluation map induces cohomology isomorphisms at every
    degree of the window.  Every map here is block diagonal for the declared
    summands of X, so a direct sum is checked once: ctx keeps each summand's
    rows, read off its block, and the report of X adds them up.
    """
    win = _window(window)
    MX = ctx.hom_module(X)
    eps = ctx.evaluation(X, win)
    T = eps.source
    xb = summand_blocks(X)
    gens = _generator_blocks(T.resolution, _cell_blocks(MX.gh, xb))
    tb = {n: [gens[k] for k, _ in layout.positions] for n, layout in T.block_layout.items()}
    ctx.file_rows(X.summands or [X], range(win.lo, win.hi + 1), T, tb, X, xb, eps.induced)
    return ctx.counit(X, win)


def verify_fully_faithful(ctx: SiltingContext, X: Complex, Xp: Complex,
                          degrees) -> VerificationReport:
    """Morphism spaces before and after the hom functor, degree by degree.

    Compares dimensions over the base algebra with dimensions over the
    truncated dg-end, and checks that the functor's induced linear map on
    each morphism space has full rank, so the two spaces are identified
    rather than merely equinumerous.  Every map here is block diagonal for
    the declared summands of Xp, so the pairs of X with each of them are
    checked at once: ctx keeps each pair's rows, read off its block, and the
    report of the pair (X, Xp) adds them up.
    """
    ns = sorted(degrees)
    win = DegreeWindow(ns[0], ns[-1])
    f = ctx.A.field
    MXp = ctx.hom_module(Xp)
    gh = ctx.hom(X, Xp)
    xb = summand_blocks(Xp)
    mb = _cell_blocks(MXp.gh, xb)
    # a source that is a summand of Xp is resolved as its block of the
    # resolution of Hom(U, Xp), its augmentation values restricted to it
    s = next((t for t, part in enumerate(Xp.summands or [Xp]) if part is X), None)
    MX = MXp if s is not None else ctx.hom_module(X)
    P = ctx.resolve(MX, hom_cutoff(MXp, win, ctx.extra_margin))
    if s is not None and Xp.summands:
        P = P.block(_generator_blocks(P, mb), s)
    sh = SemifreeHom(P, MXp)
    hb, sb = _cell_blocks(gh, xb), _cell_blocks(sh, mb)
    after = _after_augmentations(P, MX.gh, gh, MXp.gh, s)

    def functor(n):
        # the functor's map on degree-n classes
        shq = sh.subquotient(n)
        return Matrix.from_row_entries(f, shq.dim, [
            shq.reduce(sh.assemble(n, after(n, rep)))
            for rep in gh.subquotient(n).rep_entries])

    keys = [(X, t) for t in Xp.summands or [Xp]]
    ctx.file_rows(keys, ns, gh, hb, sh, sb, functor)
    return _pair_report(ctx, keys, ns)


def verify_delta(ctx: SiltingContext, window) -> VerificationReport:
    """Right multiplication identifies A with derived endomorphisms of U.

    U is made into a right module over the opposite of the truncated dg-end,
    resolved, and the hom complex back into U is computed.  The classes of
    right multiplication by the basis of A must span H^0 and all other window
    degrees must vanish; a -> [r_a . aug] respects products because r_a is an
    algebra map A -> Z^0 End(U) and aug^* is an isomorphism on H^0.
    """
    win = _window(window)
    A = ctx.A
    f = A.field
    Cop = opposite_dg(ctx.C)
    MU = side_swap(ctx.Uc, Cop)
    Q = ctx.resolve(MU, hom_cutoff(MU, win, ctx.extra_margin))
    sh = SemifreeHom(Q, MU)
    sq0 = sh.subquotient(0)

    rows = [sq0.reduce(sh.assemble(0, {k: ctx.U.term(g).action(a).apply_entries(Q.gen_augs[k])
                                       for k, g in enumerate(Q.gens)}))
            for a in range(A.dim)]
    span_rank = Matrix.from_row_entries(f, sq0.dim, rows).rank() if rows else 0
    h_table = {n: sh.h_dim(n) for n in range(win.lo, win.hi + 1)}
    iso_ok = span_rank == A.dim and h_table.get(0, 0) == A.dim
    vanish_ok = all(d == 0 for n, d in h_table.items() if n != 0)
    checks = [
        CheckRecord("right multiplication spans H^0", iso_ok,
                    {"span_rank": span_rank, "algebra_dim": A.dim,
                     "h0_dim": h_table.get(0, 0)}),
        CheckRecord("derived endomorphisms vanish away from degree 0", vanish_ok,
                    {"h_table": {n: d for n, d in h_table.items() if d}}),
    ]
    return VerificationReport("derived-double-centralizer", "silting complex", checks,
                              {"window": [win.lo, win.hi], "extra_margin": ctx.extra_margin})


@dataclass
class XiClassification:
    """Which single degree, if any, the hom functor concentrates a module in."""

    index: int | None
    dims: dict
    degenerate: bool
    degree_bound: int


def classify_Xi(ctx: SiltingContext, X: Module) -> XiClassification:
    """The degrees j in 0..n, n the coresolution length, where Hom(U, X[j])
    has classes, and the one degree they sit in, if there is one."""
    n = ctx.report.n
    if n is None:
        raise ValueError("coresolution did not terminate; cannot fix the degree range")
    gh = ctx.hom(ctx.U, X.stalk)
    dims = {j: gh.h_dim(j) for j in range(0, n + 1)}
    if X.dim == 0:
        return XiClassification(0, dims, True, n)
    support = [j for j, d in dims.items() if d]
    return XiClassification(support[0] if len(support) == 1 else None, dims, False, n)


def verify_corollary_roundtrip(ctx: SiltingContext, X: Module, i: int, window,
                               subject: str = "module") -> VerificationReport:
    """Modules concentrated by the hom functor come back unchanged.

    For X with Hom(U, X[j]) living only in j = i, M = Hom(U, X[i]) has
    cohomology in degree 0 alone.  The truncation is non-positive, so both
    the truncation of M below degree 0 and H^0 M are then quasi-isomorphic
    to M, and tensoring H^0 M back and shifting by -i reproduces X exactly
    when the counit of X[i] is a quasi-isomorphism.  Hom(U, X[i]) is
    Hom(U, X) shifted by i, so both read X itself: the classification's
    Hom(U, X) and the counit of X at the window shifted by i, keys moved back.
    """
    win = _window(window)
    cls = ctx.classification(X)
    checks = [CheckRecord("probe concentrates in the expected degree",
                          cls.index == i, {"classified": cls.index, "expected": i,
                                           "hom_dims": cls.dims})]
    notes = {"window": [win.lo, win.hi], "extra_margin": ctx.extra_margin,
             "degenerate": cls.degenerate}
    if i == 0:
        notes["degree_note"] = ("degree 0 sits outside the shifted range of the "
                                "piecewise equivalences; checked all the same")
    if cls.index != i:
        return VerificationReport("concentration-roundtrip", subject, checks, notes)

    Xc = X.stalk
    h_table = {n - i: d for n, d in ctx.hom(ctx.U, Xc).h_table().items()}
    checks.append(CheckRecord("hom module has one-point cohomology", set(h_table) <= {0},
                              {"h_table": h_table}))
    counit = ctx.counit(Xc, DegreeWindow(win.lo + i, win.hi + i))
    h_dims = {n - i: row for n, row in counit.checks[0].details["h_dims"].items()}
    checks.append(CheckRecord("tensor of the concentrated module returns the probe",
                              counit.passed, {"h_dims": h_dims, "shift": -i}))
    return VerificationReport("concentration-roundtrip", subject, checks, notes)


# -- naturality and functoriality probes -------------------------------------


def functoriality_probe(ctx: SiltingContext, window) -> VerificationReport:
    """Finite sums of summands of U pass the counit check.

    Exercises additivity of the hom-then-tensor pipeline on objects built
    from U itself, each sum read off the counits of U's summands.
    """
    win = _window(window)
    parts = ctx.U.summands or [ctx.U]
    sums = ({"double": parts * 2} if len(parts) == 1 else
            {f"sum{a}{b}": [parts[a], parts[b]] for a, b in combinations(range(len(parts)), 2)})
    ctx.counits(parts, win)
    return VerificationReport("functoriality", "sums from the silting complex", [
        ctx.summed(f"counit on {name}", [s for X in pair for s in _parts(X)],
                   range(win.lo, win.hi + 1))
        for name, pair in sums.items()])


def naturality_probe(ctx: SiltingContext, X: Complex, Xp: Complex, window) -> VerificationReport:
    """The counit square of a chosen map g commutes on cohomology.

    g: Y -> Y' is the first degree-0 basis class on the first summand pair
    of X and X' (each its own if it declares none) that has one, placed on
    its block of the sum of a counit batch holding both; composing with it
    lifts up to homotopy to an endomorphism of the batch's resolution, which
    exists since its cone is acyclic at the cutoff.  It is pushed through
    the tensor; the two ways around the square are compared.
    """
    win = _window(window)
    for Y, Yp in product(_leaves([X]), _leaves([Xp])):
        gh = ctx.hom(Y, Yp)
        sq = gh.subquotient(0)
        if sq.dim:
            break
    else:
        return VerificationReport("naturality", "probe pair", [],
                                  {"vacuous": "no nonzero map to test"})
    eps = ctx.batch([Y, Yp], win)
    T, TT = eps.target, eps.source
    MT, P = ctx.hom_module(T), TT.resolution
    s, sp = (next(t for t, Z in enumerate(T.summands or [T]) if Z is W) for W in (Y, Yp))
    gens = _generator_blocks(P, _cell_blocks(MT.gh, summand_blocks(T)))
    if s not in gens or sp not in gens:
        return VerificationReport("naturality", "probe pair", [],
                                  {"vacuous": "degenerate tensor, nothing to compare"})
    g = ChainMap(T, T, _placed(ctx.A.field, gh.component_maps(0, sq.rep_entries[0]), T, s, sp))
    lam = lift_up_to_homotopy(P, P, _after_augmentations(P, MT.gh, gh, MT.gh, s, sp)(
        0, sq.rep_entries[0]))
    if lam is None:
        raise AssertionError("a map of resolutions is obstructed where the cone is acyclic")
    tlam = _tensor_of_lift(TT, lam, ctx.Uc)
    ok = all(eps.induced(n) @ g.induced(n) == tlam.induced(n) @ eps.induced(n)
             for n in range(win.lo, win.hi + 1))
    checks = [CheckRecord("counit square commutes on cohomology", ok,
                          {"window": [win.lo, win.hi]})]
    return VerificationReport("naturality", "probe pair", checks)


def _tensor_of_lift(T: Complex, lam: list, Uc: DgModule) -> ChainMap:
    """The lifted endomorphism of T's resolution P tensored with the identity
    of U: tensor_map with the components in P of each generator value lam[k]."""
    P = T.resolution
    comps = [P.layout(g).values(value) for g, value in zip(P.gens, lam)]
    return ChainMap(T, T, {n: tensor_map(Uc, P, layout.blocks, P, layout, comps)
                           for n, layout in T.block_layout.items()})


# -- probe sets --------------------------------------------------------------


def probe_modules(A: Algebra) -> dict:
    """Indecomposable projectives and, for path algebras, the vertex simples
    (the simple at a sink is its projective, the very module object)."""
    out = {}
    for v in range(len(A.idempotents)):
        P = out[f"proj{v}"] = projective_cache(A, v)
        if A.quiver is not None:
            out[f"simple{v}"] = P if P.dim == 1 else simple_module(A, v)
    return out


def probe_complexes(ctx: SiltingContext, mods: dict, names=None) -> dict:
    """Sources of homs out of the module probes mods, as probe_modules(ctx.A)
    built them, plus the free module, the sum of the stalks: the stalk of
    M when it is projective, else its projective replacement within the
    context's cap.  Probe names sharing a module share its one source; with
    names given, only those probes are built.
    """
    A = ctx.A
    out, sources = {}, {}
    for name, M in sorted(mods.items()):
        if names is not None and name not in names:
            continue
        if M not in sources:
            X = M.stalk
            sources[M] = X if X.is_projective_complex() else proj_replacement(X, ctx.cap)[0]
        out[name] = sources[M]
    if names is None or "free" in names:
        out["free"] = direct_sum_complexes([projective_cache(A, v).stalk
                                            for v in range(len(A.idempotents))])
    return out


# -- ordinary tilting theorem ------------------------------------------------


def _canonical_sequence(ctx: SiltingContext, X: Module) -> tuple[Module, Module]:
    """The torsion part tX and the torsion-free quotient X/tX of a module X.

    tX is the sum of the images of Z^0(U) under the classes of H^0 Hom(U, X).
    Homotopic maps differ by maps through d^0, which vanish on Z^0, so the
    image does not depend on the representatives.  X/tX is the cokernel of
    (Z^0 U)^h -> X and tX the kernel of X -> X/tX, both as cohomology of
    two-term complexes.
    """
    U, A = ctx.U, ctx.A
    f = A.field
    Z = Complex(A, {0: U.term(0), 1: U.term(1)}, {0: U.diff(0)},
                validate=False).cohomology(0)
    gh = ctx.hom(U, X.stalk)
    classes = gh.subquotient(0).rep_entries
    rows = []
    for rep in classes:
        phi = gh.component_maps(0, rep).get(0, Matrix.zero(f, U.term(0).dim, X.dim))
        rows.extend(phi.apply_entries(z) for z in Z.sq.rep_entries)
    Q = Complex(A, {-1: direct_sum_modules(A, [Z] * len(classes)), 0: X},
                {-1: Matrix.from_row_entries(f, X.dim, rows)}).cohomology(0)
    proj = Matrix.from_row_entries(f, Q.dim, [Q.sq.reduce({j: f.one}) for j in range(X.dim)])
    tX = Complex(A, {0: X, 1: Q}, {0: proj}).cohomology(0)
    return tX, Q


def verify_tilting_theorem(ctx: SiltingContext, probes: dict,
                           delta: VerificationReport, window) -> VerificationReport:
    """The classical tilting theorem, read off the derived battery.

    U must be a tilting complex whose cohomology T sits in degree 0, as the
    silting report says (srep.tilting and srep.module_form); otherwise this
    raises ValueError.  The derived equivalence is then Brenner and Butler's:
    End(T) sits in degree 0, which is the two-sided vanishing the tilting
    flag already records, the base algebra is the double centralizer of T,
    and a module X with Ext^j(T, X) = 0 for every j but one, i, comes back
    from Ext^i(T, X) through Tor_i.  Each of these is a result the battery
    already holds: the derived double-centralizer report delta and, per
    module probe, its classification and roundtrip.  probes maps each module
    probe's name to (module, classification, roundtrip report, or None when
    the probe does not concentrate).  A probe in neither class is held to
    what the theorem does promise, its canonical sequence
    0 -> tX -> X -> X/tX -> 0: tX must return in degree 0 and X/tX in
    degree 1.
    """
    win = _window(window)
    srep = ctx.report
    if not (srep.tilting and srep.module_form):
        raise ValueError("the tilting theorem needs a tilting complex with cohomology "
                         "in degree 0 alone")
    notes = {"window": [win.lo, win.hi], "extra_margin": ctx.extra_margin}
    checks = [CheckRecord("base algebra equals the double centralizer",
                          delta.passed, dict(delta.checks[0].details))]
    for name in sorted(probes):
        X, cls, roundtrip = probes[name]
        details: dict = {"class": cls.index,
                         "ext_dims": {j: d for j, d in cls.dims.items() if d}}
        if cls.index is not None:
            ok = X.dim == 0 or roundtrip.passed
        else:
            ok = True
            for label, part, i in zip(("torsion", "torsion_free"),
                                      ctx.canonical_sequence(X), (0, 1)):
                back = part.dim > 0 and verify_corollary_roundtrip(
                    ctx, part, i, win, subject=f"{name} {label}").passed
                details[label] = {"dimension_vector": list(part.dimension_vector()),
                                  "class": ctx.classification(part).index,
                                  "returns": back}
                ok = ok and back
        checks.append(CheckRecord(f"probe {name} returns", ok, details))
    return VerificationReport("tilting-theorem", "module", checks, notes)


# -- full battery ------------------------------------------------------------


class UnknownProbeError(ValueError):
    """A requested probe name is not in the standard probe set."""


_SCOPE_NOTE = ("checked on the finite probe set; every probe is compact, so "
               "orthogonal-complement side conditions hold vacuously here")


def verify_all(U: Complex, window=(-4, 4), pair_degrees=(-2, 2), max_steps: int | None = None,
               extra_margin: int | None = None, cap: int | None = None,
               ctx: SiltingContext | None = None, probe_names=None) -> list:
    """Run every check on one silting complex with the standard probe set.

    Probes are the vertex simples, the indecomposable projectives, the free
    module and U itself (summed from their summands); pass probe_names to
    restrict to a subset, where an unknown name raises UnknownProbeError
    before any analysis.  The
    orthogonal-complement clause of the general statement is vacuous here,
    since each instance is finite and carried by its probes; every report
    notes its window and margins so reruns with larger margins are directly
    comparable.  max_steps, extra_margin and cap build the context of U,
    each left out taking SiltingContext's default; a given ctx must be the
    context of U and has fixed them, so passing one beside it raises
    ValueError.  A tilting U with cohomology in degree 0 alone ends with
    the tilting-theorem report.
    """
    given = {k: v for k, v in (("max_steps", max_steps), ("extra_margin", extra_margin),
                               ("cap", cap)) if v is not None}
    if ctx is not None and (ctx.U is not U or given):
        raise ValueError("a given context must be the context of U, and it fixes "
                         "max_steps, extra_margin and cap")
    ctx = ctx or SiltingContext(U, **given)
    win = _window(window)
    pr = _window(pair_degrees)
    mods = probe_modules(ctx.A)
    if probe_names is not None:
        known = set(mods) | {"free", "silting"}
        unknown = set(probe_names) - known
        if unknown:
            raise UnknownProbeError(f"unknown probes {sorted(unknown)}; "
                                    f"available: {sorted(known)}")
        mods = {k: v for k, v in mods.items() if k in probe_names}
    srep = ctx.report
    base = [CheckRecord("no positive self-extensions", srep.presilting,
                        {"witness": list(srep.presilting_witness) if srep.presilting_witness else None})]
    notes = {"max_steps": ctx.max_steps, "inconclusive": srep.inconclusive}
    if srep.presilting:
        base.append(CheckRecord("coresolution terminates", srep.n is not None,
                                {"steps": srep.n, "multiplicities": srep.multiplicities},
                                at_bound=srep.n is None))
    else:
        notes["coresolution"] = "not attempted: a positive self-extension refutes silting"
    reports = [VerificationReport("silting", "input complex", base, notes)]
    if srep.n is None:
        return _scoped(reports)
    reports.append(verify_weak_nonpositive(ctx))
    reports.append(verify_E_iso(ctx))
    delta = verify_delta(ctx, win)
    reports.append(delta)

    cplx = probe_complexes(ctx, mods, probe_names)
    if probe_names is None or "silting" in probe_names:
        cplx["silting"] = ctx.U
    # probe names may share one complex: simple2 is proj2 over kA_n.  A
    # module probe is read as itself; cplx holds it only as a hom's source.
    # The context checks the distinct target summands as one direct sum, in
    # one counit batch and one fully-faithful check per distinct source
    # summand, and reports each summand and pair under every name.
    target = {name: mods[name].stalk if name in mods else X for name, X in cplx.items()}
    names = sorted(cplx)
    targets = [target[n] for n in names]
    degs = list(range(pr.lo, pr.hi + 1))
    classified = {name: ctx.classification(mods[name]) for name in sorted(mods)}
    tilting = srep.tilting and srep.module_form
    # the tilting theorem returns the canonical parts of each probe in
    # neither class, in degrees 0 and 1, and the roundtrips each probe
    # concentrated in degree i, each at the window shifted up by i: the
    # tensor is exact from the window's bottom up, so one batch serves all
    parts = [part.stalk for name in sorted(mods) if tilting and classified[name].index is None
             for part in ctx.canonical_sequence(mods[name]) if part.dim]
    shifts = {0, 1} if parts else {0}
    shifts |= {c.index for name, c in classified.items() if mods[name].dim} - {None}
    ctx.counits(targets + parts, DegreeWindow(win.lo, win.hi + max(shifts)))
    ctx.pairs([cplx[n] for n in names], targets, degs)
    for name in names:
        reports.append(ctx.counit(target[name], win).filed_as(name))
    reports += [ctx.fully_faithful(cplx[n1], target[n2], degs)
                .filed_as(f"{n1}->{n2}") for n1 in names for n2 in names]
    cls_checks = []
    for name in sorted(mods):
        c = classified[name]
        seen = mods[name].dim == 0 or any(c.dims.values())
        cls_checks.append(CheckRecord(f"probe {name} detected within the degree bound",
                                      seen,
                                      {"class": c.index, "hom_dims": c.dims,
                                       "degenerate": c.degenerate}))
    reports.append(VerificationReport("semiorthogonal-classification", "module probes",
                                      cls_checks, {"degree_bound": srep.n}))
    roundtrips = {}
    for name in sorted(mods):
        c = classified[name]
        if c.index is not None and mods[name].dim:
            roundtrips[name] = verify_corollary_roundtrip(ctx, mods[name], c.index, win,
                                                          subject=name)
            reports.append(roundtrips[name])
    reports.append(functoriality_probe(ctx, win))
    if "free" in cplx:
        reports.append(naturality_probe(ctx, cplx["free"], ctx.U, win))
    if tilting:
        probes = {name: (mods[name], classified[name], roundtrips.get(name))
                  for name in mods}
        reports.append(verify_tilting_theorem(ctx, probes, delta, win))
    return _scoped(reports)


def _scoped(reports: list) -> list:
    for r in reports:
        r.notes.setdefault("scope", _SCOPE_NOTE)
    return reports
