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
U, its dg-end and every hom complex out of it, so no object is built twice;
verify_all is the one place that builds a context from U.

Every check works inside a stated degree window.  Semifree resolutions are
truncated one degree deeper than the window requires, so cohomology at the
window edge is already exact; enlarging the margin must not change any
reported number, and callers can re-run with a larger margin to confirm.
Caps that run out produce an inconclusive verdict, never a silent pass.

Reports are plain data: lists of named check records with integer tables.
Serialising them with sorted keys gives byte-identical output across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, Module, direct_sum_modules, simple_module
from .complexes import (ChainMap, Complex, GradedHom, direct_sum_complexes,
                        hom_complex, module_complex, proj_replacement,
                        projective_cache, projective_complex)
from .dg import (DgAlgebra, DgModule, dg_hom_module, end_dg, end_h0,
                 evaluation_left_module, opposite_dg, side_swap,
                 smart_truncate)
from .linalg import Matrix
from .semifree import (DegreeWindow, SemifreeHom, SemifreeModule,
                       block_offsets, block_row, derived_tensor, hom_cutoff,
                       lift_generators, lift_to_resolution, resolution_tensor,
                       semifree_resolve, tensor_cutoff)
from .silting import SiltingReport, end_radical, silting_report


# -- reports ----------------------------------------------------------------


@dataclass
class CheckRecord:
    """One named assertion with the numbers that back it."""

    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
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

    def as_dict(self) -> dict:
        return _plain({
            "kind": self.kind,
            "subject": self.subject,
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                       for c in self.checks],
            "notes": self.notes,
        })


def _plain(x):
    """JSON-ready copy: string keys, lists for tuples, str() for field scalars."""
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
    off gh, B the dg-endomorphism algebra of U built on that same gh, C the
    non-positive truncation of B, and Uc is U turned into a left C-module
    through evaluation.  Each is built on first use and then kept, so a
    refuted U, decided by its report alone, never gets a dg-end.  H^0 End(U)
    and its radical are kept on gh (dg.end_h0, silting.end_radical), where
    the report's coresolution left them.  Module
    probes as one-degree complexes, hom complexes, hom modules into probe
    complexes, resolutions, tensors, counit reports and the classification
    of module probes are cached under the objects they come from, since
    several checks revisit them; a key keeps its object alive, so a cached
    entry can never answer for another.
    """

    def __init__(self, U: Complex, max_steps: int = 8):
        if not U.is_projective_complex():
            raise ValueError("context needs a complex of projectives")
        self.U = U
        self.A = U.algebra
        self.max_steps = max_steps
        self._modules: dict = {}
        self._homs: dict = {}
        self._hom_modules: dict = {}
        self._tensors: dict = {}
        self._resolutions: dict = {}
        self._counits: dict = {}
        self._classifications: dict = {}

    @cached_property
    def gh(self) -> GradedHom:
        return hom_complex(self.U, self.U)

    @cached_property
    def report(self) -> SiltingReport:
        return silting_report(self.U, self.max_steps, self.gh)

    @cached_property
    def B(self) -> DgAlgebra:
        return end_dg(self.gh)

    @cached_property
    def C(self) -> DgAlgebra:
        return smart_truncate(self.B)

    @cached_property
    def Uc(self) -> DgModule:
        return evaluation_left_module(self.C, self.U)

    def module(self, X: Module, degree: int) -> Complex:
        """X as a complex concentrated in one degree, built once per module
        and degree, so Hom(U, X[-degree]) is built once too."""
        if (X, degree) not in self._modules:
            self._modules[(X, degree)] = module_complex(X, degree)
        return self._modules[(X, degree)]

    def hom(self, X: Complex, Y: Complex) -> GradedHom:
        """The hom complex of X into Y, built once per pair; Hom(U, U) is
        gh, the one under the dg-end B."""
        if X is self.U and Y is self.U:
            return self.gh
        if (X, Y) not in self._homs:
            self._homs[(X, Y)] = hom_complex(X, Y)
        return self._homs[(X, Y)]

    def hom_module(self, X: Complex) -> DgModule:
        """Hom(U, X) as a right module over the truncation C."""
        if X not in self._hom_modules:
            self._hom_modules[X] = dg_hom_module(self.hom(self.U, X), self.C)
        return self._hom_modules[X]

    def tensor(self, M: DgModule, win: DegreeWindow, extra_margin: int) -> Complex:
        """derived_tensor(M, Uc, win, extra_margin) over the resolution of resolve."""
        P = self.resolve(M, tensor_cutoff(self.Uc, win, extra_margin))
        if P not in self._tensors:
            self._tensors[P] = resolution_tensor(P, self.Uc)
        return self._tensors[P]

    def counit(self, X: Complex, window, extra_margin: int) -> VerificationReport:
        """verify_counit(self, X, window, extra_margin), run once per
        complex, window and margin; file it under a subject with filed_as."""
        key = (X, _window(window), extra_margin)
        if key not in self._counits:
            self._counits[key] = verify_counit(self, X, key[1], extra_margin)
        return self._counits[key]

    def resolve(self, M: DgModule, cutoff: int) -> SemifreeModule:
        """semifree_resolve(M, cutoff), built at most once per module and degree.

        Every module handed out is kept and never changed afterwards; a new
        cutoff is served from the deepest resolution of M built so far.
        """
        built = self._resolutions.setdefault(M, {})
        if cutoff not in built:
            built[cutoff] = (built[min(built)].to_cutoff(cutoff) if built
                             else semifree_resolve(M, cutoff))
        return built[cutoff]


# -- maps out of resolutions -------------------------------------------------


def _evaluation_chain_map(T: Complex, gh, gen_values, X: Complex) -> ChainMap:
    """The map (resolution (x)_C U) -> X evaluating each generator's hom value.

    gen_values[k] are coordinates in the hom complex gh = Hom(U, X) at the
    generator's degree; on the block e.U^{n-g} of the k-th generator in
    degree n the map is the component U^{n-g} -> X^n of that hom element.
    Strictness of the resolution's augmentation makes this an honest chain
    map, which the ChainMap constructor re-checks.
    """
    f = X.algebra.field
    P = T.resolution
    mats = {}
    for n, blocks in T.block_layout.items():
        tdim = T.term(n).dim
        xdim = X.term(n).dim
        if tdim == 0:
            continue
        rows = []
        for (k, j, cell) in blocks:
            blockmat = gh.component_maps(P.gens[k], gen_values[k]).get(j)
            rows.extend({} if blockmat is None else blockmat.apply_entries(u)
                        for u in cell.rows)
        mats[n] = Matrix.from_row_entries(f, xdim, rows)
    return ChainMap(T, X, mats)


def _postcomposed_augmentations(P: SemifreeModule, MX: DgModule, MXp: DgModule,
                                n: int, comps: dict) -> dict:
    """Generator values of P's augmentation into Hom(U, X) followed by a map X -> X'.

    comps are the components of a degree-n element of Hom(X, X'); the k-th
    value is the coordinate vector in Hom(U, X') of the composite, read off
    the generator images of the augmentation.
    """
    gh = MX.gh
    return {k: gh.postcomposed(g, gh.images(g, P.gen_augs[k]), comps, MXp.gh, g + n)
            for k, g in enumerate(P.gens)}


def _cohomology_table(T: Complex, X: Complex, eps: ChainMap,
                      win: DegreeWindow) -> tuple[dict, bool]:
    """[dim H^n T, dim H^n X, rank H^n eps] per window degree, and whether
    eps is a cohomology isomorphism at every one of them.  The induced map
    is built only where both sides have classes; elsewhere its rank is 0."""
    table = {}
    for n in range(win.lo, win.hi + 1):
        ht, hx = T.h_dim(n), X.h_dim(n)
        table[n] = [ht, hx, eps.induced(n).rank() if ht and hx else 0]
    return table, all(ht == hx == rk for ht, hx, rk in table.values())


# -- individual checks -------------------------------------------------------


def verify_weak_nonpositive(ctx: SiltingContext) -> VerificationReport:
    """No self-extensions in positive shifts, as cohomology of the dg-end."""
    w = ctx.report.presilting_witness
    table = ctx.B.h_table()
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
    the dg-end and with chain maps modulo homotopy.

    Each product of two class representatives is taken on two independent
    routes and compared with E's table, sharing the cocycle-class basis:
    route one multiplies inside the dg-algebra B, route two composes honest
    chain maps and reduces the composite.  When U resolves a module, the
    result is also compared structurally with the ordinary endomorphism
    algebra of that module.
    """
    U, B, gh = ctx.U, ctx.B, ctx.gh
    f = B.field
    E = end_h0(gh)
    sq = E.sq
    reps = E.class_reps
    basis_cls = [sq.reduce(rep) for rep in reps]
    span = Matrix.from_entries(f, len(basis_cls), sq.dim, dict(enumerate(basis_cls)))
    chain_maps = [gh.chain_map_from_cocycle(rep) for rep in reps]
    mult_ok = True
    for x in range(E.dim):
        for y in range(E.dim):
            routes = (B.product(0, reps[x], 0, reps[y]),
                      gh.coords_of(0, chain_maps[y].compose(chain_maps[x]).mats))
            if any(span.solve_left_rows(sq.reduce(p)) != E.basis_product(x, y)
                   for p in routes):
                mult_ok = False
    checks = [CheckRecord("products agree with chain-map composition", mult_ok, {})]

    notes: dict = {"idempotents": len(E.idempotents)}
    if all(U.h_dim(n) == 0 for n in U.degrees() if n != 0):
        # U resolves H^0 U, so End_A(H^0 U) is H^0 Hom(U, H^0 U)
        end_dim = ctx.hom(U, ctx.module(U.cohomology(0), 0)).h_dim(0)
        try:
            rad_e = len(end_radical(gh))
        except ValueError:
            rad_e = None
        checks.append(CheckRecord(
            "H^0 algebra matches endomorphisms of the zeroth cohomology",
            E.dim == end_dim, {"h0_end_dim": end_dim, "radical_dim": rad_e}))
    return VerificationReport("cohomology-endomorphisms", "silting complex",
                              checks, notes)


def verify_counit(ctx: SiltingContext, X: Complex, window, extra_margin: int = 0,
                  subject: str = "probe") -> VerificationReport:
    """Resolve Hom(U, X) over the truncation, tensor back, evaluate onto X.

    Passes when the evaluation map induces cohomology isomorphisms at every
    degree of the window.
    """
    win = _window(window)
    MX = ctx.hom_module(X)
    T = ctx.tensor(MX, win, extra_margin)
    if hasattr(T, "resolution"):
        eps = _evaluation_chain_map(T, MX.gh, T.resolution.gen_augs, X)
    else:
        eps = ChainMap(T, X, {}, validate=False)
    table, ok = _cohomology_table(T, X, eps, win)
    checks = [CheckRecord("evaluation map induces cohomology isomorphisms", ok,
                          {"h_dims": table})]
    return VerificationReport("counit", subject, checks,
                              {"window": [win.lo, win.hi], "extra_margin": extra_margin})


def verify_fully_faithful(ctx: SiltingContext, X: Complex, Xp: Complex, degrees,
                          extra_margin: int = 0,
                          subject: str = "pair") -> VerificationReport:
    """Morphism spaces before and after the hom functor, degree by degree.

    Compares dimensions over the base algebra with dimensions over the
    truncated dg-end, and checks that the functor's induced linear map on
    each morphism space has full rank, so the two spaces are identified
    rather than merely equinumerous.
    """
    ns = sorted(degrees)
    win = DegreeWindow(ns[0], ns[-1])
    f = ctx.A.field
    MX = ctx.hom_module(X)
    MXp = ctx.hom_module(Xp)
    gh = ctx.hom(X, Xp)
    P = ctx.resolve(MX, hom_cutoff(MXp, win, extra_margin))
    sh = SemifreeHom(P, MXp)
    table = {}
    ok = True
    for n in ns:
        lhs = gh.h_dim(n)
        rhs = sh.h_dim(n)
        rank = 0
        if lhs and rhs:
            # the functor's map, built only where both sides have classes
            shq = sh.subquotient(n)
            rows = [shq.reduce(sh.assemble(n, _postcomposed_augmentations(
                        P, MX, MXp, n, gh.component_maps(n, rep))))
                    for rep in gh.subquotient(n).rep_entries]
            rank = Matrix.from_row_entries(f, shq.dim, rows).rank()
        table[n] = [lhs, rhs, rank]
        if not lhs == rhs == rank:
            ok = False
    checks = [CheckRecord("morphism spaces match through the functor", ok,
                          {"h_dims": table})]
    return VerificationReport("fully-faithful", subject, checks,
                              {"degrees": ns, "extra_margin": extra_margin})


def verify_delta(ctx: SiltingContext, window,
                 extra_margin: int = 0) -> VerificationReport:
    """Right multiplication identifies A with derived endomorphisms of U.

    U is made into a right module over the opposite of the truncated dg-end,
    resolved, and the hom complex back into U is computed.  The classes of
    right multiplication by the basis of A must span H^0, all other window
    degrees must vanish, and strict chain lifts of the multiplications must
    exist; a strict lift respects products as soon as it exists.
    """
    win = _window(window)
    A = ctx.A
    f = A.field
    Cop = opposite_dg(ctx.C)
    MU = side_swap(ctx.Uc, Cop)
    Q = ctx.resolve(MU, hom_cutoff(MU, win, extra_margin))
    sh = SemifreeHom(Q, MU)
    sq0 = sh.subquotient(0)

    def mult_values(a):
        return {k: ctx.U.term(g).action[a].apply_entries(Q.gen_augs[k])
                for k, g in enumerate(Q.gens)}

    rows = [sq0.reduce(sh.assemble(0, mult_values(a))) for a in range(A.dim)]
    span_rank = Matrix.from_row_entries(f, sq0.dim, rows).rank() if rows else 0
    h_table = {n: sh.h_dim(n) for n in range(win.lo, win.hi + 1)}
    iso_ok = span_rank == A.dim and h_table.get(0, 0) == A.dim
    vanish_ok = all(d == 0 for n, d in h_table.items() if n != 0)

    # products hold once a strict lift exists: both sides are aug(g_k).x.y
    lift_ok = all(lift_to_resolution(Q, Q, mult_values(a)) is not None
                  for a in range(A.dim))
    checks = [
        CheckRecord("right multiplication spans H^0", iso_ok,
                    {"span_rank": span_rank, "algebra_dim": A.dim,
                     "h0_dim": h_table.get(0, 0)}),
        CheckRecord("derived endomorphisms vanish away from degree 0", vanish_ok,
                    {"h_table": {n: d for n, d in h_table.items() if d}}),
        CheckRecord("strict lifts exist and respect products", lift_ok,
                    {"lifted": lift_ok}),
    ]
    return VerificationReport("derived-double-centralizer", "silting complex", checks,
                              {"window": [win.lo, win.hi], "extra_margin": extra_margin})


@dataclass
class XiClassification:
    """Which single degree, if any, the hom functor concentrates a module in."""

    index: int | None
    dims: dict
    degenerate: bool
    degree_bound: int


def classify_Xi(ctx: SiltingContext, X: Module) -> XiClassification:
    if X in ctx._classifications:
        return ctx._classifications[X]
    n = ctx.report.n
    if n is None:
        raise ValueError("coresolution did not terminate; cannot fix the degree range")
    gh = ctx.hom(ctx.U, ctx.module(X, 0))
    dims = {j: gh.h_dim(j) for j in range(0, n + 1)}
    if X.dim == 0:
        cls = XiClassification(0, dims, True, n)
    else:
        support = [j for j, d in dims.items() if d]
        cls = XiClassification(support[0] if len(support) == 1 else None, dims, False, n)
    ctx._classifications[X] = cls
    return cls


def verify_corollary_roundtrip(ctx: SiltingContext, X: Module, i: int, window,
                               extra_margin: int = 0,
                               subject: str = "module") -> VerificationReport:
    """Modules concentrated by the hom functor come back unchanged.

    For X with Hom(U, X[j]) living only in j = i, the zeroth cohomology of
    Hom(U, X[i]) is a one-degree module over the truncation; tensoring it
    back and shifting by -i must reproduce X, witnessed by an explicit
    evaluation quasi-isomorphism built from a strict lift of the class
    identification.
    """
    win = _window(window)
    cls = classify_Xi(ctx, X)
    checks = [CheckRecord("probe concentrates in the expected degree",
                          cls.index == i, {"classified": cls.index, "expected": i,
                                           "hom_dims": cls.dims})]
    notes = {"window": [win.lo, win.hi], "extra_margin": extra_margin,
             "degenerate": cls.degenerate}
    if i == 0:
        notes["degree_note"] = ("degree 0 sits outside the shifted range of the "
                                "piecewise equivalences; checked all the same")
    if cls.index != i:
        return VerificationReport("concentration-roundtrip", subject, checks, notes)

    Xi_c = ctx.module(X, -i)
    M = ctx.hom_module(Xi_c)
    purity = all(M.h_dim(nn) == 0 for nn in M.degrees() if nn != 0)
    checks.append(CheckRecord("hom module has one-point cohomology", purity,
                              {"h_table": M.h_table()}))
    C = ctx.C
    sq0 = M.subquotient(0)
    h = sq0.dim
    action = {}
    if h and C.dim(0):
        # row x: the class of the x-th representative times each basis element
        one = C.field.one
        action[(0, 0)] = [[sq0.reduce(M.act(0, x, 0, {b: one})) for b in range(C.dim(0))]
                          for x in sq0.rep_entries]
    Y = DgModule(C, "right", {0: h}, action, {})
    # Y is new on every call, so no later check could reuse its tensor and
    # the context does not keep it
    T = derived_tensor(Y, ctx.Uc, win, extra_margin=extra_margin)

    if hasattr(T, "resolution"):
        def solve(k, g, rhs):
            # degree-0 generators go to cocycle lifts of their classes; lower
            # ones solve the chain-map condition inside the hom module itself
            if g == 0:
                return sq0.lift(T.resolution.gen_augs[k])
            return M.diff(g).solve_left_rows(rhs)

        iota = lift_generators(T.resolution, M, solve)
        lift_ok = iota is not None
        checks.append(CheckRecord("class identification lifts to the hom module",
                                  lift_ok, {}))
        if not lift_ok:
            return VerificationReport("concentration-roundtrip", subject, checks, notes)
        eps = _evaluation_chain_map(T, M.gh, iota, Xi_c)
    else:
        eps = ChainMap(T, Xi_c, {}, validate=False)
    table2, ok = _cohomology_table(T, Xi_c, eps, win)
    checks.append(CheckRecord("tensor of the concentrated module returns the probe",
                              ok, {"h_dims": table2, "shift": -i}))
    return VerificationReport("concentration-roundtrip", subject, checks, notes)


# -- naturality and functoriality probes -------------------------------------


def functoriality_probe(ctx: SiltingContext, window,
                        extra_margin: int = 0) -> VerificationReport:
    """Finite sums of summands of U pass the counit check.

    Exercises additivity of the hom-then-tensor pipeline on objects built
    from U itself.  A sum that is U itself (U has two summands) reads U's
    own counit.
    """
    parts = list(getattr(ctx.U, "summands", [])) or [ctx.U]
    sums = []
    if len(parts) == 1:
        sums.append(("double", direct_sum_complexes([parts[0], parts[0]])))
    else:
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                sums.append((f"sum{a}{b}", direct_sum_complexes([parts[a], parts[b]])))
    checks = []
    for name, X in sums:
        rep = ctx.counit(ctx.U if _same_complex(X, ctx.U) else X, window, extra_margin)
        checks.append(CheckRecord(f"counit on {name}", rep.passed,
                                  rep.checks[0].details))
    return VerificationReport("functoriality", "sums from the silting complex", checks)


def naturality_probe(ctx: SiltingContext, X: Complex, Xp: Complex, window,
                     extra_margin: int = 0) -> VerificationReport:
    """The counit square of a chosen map g: X -> X' commutes on cohomology.

    g is the first basis class of degree-0 maps X -> X'; its hom-side lift is
    solved strictly against the resolutions, pushed through the tensor, and
    the two ways around the square are compared as matrices on cohomology.
    """
    win = _window(window)
    gh = ctx.hom(X, Xp)
    sq = gh.subquotient(0)
    if not sq.dim:
        return VerificationReport("naturality", "probe pair", [],
                                  {"vacuous": "no nonzero map to test"})
    grep = sq.rep_entries[0]
    g = gh.chain_map_from_cocycle(grep)

    MX = ctx.hom_module(X)
    MXp = ctx.hom_module(Xp)
    TX = ctx.tensor(MX, win, extra_margin)
    TXp = ctx.tensor(MXp, win, extra_margin)
    if not (hasattr(TX, "resolution") and hasattr(TXp, "resolution")):
        return VerificationReport("naturality", "probe pair", [],
                                  {"vacuous": "degenerate tensor, nothing to compare"})
    P, Pp = TX.resolution, TXp.resolution
    epsX = _evaluation_chain_map(TX, MX.gh, P.gen_augs, X)
    epsXp = _evaluation_chain_map(TXp, MXp.gh, Pp.gen_augs, Xp)

    # strict lift of postcomposition with g to a map of resolutions
    targets = _postcomposed_augmentations(P, MX, MXp, 0,
                                          gh.component_maps(0, grep))
    lam = lift_to_resolution(P, Pp, targets)
    if lam is None:
        return VerificationReport("naturality", "probe pair",
                                  [CheckRecord("strict lift between resolutions exists",
                                               False, {})])
    tlam = _tensor_of_lift(TX, TXp, P, Pp, lam, ctx.Uc)

    ok = True
    for n in range(win.lo, win.hi + 1):
        lhs = epsX.induced(n) @ g.induced(n)
        rhs = tlam.induced(n) @ epsXp.induced(n)
        if lhs != rhs:
            ok = False
    checks = [CheckRecord("counit square commutes on cohomology", ok,
                          {"window": [win.lo, win.hi]})]
    return VerificationReport("naturality", "probe pair", checks)


def _tensor_of_lift(TX: Complex, TXp: Complex, P: SemifreeModule,
                    Pp: SemifreeModule, lam: list, Uc: DgModule) -> ChainMap:
    """The lifted map tensored with the identity of U, block by block.

    On the block of the k-th generator of P, u goes to the sum over the
    generators k2 of Pp of (component of lam[k] at k2) * u, in the block of k2.
    """
    f = Uc.algebra.field
    mats = {}
    for n, blocks in TX.block_layout.items():
        tdim = TX.term(n).dim
        pdim = TXp.term(n).dim
        if tdim == 0:
            continue
        offsets, _ = block_offsets((k2, cell2)
                                   for k2, _, cell2 in TXp.block_layout.get(n, []))
        rows = []
        for (k, j, cell) in blocks:
            g = P.gens[k]
            layout = Pp.layout(g)
            comps = Pp.components(g, ((layout[p], c) for p, c in lam[k].items()))
            rows.extend(block_row(f, offsets, [(k2, f.one, Uc.act(g - Pp.gens[k2], delta, j, u))
                                               for k2, delta in comps.items() if k2 in offsets])
                        for u in cell.rows)
        mats[n] = Matrix.from_row_entries(f, pdim, rows)
    return ChainMap(TX, TXp, mats)


# -- probe sets --------------------------------------------------------------


def probe_modules(A: Algebra) -> dict:
    """Indecomposable projectives and, for path algebras, the vertex simples."""
    out = {}
    for v in range(len(A.idempotents)):
        out[f"proj{v}"] = projective_cache(A, v)
        if A.path_info is not None:
            out[f"simple{v}"] = simple_module(A, v)
    return out


def probe_complexes(A: Algebra, mods: dict, cap: int = 16, names=None) -> dict:
    """Projective-complex witnesses for the module probes mods, as
    probe_modules(A) built them, plus the free module.

    With names given, only the probes named there are built.  A module probe
    whose replacement is a complex already built (the simple at a sink of a
    path algebra is projective) is handed that complex object, so every
    per-complex cache builds each pair once.
    """
    out = {}
    for name, M in sorted(mods.items()):
        if names is not None and name not in names:
            continue
        if name.startswith("proj"):
            out[name] = projective_complex(A, {0: [int(name[4:])]})
        else:
            P = proj_replacement(module_complex(M), cap)[0]
            out[name] = next((Q for Q in out.values() if _same_complex(P, Q)), P)
    if names is None or "free" in names:
        out["free"] = projective_complex(A, {0: list(range(len(A.idempotents)))})
    return out


def _same_complex(P: Complex, Q: Complex) -> bool:
    """Same projective witness, the same term objects and equal differentials."""
    return (P.proj_types == Q.proj_types and P.terms.keys() == Q.terms.keys()
            and all(P.terms[n] is Q.terms[n] for n in P.terms) and P.diffs == Q.diffs)


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
    gh = ctx.hom(U, ctx.module(X, 0))
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
                           delta: VerificationReport, window,
                           extra_margin: int = 0) -> VerificationReport:
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
    notes = {"window": [win.lo, win.hi], "extra_margin": extra_margin}
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
                                      _canonical_sequence(ctx, X), (0, 1)):
                back = part.dim > 0 and verify_corollary_roundtrip(
                    ctx, part, i, win, extra_margin,
                    subject=f"{name} {label}").passed
                details[label] = {"dimension_vector": list(part.dimension_vector()),
                                  "class": classify_Xi(ctx, part).index,
                                  "returns": back}
                ok = ok and back
        checks.append(CheckRecord(f"probe {name} returns", ok, details))
    return VerificationReport("tilting-theorem", "module", checks, notes)


# -- full battery ------------------------------------------------------------


class UnknownProbeError(ValueError):
    """A requested probe name is not in the standard probe set."""


_SCOPE_NOTE = ("checked on the finite probe set; every probe is compact, so "
               "orthogonal-complement side conditions hold vacuously here")


def verify_all(U: Complex, window=(-4, 4), pair_degrees=(-2, 2), max_steps: int = 8,
               extra_margin: int = 0, cap: int = 16,
               ctx: SiltingContext | None = None, probe_names=None) -> list:
    """Run every check on one silting complex with the standard probe set.

    Probes are the vertex simples, the indecomposable projectives, the free
    module and U itself; pass probe_names to restrict to a subset, where an
    unknown name raises UnknownProbeError before any analysis.  The
    orthogonal-complement clause of the general statement is vacuous here,
    since each instance is finite and carried by its probes; every report
    notes its window and margins so reruns with larger margins are directly
    comparable.  A given ctx must be the context of U; its report, built
    with its own max_steps, is the first report's source.  A tilting U with
    cohomology in degree 0 alone ends with the tilting-theorem report.
    """
    win = _window(window)
    pr = _window(pair_degrees)
    ctx = ctx or SiltingContext(U, max_steps)
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
                                {"steps": srep.n, "multiplicities": srep.multiplicities}))
    else:
        notes["coresolution"] = "not attempted: a positive self-extension refutes silting"
    reports = [VerificationReport("silting", "input complex", base, notes)]
    if srep.n is None:
        return _scoped(reports)
    reports.append(verify_weak_nonpositive(ctx))
    reports.append(verify_E_iso(ctx))
    delta = verify_delta(ctx, win, extra_margin)
    reports.append(delta)

    cplx = probe_complexes(ctx.A, mods, cap, probe_names)
    if probe_names is None or "silting" in probe_names:
        cplx["silting"] = ctx.U
    # probe names may share one complex: simple2 is proj2 over kA_n, and a
    # probe equal to U (the free module, given as P0+P1+P2) is U itself.
    # Each complex and each pair of complexes is checked once and reported
    # under every name.
    cplx = {name: ctx.U if _same_complex(X, ctx.U) else X for name, X in cplx.items()}
    names = sorted(cplx)
    for name in names:
        reports.append(ctx.counit(cplx[name], win, extra_margin).filed_as(name))
    degs = list(range(pr.lo, pr.hi + 1))
    pairs = {}
    for n1 in names:
        for n2 in names:
            key = (cplx[n1], cplx[n2])
            if key not in pairs:
                pairs[key] = verify_fully_faithful(ctx, *key, degs, extra_margin)
            reports.append(pairs[key].filed_as(f"{n1}->{n2}"))
    cls_checks = []
    classified = {}
    for name in sorted(mods):
        c = classify_Xi(ctx, mods[name])
        classified[name] = c
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
                                                          extra_margin, subject=name)
            reports.append(roundtrips[name])
    reports.append(functoriality_probe(ctx, win, extra_margin))
    if "free" in cplx:
        reports.append(naturality_probe(ctx, cplx["free"], ctx.U, win, extra_margin))
    if srep.tilting and srep.module_form:
        probes = {name: (mods[name], classified[name], roundtrips.get(name))
                  for name in mods}
        reports.append(verify_tilting_theorem(ctx, probes, delta, win, extra_margin))
    return _scoped(reports)


def _scoped(reports: list) -> list:
    for r in reports:
        r.notes.setdefault("scope", _SCOPE_NOTE)
    return reports
