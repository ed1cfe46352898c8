"""Presilting tests, add-U coresolutions of the regular complex, goodification.

A two-sided bounded complex U of projectives is presilting when it admits no
self-extensions in positive shifts.  The coresolution routine approximates the
regular complex A step by step from the left using summands of U, handing the
cone of each approximation to the next step, and records the multiplicities of
the summands each step uses; the number of steps minus one is the coresolution
degree n.
Goodification replaces U by the direct sum of the approximation targets, which
by construction carries enough copies of each summand to coresolve A.

Approximation targets are kept minimal.  Write H for the space of homotopy
classes of chain maps into U and E for the degree-zero cohomology algebra of
the dg-endomorphism algebra of U.  Generators of H over E are chosen greedily
inside the idempotent pieces e_s H, skipping any candidate already covered by
the E-closure of the previous choices modulo rad(E) H: every candidate's
class in H/rad(E)H is stacked with its E-orbit, and the candidates whose
class rows are left pivots of that stack are chosen.  Each chosen generator
contributes one copy of the summand X_s it lands in.  Minimality is what
makes the step count finite: approximating with one copy of U per k-basis
element of H instead adds split summands to every cone and the process never
terminates.  The granularity is the direct-sum decomposition carried by U, so
inputs should be built with direct_sum_complexes from their indecomposable
pieces; a coarser decomposition can overshoot the multiplicities, and the
routine then reports an inconclusive result through its step cap rather than
a wrong one.  The same inconclusive result comes at once, with no cone built,
when the coresolution is stuck: if X is not acyclic and H^i Hom(X, U) = 0 for
every i <= 0, each later approximation is zero and each cone only shifts X,
so any step bound would be reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, quotient_map
from .complexes import (ChainMap, Complex, GradedHom, cone,
                        direct_sum_complexes, hom_complex, is_acyclic,
                        projective_complex, zero_complex)
from .dg import DgAlgebra, dg_end, end_h0


class SmallCharacteristicError(ValueError):
    """The field's characteristic is too small for an exact radical."""


def radical_rows(E) -> list[tuple]:
    """Basis rows of the Jacobson radical of a finite-dimensional algebra.

    Uses the trace form of the left regular representation, which computes the
    radical exactly in characteristic 0 or in characteristic p > dim E; in
    smaller characteristic it raises SmallCharacteristicError.
    """
    f = E.field
    p = getattr(f, "p", None)
    if p is not None and p <= E.dim:
        raise SmallCharacteristicError(
            f"radical computation needs characteristic 0 or larger than the "
            f"algebra dimension {E.dim}, not {p}")
    # tr(L_i L_j) = sum of L_i[r][c] L_j[c][r] over the nonzero entries of L_i
    lm = [E.left_mult_matrix(i).entries for i in range(E.dim)]
    form = {}
    for i, li in enumerate(lm):
        row = f.reduce_entries({j: sum(x * lj[c].get(r, 0) for r, nz in li.items()
                                       for c, x in nz.items() if c in lj)
                                for j, lj in enumerate(lm)})
        if row:
            form[i] = row
    # the trace form is symmetric, so its row kernel is its kernel
    return list(Matrix.from_entries(f, E.dim, E.dim, form).kernel_basis().transpose().rows)


def end_radical(B: DgAlgebra) -> list[tuple]:
    """radical_rows(end_h0(B)) for B = dg_end(U), kept on B beside its H^0
    algebra.  A field too small for the radical raises on every call."""
    if B._radical is None:
        B._radical = radical_rows(end_h0(B))
    return B._radical


def _summands(U: Complex) -> list:
    summands = getattr(U, "summands", None)
    return [U] if summands is None else list(summands)


def _slice_bounds(U: Complex, part: Complex, s: int, n: int):
    offsets = getattr(U, "summand_offsets", None)
    if offsets is None:
        return 0, U.term(n).dim
    return offsets[n][s], part.term(n).dim


def _hom_class_action(X: Complex, U: Complex, B: DgAlgebra, E):
    """Homotopy classes of chain maps X -> U with the postcomposition action of E.

    Returns (gh, sq, mats) where mats[i] sends class coordinates c to the
    coordinates of [class_reps[i] composed after c], acting on row vectors.
    Each class representative is taken once as its generator images; after
    it, an E-class e has the generator image y @ e_i on a summand of X^i
    whose image is y, so no composite matrix is built.
    """
    gh = hom_complex(X, U)
    sq = gh.subquotient(0)
    m = sq.dim
    f = E.field
    degrees = [i for i, *_ in gh.cells.get(0, ())]
    rep_images = [gh.images(0, rep) for rep in sq.rep_entries]
    mats = []
    for ecls in E.class_reps:
        ec = B.gh.component_maps(0, ecls)
        rows = [sq.reduce(gh.coordinates(0, [ec[i].apply_entries(y) if y and i in ec else {}
                                             for i, y in zip(degrees, images)]))
                for images in rep_images]
        mats.append(Matrix.from_row_entries(f, m, rows))
    return gh, sq, mats


def _minimal_approximation(X: Complex, U: Complex, B: DgAlgebra, E, rad,
                           summands):
    """Minimal left approximation X -> (sum of copies of summands of U).

    Returns (chain map, multiplicities); the multiplicities list the summands
    in the order the chain map's target holds them.  None when X, not acyclic,
    is stuck: H^i Hom(X, U) = 0 for every i <= 0, so the approximations of X
    and of all its shifts X[k] are zero.
    """
    f = E.field
    A = X.algebra
    gh, sq, emats = _hom_class_action(X, U, B, E)
    m = sq.dim
    if m == 0:
        if all(gh.h_dim(i) == 0 for i in range(gh.lo, 0)):
            return None
        return ChainMap(X, zero_complex(A), {}, validate=False), {}

    rel = []
    for rv in rad:
        L = Matrix.combination(f, m, m, ((c, emats[i]) for i, c in enumerate(rv) if c != f.zero))
        rel.extend(L.entries.values())
    _, proj = quotient_map(f, m, rel)

    # Candidates in summand-major order: row t of emats[e_s], stacked as its
    # class in H/rad(E)H followed by its E-orbit, and chosen when its class
    # row is a left pivot.  The orbits of earlier candidates span an
    # E-submodule, so a candidate skipped for its class lying in that span
    # has its orbit there too: the pivots choose what a greedy loop over the
    # chosen orbits alone would, and no summand is approximated twice.
    rows, cands = [], []
    for epos, s in zip(E.idempotents, E.kept_idempotents):
        blocks = [emats[epos] @ proj] + [emats[epos] @ e @ proj for e in emats]
        for t in range(m):
            cands.append((len(rows), s, emats[epos].entries.get(t, {})))
            rows.extend(b.entries.get(t, {}) for b in blocks)
    pivots = set(Matrix.from_entries(f, len(rows), proj.ncols,
                                     {i: r for i, r in enumerate(rows) if r}).left_pivots())

    parts, mult, gen_mats = [], {}, []
    for pos, s, w in cands:
        if pos not in pivots:
            continue
        comps = gh.component_maps(0, sq.lift(w))
        part = summands[s]
        mats = {}
        for n, cm in comps.items():
            off, wdt = _slice_bounds(U, part, s, n)
            if wdt == 0:
                continue
            block = {}
            for i, nz in cm.entries.items():
                r = {j - off: x for j, x in nz.items() if off <= j < off + wdt}
                if r:
                    block[i] = r
            mats[n] = Matrix.from_entries(f, cm.nrows, wdt, block)
        parts.append(part)
        gen_mats.append(mats)
        mult[s] = mult.get(s, 0) + 1

    target = direct_sum_complexes(parts)
    fmats = {}
    for n in X.degrees():
        xdim = X.term(n).dim
        if xdim == 0 or target.term(n).dim == 0:
            continue
        blocks = []
        for part, mats in zip(parts, gen_mats):
            pd = part.term(n).dim
            blocks.append(mats.get(n, Matrix.zero(f, xdim, pd)))
        acc = blocks[0]
        for b in blocks[1:]:
            acc = acc.hstack(b)
        fmats[n] = acc
    return ChainMap(X, target, fmats), mult


@dataclass
class Coresolution:
    """A coresolution A = A_0 -> U_0 -> A_1 -> ... -> U_n of the regular
    complex, where A_{k+1} is the cone of A_k -> U_k and the last cone is
    acyclic.  multiplicities[k] lists the copies of each summand of U in U_k,
    in the order U_k holds them."""
    multiplicities: list
    n: int


def coresolve_A(U: Complex, max_steps: int, B: DgAlgebra) -> Coresolution | None:
    """Coresolve the regular complex by summands of U; None if the step cap
    hits or the coresolution is stuck.

    A None return is inconclusive, not a refutation: the cap may simply be too
    small, or the decomposition of U too coarse for minimal multiplicities.
    A stuck coresolution (see _minimal_approximation) returns None before the
    cap, since every step bound would be reached.  B is dg_end(U), already
    built.
    """
    if not U.is_projective_complex():
        raise ValueError("coresolution needs a complex of projectives")
    if U.is_empty():
        return None
    A = U.algebra
    summands = _summands(U)
    E = end_h0(B)
    rad = end_radical(B)

    X = projective_complex(A, {0: list(range(len(A.idempotents)))})
    mults = []
    while not is_acyclic(X):
        if len(mults) >= max_steps:
            return None
        approx = _minimal_approximation(X, U, B, E, rad, summands)
        if approx is None:
            return None
        fmap, mult = approx
        mults.append(mult)
        X = cone(fmap)
    return Coresolution(mults, len(mults) - 1)


# -- presilting tests ------------------------------------------------------


def _self_extension(gh: GradedHom, lo: int, hi: int) -> tuple | None:
    """The first (shift, dim) with lo <= shift <= hi, shift nonzero and
    H^shift of gh = Hom(U, U) nonzero, or None when there is none."""
    for i in range(lo, hi + 1):
        if i == 0:
            continue
        d = gh.h_dim(i)
        if d:
            return (i, d)
    return None


def presilting_witness(U: Complex):
    """None when U has no positive self-extensions, else the offending (shift, dim)."""
    if not U.is_projective_complex():
        raise ValueError("presilting test needs a complex of projectives")
    if U.is_empty():
        return None
    return _self_extension(hom_complex(U, U), 1, U.hi - U.lo)


def silting_equivalent(U: Complex, V: Complex, max_steps: int = 8,
                       reports: tuple | None = None) -> bool:
    """Mutual vanishing of positive-shift homs between two presilting complexes.

    Both inputs must be presilting with terminating coresolutions; anything
    else raises.  reports, when given, are the silting reports of U and V,
    already built.  The verdict rests on the mutual-vanishing order
    comparison, which is the criterion this package commits to for
    equivalence classes.
    """
    for rep in reports or (silting_report(U, max_steps), silting_report(V, max_steps)):
        w = rep.presilting_witness
        if w is not None:
            raise ValueError(
                f"precondition failed: input is not presilting (shift {w[0]}, dim {w[1]})")
        if rep.n is None:
            raise ValueError("precondition failed: coresolution did not terminate")
    hi = max(U.hi - V.lo, V.hi - U.lo)
    uv, vu = hom_complex(U, V), hom_complex(V, U)
    return not any(uv.h_dim(i) or vu.h_dim(i) for i in range(1, hi + 1))


def goodify(U: Complex, max_steps: int = 8,
            report: SiltingReport | None = None) -> Complex | None:
    """Direct sum of the coresolution targets, flattened to summands of U.

    Each target is read off its step's multiplicities in the silting report,
    which list the summands in the order the target holds them.  report,
    when given, is U's silting report, already built.  None when the
    coresolution is undecided at the step cap.
    """
    report = report or silting_report(U, max_steps)
    if report.n is None:
        return None
    summands = _summands(U)
    return direct_sum_complexes([summands[s] for mult in report.multiplicities
                                 for s, k in mult.items() for _ in range(k)])


# -- report -----------------------------------------------------------------


@dataclass
class SiltingReport:
    presilting: bool
    presilting_witness: tuple | None
    n: int | None
    multiplicities: list | None
    good: bool
    tilting: bool
    module_form: bool
    inconclusive: bool
    equivalence_criterion: str


def silting_report(U: Complex, max_steps: int = 8,
                   B: DgAlgebra | None = None) -> SiltingReport:
    """One-stop summary; n and the multiplicities appear iff the coresolution
    does.  The self-extension scans and the coresolution share the one
    dg-end B of U, built here unless given.  Once a positive self-extension
    has decided the verdict, a field too small for the coresolution's radical
    leaves n unset instead of failing the report."""
    if not U.is_projective_complex():
        raise ValueError("presilting test needs a complex of projectives")
    if U.is_empty():
        mf, pw, two_sided, cor = True, None, None, None
    else:
        B = dg_end(U) if B is None else B
        pw = _self_extension(B.gh, 1, U.hi - U.lo)
        two_sided = _self_extension(B.gh, U.lo - U.hi, U.hi - U.lo)
        mf = all(U.h_dim(n) == 0 for n in U.degrees() if n != 0)
        try:
            cor = coresolve_A(U, max_steps, B)
        except SmallCharacteristicError:
            if pw is None:
                raise
            cor = None
    return SiltingReport(
        presilting=pw is None,
        presilting_witness=pw,
        n=cor.n if cor is not None else None,
        multiplicities=[dict(m) for m in cor.multiplicities] if cor is not None else None,
        good=pw is None and cor is not None,
        tilting=two_sided is None and cor is not None,
        module_form=mf,
        inconclusive=cor is None,
        equivalence_criterion="mutual-presilting",
    )
