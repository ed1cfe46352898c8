"""Presilting tests, add-U coresolutions of the regular complex, goodification.

A two-sided bounded complex U of projectives is presilting when it admits no
self-extensions in positive shifts.  Both self-extension scans read the
cohomology of one hom complex Hom(U, U), with d^2 = 0 checked on it first,
so a refuted U is decided from it alone.  For a presilting U only, as its
theory presumes, the coresolution routine approximates the regular complex A
step by step from the left using summands of U, handing the cone of each
approximation to the next step, and records the multiplicities of the
summands each step uses; the number of steps minus one is the coresolution
degree n.  Minimal approximations live in the homotopy category, so they
read H^0 End(U) straight off that same Hom(U, U) (dg.end_h0); the dg-end
of U is the verifier's, never built here.
Goodification replaces U by the direct sum of the approximation targets, which
by construction carries enough copies of each summand to coresolve A.

Approximation targets are kept minimal.  Write H for the space of homotopy
classes of chain maps into U and E = H^0 Hom(U, U) for the algebra of
homotopy classes of chain maps U -> U.  Generators of H over E are chosen
greedily inside the idempotent pieces e_s H, skipping any candidate already
covered by the E-closure of the previous choices modulo rad(E) H: each
candidate's class in H/rad(E)H is stacked with its E-orbit, and
linalg.first_independent, the rule the semifree resolutions choose their
cells by, picks the candidates.  Each chosen generator contributes one copy
of the summand U_s it lands in, and each degree of the approximation is one
block row of the chosen generators' component maps into their summands.
The choices read only spans, never E's basis.  Minimality is what makes the
step count finite: approximating with one copy of U per k-basis element of
H instead adds split summands to every cone and the process never
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

from .linalg import Matrix, first_independent, quotient_map
from .complexes import (ChainMap, Complex, GradedHom, cone, direct_sum_complexes,
                        hom_complex, is_acyclic, projective_complex, zero_complex)
from .dg import end_h0


class SmallCharacteristicError(ValueError):
    """The field's characteristic is too small for an exact radical."""


def radical_rows(E) -> list[dict]:
    """Basis rows of the Jacobson radical of a finite-dimensional algebra,
    each an element as its nonzero entries.

    Uses the trace form of the left regular representation, which computes the
    radical exactly in characteristic 0 or in characteristic p > dim E; in
    smaller characteristic it raises SmallCharacteristicError.
    """
    f = E.field
    p = f.characteristic
    if p and p <= E.dim:
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
    # the radical is the kernel of the trace form, which is symmetric
    K = Matrix.from_entries(f, E.dim, E.dim, form).left_kernel()
    return [K.entries[t] for t in range(K.nrows)]


def end_radical(gh: GradedHom) -> list[dict]:
    """radical_rows(end_h0(gh)) for gh = Hom(U, U), kept on gh beside its
    H^0 algebra.  A field too small for the radical raises on every call."""
    return gh.kept("radical", lambda: radical_rows(end_h0(gh)))


def _hom_class_action(X: Complex, U: Complex, end: GradedHom, E):
    """Homotopy classes of chain maps X -> U with the postcomposition action
    of E = end_h0(end), end = Hom(U, U).

    Returns (gh, sq, mats) where mats[i] sends class coordinates c to the
    coordinates of [rep i of E.sq composed after c], acting on row vectors.
    Each class representative's values are cut once, and E's class values,
    read once per end and kept there, applied to them (GradedHom.after).
    """
    gh = hom_complex(X, U)
    sq = gh.subquotient(0)
    cuts = [end.cuts(gh, 0, rep) for rep in sq.rep_entries]
    mats = []
    for values in end.kept("h0 values", lambda: [end.values(0, e) for e in E.sq.rep_entries]):
        rows = [sq.reduce(gh.assemble(0, end.after(0, values, c))) for c in cuts]
        mats.append(Matrix.from_row_entries(E.field, sq.dim, rows))
    return gh, sq, mats


def _minimal_approximation(X: Complex, U: Complex, end: GradedHom, E, rad,
                           summands):
    """Minimal left approximation X -> (sum of copies of summands of U).

    Returns (chain map, multiplicities); the multiplicities list the summands
    in the order the chain map's target holds them.  None when X, not acyclic,
    is stuck: H^i Hom(X, U) = 0 for every i <= 0, so the approximations of X
    and of all its shifts X[k] are zero.
    """
    f = E.field
    A = X.algebra
    gh, sq, emats = _hom_class_action(X, U, end, E)
    m = sq.dim
    if m == 0:
        if all(gh.h_dim(i) == 0 for i in range(gh.lo, 0)):
            return None
        return ChainMap(X, zero_complex(A), {}, validate=False), {}

    rel = []
    for rv in rad:
        L = Matrix.combination(f, m, m, ((c, emats[i]) for i, c in rv.items()))
        rel.extend(L.entries.values())
    _, proj = quotient_map(f, m, rel)

    # Candidates in summand order: row t of emats[e_s], stacked as its class
    # in H/rad(E)H followed by its E-orbit.  The orbits of earlier
    # candidates span an E-submodule, so no summand is approximated twice,
    # and a zero row, whose stack is zero, is never a candidate.
    cands, stacks = [], []
    for epos, s in zip(E.idempotents, E.kept_idempotents):
        blocks = [emats[epos] @ proj] + [emats[epos] @ e @ proj for e in emats]
        for t, row in sorted(emats[epos].entries.items()):
            cands.append((s, row))
            stacks.append([b.entries.get(t, {}) for b in blocks])
    chosen = [cands[pos] for pos in first_independent(f, proj.ncols, stacks)]

    # each chosen class's generator values into its summand, side by side
    parts, fvals, at = [], {}, {}
    for s, w in chosen:
        parts.append(summands[s])
        for n, vals in gh.value_rows(sq.lift(w), s).items():
            fvals.setdefault(n, {}).update(((p, at.get(n, 0) + q), a)
                                           for (p, q), a in vals.items())
        for n, vs in summands[s].proj_types.items():
            at[n] = at.get(n, 0) + len(vs)
    mult = {}
    for s, _ in chosen:
        mult[s] = mult.get(s, 0) + 1
    return ChainMap(X, direct_sum_complexes(parts), fvals), mult


@dataclass
class Coresolution:
    """A coresolution A = A_0 -> U_0 -> A_1 -> ... -> U_n of the regular
    complex, where A_{k+1} is the cone of A_k -> U_k and the last cone is
    acyclic.  multiplicities[k] lists the copies of each summand of U in U_k,
    in the order U_k holds them."""
    multiplicities: list
    n: int


def coresolve_A(U: Complex, max_steps: int, gh: GradedHom) -> Coresolution | None:
    """Coresolve the regular complex by summands of U; None if U is not
    presilting, the step cap hits or the coresolution is stuck.

    gh is hom_complex(U, U), already built.  A positive self-extension, read
    off its cohomology, returns None before any approximation or cone.  A
    presilting U is approximated through H^0 End(U) and its radical, read
    off gh and kept on it (end_h0, end_radical); no dg-end is built.
    Otherwise None is inconclusive, not a refutation: the cap
    may simply be too small, or the decomposition of U too coarse for
    minimal multiplicities.  A stuck coresolution (see
    _minimal_approximation) returns None before the cap, since every step
    bound would be reached; so does a contractible U, H^0 Hom(U, U) = 0,
    before H^0 End(U) is read, as it has no unit class.
    """
    if not U.is_projective_complex():
        raise ValueError("coresolution needs a complex of projectives")
    if gh.X is not U or gh.Y is not U:
        raise ValueError("coresolution needs the hom complex of U with itself")
    if U.is_empty() or _self_extension(gh, 1, U.hi - U.lo) is not None:
        return None
    if gh.h_dim(0) == 0:
        # U is contractible, so Hom(A, U) is acyclic: the first step is stuck
        return None
    A = U.algebra
    summands = U.summands or [U]
    E = end_h0(gh)
    rad = end_radical(gh)

    X = projective_complex(A, {0: list(range(len(A.idempotents)))})
    mults = []
    while not is_acyclic(X):
        if len(mults) >= max_steps:
            return None
        approx = _minimal_approximation(X, U, gh, E, rad, summands)
        if approx is None:
            return None
        fmap, mult = approx
        mults.append(mult)
        X = cone(fmap)
    return Coresolution(mults, len(mults) - 1)


# -- presilting tests ------------------------------------------------------


def _checked_self_hom(U: Complex, gh: GradedHom | None = None) -> GradedHom:
    """gh = hom_complex(U, U), built here unless given, with d^2 = 0 checked
    in every degree: no self-extension is read off a differential that does
    not square to zero, whether or not a dg-end is built on it later."""
    gh = hom_complex(U, U) if gh is None else gh
    gh.check_square_zero("hom complex differential does not square to zero at degree {}")
    return gh


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
    return _self_extension(_checked_self_hom(U), 1, U.hi - U.lo)


def silting_equivalent(U: Complex, V: Complex, reports: tuple | None = None) -> bool:
    """Mutual vanishing of positive-shift homs between two presilting complexes.

    Both inputs must be presilting with terminating coresolutions; anything
    else raises.  reports, when given, are the silting reports of U and V,
    already built; else each is silting_report at its default.  The verdict
    rests on the mutual-vanishing order comparison, which is the criterion
    this package commits to for equivalence classes.
    """
    for rep in reports or (silting_report(U), silting_report(V)):
        w = rep.presilting_witness
        if w is not None:
            raise ValueError(
                f"precondition failed: input is not presilting (shift {w[0]}, dim {w[1]})")
        if rep.n is None:
            raise ValueError("precondition failed: coresolution did not terminate")
    hi = max(U.hi - V.lo, V.hi - U.lo)
    uv, vu = hom_complex(U, V), hom_complex(V, U)
    return not any(uv.h_dim(i) or vu.h_dim(i) for i in range(1, hi + 1))


def goodify(U: Complex, report: SiltingReport | None = None) -> Complex | None:
    """Direct sum of the coresolution targets, flattened to summands of U.

    Each target is read off its step's multiplicities in the silting report,
    which list the summands in the order the target holds them.  report,
    when given, is U's silting report, already built; else it is
    silting_report at its default.  None when the coresolution is undecided
    at the step cap.
    """
    report = report or silting_report(U)
    if report.n is None:
        return None
    summands = U.summands or [U]
    return direct_sum_complexes([summands[s] for mult in report.multiplicities
                                 for s, k in mult.items() for _ in range(k)])


# -- report -----------------------------------------------------------------


@dataclass
class SiltingReport:
    """n and multiplicities are None, and inconclusive True, when there is no
    coresolution: the cap hit, it is stuck, or a presilting_witness refutes
    the input, which is then not coresolved and is decided by the witness."""
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
                   gh: GradedHom | None = None) -> SiltingReport:
    """One-stop summary; n and the multiplicities appear iff the coresolution
    does.  The self-extension scans and the coresolution share the one
    hom complex gh = Hom(U, U), built here unless given, with d^2 = 0
    checked on it first.  A refuted U is decided from gh alone, and a
    presilting U is coresolved through H^0 of gh: no dg-end is built.  The
    two-sided scan that tilting reads runs only on a coresolved U."""
    if not U.is_projective_complex():
        raise ValueError("presilting test needs a complex of projectives")
    if U.is_empty():
        mf, pw, two_sided, cor = True, None, None, None
    else:
        gh = _checked_self_hom(U, gh)
        pw = _self_extension(gh, 1, U.hi - U.lo)
        mf = all(U.h_dim(n) == 0 for n in U.degrees() if n != 0)
        cor = coresolve_A(U, max_steps, gh)
        two_sided = _self_extension(gh, U.lo - U.hi, U.hi - U.lo) if cor is not None else None
    return SiltingReport(
        presilting=pw is None,
        presilting_witness=pw,
        n=cor.n if cor is not None else None,
        multiplicities=[dict(m) for m in cor.multiplicities] if cor is not None else None,
        good=cor is not None,
        tilting=two_sided is None and cor is not None,
        module_form=mf,
        inconclusive=cor is None,
        equivalence_criterion="mutual-presilting",
    )
