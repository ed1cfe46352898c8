"""The guarantees this package advertises, each with its runtime budget.

Seven tests: structural invariants on fixtures plus randomized complexes,
the cohomology profile of the two-term silting endomorphism algebra, the
equivalence battery on the standard probe set, goodification, the module
tilting pipeline, stability of every windowed computation under margin and
cap enlargement, and the negative controls.  Expected values come from the
module-level oracles in oracles.py or brute-force enumeration in conftest.py;
time limits are asserted so performance regressions fail loudly.
"""

import pathlib
import random
import time

import pytest

from conftest import random_two_term
from oracles import hom_dim, nonzero_entries, reference_coresolutions
from siltcheck.algebra import simple_module
from siltcheck.cli import main
from siltcheck.complexes import (ChainMap, ResolutionCapError, cone,
                                 hom_complex, is_acyclic, module_complex,
                                 proj_replacement, projective_complex,
                                 summand_projection_maps)
from siltcheck.dg import dg_end, h0_algebra
from siltcheck.silting import (coresolve_A, goodify, presilting_witness,
                               radical_rows, silting_equivalent,
                               silting_report)
from siltcheck.verifier import (SiltingContext, classify_Xi, probe_complexes,
                                probe_modules, verify_all, verify_corollary_roundtrip,
                                verify_counit, verify_delta,
                                verify_fully_faithful)

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"
FIX_DUAL = INSTANCE_DIR / "fix_dual.json"
WINDOW = (-3, 3)
PAIR_DEGREES = list(range(-2, 3))


# -- 1: structural invariants ------------------------------------------------


def _sparse_add(f, u, v):
    """u + v for elements given as their nonzero entries."""
    out = dict(u)
    for k, x in v.items():
        out[k] = f.add(out.get(k, f.zero), x)
    return {k: x for k, x in out.items() if x != f.zero}


def _invariant_suite(X):
    """d^2 = 0, rank-nullity, Euler characteristic, graded Leibniz."""
    f = X.algebra.field
    for n in X.degrees():
        assert (X.diff(n) @ X.diff(n + 1)).is_zero()
        d = X.diff(n)
        assert d.rank() + d.transpose().left_kernel().nrows == d.ncols
        assert d.rank() + d.left_kernel().nrows == d.nrows
    assert (sum((-1) ** (n % 2) * X.term(n).dim for n in X.degrees())
            == sum((-1) ** (n % 2) * X.h_dim(n) for n in X.degrees()))
    if not X.is_projective_complex() or X.is_empty():
        return
    # construction validates associativity, units, d^2 = 0 and Leibniz on
    # every basis pair; re-derive Leibniz here so the property is explicit
    B = dg_end(X)
    items = [(n, i) for n in B.degrees() for i in range(B.dim(n))]
    for m, i in items[:8]:
        a = {i: f.one}
        sign = f.one if m % 2 == 0 else f.neg(f.one)
        for n, j in items[:8]:
            b = {j: f.one}
            lhs = B.apply_diff(m + n, B.product(m, a, n, b))
            x_db = B.product(m, a, n + 1, B.apply_diff(n, b))
            rhs = _sparse_add(f, B.product(m + 1, B.apply_diff(m, a), n, b),
                              {k: f.coerce(sign * x) for k, x in x_db.items()})
            assert lhs == rhs


def _cone_identity(fm: ChainMap):
    """Long-exact bookkeeping: cone cohomology from the two sides and the
    ranks of the induced maps."""
    C = cone(fm)
    X, Y = fm.source, fm.target
    for n in range(C.lo - 1, C.hi + 2):
        rk = fm.induced(n).rank()
        rk1 = fm.induced(n + 1).rank()
        assert C.h_dim(n) == (Y.h_dim(n) - rk) + (X.h_dim(n + 1) - rk1)
    return C


def _random_chain_map(rng, P, Q):
    f = P.algebra.field
    gh = hom_complex(P, Q)
    cocycles = gh.diff(0).left_kernel().rows
    if not cocycles:
        return None
    coords = [f.zero] * gh.dim(0)
    for row in cocycles:
        c = f.coerce(rng.randrange(101))
        coords = [f.coerce(a + c * b) for a, b in zip(coords, row)]
    return ChainMap(P, Q, gh.component_maps(0, nonzero_entries(coords)))


def _random_small_complex(A, rng):
    """Term dimensions at most 4, support width at most 3."""
    roll = rng.randrange(3)
    if roll == 0:
        return projective_complex(A, {rng.choice([-1, 0]): [rng.randrange(2)]})
    if roll == 1:
        return random_two_term(A, rng, max_copies=1)
    P = projective_complex(A, {rng.choice([-1, 0]): [rng.randrange(2)]})
    types = {n: [rng.randrange(2)] for n in (-1, 0)}
    Q = projective_complex(A, types)
    fm = _random_chain_map(rng, P, Q)
    if fm is None:
        return Q
    return _cone_identity(fm)


def test_invariants_on_fixtures_and_randomized_complexes(
        A2, U_K, U_tilt, U_silt2, P1c, P2c, s1res):
    start = time.perf_counter()
    rng = random.Random(20260823)
    for X in (U_K, P1c, P2c, s1res, U_tilt, U_silt2):
        _invariant_suite(X)
    samples = [_random_small_complex(A2, rng) for _ in range(100)]
    assert len(samples) == 100
    for X in samples:
        assert max(X.term(n).dim for n in X.degrees()) <= 4
        assert X.hi - X.lo + 1 <= 3
        _invariant_suite(X)
    # cone identity also on maps between the randomized two-term complexes
    for _ in range(20):
        P = random_two_term(A2, rng, max_copies=1)
        Q = random_two_term(A2, rng, max_copies=1)
        fm = _random_chain_map(rng, P, Q)
        if fm is not None:
            _cone_identity(fm)
    assert time.perf_counter() - start < 30.0


# -- 2: endomorphism dg-algebra of the two-term silting complex --------------


def test_two_term_silting_dg_end_cohomology_profile(U_silt2, indecs, field):
    start = time.perf_counter()
    B = dg_end(U_silt2)
    assert all(B.h_dim(n) == 0 for n in B.degrees() if n > 0)
    assert B.h_dim(-1) == 1
    assert B.h_dim(0) == 2
    # oracle: degree -1 counts backward module maps between the summands,
    # degree 0 the summand endomorphisms
    assert B.h_dim(-1) == hom_dim(indecs["P2"], indecs["P1"])
    assert B.h_dim(0) == (hom_dim(indecs["P1"], indecs["P1"])
                          + hom_dim(indecs["P2"], indecs["P2"]))
    # H^0 is the product of two copies of the ground field: two orthogonal
    # idempotents summing to the unit, trivial radical
    idem = [B.gh.coords_of(0, {n: pm.mat(n) for n in U_silt2.degrees()
                               if not pm.mat(n).is_zero()})
            for pm in summand_projection_maps(U_silt2)]
    assert idem == B.idempotents
    E = h0_algebra(B)
    assert E.dim == 2
    assert len(E.idempotents) == 2
    assert radical_rows(E) == []
    e0, e1 = E.idempotents
    assert E.basis_product(e0, e0) == {e0: field.one}
    assert E.basis_product(e1, e1) == {e1: field.one}
    assert E.basis_product(e0, e1) == {}
    assert E.basis_product(e1, e0) == {}
    assert E.unit == {e0: field.one, e1: field.one}
    assert time.perf_counter() - start < 5.0


# -- 3: counit, delta and hom tables on the standard probes ------------------


def _standard_probes(ctx):
    probes = probe_complexes(ctx.A, probe_modules(ctx.A))
    probes["silting"] = ctx.U
    return probes


@pytest.mark.parametrize("uname", ["U_tilt", "U_silt2"])
def test_equivalence_battery_on_standard_probes(request, uname):
    start = time.perf_counter()
    U = request.getfixturevalue(uname)
    ctx = SiltingContext(U)
    assert verify_delta(ctx, WINDOW).passed
    probes = _standard_probes(ctx)
    assert set(probes) == {"proj0", "proj1", "simple0", "simple1", "free",
                           "silting"}
    for name in sorted(probes):
        assert verify_counit(ctx, probes[name], WINDOW, subject=name).passed
    for n1 in sorted(probes):
        for n2 in sorted(probes):
            rep = verify_fully_faithful(ctx, probes[n1], probes[n2],
                                        PAIR_DEGREES, subject=f"{n1}->{n2}")
            assert rep.passed
    assert time.perf_counter() - start < 60.0


# -- 4: goodification --------------------------------------------------------


@pytest.mark.parametrize("uname", ["U_tilt", "U_silt2"])
def test_goodification_terminates_and_preserves_the_class(request, uname):
    start = time.perf_counter()
    U = request.getfixturevalue(uname)
    B = dg_end(U)
    cor = coresolve_A(U, 8, B.gh)
    assert cor is not None and cor.n <= 1
    V = goodify(U)
    assert V is not None
    assert presilting_witness(V) is None
    assert silting_equivalent(U, V)
    # acyclicity contract, on the reference loop's steps: each step hands its
    # cone to the next and the last cone is exact
    ref = reference_coresolutions(U, 8, B)[8]
    assert ref.multiplicities == cor.multiplicities
    for (_, C), (nxt, _) in zip(ref.steps, ref.steps[1:]):
        assert nxt.source is C
    assert is_acyclic(ref.steps[-1][1])
    for fm, _ in ref.steps:
        _cone_identity(fm)
    assert time.perf_counter() - start < 10.0


# -- 5: module tilting pipeline ----------------------------------------------


def test_module_tilting_pipeline(A2, U_tilt, tilt_summands, indecs):
    start = time.perf_counter()
    # endomorphism dg-algebra concentrated in degree 0, dimension from the
    # module-level hom oracle
    B = dg_end(U_tilt)
    want = sum(hom_dim(S, T) for S in tilt_summands for T in tilt_summands)
    assert {n: B.h_dim(n) for n in B.degrees() if B.h_dim(n)} == {0: want}
    # the base algebra is recovered inside H^0 of the dg-end
    ctx = SiltingContext(U_tilt)
    rep = verify_delta(ctx, WINDOW)
    assert rep.passed
    lift = [c for c in rep.checks if "spans" in c.name][0]
    assert lift.details["span_rank"] == lift.details["algebra_dim"] == A2.dim
    # every indecomposable lands in exactly one hom degree, and comes back
    for name in sorted(indecs):
        X = indecs[name]
        expected = 0 if sum(hom_dim(T, X) for T in tilt_summands) else 1
        c = classify_Xi(ctx, X)
        assert not c.degenerate
        assert c.index == expected
        assert verify_corollary_roundtrip(ctx, X, c.index, WINDOW,
                                          subject=name).passed
    # the battery reads the same results as the classical tilting theorem
    rep = verify_all(U_tilt, window=WINDOW, ctx=ctx)[-1]
    assert rep.kind == "tilting-theorem"
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["base algebra equals the double centralizer"].passed
    for probe in ("proj0", "proj1", "simple0", "simple1"):
        c = by_name[f"probe {probe} returns"]
        assert c.passed
        assert c.details["class"] in (0, 1)
        assert list(c.details["ext_dims"]) == [c.details["class"]]
    assert time.perf_counter() - start < 20.0


# -- 6: margin and cap stability ---------------------------------------------


def _stable_details(rep):
    return [(c.name, c.passed, c.details) for c in rep.checks]


@pytest.mark.parametrize("uname", ["U_tilt", "U_silt2"])
def test_windowed_results_are_stable_under_margin_enlargement(request, uname):
    start = time.perf_counter()
    U = request.getfixturevalue(uname)
    ctx = SiltingContext(U)
    probes = _standard_probes(ctx)
    base_delta = _stable_details(verify_delta(ctx, WINDOW, 0))
    base_counit = {n: _stable_details(verify_counit(ctx, probes[n], WINDOW, 0))
                   for n in sorted(probes)}
    base_ff = {(n1, n2): _stable_details(
                   verify_fully_faithful(ctx, probes[n1], probes[n2],
                                         PAIR_DEGREES, 0))
               for n1 in sorted(probes) for n2 in sorted(probes)}
    for margin in (1, 2, 3):
        assert _stable_details(verify_delta(ctx, WINDOW, margin)) == base_delta
        for n in sorted(probes):
            got = _stable_details(verify_counit(ctx, probes[n], WINDOW, margin))
            assert got == base_counit[n]
        for key, base in base_ff.items():
            n1, n2 = key
            got = _stable_details(verify_fully_faithful(
                ctx, probes[n1], probes[n2], PAIR_DEGREES, margin))
            assert got == base
    assert time.perf_counter() - start < 60.0


def test_tilting_pipeline_is_stable_under_cap_enlargement(indecs, U_tilt):
    start = time.perf_counter()
    ctx = SiltingContext(U_tilt)
    base = _stable_details(verify_all(U_tilt, WINDOW, ctx=ctx, cap=16)[-1])
    for extra in (1, 2, 3):
        for enlarged in ({"cap": 16 + extra}, {"extra_margin": extra}):
            rep = verify_all(U_tilt, WINDOW, ctx=ctx, **enlarged)[-1]
            assert rep.kind == "tilting-theorem"
            assert _stable_details(rep) == base
    # roundtrips keep their tables when the tensor margin grows
    for name in sorted(indecs):
        c = classify_Xi(ctx, indecs[name])
        base_rt = _stable_details(verify_corollary_roundtrip(
            ctx, indecs[name], c.index, WINDOW, 0))
        for margin in (1, 2, 3):
            got = _stable_details(verify_corollary_roundtrip(
                ctx, indecs[name], c.index, WINDOW, margin))
            assert got == base_rt
    assert time.perf_counter() - start < 60.0


# -- 7: negative controls ----------------------------------------------------


def test_wrong_orientation_fails_with_a_concrete_witness(U_bad, indecs):
    w = presilting_witness(U_bad)
    assert w is not None
    i, d = w
    assert i == 1
    assert d == hom_dim(indecs["P2"], indecs["P1"]) == 1
    srep = silting_report(U_bad)
    assert not srep.presilting
    assert srep.presilting_witness == w


def test_infinite_resolution_is_rejected_not_silently_passed(dual_numbers, capsys):
    k = simple_module(dual_numbers, 0)
    # the resolution itself blows the cap
    with pytest.raises(ResolutionCapError):
        proj_replacement(module_complex(k), 16)
    # and the command line reports the cap as inconclusive, never as a verdict
    assert main(["verify", str(FIX_DUAL), "A"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cap 16" in err
