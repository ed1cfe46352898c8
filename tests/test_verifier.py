"""End-to-end checks of the derived-equivalence verifier.

Expected dimensions are recomputed from the module oracles (hom_space plus
the hereditary Euler pairing), so the verifier is measured against numbers it
did not itself produce.
"""

import dataclasses
import json
import re
import sys

import pytest

from oracles import endomorphism_algebra, ext1_dim, hom_dim, reference_coords_of
from siltcheck import verifier
from siltcheck.algebra import (Quiver, direct_sum_modules, path_algebra,
                               simple_module)
from siltcheck.complexes import (ChainMap, GradedHom, ResolutionCapError,
                                 direct_sum_complexes, hom_complex,
                                 module_complex, proj_replacement,
                                 projective_complex, zero_complex)
from siltcheck.dg import DgModule
from siltcheck.fields import PrimeField
from siltcheck.semifree import DegreeWindow, semifree_resolve
from siltcheck.silting import radical_rows
from siltcheck.verifier import (SemifreeHom, SiltingContext, classify_Xi,
                                functoriality_probe, naturality_probe,
                                probe_complexes, probe_modules, verify_E_iso,
                                verify_all, verify_corollary_roundtrip,
                                verify_counit, verify_delta,
                                verify_fully_faithful, verify_tilting_theorem,
                                verify_weak_nonpositive)

WIN = (-3, 3)


@pytest.fixture(scope="module")
def ctx_tilt(U_tilt):
    return SiltingContext(U_tilt)


@pytest.fixture(scope="module")
def ctx_silt2(U_silt2):
    return SiltingContext(U_silt2)


def test_dg_end_cohomology_matches_endomorphisms_of_the_module(ctx_tilt, tilt_summands):
    rep = verify_weak_nonpositive(ctx_tilt)
    assert rep.passed
    end_dim = sum(hom_dim(S, S2) for S in tilt_summands for S2 in tilt_summands)
    assert rep.checks[1].details["h_table"] == {0: end_dim}
    assert end_dim == 3


def test_dg_end_cohomology_matches_backward_maps_for_the_shifted_pair(ctx_silt2, indecs):
    rep = verify_weak_nonpositive(ctx_silt2)
    assert rep.passed
    # degree -1 classes are module maps from the degree-0 term to the shifted one
    assert rep.checks[1].details["h_table"] == {
        -1: hom_dim(indecs["P2"], indecs["P1"]),
        0: hom_dim(indecs["P1"], indecs["P1"]) + hom_dim(indecs["P2"], indecs["P2"]),
    }


def test_h0_products_agree_with_chain_map_composition(ctx_tilt, A2, tilt_summands):
    rep = verify_E_iso(ctx_tilt)
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert ctx_tilt.B.h_dim(0) == 3
    ED = endomorphism_algebra(A2, tilt_summands)
    assert names["H^0 algebra matches endomorphisms of the zeroth cohomology"].details == {
        "h0_end_dim": ED.dim, "radical_dim": len(radical_rows(ED))}
    assert rep.notes["idempotents"] == 2


def _swap_end_factors(ctx: SiltingContext) -> SiltingContext:
    """ctx with the degree-(0, 0) products of its dg-end in the wrong order."""
    ctx.B.mult[(0, 0)] = [list(col) for col in zip(*ctx.B.mult[(0, 0)])]
    return ctx


def test_h0_products_are_checked_on_two_independent_routes(U_tilt, monkeypatch):
    # E is read off Hom(U, U); route one compares it with the dg-end's own
    # products, route two with composed chain maps, so breaking either fails
    def products_agree(ctx):
        (check,) = [c for c in verify_E_iso(ctx).checks
                    if c.name == "products agree with chain-map composition"]
        return check.passed

    assert products_agree(SiltingContext(U_tilt))
    assert not products_agree(_swap_end_factors(SiltingContext(U_tilt)))
    compose = ChainMap.compose
    monkeypatch.setattr(ChainMap, "compose", lambda self, other: compose(other, self))
    assert not products_agree(SiltingContext(U_tilt))


def test_h0_of_the_shifted_pair_splits_into_two_idempotent_blocks(ctx_silt2):
    rep = verify_E_iso(ctx_silt2)
    assert rep.passed
    assert ctx_silt2.B.h_dim(0) == 2
    assert rep.notes["idempotents"] == 2


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_counit_is_a_quasi_iso_on_every_probe(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(A2, probe_modules(A2))
    probes["silting"] = U
    for name in sorted(probes):
        X = probes[name]
        rep = verify_counit(ctx, X, WIN, subject=name)
        assert rep.passed, (name, rep.checks[0].details)
        table = rep.checks[0].details["h_dims"]
        for n in range(WIN[0], WIN[1] + 1):
            # middle column is the probe's own cohomology, computed without
            # any resolution machinery
            assert table[n][1] == X.h_dim(n)


def test_counit_table_for_the_shifted_pair_against_itself(U_silt2, ctx_silt2):
    rep = verify_counit(ctx_silt2, U_silt2, WIN, subject="self")
    assert rep.passed
    table = rep.checks[0].details["h_dims"]
    assert table[-1] == [2, 2, 2]
    assert table[0] == [1, 1, 1]
    assert all(table[n] == [0, 0, 0] for n in table if n not in (-1, 0))


def test_counit_accepts_the_zero_probe(ctx_tilt, A2):
    rep = verify_counit(ctx_tilt, zero_complex(A2), WIN, subject="zero")
    assert rep.passed


def test_the_simple_at_the_sink_is_the_projective_probe(field):
    # over kA_3 (0 -> 1 -> 2) the simple at the sink is e_2 A: its replacement
    # is the very complex of proj2, so per-complex caches see one object
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]), field)
    probes = probe_complexes(A3, probe_modules(A3))
    assert probes["simple2"] is probes["proj2"]
    assert probes["simple0"] is not probes["proj0"]
    assert probes["simple1"] is not probes["proj1"]
    assert list(probes) == ["proj0", "proj1", "proj2", "simple0", "simple1", "simple2", "free"]


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_morphism_spaces_agree_over_both_algebras(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(A2, probe_modules(A2))
    probes["silting"] = U
    names = sorted(probes)
    for n1 in names:
        for n2 in names:
            rep = verify_fully_faithful(ctx, probes[n1], probes[n2],
                                        range(-2, 3), subject=f"{n1}->{n2}")
            assert rep.passed, (n1, n2, rep.checks[0].details)


def test_morphism_space_tables_carry_the_expected_dimensions(ctx_tilt, A2, indecs):
    probes = probe_complexes(A2, probe_modules(A2))
    rep = verify_fully_faithful(ctx_tilt, probes["free"], probes["free"],
                                range(-2, 3))
    table = rep.checks[0].details["h_dims"]
    assert table[0] == [A2.dim, A2.dim, A2.dim]
    assert all(table[n] == [0, 0, 0] for n in table if n != 0)

    S2 = simple_module(A2, 1)
    rep = verify_fully_faithful(ctx_tilt, probes["simple0"], probes["simple1"],
                                range(-2, 3))
    table = rep.checks[0].details["h_dims"]
    e = ext1_dim(indecs["S1"], S2)
    assert e == 1
    assert table[1] == [e, e, e]
    assert table[0] == [hom_dim(indecs["S1"], S2)] * 3


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_right_multiplication_presents_the_base_algebra(which, request, A2):
    ctx = request.getfixturevalue(f"ctx_{which}")
    rep = verify_delta(ctx, WIN)
    assert rep.passed
    assert rep.checks[0].details == {"span_rank": A2.dim, "algebra_dim": A2.dim,
                                     "h0_dim": A2.dim}
    assert rep.checks[1].details["h_table"] == {0: A2.dim}
    assert rep.checks[2].details == {"lifted": True}


def test_classification_by_module_hom_and_ext(ctx_tilt, A2, indecs, tilt_summands):
    S2 = simple_module(A2, 1)
    targets = {"proj0": indecs["P1"], "proj1": indecs["P2"],
               "simple0": indecs["S1"], "simple1": S2}
    mods = probe_modules(A2)
    seen = set()
    for name, X in sorted(mods.items()):
        hom = sum(hom_dim(S, X) for S in tilt_summands)
        ext = sum(ext1_dim(S, X) for S in tilt_summands)
        c = classify_Xi(ctx_tilt, X)
        assert c.dims == {0: hom, 1: ext}, name
        expected = 0 if ext == 0 else (1 if hom == 0 else None)
        assert c.index == expected, name
        assert targets[name].dimension_vector() == X.dimension_vector()
        seen.add(c.index)
    assert seen == {0, 1}


def test_classification_by_vertex_weights_for_the_shifted_pair(ctx_silt2, A2):
    # the two-term complex of shifted projectives sees exactly the vertex weights
    mods = probe_modules(A2)
    for name, X in sorted(mods.items()):
        v1, v2 = X.dimension_vector()
        c = classify_Xi(ctx_silt2, X)
        assert c.dims == {0: v2, 1: v1}, name
        expected = 0 if v1 == 0 else (1 if v2 == 0 else None)
        assert c.index == expected, name


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_concentrated_modules_survive_the_roundtrip(which, request, A2):
    ctx = request.getfixturevalue(f"ctx_{which}")
    mods = probe_modules(A2)
    hit = 0
    for name in sorted(mods):
        X = mods[name]
        c = classify_Xi(ctx, X)
        if c.index is None:
            continue
        hit += 1
        rep = verify_corollary_roundtrip(ctx, X, c.index, WIN, subject=name)
        assert rep.passed, (name, [(ch.name, ch.details) for ch in rep.checks])
        table = rep.checks[-1].details["h_dims"]
        assert table[-c.index] == [X.dim] * 3
        assert all(table[n] == [0, 0, 0] for n in table if n != -c.index)
    assert hit >= 3


def test_roundtrip_rejects_a_wrong_concentration_degree(ctx_tilt, indecs):
    rep = verify_corollary_roundtrip(ctx_tilt, indecs["P1"], 1, WIN)
    assert not rep.passed
    assert rep.checks[0].details["classified"] == 0


def test_tilting_theorem_certifies_module_and_probes(U_tilt, ctx_tilt, A2, tilt_summands,
                                                    indecs):
    rep = verify_all(U_tilt, window=WIN, ctx=ctx_tilt)[-1]
    assert rep.kind == "tilting-theorem"
    assert rep.passed
    checks = {c.name: c for c in rep.checks}
    assert checks["base algebra equals the double centralizer"].details == {
        "span_rank": A2.dim, "algebra_dim": A2.dim, "h0_dim": A2.dim}
    end_dim = sum(hom_dim(S, T) for S in tilt_summands for T in tilt_summands)
    assert ctx_tilt.B.h_table() == {0: end_dim}

    S2 = simple_module(A2, 1)
    targets = {"proj0": indecs["P1"], "proj1": indecs["P2"],
               "simple0": indecs["S1"], "simple1": S2}
    for name, X in targets.items():
        hom = sum(hom_dim(S, X) for S in tilt_summands)
        ext = sum(ext1_dim(S, X) for S in tilt_summands)
        det = checks[f"probe {name} returns"].details
        expected_class = 0 if ext == 0 else 1
        assert det["class"] == expected_class, name
        assert det["ext_dims"] == {expected_class: hom or ext}


def test_tilting_theorem_flags_a_genuine_failure(A2, indecs, P2c, s1res,
                                                 ctx_silt2):
    # P2 + S1 is not even presilting: the battery stops at the silting gate
    assert ext1_dim(indecs["S1"], indecs["P2"]) == 1
    reps = verify_all(direct_sum_complexes([P2c, s1res]), window=WIN)
    assert [r.kind for r in reps] == ["silting"]
    assert not reps[0].passed
    assert reps[0].checks[0].details["witness"] == [1, 1]
    # a silting complex that is not tilting is refused by the theorem's
    # precondition, which verify_all checks before it asks for the theorem
    assert not (ctx_silt2.report.tilting or ctx_silt2.report.module_form)
    delta = verify_delta(ctx_silt2, WIN)
    with pytest.raises(ValueError, match="tilting complex"):
        verify_tilting_theorem(ctx_silt2, {}, delta, WIN)
    assert "tilting-theorem" not in {r.kind for r in verify_all(ctx_silt2.U, window=WIN,
                                                               ctx=ctx_silt2)}


def test_unresolvable_module_is_inconclusive_never_silent(dual_numbers):
    S = simple_module(dual_numbers, 0)
    with pytest.raises(ResolutionCapError, match="cap 8"):
        proj_replacement(module_complex(S), 8)
    # the battery meets the same cap on its simple probe and stops there
    with pytest.raises(ResolutionCapError):
        verify_all(projective_complex(dual_numbers, {0: [0]}), window=WIN, cap=8)


def test_wrong_orientation_fails_with_a_concrete_witness(U_bad, indecs):
    reps = verify_all(U_bad, window=WIN)
    assert len(reps) == 1
    assert not reps[0].passed
    assert reps[0].checks[0].details["witness"] == [1, hom_dim(indecs["P2"], indecs["P1"])]


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_additivity_and_naturality_probes(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    assert functoriality_probe(ctx, WIN).passed
    probes = probe_complexes(A2, probe_modules(A2))
    rep = naturality_probe(ctx, probes["free"], U, WIN)
    assert rep.passed
    assert not rep.notes.get("vacuous")


def test_a_naturality_probe_with_no_map_reports_no_check(ctx_silt2, P1c, P2c, indecs):
    # Hom(P1, P2) = 0, so there is no map g to test: no check, and the reason
    assert hom_dim(indecs["P1"], indecs["P2"]) == 0
    rep = naturality_probe(ctx_silt2, P1c, P2c, WIN)
    assert rep.checks == []
    assert rep.notes == {"vacuous": "no nonzero map to test"}


def test_full_battery_on_the_one_point_algebra(U_K):
    reps = verify_all(U_K, window=WIN)
    assert all(r.passed for r in reps), [
        (r.kind, r.subject) for r in reps if not r.passed]
    blob = json.dumps([r.as_dict() for r in reps], sort_keys=True)
    again = json.dumps([r.as_dict() for r in verify_all(U_K, window=WIN)],
                       sort_keys=True)
    assert blob == again


def test_full_battery_passes_on_both_fixtures(U_tilt, U_silt2):
    for U in (U_tilt, U_silt2):
        reps = verify_all(U, window=WIN)
        assert all(r.passed for r in reps), [
            (r.kind, r.subject, [c.name for c in r.checks if not c.passed])
            for r in reps if not r.passed]


def test_counit_tables_ignore_extra_margin(ctx_tilt, A2):
    X = probe_complexes(A2, probe_modules(A2))["free"]
    base = verify_counit(ctx_tilt, X, WIN).checks[0].details
    for m in (1, 2, 3):
        rep = verify_counit(ctx_tilt, X, WIN, extra_margin=m)
        assert rep.checks[0].details == base


def test_windowed_hom_agrees_with_independent_oracles(U_silt2, ctx_silt2):
    # Hom over the truncation out of a resolution of Hom(U, U) into itself is
    # derived End(U): compare with the hom complex of U over the base algebra
    # and with the cohomology of the untruncated dg-end.
    M = ctx_silt2.hom_module(U_silt2)
    win = DegreeWindow(-2, 2)
    P = semifree_resolve(M, M.lo - (win.hi + 1))
    sh = SemifreeHom(P, M)
    for n in range(win.lo, win.hi + 1):
        assert sh.h_dim(n) == hom_complex(U_silt2, U_silt2).h_dim(n) == ctx_silt2.B.h_dim(n)


def test_context_rejects_non_projective_input(indecs):
    with pytest.raises(ValueError):
        SiltingContext(module_complex(indecs["S1"]))


def _counting_inits(monkeypatch, cls) -> list:
    """Every instance of cls constructed from here on, in order."""
    built = []
    init = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_context_builds_each_module_once_over_the_truncation(U_silt2, P1c, monkeypatch):
    ctx = SiltingContext(U_silt2)
    built = _counting_inits(monkeypatch, DgModule)
    MX = ctx.hom_module(P1c)
    assert built == [MX] and MX.algebra is ctx.C
    Uc = ctx.Uc
    assert built == [MX, Uc] and Uc.algebra is ctx.C


def test_fully_faithful_out_of_U_reuses_its_hom_module(U_silt2, P1c, monkeypatch):
    ctx = SiltingContext(U_silt2)
    ctx.hom_module(U_silt2)
    ctx.hom_module(P1c)
    built = _counting_inits(monkeypatch, GradedHom)
    rep = verify_fully_faithful(ctx, U_silt2, P1c, range(-1, 2))
    assert rep.passed
    assert built == []


def test_verify_all_on_linear_a6_solves_no_commutation_system(monkeypatch):
    # U resolves H^0 U, so End(H^0 U) is read off the Yoneda hom complex
    def commutation_system(*args):
        raise AssertionError("hom_space called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("siltcheck") and hasattr(mod, "hom_space"):
            monkeypatch.setattr(mod, "hom_space", commutation_system)
    n = 6
    A = path_algebra(Quiver([str(v) for v in range(n)],
                            [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)]),
                     PrimeField(101))
    free = direct_sum_complexes([projective_complex(A, {0: [v]}) for v in range(n)])
    reports = verify_all(free, window=(-1, 1), pair_degrees=(-1, 1))
    assert all(r.passed for r in reports)


# Over kA_3 simple2 is proj2, and the free module given as P0+P1+P2 is the
# free probe: each name maps to the name whose complex it shares.
TWINS = {"simple2": "proj2", "silting": "free"}


def _free_a3():
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]),
                      PrimeField(101))
    return direct_sum_complexes([projective_complex(A3, {0: [v]}) for v in range(3)])


def _twin(subject):
    for name, twin in TWINS.items():
        subject = subject.replace(name, twin)
    return subject


def _assert_twins_agree(reports):
    """Each report equals its twin's byte for byte apart from the subject,
    and owns its notes."""
    def plain(rep):
        return json.dumps({**rep.as_dict(), "subject": None}, sort_keys=True)

    by_subject = {r.subject: r for r in reports}
    for name, rep in by_subject.items():
        twin = by_subject[_twin(name)]
        assert plain(rep) == plain(twin)
        assert rep is twin or rep.notes is not twin.notes


def test_verify_all_checks_each_pair_of_probe_complexes_once(monkeypatch):
    # with U the free module, the 8 probe names share 6 complexes, so 28 of
    # the 64 name pairs repeat a pair of complexes; each repeat is reported
    # under its own names, not recomputed
    checked = []
    inner = verifier.verify_fully_faithful

    def counted(ctx, X, Xp, *args, **kwargs):
        checked.append((X, Xp))
        return inner(ctx, X, Xp, *args, **kwargs)

    monkeypatch.setattr(verifier, "verify_fully_faithful", counted)
    reports = verify_all(_free_a3(), window=(-1, 1), pair_degrees=(-1, 1))
    pairs = [r for r in reports if r.kind == "fully-faithful"]
    assert len({r.subject for r in pairs}) == 64
    assert len(checked) == len(set(checked)) == 36
    _assert_twins_agree(pairs)
    assert all(r.passed for r in reports)


def test_verify_all_runs_one_counit_per_probe_complex(monkeypatch):
    # the 8 probe names share 6 complexes, and the functoriality probe adds
    # its three sums of two summands of U, none of them U itself
    checked = []
    inner = verifier.verify_counit

    def counted(ctx, X, *args, **kwargs):
        checked.append(X)
        return inner(ctx, X, *args, **kwargs)

    monkeypatch.setattr(verifier, "verify_counit", counted)
    reports = verify_all(_free_a3(), window=(-1, 1), pair_degrees=(-1, 1))
    counits = [r for r in reports if r.kind == "counit"]
    assert len({r.subject for r in counits}) == 8
    assert len(checked) == len(set(checked)) == 6 + 3
    _assert_twins_agree(counits)
    assert all(r.passed for r in reports)


def test_the_battery_reads_coordinates_of_module_maps_only(U_tilt, U_silt2, monkeypatch):
    # coords_of reads generator images alone, which is exact on module maps:
    # every family the battery hands it passes the row-checked reference
    read, calls = GradedHom.coords_of, []

    def checked(self, n, comps):
        want = reference_coords_of(self, n, comps)
        assert want is not None
        calls.append(n)
        got = read(self, n, comps)
        assert got == want
        return got

    monkeypatch.setattr(GradedHom, "coords_of", checked)
    for U in (U_tilt, U_silt2):
        assert all(r.passed for r in verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    assert calls


# -- every check can fail ------------------------------------------------------

# Every check verify_all can emit, as (report kind, name); "{name}" stands for
# a probe or sum name.
CHECKS = {
    ("silting", "no positive self-extensions"),
    ("silting", "coresolution terminates"),
    ("weak-nonpositivity", "no positive self-extensions"),
    ("weak-nonpositivity", "dg-end cohomology vanishes above degree 0"),
    ("cohomology-endomorphisms", "products agree with chain-map composition"),
    ("cohomology-endomorphisms", "H^0 algebra matches endomorphisms of the zeroth cohomology"),
    ("derived-double-centralizer", "right multiplication spans H^0"),
    ("derived-double-centralizer", "derived endomorphisms vanish away from degree 0"),
    ("derived-double-centralizer", "strict lifts exist and respect products"),
    ("counit", "evaluation map induces cohomology isomorphisms"),
    ("fully-faithful", "morphism spaces match through the functor"),
    ("semiorthogonal-classification", "probe {name} detected within the degree bound"),
    ("concentration-roundtrip", "probe concentrates in the expected degree"),
    ("concentration-roundtrip", "hom module has one-point cohomology"),
    ("concentration-roundtrip", "class identification lifts to the hom module"),
    ("concentration-roundtrip", "tensor of the concentrated module returns the probe"),
    ("functoriality", "counit on {name}"),
    ("naturality", "strict lift between resolutions exists"),
    ("naturality", "counit square commutes on cohomology"),
    ("tilting-theorem", "base algebra equals the double centralizer"),
    ("tilting-theorem", "probe {name} returns"),
}
# verify_weak_nonpositive repeats what the silting report already decided, so
# its two checks cannot fail once verify_all runs it; ROADMAP items 2 and 3
# delete the report, and this set with it
PENDING = {("weak-nonpositivity", "no positive self-extensions"),
           ("weak-nonpositivity", "dg-end cohomology vanishes above degree 0")}
SMALL = {"window": (-1, 1), "pair_degrees": (-1, 1)}


def _check_of(kind: str, name: str):
    """The entry of CHECKS a record matches; an unknown record fails."""
    hits = [c for c in CHECKS if c[0] == kind
            and re.fullmatch(re.escape(c[1]).replace(r"\{name\}", r"\S+"), name)]
    assert len(hits) == 1, (kind, name)
    return hits[0]


def _failing_cases(U_tilt, U_silt2, U_bad, indecs, monkeypatch):
    """Yield report lists, each from an input or a broken construction on
    which some checks fail."""
    yield verify_all(U_bad, **SMALL)
    yield verify_all(U_tilt, max_steps=0, **SMALL)
    with monkeypatch.context() as m:
        # composition in the wrong order, and End(H^0 U) read off H^0 U twice
        compose = ChainMap.compose
        m.setattr(ChainMap, "compose", lambda self, other: compose(other, self))
        m.setattr(verifier, "module_complex",
                  lambda M, degree=0: module_complex(direct_sum_modules(M.algebra, [M, M]),
                                                     degree))
        yield [verify_E_iso(SiltingContext(U_tilt))]
    # the dg-end's products with their factors swapped
    yield [verify_E_iso(_swap_end_factors(SiltingContext(U_tilt)))]
    with monkeypatch.context() as m:
        m.setattr(verifier, "lift_to_resolution", lambda *args: None)
        m.setattr(verifier, "lift_generators", lambda *args: None)
        yield verify_all(U_tilt, **SMALL)
    with monkeypatch.context() as m:
        # evaluation and postcomposition both zero
        m.setattr(verifier, "_evaluation_chain_map",
                  lambda T, gh, values, X: ChainMap(T, X, {}, validate=False))
        m.setattr(verifier, "_postcomposed_augmentations",
                  lambda P, *args: {k: {} for k in range(len(P.gens))})
        yield verify_all(U_tilt, **SMALL)
    with monkeypatch.context() as m:
        m.setattr(verifier, "_tensor_of_lift",
                  lambda TX, TXp, *args: ChainMap(TX, TXp, {}, validate=False))
        yield verify_all(U_tilt, **SMALL)
    with monkeypatch.context() as m:
        m.setattr(SemifreeHom, "h_dim", lambda self, n: 1)
        yield [verify_delta(SiltingContext(U_tilt), SMALL["window"])]
    # a degree bound too small to see the simple at the source
    ctx = SiltingContext(U_silt2)
    ctx.report = dataclasses.replace(ctx.report, n=0)
    yield verify_all(U_silt2, ctx=ctx, **SMALL)
    yield [verify_corollary_roundtrip(SiltingContext(U_tilt), indecs["P1"], 1, WIN)]
    with monkeypatch.context() as m:
        # P1 has hom in degrees 0 and 1 from U_silt2, claimed concentrated in 0
        classify = verifier.classify_Xi
        m.setattr(verifier, "classify_Xi",
                  lambda ctx, X: dataclasses.replace(classify(ctx, X), index=0))
        yield [verify_corollary_roundtrip(SiltingContext(U_silt2), indecs["P1"], 0, WIN)]


def test_every_check_can_fail(U_tilt, U_silt2, U_bad, indecs, monkeypatch):
    emitted = set()
    for U in (U_tilt, U_silt2):
        reports = verify_all(U, **SMALL)
        assert all(r.passed for r in reports)
        emitted |= {_check_of(r.kind, c.name) for r in reports for c in r.checks}
    failed = set()
    for reports in _failing_cases(U_tilt, U_silt2, U_bad, indecs, monkeypatch):
        for r in reports:
            for c in r.checks:
                emitted.add(_check_of(r.kind, c.name))
                if not c.passed:
                    failed.add(_check_of(r.kind, c.name))
    assert emitted == CHECKS
    assert failed == CHECKS - PENDING, sorted(CHECKS - PENDING - failed)
    weak = verify_weak_nonpositive(SiltingContext(U_tilt))
    assert PENDING == {(weak.kind, c.name) for c in weak.checks}
