"""End-to-end checks of the derived-equivalence verifier.

Expected dimensions are recomputed from the module oracles (hom_space plus
the hereditary Euler pairing), so the verifier is measured against numbers it
did not itself produce.
"""

import json

import pytest

from oracles import ext1_dim, hom_dim
from siltcheck.algebra import (Quiver, endomorphism_algebra, path_algebra,
                               simple_module)
from siltcheck.complexes import (GradedHom, ResolutionCapError,
                                 direct_sum_complexes, hom_complex,
                                 module_complex, proj_replacement,
                                 projective_complex, zero_complex)
from siltcheck.dg import DgModule
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
    assert names["H^0 dimension matches homotopy classes of endomorphisms"].details["dim"] == 3
    ED = endomorphism_algebra(A2, tilt_summands)
    assert names["H^0 algebra matches endomorphisms of the zeroth cohomology"].details == {
        "h0_end_dim": ED.algebra.dim, "radical_dim": len(radical_rows(ED.algebra))}
    assert rep.notes["idempotents"] == 2


def test_h0_of_the_shifted_pair_splits_into_two_idempotent_blocks(ctx_silt2):
    rep = verify_E_iso(ctx_silt2)
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["H^0 dimension matches homotopy classes of endomorphisms"].details["dim"] == 2
    assert rep.notes["idempotents"] == 2


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_counit_is_a_quasi_iso_on_every_probe(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(A2)
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
    probes = probe_complexes(A3)
    assert probes["simple2"] is probes["proj2"]
    assert probes["simple0"] is not probes["proj0"]
    assert probes["simple1"] is not probes["proj1"]
    assert list(probes) == ["proj0", "proj1", "proj2", "simple0", "simple1", "simple2", "free"]


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_morphism_spaces_agree_over_both_algebras(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(A2)
    probes["silting"] = U
    names = sorted(probes)
    for n1 in names:
        for n2 in names:
            rep = verify_fully_faithful(ctx, probes[n1], probes[n2],
                                        range(-2, 3), subject=f"{n1}->{n2}")
            assert rep.passed, (n1, n2, rep.checks[0].details)


def test_morphism_space_tables_carry_the_expected_dimensions(ctx_tilt, A2, indecs):
    probes = probe_complexes(A2)
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
    assert rep.notes["verdict"] == "tilting"
    checks = {c.name: c for c in rep.checks}
    assert checks["base algebra equals the double centralizer"].details == {
        "span_rank": A2.dim, "algebra_dim": A2.dim, "h0_dim": A2.dim}
    end_dim = sum(hom_dim(S, T) for S in tilt_summands for T in tilt_summands)
    assert checks["endomorphism algebra sits in degree 0"].details == {
        "h_table": {0: end_dim}}

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
    # a silting complex that is not tilting fails the theorem's own gate
    delta = verify_delta(ctx_silt2, WIN)
    rep = verify_tilting_theorem(ctx_silt2, {}, delta, WIN)
    assert not rep.passed
    assert rep.notes["verdict"] == "not tilting"
    assert rep.checks[0].details == {"tilting": False, "module_form": False}


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
    probes = probe_complexes(A2)
    rep = naturality_probe(ctx, probes["free"], U, WIN)
    assert rep.passed
    assert not rep.notes.get("vacuous")


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
    X = probe_complexes(A2)["free"]
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
