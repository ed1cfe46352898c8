"""End-to-end checks of the derived-equivalence verifier.

Expected dimensions are recomputed from the module oracles (hom_space plus
the hereditary Euler pairing), so the verifier is measured against numbers it
did not itself produce.
"""

import dataclasses
import json
import random
import re
import sys
from collections import Counter
from itertools import product

import pytest

from oracles import (endomorphism_algebra, ext1_dim, hom_dim, reference_components,
                     reference_coords_of, reference_naturality_probe, reference_values,
                     zero_on_summand)
from siltcheck import verifier
from siltcheck.algebra import (Module, Quiver, direct_sum_modules, hom_space,
                               path_algebra, simple_module)
from siltcheck.complexes import (ChainMap, Complex, GradedHom, ResolutionCapError, cone,
                                 direct_sum_complexes, hom_complex,
                                 identity_chain_map, proj_replacement, projective_cache,
                                 projective_complex, summand_blocks, zero_complex)
from siltcheck.dg import DgModule, dg_end, dg_hom_module
from siltcheck.fields import PrimeField
from siltcheck.semifree import DegreeWindow, semifree_resolve
from siltcheck.linalg import Matrix
from siltcheck.silting import presilting_witness, radical_rows
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
    assert ctx_tilt.C.h_dim(0) == 3
    ED = endomorphism_algebra(A2, tilt_summands)
    assert names["H^0 algebra matches endomorphisms of the zeroth cohomology"].details == {
        "h0_end_dim": ED.dim, "radical_dim": len(radical_rows(ED))}
    assert rep.notes["idempotents"] == 2


def _swap_end_factors(ctx: SiltingContext) -> SiltingContext:
    """ctx with the degree-(0, 0) products of its truncation C in the wrong
    order."""
    ctx.C.mult[(0, 0)] = [list(col) for col in zip(*ctx.C.mult[(0, 0)])]
    return ctx


def _swapped_composite(monkeypatch):
    """Route two's chain maps composed in the wrong order: the generator
    rows of the left factor times the matrices of the right one, rebuilt
    from its rows."""
    composite = verifier._composite
    monkeypatch.setattr(verifier, "_composite", lambda gh, rows, then: composite(
        gh, gh.generator_rows(0, then.mats), gh.chain_map_from_cocycle(gh.assemble(0, rows))))


def test_h0_products_are_checked_on_two_independent_routes(U_tilt, monkeypatch):
    # E is read off Hom(U, U); route one compares it with the products of
    # the truncation C, route two with composed chain maps, so breaking
    # either fails
    def products_agree(ctx):
        (check,) = [c for c in verify_E_iso(ctx).checks
                    if c.name == "products agree with chain-map composition"]
        return check.passed

    assert products_agree(SiltingContext(U_tilt))
    assert not products_agree(_swap_end_factors(SiltingContext(U_tilt)))
    _swapped_composite(monkeypatch)
    assert not products_agree(SiltingContext(U_tilt))


def test_h0_of_the_shifted_pair_splits_into_two_idempotent_blocks(ctx_silt2):
    rep = verify_E_iso(ctx_silt2)
    assert rep.passed
    assert ctx_silt2.C.h_dim(0) == 2
    assert rep.notes["idempotents"] == 2


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_counit_is_a_quasi_iso_on_every_probe(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(ctx, probe_modules(A2))
    probes["silting"] = U
    for name in sorted(probes):
        X = probes[name]
        rep = verify_counit(ctx, X, WIN)
        assert rep.passed, (name, rep.checks[0].details)
        table = rep.checks[0].details["h_dims"]
        for n in range(WIN[0], WIN[1] + 1):
            # middle column is the probe's own cohomology, computed without
            # any resolution machinery
            assert table[n][1] == X.h_dim(n)


def test_counit_table_for_the_shifted_pair_against_itself(U_silt2, ctx_silt2):
    rep = verify_counit(ctx_silt2, U_silt2, WIN)
    assert rep.passed
    table = rep.checks[0].details["h_dims"]
    assert table[-1] == [2, 2, 2]
    assert table[0] == [1, 1, 1]
    assert all(table[n] == [0, 0, 0] for n in table if n not in (-1, 0))


def test_counit_accepts_the_zero_probe(ctx_tilt, A2):
    rep = verify_counit(ctx_tilt, zero_complex(A2), WIN)
    assert rep.passed


def test_probes_with_a_degenerate_tensor(field):
    # U = P0 + (P2 -> P0) + (P2 -> P1) is tilting over kA_3.  X = cone(id_P0)
    # is contractible, so Hom(U, X) is acyclic, its resolution has no
    # generators and the tensor is zero; P0 placed in degree -5 has Hom(U, -)
    # below the cutoff of the window, so its resolution is empty too.  The
    # tables and notes are those of the release that built a bare zero complex
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]), field)

    def two_term(src, tgt):
        (basis,) = hom_space(projective_cache(A3, src), projective_cache(A3, tgt))
        return projective_complex(A3, {-1: [src], 0: [tgt]}, {-1: basis.mat})

    P0 = projective_complex(A3, {0: [0]})
    ctx = SiltingContext(direct_sum_complexes([P0, two_term(2, 0), two_term(2, 1)]))
    win, zeros = (-1, 1), {n: [0, 0, 0] for n in (-1, 0, 1)}
    X, far = cone(identity_chain_map(P0)), P0.shift(5)
    for Y in (X, far):
        T = ctx.tensor(ctx.hom_module(Y), DegreeWindow(*win))
        assert (T.resolution.gens, T.block_layout, T.is_empty()) == ([], {}, True)
        rep = verify_counit(ctx, Y, win)
        assert rep.passed and rep.checks[0].details == {"h_dims": zeros}
    for pair in ((X, P0), (P0, X)):
        rep = verify_fully_faithful(ctx, *pair, [-1, 0, 1])
        assert rep.passed and rep.checks[0].details == {"h_dims": zeros}
        rep = naturality_probe(ctx, *pair, win)
        assert (rep.checks, rep.notes) == ([], {"vacuous": "no nonzero map to test"})
    rep = naturality_probe(ctx, far, far, win)
    assert (rep.checks, rep.notes) == ([], {"vacuous": "degenerate tensor, nothing to compare"})
    # a module concentrated in degree 0 read in a window above the cutoff:
    # its counit tensors a resolution with no generator
    rep = verify_corollary_roundtrip(ctx, projective_cache(A3, 0), 0, (3, 5))
    assert [c.name for c in rep.checks] == [
        "probe concentrates in the expected degree", "hom module has one-point cohomology",
        "tensor of the concentrated module returns the probe"]
    assert rep.passed


def test_the_simple_at_the_sink_is_the_projective_probe(field):
    # over kA_3 (0 -> 1 -> 2) the simple at the sink is e_2 A, the very
    # module of proj2, so its source is the complex of proj2 and
    # per-complex caches see one object
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]), field)
    mods = probe_modules(A3)
    assert mods["simple2"] is mods["proj2"]
    probes = probe_complexes(SiltingContext(projective_complex(A3, {0: [0, 1, 2]})), mods)
    assert probes["simple2"] is probes["proj2"]
    assert probes["simple0"] is not probes["proj0"]
    assert probes["simple1"] is not probes["proj1"]
    assert list(probes) == ["proj0", "proj1", "proj2", "simple0", "simple1", "simple2", "free"]


@pytest.mark.parametrize("which", ["tilt", "silt2"])
def test_morphism_spaces_agree_over_both_algebras(which, request, A2):
    U = request.getfixturevalue(f"U_{which}")
    ctx = request.getfixturevalue(f"ctx_{which}")
    probes = probe_complexes(ctx, probe_modules(A2))
    probes["silting"] = U
    names = sorted(probes)
    for n1 in names:
        for n2 in names:
            rep = verify_fully_faithful(ctx, probes[n1], probes[n2], range(-2, 3))
            assert rep.passed, (n1, n2, rep.checks[0].details)


def test_morphism_space_tables_carry_the_expected_dimensions(ctx_tilt, A2, indecs):
    probes = probe_complexes(ctx_tilt, probe_modules(A2))
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


def test_the_corollary_rests_on_purity_and_the_counit_together(U_silt2, indecs,
                                                              monkeypatch):
    # P1 has hom from U_silt2 in degrees 0 and 1; claimed concentrated in 0,
    # its hom module is not pure, while its counit, like every counit of a
    # silting complex, is a quasi-isomorphism
    classify = verifier.classify_Xi
    monkeypatch.setattr(verifier, "classify_Xi",
                        lambda ctx, X: dataclasses.replace(classify(ctx, X), index=0))
    rep = verify_corollary_roundtrip(SiltingContext(U_silt2), indecs["P1"], 0, WIN)
    assert {c.name: c.passed for c in rep.checks} == {
        "probe concentrates in the expected degree": True,
        "hom module has one-point cohomology": False,
        "tensor of the concentrated module returns the probe": True}
    assert not rep.passed


def test_each_concentrated_probe_returns_through_its_one_cached_counit(U_tilt, A2,
                                                                       monkeypatch):
    # the "returns" record reads the counit rows of X at the window shifted
    # by i, with its degrees moved back; the tensor is exact from the
    # window's bottom up, so the context checks every such window in one
    # verify_counit, at [lo, hi + max i], and a roundtrip checks nothing more
    built = []
    inner = verifier.verify_counit

    def counted(ctx, X, window):
        built.append((X, window, ctx.extra_margin))
        return inner(ctx, X, window)

    monkeypatch.setattr(verifier, "verify_counit", counted)
    kept = _kept_probe_modules(monkeypatch)
    ctx = SiltingContext(U_tilt)
    reports = verify_all(U_tilt, window=WIN, ctx=ctx)
    (mods,) = kept
    degree = {name: ctx.classification(X).index for name, X in sorted(mods.items())
              if ctx.classification(X).index is not None}
    ((T, window, margin),) = built
    assert (window, margin) == (DegreeWindow(WIN[0], WIN[1] + max(degree.values())), 0)
    roundtrips = {r.subject: r for r in reports if r.kind == "concentration-roundtrip"}
    for name, i in degree.items():
        X = mods[name]
        assert any(s is X.stalk for s in T.summands)
        for _ in range(2):
            rep = verify_corollary_roundtrip(ctx, X, i, WIN, subject=name)
        assert rep.checks == roundtrips[name].checks
        counit = ctx.counit(X.stalk, DegreeWindow(WIN[0] + i, WIN[1] + i))
        assert rep.checks[-1].details == {
            "h_dims": {n - i: row for n, row in counit.checks[0].details["h_dims"].items()},
            "shift": -i}
        assert rep.checks[-1].passed is counit.passed is True
    assert len(built) == 1
    assert len(degree) >= 3 and len(set(degree.values())) == 2


def _kept_probe_modules(monkeypatch) -> list:
    """The module probes of every verify_all from here on, the very objects
    it reads, one dict per call."""
    kept, probe_modules_of = [], verifier.probe_modules
    monkeypatch.setattr(verifier, "probe_modules",
                        lambda A: kept.append(probe_modules_of(A)) or kept[-1])
    return kept


def _silting_contexts(coresolution_inputs) -> dict:
    """Fresh contexts of fix_a2 U-silt2 and U-tilt and of every two-term
    silting complex among the sums of three indecomposables over kA_3."""
    inputs = coresolution_inputs({"prime": 101})
    names = ["fix_a2/U-silt2", "fix_a2/U-tilt"] + sorted(k for k in inputs if k.startswith("a3/"))
    ctxs = {name: SiltingContext(inputs[name]) for name in names}
    return {name: ctx for name, ctx in ctxs.items()
            if ctx.report.presilting and ctx.report.n is not None}


def test_batched_rows_equal_one_block_checks_in_a_fresh_context(coresolution_inputs):
    # verify_all checks the counits of all target summands as one direct sum
    # and the pairs of each source summand at once; the rows it keeps for
    # each block, and the report the context builds from them, are those of
    # verify_counit or verify_fully_faithful on that summand or pair alone,
    # at the same degrees, in a context of its own
    ctxs = _silting_contexts(coresolution_inputs)
    assert len([name for name in ctxs if name.startswith("a3/")]) == 14
    for name, ctx in ctxs.items():
        assert all(r.passed for r in verify_all(ctx.U, ctx=ctx, **SMALL))
        fresh, kinds = SiltingContext(ctx.U), Counter()
        for key, rows in list(ctx._memo["rows"].items()):
            pair = key if isinstance(key, tuple) else (key,)
            if any(X.summands for X in pair):
                continue
            degrees = sorted(rows)
            assert degrees == list(range(degrees[0], degrees[-1] + 1))
            if len(pair) == 1:
                win = DegreeWindow(degrees[0], degrees[-1])
                rep, one = ctx.counit(*pair, win), verify_counit(fresh, *pair, win)
            else:
                rep = ctx.fully_faithful(*pair, degrees)
                one = verify_fully_faithful(fresh, *pair, degrees)
            assert one.checks[0].details == {"h_dims": rows}, (name, one.kind)
            assert rep.as_dict() == one.as_dict(), (name, one.kind)
            kinds[one.kind] += 1
        assert kinds["counit"] >= 4 and kinds["fully-faithful"] >= 16, name


def test_layouts_read_and_write_every_degree_of_the_counit_batches(coresolution_inputs):
    # every degree of Hom(U, U), of each counit batch's resolution and of its
    # tensor: values reads random coordinates as both reference readers do,
    # and row writes the values back as the same coordinates
    rng, seen = random.Random(7), Counter()
    for name, ctx in _silting_contexts(coresolution_inputs).items():
        assert all(r.passed for r in verify_all(ctx.U, ctx=ctx, **SMALL))
        layouts = [ctx.gh.layout(m) for m in ctx.gh.degrees()]
        for T in ctx._memo["evaluation"]:
            P = T.resolution
            layouts += [P.layout(n) for n in range(P.gens[-1] + P.algebra.lo, P.gens[0] + 1)]
            layouts += T.block_layout.values()
        f = ctx.A.field
        for layout in layouts:
            seen["blocks"] += len(layout.blocks)
            for _ in range(3):
                x = {p: c for p in range(layout.dim)
                     if (c := rng.randrange(3) and rng.randrange(f.p))}
                values = layout.values(x)
                assert values == reference_values(layout.blocks, x), name
                assert values == reference_components(f, layout.blocks, x), name
                assert layout.row(f, ((k, f.one, v) for k, v in values.items())) == x, name
                seen["values"] += len(values)
    assert seen["values"] > 1000 and seen["blocks"] > 400, seen


def test_every_roundtrip_row_of_the_one_batch_is_the_counit_at_its_shifted_window(
        coresolution_inputs, monkeypatch):
    # verify_all checks every counit in one batch at [lo, hi + max i], at
    # the cutoff of the probes' own window.  The rows it reads for a probe
    # concentrated in degree i, or for a canonical part returning in degree
    # i, at the window shifted by i, are those of verify_counit on that
    # module at the shifted window, at its own cutoff, in a fresh context
    built = []
    inner = verifier.verify_counit

    def counted(ctx, X, window):
        built.append(ctx)
        return inner(ctx, X, window)

    monkeypatch.setattr(verifier, "verify_counit", counted)
    kept = _kept_probe_modules(monkeypatch)
    win, read = DegreeWindow(*SMALL["window"]), Counter()
    for name, ctx in _silting_contexts(coresolution_inputs).items():
        assert all(r.passed for r in verify_all(ctx.U, ctx=ctx, **SMALL))
        assert built.count(ctx) == 1, name
        tilting = ctx.report.tilting and ctx.report.module_form
        returns = []
        for X in kept[-1].values():
            i = ctx.classification(X).index
            if i is not None and X.dim:
                returns.append((X, i, "concentrated"))
            elif i is None and tilting:
                returns += [(part, j, "part") for part, j in zip(ctx.canonical_sequence(X), (0, 1))
                            if part.dim]
        fresh = SiltingContext(ctx.U)
        for X, i, kind in returns:
            shifted = DegreeWindow(win.lo + i, win.hi + i)
            rows = ctx._memo["rows"][X.stalk]
            direct = verify_counit(fresh, X.stalk, shifted)
            assert direct.checks[0].details == {"h_dims": {
                n: rows[n] for n in range(shifted.lo, shifted.hi + 1)}}, (name, kind, i)
            read[kind, i] += 1
    assert read[("concentrated", 1)] and read[("part", 1)], read


def test_a_direct_sum_reads_each_summands_cohomology_off_its_block(coresolution_inputs):
    # U's three summands and a module in degree 0: each block's dim H^n and
    # class count are its summand's own
    U = coresolution_inputs({"prime": 101})["a3/P1toP0+P1[1]+P2[1]"]
    mods = probe_modules(U.algebra)
    T = direct_sum_complexes([*U.summands, mods["simple0"].stalk])
    blocks, count = summand_blocks(T), 4
    for n in range(-2, 2):
        assert T.block_h_dims(n, blocks, count) == [s.h_dim(n) for s in T.summands]
        assert sorted(T.class_blocks(n, blocks)) == [
            t for t, s in enumerate(T.summands) for _ in range(s.h_dim(n))]


def test_the_roundtrip_of_x_shifted_is_x_at_the_shifted_window(coresolution_inputs):
    # Hom(U, X[i]) is Hom(U, X) shifted by i, so the roundtrip, which reads
    # X at the window shifted by i with its degrees moved back, gives the
    # tables built directly on X[i]; a sign slip in either shift moves the
    # keys or the column of X
    win = DegreeWindow(-1, 1)
    hits = []
    for uname, ctx in _silting_contexts(coresolution_inputs).items():
        for name, X in sorted(probe_modules(ctx.A).items()):
            i = ctx.classification(X).index
            if i is None or i == 0:
                continue
            hits.append((uname, name))
            rep = verify_corollary_roundtrip(ctx, X, i, win, subject=name)
            Xi = X.stalk.shift(i)
            direct = verify_counit(ctx, Xi, win)
            assert rep.checks[2].details == {"h_dims": direct.checks[0].details["h_dims"],
                                             "shift": -i}
            assert rep.checks[2].passed is direct.passed is True
            table = dg_hom_module(hom_complex(ctx.U, Xi), ctx.C).h_table()
            assert rep.checks[1].details["h_table"] == table and list(table) == [0]
            assert rep.passed
    assert ("fix_a2/U-silt2", "simple0") in hits
    assert len({u for u, _ in hits if u.startswith("a3/")}) >= 5


def test_module_probes_read_as_themselves_match_their_replacements(coresolution_inputs,
                                                                   monkeypatch):
    # a quasi-isomorphism changes no cohomology: the counit of a module probe
    # and each fully-faithful table into it read the same off the module as
    # off its projective replacement, so verify_all reads each module probe
    # as one complex in degree 0 and uses the replacement only as a source
    win, degs = DegreeWindow(-1, 1), [-1, 0, 1]
    ctxs = _silting_contexts(coresolution_inputs)
    for ctx in ctxs.values():
        mods = probe_modules(ctx.A)
        sources = {**probe_complexes(ctx, mods), "silting": ctx.U}
        for name, X in mods.items():
            assert (verify_counit(ctx, X.stalk, win).checks[0].details
                    == verify_counit(ctx, sources[name], win).checks[0].details), name
        for n1 in sorted(sources):
            for n2 in sorted(mods):
                tables = [verify_fully_faithful(ctx, sources[n1], Y, degs).checks[0].details
                          for Y in (mods[n2].stalk, sources[n2])]
                assert tables[0] == tables[1], (n1, n2)

    # every hom complex into a module probe, or into a sum with one among
    # its summands, reads that module's one stalk
    targets, hom_of = [], verifier.hom_complex
    monkeypatch.setattr(verifier, "hom_complex",
                        lambda X, Y: targets.extend([Y, *(Y.summands or ())]) or hom_of(X, Y))
    probes = _kept_probe_modules(monkeypatch)
    for ctx in ctxs.values():
        targets.clear()
        probes.clear()
        assert all(r.passed for r in verify_all(ctx.U, **SMALL))
        (mods,) = probes
        distinct = {id(M): M for M in mods.values()}.values()
        assert len(distinct) == len(mods) - 1
        for M in distinct:
            wrapped = [Y for Y in targets if Y.terms == {0: M} and not Y.diffs]
            assert wrapped and all(Y is M.stalk for Y in wrapped)


def test_tilting_theorem_certifies_module_and_probes(U_tilt, ctx_tilt, A2, tilt_summands,
                                                    indecs):
    rep = verify_all(U_tilt, window=WIN, ctx=ctx_tilt)[-1]
    assert rep.kind == "tilting-theorem"
    assert rep.passed
    checks = {c.name: c for c in rep.checks}
    assert checks["base algebra equals the double centralizer"].details == {
        "span_rank": A2.dim, "algebra_dim": A2.dim, "h0_dim": A2.dim}
    end_dim = sum(hom_dim(S, T) for S in tilt_summands for T in tilt_summands)
    assert dg_end(U_tilt, ctx_tilt.gh).h_table() == {0: end_dim}

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
        proj_replacement(S.stalk, 8)
    # the battery meets the same cap on its simple probe and stops there
    U = projective_complex(dual_numbers, {0: [0]})
    with pytest.raises(ResolutionCapError):
        verify_all(U, window=WIN, ctx=SiltingContext(U, cap=8))


def test_verify_all_takes_its_settings_from_the_context_alone(U_tilt, U_silt2, ctx_tilt):
    # a context fixes max_steps, extra_margin and cap when it is built, and
    # it is the one route for them: verify_all takes no setting of its own,
    # and refuses the context of another complex rather than verify that
    # complex
    for setting in ({"max_steps": 3}, {"max_steps": 8}, {"extra_margin": 1}, {"cap": 16}):
        with pytest.raises(TypeError):
            verify_all(U_tilt, window=WIN, ctx=ctx_tilt, **setting)
        with pytest.raises(TypeError):
            verify_all(U_tilt, window=WIN, **setting)
    with pytest.raises(ValueError, match="must be the context of U"):
        verify_all(U_silt2, window=WIN, ctx=ctx_tilt)
    # the reports echo the context's settings
    reports = verify_all(U_tilt, window=(-1, 1), pair_degrees=(-1, 1),
                         ctx=SiltingContext(U_tilt, max_steps=5, extra_margin=2))
    assert reports[0].notes["max_steps"] == 5
    assert {r.notes.get("extra_margin") for r in reports} == {None, 2}
    assert all(r.passed for r in reports)


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
    probes = probe_complexes(ctx, probe_modules(A2))
    rep = naturality_probe(ctx, probes["free"], U, WIN)
    assert rep.passed
    assert not rep.notes.get("vacuous")


def test_a_naturality_probe_with_no_map_reports_no_check(ctx_silt2, P1c, P2c, indecs):
    # Hom(P1, P2) = 0, so there is no map g to test: no check, and the reason
    assert hom_dim(indecs["P1"], indecs["P2"]) == 0
    rep = naturality_probe(ctx_silt2, P1c, P2c, WIN)
    assert rep.checks == []
    assert rep.notes == {"vacuous": "no nonzero map to test"}


def _naturality_lifts(U, monkeypatch):
    """(P, Q, targets, lam) for every lift_up_to_homotopy call of a passing
    battery on U."""
    lifts = []
    lift = verifier.lift_up_to_homotopy

    def spy(P, Q, targets):
        lam = lift(P, Q, targets)
        lifts.append((P, Q, targets, lam))
        return lam

    monkeypatch.setattr(verifier, "lift_up_to_homotopy", spy)
    assert all(r.passed for r in verify_all(U, **SMALL))
    return lifts


def _values_matrix(P, Q, lam, n):
    """The matrix P^n -> Q^n of the map with generator values lam."""
    return Matrix.from_row_entries(P.algebra.field, Q.dim(n), [
        Q.times(P.gens[k], Q.layout(P.gens[k]).values(lam[k]), j, beta)
        for k, j, cell in P.layout(n).blocks for beta in cell.rows])


# a3/P1toP0+P2toP0+P2[1] has no strict lift of its naturality map, so its
# homotopy is nonzero
@pytest.mark.parametrize("name", ["fix_a2/U-tilt", "a3/P1toP0+P2toP0+P2[1]"])
def test_naturality_lifts_chain_maps_homotopic_to_their_targets(name, coresolution_inputs,
                                                               monkeypatch):
    [(P, Q, targets, lam)] = _naturality_lifts(coresolution_inputs({"prime": 101})[name],
                                               monkeypatch)
    assert any(lam)
    for n in range(P.gens[-1] + P.algebra.lo - 1, P.gens[0] + 1):
        assert (_values_matrix(P, Q, lam, n) @ Q.diff_matrix(n)
                == P.diff_matrix(n) @ _values_matrix(P, Q, lam, n + 1)), n
    # aug . lam and the targets are cocycles of one nonzero class
    sh = SemifreeHom(P, Q.target)
    aug = sh.assemble(0, {k: Q.aug_matrix(g).apply_entries(lam[k])
                          for k, g in enumerate(P.gens)})
    target = sh.assemble(0, targets)
    assert sh.diff(0).apply_entries(aug) == sh.diff(0).apply_entries(target) == {}
    assert sh.subquotient(0).reduce(aug) == sh.subquotient(0).reduce(target) != {}
    if name.startswith("a3/"):
        assert aug != target


def test_the_batterys_naturality_square_builds_nothing_of_its_own(coresolution_inputs,
                                                                  monkeypatch):
    # in verify_all the naturality square reads the probes' counit batch: it
    # builds no hom module, resolution, tensor or evaluation map of its own
    probe, seen = verifier.naturality_probe, []

    def kept(ctx):
        memo = ctx._memo
        return (len(memo["hom module"]), sum(map(len, memo["resolutions"].values())),
                len(memo["tensor"]), len(memo["evaluation"]))

    def watched(ctx, *args, **kwargs):
        before = kept(ctx)
        rep = probe(ctx, *args, **kwargs)
        seen.append((before == kept(ctx), rep.passed, rep.notes.get("vacuous")))
        return rep

    monkeypatch.setattr(verifier, "naturality_probe", watched)
    for name, ctx in _silting_contexts(coresolution_inputs).items():
        assert all(r.passed for r in verify_all(ctx.U, ctx=ctx, **SMALL)), name
    assert len(seen) == 16 and all(same and passed for same, passed, _ in seen)
    assert Counter(why for *_, why in seen) == {None: 15, "no nonzero map to test": 1}


@pytest.mark.parametrize("name", ["U-tilt", "U-silt2", "regular"])
def test_naturality_fails_for_the_lift_of_twice_the_map(name, coresolution_inputs,
                                                        monkeypatch):
    U = coresolution_inputs({"prime": 101})[f"fix_a2/{name}"]
    ctx = SiltingContext(U)
    free = probe_complexes(ctx, probe_modules(ctx.A))["free"]
    assert naturality_probe(ctx, free, U, SMALL["window"]).passed
    assert reference_naturality_probe(ctx, free, U, SMALL["window"]) == {"passed": True}
    f = ctx.A.field
    lift = verifier.lift_up_to_homotopy
    monkeypatch.setattr(verifier, "lift_up_to_homotopy", lambda P, Q, targets: lift(P, Q, {
        k: {j: f.add(c, c) for j, c in targets[k].items()} for k in range(len(P.gens))}))
    rep = naturality_probe(ctx, free, U, SMALL["window"])
    assert [c.name for c in rep.checks] == ["counit square commutes on cohomology"]
    assert not rep.passed
    assert reference_naturality_probe(ctx, free, U, SMALL["window"]) == {"passed": False}


def test_the_batched_naturality_square_agrees_with_the_square_on_each_summand(
        coresolution_inputs):
    # naturality_probe reads the square on the probes' counit batch T, with
    # g placed on its block of T; the reference reads it on the resolutions
    # and tensors of Y and Y' apart.  Both give the same verdict, or the same
    # reason for having none, on every pair of probes
    verdicts = Counter()
    for name, ctx in _silting_contexts(coresolution_inputs).items():
        verify_all(ctx.U, ctx=ctx, **SMALL)
        sources = {**probe_complexes(ctx, probe_modules(ctx.A)), "silting": ctx.U}
        for X, Xp in product(sources.values(), repeat=2):
            rep = naturality_probe(ctx, X, Xp, SMALL["window"])
            got = rep.notes if "vacuous" in rep.notes else {"passed": rep.passed}
            assert got == reference_naturality_probe(ctx, X, Xp, SMALL["window"]), name
            verdicts[str(got)] += 1
    assert verdicts[str({"passed": True})] >= 100 and len(verdicts) >= 2, verdicts


def test_every_two_term_silting_complex_of_a3_passes(coresolution_inputs):
    # a presilting sum of three indecomposables over kA_3 is silting; six of
    # the fourteen have no strict lift of right multiplication or of their
    # naturality map along a resolution
    silting = {name: U for name, U in coresolution_inputs({"prime": 101}).items()
               if name.startswith("a3/") and presilting_witness(U) is None}
    assert len(silting) == 14
    for name, U in silting.items():
        failed = [(r.kind, r.subject, c.name) for r in verify_all(U, **SMALL)
                  for c in r.checks if not c.passed]
        assert failed == [], name


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
    # the margin is fixed per context: one context per margin, on one probe
    X = probe_complexes(ctx_tilt, probe_modules(A2))["free"]
    base = verify_counit(ctx_tilt, X, WIN).checks[0].details
    for m in (1, 2, 3):
        rep = verify_counit(SiltingContext(ctx_tilt.U, extra_margin=m), X, WIN)
        assert rep.checks[0].details == base
        assert rep.notes["extra_margin"] == m


def test_windowed_hom_agrees_with_independent_oracles(U_silt2, ctx_silt2):
    # Hom over the truncation out of a resolution of Hom(U, U) into itself is
    # derived End(U): compare with the hom complex of U over the base algebra
    # and with the cohomology of the untruncated dg-end.
    M = ctx_silt2.hom_module(U_silt2)
    win = DegreeWindow(-2, 2)
    P = semifree_resolve(M, M.lo - (win.hi + 1))
    sh = SemifreeHom(P, M)
    B = dg_end(U_silt2, ctx_silt2.gh)
    for n in range(win.lo, win.hi + 1):
        assert sh.h_dim(n) == hom_complex(U_silt2, U_silt2).h_dim(n) == B.h_dim(n)


def test_context_rejects_non_projective_input(indecs):
    with pytest.raises(ValueError):
        SiltingContext(indecs["S1"].stalk)


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


# Over kA_3 simple2 is proj2, and the free module given as P0+P1+P2 sums the
# stalks the free probe sums: each name maps to the name whose report it shares.
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
    # with U the free module, the 8 probe names read 5 distinct sources
    # (the stalks P0, P1, P2, which the free probe and U sum, and the
    # replacements of simple0 and simple1) and 5 distinct targets (the
    # module probes, a stalk summand read as its module), so each source is
    # checked once, into the one direct sum of the targets, and the 64 name
    # pairs are reported from the 25 blocks of those 5 checks
    checked = []
    inner = verifier.verify_fully_faithful

    def counted(ctx, X, Xp, *args, **kwargs):
        checked.append((X, Xp))
        return inner(ctx, X, Xp, *args, **kwargs)

    monkeypatch.setattr(verifier, "verify_fully_faithful", counted)
    reports = verify_all(_free_a3(), window=(-1, 1), pair_degrees=(-1, 1))
    pairs = [r for r in reports if r.kind == "fully-faithful"]
    assert len({r.subject for r in pairs}) == 64
    sources = [X for X, _ in checked]
    (target,) = {id(Xp): Xp for _, Xp in checked}.values()
    assert len(sources) == len({id(X) for X in sources}) == 5
    assert all(X.summands is None for X in sources)
    assert len(target.summands) == 5 and all(t.summands is None for t in target.summands)
    _assert_twins_agree(pairs)
    assert all(r.passed for r in reports)


def test_verify_all_runs_one_counit_per_window(monkeypatch):
    # the 8 probe names read 5 distinct module probes (simple2 being
    # proj2); the free probe and U are P0+P1+P2, whose counits are sums of
    # those of proj0, proj1 and proj2, and the functoriality probe's three
    # sums of two summands of U read the same counits; every module probe is
    # concentrated in degree 0 and returns through the counit its own name
    # already reported, so one counit check, on the direct sum of the 5
    # module probes, serves all of them
    checked = []
    inner = verifier.verify_counit

    def counted(ctx, X, *args, **kwargs):
        checked.append(X)
        return inner(ctx, X, *args, **kwargs)

    monkeypatch.setattr(verifier, "verify_counit", counted)
    reports = verify_all(_free_a3(), window=(-1, 1), pair_degrees=(-1, 1))
    counits = [r for r in reports if r.kind == "counit"]
    assert len({r.subject for r in counits}) == 8
    (T,) = checked
    assert len(T.summands) == 5 and all(s.summands is None for s in T.summands)
    _assert_twins_agree(counits)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("name", ["fix_a2/U-tilt", "fix_a2/U-silt2", "a3/P0+P1+P2",
                                  "a3/P1toP0+P1[1]+P2[1]", "a3/P1+P2+P0[1]"])
def test_sum_reports_equal_the_direct_checks_on_the_whole_sum(name, coresolution_inputs):
    # both functors are additive, so the counit and fully-faithful reports
    # the context sums from summands are those of verify_counit and
    # verify_fully_faithful run on the whole sum, in a context of its own
    U = coresolution_inputs({"prime": 101})[name]
    win, degs = DegreeWindow(-1, 1), [-1, 0, 1]
    ctx, whole = SiltingContext(U), SiltingContext(U)
    mods = probe_modules(ctx.A)
    sources = {**probe_complexes(ctx, mods), "silting": U}
    targets = {**{n: M.stalk for n, M in mods.items()},
               "free": sources["free"], "silting": U}
    for n in ("free", "silting"):
        assert (ctx.counit(targets[n], win).as_dict()
                == verify_counit(whole, targets[n], win).as_dict()), n
    for n1 in sorted(sources):
        for n2 in sorted(targets):
            if {n1, n2} & {"free", "silting"}:
                X, Xp = sources[n1], targets[n2]
                assert (ctx.fully_faithful(X, Xp, degs).as_dict()
                        == verify_fully_faithful(whole, X, Xp, degs).as_dict()), (n1, n2)


def test_a_fused_u_is_analysed_whole(A2, monkeypatch):
    # the free module given as one term declares no summands: its counit is
    # one verify_counit on U itself, which the doubled sum reads too
    U = projective_complex(A2, {0: [0, 1]})
    assert U.summands is None
    checked = []
    inner = verifier.verify_counit

    def counted(ctx, X, *args, **kwargs):
        checked.append(X)
        return inner(ctx, X, *args, **kwargs)

    monkeypatch.setattr(verifier, "verify_counit", counted)
    ctx = SiltingContext(U)
    counit = ctx.counit(U, SMALL["window"])
    sums = functoriality_probe(ctx, SMALL["window"])
    assert counit.passed and sums.passed
    assert len(checked) == 1 and checked[0] is U
    assert [c.name for c in sums.checks] == ["counit on double"]
    assert sums.checks[0].details == {
        "h_dims": {n: [2 * x for x in row]
                   for n, row in counit.checks[0].details["h_dims"].items()}}


def test_a_broken_summand_fails_every_sum_that_contains_it(coresolution_inputs,
                                                           monkeypatch):
    # the evaluation map zero on the middle summand of U alone: U's counit
    # and the two sums holding that summand fail, the third sum passes
    U = coresolution_inputs({"prime": 101})["a3/P1toP0+P1[1]+P2[1]"]
    monkeypatch.setattr(verifier, "_evaluation_chain_map",
                        zero_on_summand(verifier._evaluation_chain_map, U.summands[1]))
    reports = verify_all(U, **SMALL)
    (silting,) = [r for r in reports if r.kind == "counit" and r.subject == "silting"]
    (sums,) = [r for r in reports if r.kind == "functoriality"]
    assert not silting.passed
    assert {c.name: c.passed for c in sums.checks} == {
        "counit on sum01": False, "counit on sum02": True, "counit on sum12": False}


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
    ("counit", "evaluation map induces cohomology isomorphisms"),
    ("fully-faithful", "morphism spaces match through the functor"),
    ("semiorthogonal-classification", "probe {name} detected within the degree bound"),
    ("concentration-roundtrip", "probe concentrates in the expected degree"),
    ("concentration-roundtrip", "hom module has one-point cohomology"),
    ("concentration-roundtrip", "tensor of the concentrated module returns the probe"),
    ("functoriality", "counit on {name}"),
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
    yield verify_all(U_tilt, ctx=SiltingContext(U_tilt, max_steps=0), **SMALL)
    with monkeypatch.context() as m:
        # composition in the wrong order, and End(H^0 U) read off H^0 U twice
        _swapped_composite(m)
        m.setattr(Module, "stalk", property(lambda M: Complex(
            M.algebra, {0: direct_sum_modules(M.algebra, [M, M])}, {}, validate=False)))
        yield [verify_E_iso(SiltingContext(U_tilt))]
    # the truncation's degree-0 products with their factors swapped
    yield [verify_E_iso(_swap_end_factors(SiltingContext(U_tilt)))]
    with monkeypatch.context() as m:
        # evaluation and postcomposition both zero
        m.setattr(verifier, "_evaluation_chain_map",
                  lambda T, gh, X: ChainMap(T, X, {}, validate=False))
        m.setattr(verifier, "_after_augmentations",
                  lambda P, *args: lambda n, rep: {k: {} for k in range(len(P.gens))})
        yield verify_all(U_tilt, **SMALL)
    with monkeypatch.context() as m:
        # the lift of the naturality map tensored to zero
        m.setattr(verifier, "_tensor_of_lift",
                  lambda T, *args: ChainMap(T, T, {}, validate=False))
        reports = verify_all(U_tilt, **SMALL)
        assert [r.passed for r in reports if r.kind == "naturality"] == [False]
        yield reports
    with monkeypatch.context() as m:
        # derived endomorphisms in every degree, which the tilting theorem reads too
        m.setattr(SemifreeHom, "h_dim", lambda self, n: 1)
        yield verify_all(U_tilt, **SMALL)
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


def test_the_shapes_the_benchmark_digests(ctx_tilt):
    # the benchmark hashes sorted(vars(silting_report(U)).items()) and
    # VerificationReport.as_dict(): a field added to either changes every
    # digest, so both shapes stay as they are
    assert list(vars(ctx_tilt.report)) == [
        "presilting", "presilting_witness", "n", "multiplicities", "good", "tilting",
        "module_form", "inconclusive", "equivalence_criterion"]
    for rep in verify_all(ctx_tilt.U, window=(-1, 1), pair_degrees=(-1, 1), ctx=ctx_tilt):
        d = rep.as_dict()
        assert list(d) == ["checks", "kind", "notes", "passed", "subject"], rep.kind
        assert all(list(c) == ["details", "name", "passed"] for c in d["checks"]), rep.kind
