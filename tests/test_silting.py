"""Presilting, coresolution, goodification and equivalence checks."""

import itertools

import pytest

import oracles
from conftest import A3_INDECOMPOSABLES, FIX_A2
from oracles import (approximation_checks, compose, coresolution_les_ok,
                     reference_coresolutions, summand_projection_maps)
from siltcheck import dg, silting
from siltcheck.fields import PrimeField
from siltcheck.linalg import Matrix
from siltcheck import algebra, complexes
from siltcheck.algebra import Quiver, hom_space, path_algebra
from siltcheck.complexes import (ChainMap, block_matrix, direct_sum_complexes,
                                 hom_complex, is_acyclic, projective_cache,
                                 projective_complex, projective_sum)
from siltcheck.dg import dg_end
from siltcheck.instances import load_instance
from siltcheck.silting import (coresolve_A, goodify, presilting_witness,
                               radical_rows, silting_equivalent, silting_report)

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def A2():
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)


@pytest.fixture(scope="module")
def parts(A2):
    P1c = projective_complex(A2, {0: [0]})
    P2c = projective_complex(A2, {0: [1]})
    s1res = projective_complex(
        A2, {-1: [1], 0: [0]},
        {-1: Matrix(F101, 1, 2, [[F101.zero, F101.one]])})
    return P1c, P2c, s1res


@pytest.fixture(scope="module")
def regular(parts):
    P1c, P2c, _ = parts
    return direct_sum_complexes([P1c, P2c])


@pytest.fixture(scope="module")
def tilt(parts):
    P1c, _, s1res = parts
    return direct_sum_complexes([P1c, s1res])


@pytest.fixture(scope="module")
def silt2(parts):
    P1c, P2c, _ = parts
    return direct_sum_complexes([P2c, P1c.shift(1)])


@pytest.fixture(scope="module")
def wrong(parts):
    P1c, P2c, _ = parts
    return direct_sum_complexes([P1c, P2c.shift(1)])


def test_regular_complex_report(regular):
    r = silting_report(regular)
    assert r.presilting and r.presilting_witness is None
    assert r.n == 0
    assert r.multiplicities == [{0: 1, 1: 1}]
    assert r.good and r.tilting and r.module_form
    assert not r.inconclusive
    assert r.equivalence_criterion == "mutual-presilting"


def test_tilting_fixture_coresolution(tilt):
    B = dg_end(tilt)
    cor = coresolve_A(tilt, 8, B.gh)
    assert cor is not None and cor.n == 1
    assert cor.multiplicities == [{0: 2}, {1: 1}]
    ref = reference_coresolutions(tilt, 8, B)[8]
    assert ref.multiplicities == cor.multiplicities
    assert is_acyclic(ref.steps[-1][1])
    assert coresolution_les_ok(ref, tilt)


def test_tilting_fixture_report(tilt):
    r = silting_report(tilt)
    assert r.presilting and r.good and r.tilting and r.module_form
    assert r.n == 1 and not r.inconclusive


def test_two_term_report(silt2):
    r = silting_report(silt2)
    assert r.presilting and r.presilting_witness is None
    assert r.n == 1
    assert r.multiplicities == [{0: 1}, {1: 1}]
    assert r.good
    assert not r.tilting and not r.module_form
    assert not r.inconclusive
    assert coresolution_les_ok(reference_coresolutions(silt2, 8, dg_end(silt2))[8], silt2)


def test_tilting_check_two_sided(tilt, silt2):
    # silt2 is silting, but its self-extension in shift -1 keeps it from tilting
    r = silting_report(silt2)
    assert r.presilting and not r.tilting and not r.inconclusive
    assert hom_complex(silt2, silt2).h_dim(-1) == 1
    assert not r.module_form
    r2 = silting_report(tilt)
    assert r2.tilting and r2.module_form


@pytest.fixture(scope="module")
def refuted_with_a_coresolution(parts):
    """P1 + P2 + P2[1] over kA_2: its self-extension in shift 1 refutes it,
    though the loop would coresolve A by P1 + P2 in one step."""
    P1c, P2c, _ = parts
    return direct_sum_complexes([P1c, P2c, P2c.shift(1)])


def test_wrong_orientation_fails_with_witness(wrong, refuted_with_a_coresolution):
    # a refuted input reports no coresolution, even one the loop would finish
    for U, witness in ((wrong, (1, 1)), (refuted_with_a_coresolution, (1, 2))):
        assert presilting_witness(U) == witness
        r = silting_report(U, max_steps=4)
        assert not r.presilting and r.presilting_witness == witness
        assert r.inconclusive and r.n is None and r.multiplicities is None
        assert not r.good and not r.tilting


def test_early_stop_agrees_with_the_loop_run_to_the_cap(coresolution_inputs, parts):
    inputs = dict(coresolution_inputs({"prime": 101}))
    # A[2]: H^0 and H^-1 of Hom(A, U) vanish, H^-2 does not, so two zero
    # approximations come before the last one and the loop is not stuck
    P1c, P2c, _ = parts
    inputs["A[2]"] = direct_sum_complexes([P1c.shift(2), P2c.shift(2)])
    assert coresolve_A(inputs["A[2]"], 8, hom_complex(inputs["A[2]"], inputs["A[2]"])).n == 2
    for name, U in inputs.items():
        B = dg_end(U)
        ref = reference_coresolutions(U, 8, B)
        for k in range(9):
            got, want = coresolve_A(U, k, B.gh), ref[k]
            assert (got is None) == (want is None), (name, k)
            if got is not None:
                assert got.n == want.n, (name, k)
                assert got.multiplicities == want.multiplicities, (name, k)


@pytest.mark.parametrize("field_spec", [{"prime": 101}, "rational"], ids=["F101", "Q"])
def test_long_exact_sequences_hold_on_every_terminating_coresolution(
        coresolution_inputs, field_spec):
    # the three fix_a2 complexes and the 14 silting sums over kA_3
    done = []
    for name, U in coresolution_inputs(field_spec).items():
        ref = reference_coresolutions(U, 8, dg_end(U))[8]
        if ref is not None:
            assert coresolution_les_ok(ref, U), name
            done.append(name)
    assert len(done) == 17
    assert sum(name.startswith("fix_a2/") for name in done) == 3


# (n, multiplicities) of every kA_3 sum that has a coresolution, each step's
# multiplicities as (summand, copies) in the order its target holds them; the
# other 70 sums are refuted and have neither
A3_CORESOLUTIONS = {
    "P0+P1+P2": (0, [[(0, 1), (1, 1), (2, 1)]]),
    "P0+P1+P2toP1": (1, [[(0, 1), (1, 2)], [(2, 1)]]),
    "P0+P2+P1toP0": (1, [[(0, 2), (1, 1)], [(2, 1)]]),
    "P0+P1toP0+P2toP0": (1, [[(0, 3)], [(1, 1), (2, 1)]]),
    "P0+P2toP0+P2toP1": (1, [[(0, 3), (2, 1)], [(1, 2)]]),
    "P1+P2+P0[1]": (1, [[(0, 1), (1, 1)], [(2, 1)]]),
    "P1+P2toP1+P0[1]": (1, [[(0, 2)], [(1, 1), (2, 1)]]),
    "P2+P1toP0+P1[1]": (1, [[(0, 1), (1, 1)], [(2, 2)]]),
    "P2+P0[1]+P1[1]": (1, [[(0, 1)], [(1, 1), (2, 1)]]),
    "P1toP0+P2toP0+P2[1]": (1, [[(1, 2)], [(0, 1), (2, 3)]]),
    "P1toP0+P1[1]+P2[1]": (1, [[(0, 1)], [(1, 2), (2, 1)]]),
    "P2toP0+P2toP1+P2[1]": (1, [[(0, 1), (1, 1)], [(2, 3)]]),
    "P2toP1+P0[1]+P2[1]": (1, [[(0, 1)], [(1, 1), (2, 2)]]),
    "P0[1]+P1[1]+P2[1]": (1, [[], [(0, 1), (1, 1), (2, 1)]]),
}


def test_the_coresolutions_of_the_a3_sums_are_pinned(coresolution_inputs):
    got = {}
    for name, U in coresolution_inputs({"prime": 101}).items():
        if name.startswith("a3/"):
            r = silting_report(U)
            got[name[3:]] = (r.n, r.multiplicities and [list(m.items()) for m in r.multiplicities])
    assert len(got) == 84
    assert {k: v for k, v in got.items() if v != (None, None)} == A3_CORESOLUTIONS


def test_every_coresolution_step_is_a_minimal_left_approximation(coresolution_inputs):
    # onto on H^0 Hom(-, U), and not onto once any one summand copy is
    # dropped from the target: checked on the maps themselves, not by
    # rerunning the choice of generators
    steps = 0
    for name, U in coresolution_inputs({"prime": 101}).items():
        if presilting_witness(U) is not None:
            continue
        ref = reference_coresolutions(U, 8, dg_end(U))[8]
        for fmap, _ in ref.steps if ref is not None else ():
            assert approximation_checks(fmap, U) == (True, True), name
            steps += 1
    # regular 1, U-tilt and U-silt2 2 each; P0+P1+P2 1, the other 13 silting sums 2 each
    assert steps == 32


def test_approximation_checks_catch_a_doubled_and_a_cut_target(tilt):
    # the first step of U-tilt approximates A by two copies of P1
    f, _ = reference_coresolutions(tilt, 8, dg_end(tilt))[8].steps[0]
    T = f.target
    assert len(T.summands) == 2 and approximation_checks(f, tilt) == (True, True)
    # every copy twice: still onto, but any one copy can go
    doubled = ChainMap(f.source, direct_sum_complexes(T.summands * 2),
                       {n: block_matrix(F101, [[m, m]], [m.nrows], [m.ncols] * 2)
                        for n, m in f.mats.items()})
    assert approximation_checks(doubled, tilt) == (True, False)
    # the second copy's component cut to zero: no longer onto
    assert not approximation_checks(compose(f, summand_projection_maps(T)[0]), tilt)[0]


def test_stuck_coresolution_builds_no_further_cones(monkeypatch, parts, wrong):
    # P1 alone is presilting but not silting: its coresolution is stuck
    # after one approximation
    U = parts[0]
    B = dg_end(U)

    def counted(owner):
        targets = []
        original = owner.cone

        def spy(fmap):
            targets.append(fmap.target.is_empty())
            return original(fmap)

        monkeypatch.setattr(owner, "cone", spy)
        return targets

    # run to the cap, the loop approximates by zero from step 2 on
    ref_targets = counted(oracles)
    assert reference_coresolutions(U, 8, B)[8] is None
    assert ref_targets == [False] + [True] * 7
    # the stuck test stops there whatever the bound
    targets = counted(silting)
    assert coresolve_A(U, 10_000, B.gh) is None
    assert targets == [False]
    # a refuted input is never coresolved at all
    targets.clear()
    assert coresolve_A(wrong, 10_000, hom_complex(wrong, wrong)) is None
    assert targets == []


def test_refuted_inputs_return_at_the_presilting_gate(monkeypatch, coresolution_inputs,
                                                      refuted_with_a_coresolution):
    # the witness decides, so no dg-end, H^0 algebra, radical or cone is built
    refuted = {name: U for name, U in coresolution_inputs({"prime": 101}).items()
               if presilting_witness(U) is not None}
    assert len(refuted) == 71
    refuted["P1+P2+P2[1]"] = refuted_with_a_coresolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a refuted input reached the coresolution")

    for name in ("end_h0", "end_radical", "cone"):
        monkeypatch.setattr(silting, name, forbidden)
    monkeypatch.setattr(dg, "dg_end", forbidden)
    for name, U in refuted.items():
        assert coresolve_A(U, 8, hom_complex(U, U)) is None, name


def _count_homs(monkeypatch) -> dict:
    """Count hom_complex calls by (source, target) in every module that
    builds one for the silting report; the dict maps each key to the list
    of hom complexes built."""
    from siltcheck import complexes, dg

    built: dict = {}
    original = complexes.hom_complex

    def counted(X, Y):
        gh = original(X, Y)
        built.setdefault((X, Y), []).append(gh)
        return gh

    for module in (complexes, dg, silting):
        monkeypatch.setattr(module, "hom_complex", counted)
    return built


def test_a_refuted_report_reads_hom_u_u_alone(monkeypatch, coresolution_inputs,
                                              refuted_with_a_coresolution):
    # the witness is read off one Hom(U, U): no dg-end, composition table
    # or dg-algebra validation is reached
    refuted = {name: U for name, U in coresolution_inputs({"prime": 101}).items()
               if presilting_witness(U) is not None}
    assert len(refuted) == 71
    refuted["P1+P2+P2[1]"] = refuted_with_a_coresolution

    def forbidden(*args, **kwargs):
        raise AssertionError("a refuted input reached the dg-end")

    monkeypatch.setattr(dg, "dg_end", forbidden)
    monkeypatch.setattr(dg, "_composition_tables", forbidden)
    monkeypatch.setattr(dg.DgAlgebra, "validate", forbidden)
    built = _count_homs(monkeypatch)
    for name, U in refuted.items():
        r = silting_report(U)
        assert r.presilting_witness is not None and r.n is None, name
        assert len(built.pop((U, U))) == 1, name
        assert not built, name


def test_report_and_coresolution_share_one_hom_u_u(monkeypatch, tilt, silt2):
    # the coresolution reads H^0 End(U) off the report's own Hom(U, U) and
    # keeps it there: no dg-end is built, and one H^0 algebra per input
    def forbidden(*args, **kwargs):
        raise AssertionError("the silting report built a dg-end")

    algebras = []
    h0_algebra = dg.h0_algebra

    def kept(X, *args, **kwargs):
        E = h0_algebra(X, *args, **kwargs)
        algebras.append((X, E))
        return E

    monkeypatch.setattr(dg, "dg_end", forbidden)
    monkeypatch.setattr(dg, "h0_algebra", kept)
    built = _count_homs(monkeypatch)
    for U in (tilt, silt2):
        algebras.clear()
        r = silting_report(U)
        assert r.presilting and r.n == 1
        (gh,) = built[(U, U)]
        ((X, E),) = algebras
        assert X is gh and dg.end_h0(gh) is E
        assert len(algebras) == 1


def test_module_homs_are_built_once_per_algebra(monkeypatch):
    # every witnessed term of a sum or a cone is the algebra's projective
    # sum, so over the 84 reports on one algebra the cell and Yoneda action
    # of each vertex are built once per projective sum, and kept on it
    A = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]), F101)
    built, results = {}, []
    cell = algebra.Module.cell

    def counted(N, v):
        if v not in N._cells:
            built[(v, N)] = built.get((v, N), 0) + 1
        return cell(N, v)

    monkeypatch.setattr(algebra.Module, "cell", counted)
    for name in ("cone", "direct_sum_complexes"):
        def kept(*args, _fn=getattr(complexes, name)):
            results.append((_fn.__name__, _fn(*args)))
            return results[-1][1]
        for module in (complexes, silting):
            monkeypatch.setattr(module, name, kept)

    parts = {}
    for name, types in A3_INDECOMPOSABLES.items():
        d = {}
        if len(types) == 2:
            (basis,) = hom_space(projective_cache(A, types[-1][0]),
                                 projective_cache(A, types[0][0]))
            d = {-1: basis.mat}
        parts[name] = projective_complex(A, types, d)
    triples = list(itertools.combinations(A3_INDECOMPOSABLES, 3))
    assert len(triples) == 84
    for triple in triples:
        silting_report(complexes.direct_sum_complexes([parts[x] for x in triple]))
    assert built and set(built.values()) == {1}
    sums = {id(M) for M in A._proj_sums.values()}
    assert all(id(N) in sums for _, N in built)
    assert {name for name, _ in results} == {"cone", "direct_sum_complexes"}
    for _, C in results:
        for n, types in C.proj_types.items():
            assert C.terms[n] is projective_sum(A, types)


def test_a_differential_that_does_not_square_to_zero_stops_the_scan(monkeypatch, parts):
    # d^2 = 0 is checked on Hom(U, U) before any witness is read; these
    # inputs are refuted, so no dg-end validation would catch it.  Hom(U, U)
    # of P + P[1] is nonzero in degrees -1, 0 and 1, so the all-ones
    # differential squares to a nonzero matrix.
    from siltcheck.complexes import GradedHom

    def ones(self, n):
        return Matrix(self.field, self.dim(n), self.dim(n + 1),
                      [[self.field.one] * self.dim(n + 1) for _ in range(self.dim(n))])

    P1c, P2c, _ = parts
    inputs = [direct_sum_complexes([P, P.shift(1)]) for P in (P1c, P2c)]
    assert all(presilting_witness(U) is not None for U in inputs)
    monkeypatch.setattr(GradedHom, "diff", ones)
    for U in inputs:
        for scan in (silting_report, presilting_witness):
            with pytest.raises(AssertionError,
                               match="hom complex differential does not square to zero"):
                scan(U)


def test_a_shifted_direct_sum_keeps_its_summands():
    # U[1] is the direct sum of the shifted summands, so its coresolution
    # approximates by them and is decided; U[-1] is still presilting and its
    # report stays undecided: inconclusive, never refuted
    complexes = load_instance(FIX_A2).complexes
    want = {"U-tilt": [{}, {0: 2}, {1: 1}], "U-silt2": [{}, {0: 1}, {1: 1}]}
    for name, mults in want.items():
        U = complexes[name]
        r = silting_report(U.shift(1))
        assert (r.n, r.multiplicities, r.inconclusive) == (2, mults, False), name
        assert len(U.shift(1).summands) == len(U.summands), name
        r = silting_report(U.shift(-1))
        assert r.presilting and r.presilting_witness is None, name
        assert r.inconclusive and r.n is None, name


def test_step_cap_is_inconclusive_not_false(silt2):
    r = silting_report(silt2, max_steps=0)
    assert r.presilting
    assert r.inconclusive and r.n is None and not r.good


def test_presilting_matches_dg_end_cohomology(tilt, silt2):
    for U in (tilt, silt2):
        B = dg_end(U)
        gh = hom_complex(U, U)
        for i in range(1, U.hi - U.lo + 1):
            assert B.h_dim(i) == 0
            assert gh.h_dim(i) == 0


def test_equivalence_reflexive_and_additive(parts, tilt, silt2):
    P1c, _, s1res = parts
    assert silting_equivalent(silt2, silt2)
    doubled = direct_sum_complexes([P1c, s1res, P1c, s1res])
    assert silting_equivalent(tilt, doubled)


def test_equivalence_negatives(regular, tilt, silt2):
    assert not silting_equivalent(tilt, regular)
    assert not silting_equivalent(tilt, silt2)


def test_equivalence_preconditions(wrong, silt2):
    with pytest.raises(ValueError):
        silting_equivalent(wrong, silt2)


def test_goodify_regular_and_tilt(regular, tilt, parts):
    P1c, P2c, s1res = parts
    g = goodify(regular)
    assert [id(s) for s in g.summands] == [id(P1c), id(P2c)]
    g2 = goodify(tilt)
    assert [id(s) for s in g2.summands] == [id(P1c), id(P1c), id(s1res)]
    assert presilting_witness(g2) is None
    assert silting_equivalent(tilt, g2)


def test_goodify_idempotent_up_to_equivalence(silt2, tilt):
    for U in (silt2, tilt):
        g = goodify(U)
        gg = goodify(g)
        assert gg is not None
        assert silting_equivalent(g, gg)
        r = silting_report(g)
        assert r.good and r.n is not None and r.n <= 1


def test_radical_of_h0(tilt):
    from siltcheck.dg import h0_algebra
    alg = h0_algebra(dg_end(tilt))
    rad = radical_rows(alg)
    # End of the tilting fixture: two local pieces linked by one radical map
    assert alg.dim == 3 and len(rad) == 1


def test_radical_rejects_small_characteristic():
    F2 = PrimeField(2)
    A = path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F2)
    U = direct_sum_complexes([projective_complex(A, {0: [0]}),
                              projective_complex(A, {0: [1]})])
    with pytest.raises(ValueError):
        coresolve_A(U, 8, hom_complex(U, U))
