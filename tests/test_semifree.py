"""Semifree resolutions and windowed derived tensor/Hom over the base.

The resolution contract is checked structurally (triangularity, d^2 = 0,
augmentation chain condition, cone acyclicity above the cutoff) and the
derived functors are pinned against the complex-level route computed
independently over the path algebra.
"""

import pathlib
from collections import Counter

import pytest

from oracles import (reference_kill_cone, reference_semifree_act, reference_semifree_diff,
                     reference_semifree_hom_diff)
from siltcheck import semifree
from siltcheck.algebra import Quiver, hom_space, path_algebra, simple_module
from siltcheck.complexes import (
    direct_sum_complexes,
    hom_complex,
    projective_cache,
    projective_complex,
)
from siltcheck.dg import (DgAlgebra, DgModule, _Graded, dg_end, dg_hom_module,
                          evaluation_left_module, smart_truncate)
from siltcheck.fields import PrimeField
from siltcheck.instances import load_instance
from siltcheck.linalg import Matrix, subquotient_from_maps
from siltcheck.semifree import (
    DegreeWindow,
    SemifreeCapError,
    SemifreeHom,
    SemifreeModule,
    derived_tensor,
    hom_cutoff,
    semifree_resolve,
)
from siltcheck.silting import presilting_witness
from siltcheck.verifier import SiltingContext, verify_all

F101 = PrimeField(101)
INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"


def regular_dg_module(B):
    """B as a right dg-module over itself."""
    action = {key: [list(row) for row in table] for key, table in B.mult.items()}
    return DgModule(B, "right", dict(B.dims), action, dict(B.diffs))


def derived_hom(M, N, n, window, extra_margin=0):
    """dim H^n of Hom over the base from a semifree resolution of M into N."""
    P = semifree_resolve(M, hom_cutoff(N, window, extra_margin))
    return SemifreeHom(P, N).h_dim(n)


def resolution_support(P):
    """The degrees in which the semifree module P can be nonzero."""
    if not P.gens:
        return range(0)
    return range(min(P.gens) + P.algebra.lo, max(P.gens) + 1)


def cone_support(P):
    """The degrees in which the augmentation cone of P can be nonzero."""
    lows, highs = [P.target.lo], [P.target.hi]
    if P.gens:
        lows.append(min(P.gens) + P.algebra.lo - 1)
        highs.append(max(P.gens) - 1)
    return range(min(lows), max(highs) + 1)


def cone_h_dim(P, n):
    return subquotient_from_maps(P.cone_diff(n - 1), P.cone_diff(n), P.algebra.field,
                                 P.cone_dim(n)).dim


def as_dg_module(P):
    """P as a dg-module over its base; the constructor checks the axioms."""
    C = P.algebra
    f = C.field
    dims = {n: P.dim(n) for n in resolution_support(P)}
    action = {}
    for m in resolution_support(P):
        for n in C.degrees():
            if not dims.get(m) or not C.dim(n) or not dims.get(m + n):
                continue
            action[(m, n)] = [[P.times(m, P.layout(m).values({t: f.one}), n, {j: f.one})
                               for j in range(C.dim(n))] for t in range(dims[m])]
    diffs = {n: P.diff_matrix(n) for n in resolution_support(P)}
    return DgModule(C, "right", dims, action, diffs)


@pytest.fixture(scope="module")
def A2():
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)


@pytest.fixture(scope="module")
def silt(A2):
    U = direct_sum_complexes([projective_complex(A2, {0: [1]}),
                              projective_complex(A2, {0: [0]}).shift(1)])
    B = dg_end(U)
    return U, B


@pytest.fixture(scope="module")
def hom_to_simple(A2, silt):
    U, B = silt
    X = simple_module(A2, 0).stalk
    return dg_hom_module(hom_complex(U, X), B)


@pytest.fixture(scope="module")
def dual_hom_to_simple():
    # the simple module of the dual numbers: its minimal resolution is infinite
    inst = load_instance(INSTANCES / "fix_dual.json")
    U = inst.complexes["A"]
    return dg_hom_module(hom_complex(U, inst.modules["k"].stalk), dg_end(U))


def test_window_invariant():
    w = DegreeWindow(-3, 3)
    assert (w.lo, w.hi) == (-3, 3)
    with pytest.raises(ValueError):
        DegreeWindow(1, 0)


def _resolves_by_one_cell_per_idempotent(M, cutoff):
    """M is free on the idempotents of its base: one degree-0 cell each,
    an augmentation that is an isomorphism, and an acyclic cone."""
    B = M.algebra
    P = semifree_resolve(M, cutoff)
    assert P.gens == [0] * len(B.idempotents)
    assert sorted(P.cells) == list(range(len(B.idempotents)))
    assert P.gen_diffs == [{}] * len(B.idempotents)
    for n in B.degrees():
        aug = P.aug_matrix(n)
        assert aug.nrows == aug.ncols == M.dim(n) == aug.rank()
    for n in cone_support(P):
        assert cone_h_dim(P, n) == 0
    return P


def test_regular_module_resolves_to_one_generator(silt):
    # one cell per summand idempotent of U; without summand data the unit is
    # the one idempotent, and the local dual numbers take one free generator
    U, B = silt
    assert len(B.idempotents) == 2
    _resolves_by_one_cell_per_idempotent(regular_dg_module(B), -5)
    V = load_instance(INSTANCES / "fix_dual.json").complexes["A"]
    BV = dg_end(V)
    assert BV.idempotents == [BV.unit]
    _resolves_by_one_cell_per_idempotent(regular_dg_module(BV), -5)


def test_self_hom_module_detected_as_regular(silt):
    U, B = silt
    _resolves_by_one_cell_per_idempotent(dg_hom_module(hom_complex(U, U), B), -4)


def test_zero_module_resolves_to_nothing(silt):
    _, B = silt
    M = DgModule(B, "right", {}, {}, {})
    P = semifree_resolve(M, -3)
    assert P.gens == []


def test_resolution_structural_invariants(silt, hom_to_simple):
    _, B = silt
    P = semifree_resolve(hom_to_simple, -6)
    gens = P.gens
    assert gens and all(gens[i] >= gens[i + 1] for i in range(len(gens) - 1))
    assert min(gens) >= -6
    for k, gd in enumerate(P.gen_diffs):
        for (k2, _b), _c in gd.items():
            assert k2 < k
            assert P.gens[k2] > P.gens[k]
    for n in resolution_support(P):
        assert (P.diff_matrix(n) @ P.diff_matrix(n + 1)).is_zero()
        lhs = P.diff_matrix(n) @ P.aug_matrix(n + 1)
        rhs = P.aug_matrix(n) @ hom_to_simple.diff(n)
        assert lhs.rows == rhs.rows
    as_dg_module(P)
    for n in cone_support(P):
        if n >= -5:
            assert cone_h_dim(P, n) == 0


def test_unit_law_for_tensor(silt):
    U, B = silt
    Ueval = evaluation_left_module(B, U)
    T = derived_tensor(regular_dg_module(B), Ueval, DegreeWindow(-3, 3))
    for n in U.degrees():
        assert T.term(n).dim == U.term(n).dim
        assert T.diff(n).rows == U.diff(n).rows
    for n in range(-3, 4):
        assert T.h_dim(n) == U.h_dim(n)


def test_hom_out_of_free_source_is_base_cohomology(silt, A2):
    U, B = silt
    M = regular_dg_module(B)
    w = DegreeWindow(-2, 2)
    for n in range(-2, 3):
        assert derived_hom(M, M, n, w) == B.h_dim(n)
    # base quasi-isomorphic to its ordinary degree-0 endomorphism algebra
    reg = direct_sum_complexes([projective_complex(A2, {0: [0]}),
                                projective_complex(A2, {0: [1]})])
    B0 = dg_end(reg)
    M0 = regular_dg_module(B0)
    assert derived_hom(M0, M0, 0, w) == 3
    for n in (-2, -1, 1, 2):
        assert derived_hom(M0, M0, n, w) == 0


def test_hom_agrees_with_complex_level_route(silt):
    U, B = silt
    gh = hom_complex(U, U)
    M = dg_hom_module(gh, B)
    w = DegreeWindow(-2, 2)
    for n in range(-2, 3):
        assert derived_hom(M, M, n, w) == gh.h_dim(n)
    # the hom out of the resolution is nonzero only inside its degrees()
    sh = SemifreeHom(semifree_resolve(M, hom_cutoff(M, w)), M)
    assert [m for m in range(sh.lo - 4, sh.hi + 5) if sh.dim(m)] == \
        [m for m in sh.degrees() if sh.dim(m)]


def test_tensor_recovers_source_cohomology(silt, hom_to_simple, A2):
    U, B = silt
    Ueval = evaluation_left_module(B, U)
    w = DegreeWindow(-3, 3)
    T = derived_tensor(hom_to_simple, Ueval, w)
    for n in range(-3, 4):
        assert T.h_dim(n) == (1 if n == 0 else 0)
    P1c = projective_complex(A2, {0: [0]})
    M2 = dg_hom_module(hom_complex(U, P1c), B)
    T2 = derived_tensor(M2, Ueval, w)
    for n in range(-3, 4):
        assert T2.h_dim(n) == (2 if n == 0 else 0)


def test_margin_enlargement_stability(silt, hom_to_simple):
    U, B = silt
    Ueval = evaluation_left_module(B, U)
    w = DegreeWindow(-2, 2)
    base_t = {n: derived_tensor(hom_to_simple, Ueval, w).h_dim(n) for n in range(-2, 3)}
    M = dg_hom_module(hom_complex(U, U), B)
    base_h = {n: derived_hom(M, M, n, w) for n in range(-2, 3)}
    for extra in (1, 2, 3):
        T = derived_tensor(hom_to_simple, Ueval, w, extra_margin=extra)
        assert {n: T.h_dim(n) for n in range(-2, 3)} == base_t
        assert {n: derived_hom(M, M, n, w, extra_margin=extra)
                for n in range(-2, 3)} == base_h


def test_positive_base_is_rejected(A2):
    Q = projective_complex(A2, {-1: [1], 0: [0]},
                           {-1: Matrix(F101, 1, 2, [[F101.zero, F101.one]])})
    B = dg_end(Q)
    M = dg_hom_module(hom_complex(Q, Q), B)
    with pytest.raises(ValueError):
        semifree_resolve(M, -2)


def test_generator_cap_is_an_error(dual_hom_to_simple, monkeypatch):
    monkeypatch.setattr(semifree, "GENERATOR_CAP", 2)
    with pytest.raises(SemifreeCapError) as exc:
        semifree_resolve(dual_hom_to_simple, -6)
    assert "generators at degree" in str(exc.value)


def test_per_degree_matrices_follow_added_generators(dual_hom_to_simple,
                                                     monkeypatch):
    # before every generator semifree_resolve adds, fill the memo in every
    # degree; after the add, each matrix must be a fresh module's
    degrees = range(-8, 2)
    add = SemifreeModule.add_generator
    checked = []

    def adding(self, degree, diff, aug, cell):
        for n in degrees:
            self.diff_matrix(n), self.aug_matrix(n), self.cone_diff(n)
        add(self, degree, diff, aug, cell)
        fresh = SemifreeModule(self.algebra, self.target, self.cutoff)
        for k in range(len(self.gens)):
            add(fresh, self.gens[k], self.gen_diffs[k], self.gen_augs[k],
                self.cells[k])
        for n in degrees:
            assert self.diff_matrix(n) == fresh.diff_matrix(n)
            assert self.aug_matrix(n) == fresh.aug_matrix(n)
            assert self.cone_diff(n) == fresh.cone_diff(n)
        checked.append(degree)

    monkeypatch.setattr(SemifreeModule, "add_generator", adding)
    P = semifree_resolve(dual_hom_to_simple, -6)
    assert checked == P.gens and len(checked) > 2


def _resolution_sizes(U, w):
    """Generators of each module's deepest resolution in verify_all at +-w."""
    ctx = SiltingContext(U)
    assert all(r.passed for r in verify_all(U, (-w, w), (-1, 1), ctx=ctx))
    return [len(built[min(built)].gens) for built in ctx._memo["resolutions"].values()]


def test_resolutions_are_minimal():
    # over kA_3 with U the sum of its projectives, cells are projective
    # covers: a projective probe takes one cell, and no resolution grows
    # with the window once it reaches the bottom of its module
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]),
                      F101)
    U = direct_sum_complexes([projective_complex(A3, {0: [v]}) for v in range(3)])
    ctx = SiltingContext(U)
    for v in range(3):
        P = ctx.resolve(ctx.hom_module(projective_complex(A3, {0: [v]})), -4)
        assert P.gens == [0]
    narrow = _resolution_sizes(U, 0)
    wide = _resolution_sizes(U, 3)
    assert wide == narrow
    # the derived double centralizer's 3 cells, the sum of the five module
    # probes with one cell per projective and two per simple at vertex 0 or
    # 1, and the sources read apart from it: the replacements of those two
    # simples, two cells each; the naturality probe reads the probes' sum
    assert sorted(wide) == [2, 2, 3, 7]


@pytest.mark.parametrize("field_spec", [{"prime": 2}, {"prime": 101}, "rational"],
                         ids=["F2", "F101", "Q"])
def test_sparse_action_matches_the_dense_route(coresolution_inputs, field_spec):
    # every basis element of a resolution times every basis element of the
    # base, against expanding the components over dense cell rows
    checked = 0
    for name, U in coresolution_inputs(field_spec).items():
        A = U.algebra
        one = A.field.one
        C = smart_truncate(hom_complex(U, U))
        free = projective_complex(A, {0: list(range(len(A.idempotents)))})
        P = semifree_resolve(dg_hom_module(hom_complex(U, free), C), -3)
        for n in resolution_support(P):
            for cdeg in C.degrees():
                for x in range(P.dim(n)):
                    for c in range(C.dim(cdeg)):
                        assert P.times(n, P.layout(n).values({x: one}), cdeg, {c: one}) == \
                            reference_semifree_act(P, n, {x: one}, cdeg, {c: one}), name
                        checked += 1
    assert checked


# the kA_3 complexes have truncated dg-ends with a nonzero differential, which
# the differential of each cell reads
@pytest.mark.parametrize("name", ["fix_a2/U-tilt", "fix_a2/U-silt2",
                                  "a3/P0+P2+P1toP0", "a3/P1+P2toP1+P0[1]"])
def test_resolution_differentials_match_the_reference(name, coresolution_inputs,
                                                      monkeypatch):
    # a resolution's differential is built as P (x)_C C, by the code that
    # tensors with U; every resolution the battery builds, those over A.dg
    # behind proj_replacement included, against the module's own
    # differential in every degree
    built = []
    init = SemifreeModule.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(SemifreeModule, "__init__", spy)
    U = coresolution_inputs({"prime": 101})[name]
    assert all(r.passed for r in verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    assert any(P.algebra is U.algebra.dg for P in built)
    assert any(P.algebra is not U.algebra.dg for P in built)
    checked = 0
    for P in built:
        for n in range(P.gens[-1] + P.algebra.lo - 1, P.gens[0] + 1) if P.gens else ():
            assert P.diff_matrix(n) == reference_semifree_diff(P, n), (name, n)
            checked += 1
    assert checked



@pytest.mark.parametrize("name", ["fix_a2/U-tilt", "fix_a2/U-silt2",
                                  "a3/P0+P2+P1toP0", "a3/P1+P2toP1+P0[1]"])
def test_hom_differentials_out_of_resolutions_match_the_reference(name, coresolution_inputs,
                                                                  monkeypatch):
    # every hom complex out of a resolution the battery builds, those of the
    # fully-faithful checks into hom modules and those of the derived double
    # centralizer into U over the opposite truncation, against the
    # differential from its definition in every degree
    built = []
    init = SemifreeHom.__init__

    def spy(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(SemifreeHom, "__init__", spy)
    U = coresolution_inputs({"prime": 101})[name]
    assert all(r.passed for r in verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    assert any(sh.N.side == "right" and sh.N.gh is not None for sh in built)
    assert any(sh.N.gh is None for sh in built)
    checked = 0
    for sh in built:
        for m in range(sh.lo - 1, sh.hi + 1):
            assert sh.diff(m) == reference_semifree_hom_diff(sh, m), (name, m)
            checked += sh.dim(m) > 0 and sh.dim(m + 1) > 0
    assert checked


def test_hom_out_of_a_deep_resolution_reads_each_cell_a_bounded_number_of_times(monkeypatch):
    # the simple of the dual numbers over the algebra itself has one
    # generator per degree; Hom out of its resolution reads each degree's
    # slice of the generators once, so four times the depth costs about four
    # times the cell reads
    inst = load_instance(INSTANCES / "fix_dual.json")
    A, S = inst.algebra, inst.modules["k"]
    f = A.field
    table = [[A.basis_product(i, j) for j in range(A.dim)] for i in range(A.dim)]
    base = DgAlgebra(f, {0: A.dim}, {(0, 0): table}, {}, A.unit,
                     idempotents=[{e: f.one} for e in A.idempotents])
    M = DgModule(base, "right", {0: S.dim},
                 {(0, 0): [[S.action(j).entries.get(i, {}) for j in range(A.dim)]
                           for i in range(S.dim)]}, {})
    cell = _Graded.cell
    calls = Counter()

    def counting(self, i, n):
        calls["cell"] += 1
        return cell(self, i, n)

    monkeypatch.setattr(_Graded, "cell", counting)
    reads = {}
    for cutoff in (-100, -400):
        P = semifree_resolve(M, cutoff)
        assert len(P.gens) == 1 - cutoff
        calls.clear()
        # Ext^m(k, k) = k in every degree the resolution reaches
        assert SemifreeHom(P, M).h_table() == {m: 1 for m in range(1 - cutoff)}
        reads[cutoff] = calls["cell"]
    assert reads[-400] <= 5 * reads[-100]


def _linear(n):
    return path_algebra(Quiver([str(v) for v in range(n)],
                               [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)]), F101)


def _free_linear(n):
    A = _linear(n)
    return direct_sum_complexes([projective_complex(A, {0: [v]}) for v in range(n)])


def _injective_cogenerator_linear(n):
    # DA over linear A_n as a tilting complex: P0 and P_{v+1} -> P0 for each v
    A = _linear(n)
    parts = [projective_complex(A, {0: [0]})]
    for v in range(1, n):
        (path,) = hom_space(projective_cache(A, v), projective_cache(A, 0))
        parts.append(projective_complex(A, {-1: [v], 0: [0]}, {-1: path.mat}))
    return direct_sum_complexes(parts)


def _kill_cone_cases(coresolution_inputs):
    inputs = coresolution_inputs({"prime": 101})
    a3 = [U for name, U in inputs.items()
          if name.startswith("a3/") and presilting_witness(U) is None]
    assert len(a3) == 14
    return {"a3": a3,
            "fix_a2": [inputs[f"fix_a2/{k}"] for k in ("U-tilt", "U-silt2", "regular")],
            "free-A6": [_free_linear(6)], "DA-A6": [_injective_cogenerator_linear(6)]}


@pytest.mark.parametrize("case", ["a3", "fix_a2", "free-A6", "DA-A6"])
def test_every_resolution_equals_the_reference_built_from_scratch(case, coresolution_inputs,
                                                                   monkeypatch):
    # every resolution _kill_cone finishes during verify_all at +-1, from
    # semifree_resolve and from to_cutoff alike, has the generators the
    # reference builds in one pass from its module and cutoff, where every
    # component of every class gets its orbit
    finished, deepened = [], []
    kill, to_cutoff = semifree._kill_cone, SemifreeModule.to_cutoff
    monkeypatch.setattr(semifree, "_kill_cone",
                        lambda P, top: finished.append(kill(P, top)) or finished[-1])
    monkeypatch.setattr(SemifreeModule, "to_cutoff", lambda self, cutoff: deepened.append(
        to_cutoff(self, cutoff)) or deepened[-1])
    for U in _kill_cone_cases(coresolution_inputs)[case]:
        assert all(r.passed for r in verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    # the two-term batteries also deepen resolutions they already hold
    assert len(finished) > len(deepened) and (deepened or case in ("free-A6", "DA-A6"))
    for P in finished:
        ref = reference_kill_cone(SemifreeModule(P.algebra, P.target, P.cutoff), P.target.hi)
        assert (P.gens, P.cells, P.gen_diffs, P.gen_augs) == \
            (ref.gens, ref.cells, ref.gen_diffs, ref.gen_augs), case


def test_a_class_acts_only_on_the_pieces_it_meets(monkeypatch):
    # resolving the sum of the simples over End(A) for linear A_6: each class
    # is multiplied by every idempotent, and by the cell rows of C^0 only in
    # the pieces where its component is not a boundary
    U = _free_linear(6)
    A, ctx = U.algebra, SiltingContext(U)
    M = ctx.hom_module(direct_sum_complexes([simple_module(A, v).stalk for v in range(6)]))
    C, f = ctx.C, F101
    times, calls = SemifreeModule.times, Counter()

    def counting(self, *args):
        calls["times"] += 1
        return times(self, *args)

    monkeypatch.setattr(SemifreeModule, "times", counting)
    P = semifree_resolve(M, -3)
    monkeypatch.undo()
    expected = every = 0
    for n in range(M.hi, P.cutoff - 1, -1):
        # the resolution as it stood when degree n was reached
        Q = P.to_cutoff(n + 1)
        din, dout, dim = Q.cone_diff(n - 1), Q.cone_diff(n), Q.cone_dim(n)
        if dim == din.rank() + dout.rank():
            continue
        sq = subquotient_from_maps(din, dout, f, dim)
        split = Q.dim(n + 1)
        for rep in sq.rep_entries:
            q = {j: c for j, c in rep.items() if j < split}
            x = {j - split: c for j, c in rep.items() if j >= split}
            for i, e in enumerate(C.idempotents):
                comp = reference_semifree_act(Q, n + 1, q, 0, e)
                comp.update((split + j, c) for j, c in M.act(n, x, 0, e).items())
                rows = len(C.cell(i, 0).rows)
                expected += 1 + (rows if sq.reduce(comp) else 0)
                every += 1 + rows
    assert calls["times"] == expected < every
