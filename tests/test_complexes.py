"""Complexes: cones, shifts, cohomology, hom complexes, projective replacement.

Random complexes are direct sums of shifted projectives and two-term cones;
random chain maps are random cocycles of the degree-0 hom complex.  All
expected dimensions are either structural identities or cross-checked against
independent module-level computations in the same test.
"""

import gc
import pathlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_two_term, regular_module
from oracles import nonzero_entries, reference_coords_of
from siltcheck.algebra import (
    Module,
    ModuleMap,
    Quiver,
    hom_space,
    path_algebra,
    projective_module,
    simple_module,
)
from siltcheck.complexes import (
    ChainMap,
    Complex,
    ResolutionCapError,
    cone,
    direct_sum_complexes,
    hom_complex,
    identity_chain_map,
    is_acyclic,
    module_complex,
    proj_replacement,
    projective_cache,
    projective_complex,
    summand_projection_maps,
)
from siltcheck import silting
from siltcheck.dg import DgAlgebra
from siltcheck.fields import PrimeField, RationalField
from siltcheck.instances import load_instance
from siltcheck.linalg import Matrix

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def A2():
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)


def projectives(A):
    return projective_module(A, 0), projective_module(A, 1)


def random_complex(A, rng, max_width=3):
    """Direct sum of shifted projective complexes and shifted two-term cones."""
    P1 = projective_complex(A, {0: [0]})
    P2 = projective_complex(A, {0: [1]})
    (f,) = hom_space(P2.term(0), P1.term(0))
    summands = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_width - 1)
        kind = rng.randint(0, 2)
        if kind == 0:
            summands.append(P1.shift(k))
        elif kind == 1:
            summands.append(P2.shift(k))
        else:
            c = rng.randint(1, 100)
            g = ChainMap(P2, P1, {0: f.mat.scale(c)})
            C = cone(g)
            summands.append(C.shift(k))
    return direct_sum_complexes(summands)


def random_chain_map(X, Y, rng):
    gh = hom_complex(X, Y)
    rows = gh.diff(0).left_kernel().rows
    if not rows:
        return ChainMap(X, Y, {})
    fld = X.algebra.field
    coords = [fld.zero] * gh.dim(0)
    for r in rows:
        c = fld.coerce(rng.randint(0, 100))
        coords = [fld.coerce(a + c * b) for a, b in zip(coords, r)]
    return gh.chain_map_from_cocycle(nonzero_entries(coords))


# -- basics ----------------------------------------------------------------


def test_module_complex_cohomology(A2):
    P1, _ = projectives(A2)
    X = module_complex(P1)
    assert X.h_dim(0) == P1.dim
    assert X.h_dim(1) == 0 and X.h_dim(-1) == 0
    H = X.cohomology(0)
    assert H.dimension_vector() == P1.dimension_vector()


def test_cohomology_dimensions_and_induced_maps_build_no_module(A2):
    # h_dim and induced read the subquotient; only cohomology(n) builds H^n
    rng = random.Random(11)
    X, Y = random_complex(A2, rng), random_complex(A2, rng)
    f = random_chain_map(X, Y, rng)
    for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2):
        assert f.induced(n).nrows == X.h_dim(n)
        assert f.induced(n).ncols == Y.h_dim(n)
    assert X._cohom == {} and Y._cohom == {}
    assert X.cohomology(X.lo).sq is X.subquotient(X.lo)


def test_cone_of_identity_contractible(A2):
    P1, _ = projectives(A2)
    X = module_complex(P1)
    assert is_acyclic(cone(identity_chain_map(X)))


def test_cone_of_zero_map(A2):
    P1, P2 = projectives(A2)
    X, Y = module_complex(P1), module_complex(P2)
    C = cone(ChainMap(X, Y, {}))
    assert C.term(-1).dim == P1.dim and C.term(0).dim == P2.dim
    assert C.h_dim(-1) == P1.dim and C.h_dim(0) == P2.dim


def test_cone_of_inclusion_is_simple(A2):
    P1, P2 = projectives(A2)
    (incl,) = hom_space(P2, P1)
    f = ChainMap(module_complex(P2), module_complex(P1), {0: incl.mat})
    C = cone(f)
    assert C.h_dim(-1) == 0
    assert C.h_dim(0) == 1
    assert C.cohomology(0).dimension_vector() == (1, 0)


def test_shift_round_trip(A2):
    rng = random.Random(7)
    X = random_complex(A2, rng)
    assert X.shift(0) is X
    Y = X.shift(1).shift(-1)
    for n in X.degrees():
        assert Y.term(n).dim == X.term(n).dim
        assert Y.diff(n) == X.diff(n)
    for n in range(X.lo - 1, X.hi + 2):
        for k in (-2, 1, 3):
            assert X.shift(k).h_dim(n - k) == X.h_dim(n)


def test_projective_cache_does_not_keep_algebras_alive():
    refs = []
    for _ in range(200):
        A = path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)
        assert projective_cache(A, 0) is projective_cache(A, 0)
        refs.append(weakref.ref(A))
    del A
    gc.collect()
    assert [r for r in refs if r() is not None] == []


# -- hom complexes ---------------------------------------------------------


def test_hom_complex_yoneda(A2):
    Areg = projective_complex(A2, {0: [0, 1]})
    rng = random.Random(3)
    for _ in range(5):
        Y = random_complex(A2, rng)
        gh = hom_complex(Areg, Y)
        for n in range(Y.lo - 1, Y.hi + 2):
            assert gh.h_dim(n) == Y.h_dim(n)


def test_hom_complex_single_projective(A2):
    X = projective_complex(A2, {0: [0]})
    gh = hom_complex(X, X)
    assert gh.dim(0) == 1
    assert gh.h_dim(0) == 1
    for n in (-2, -1, 1, 2):
        assert gh.dim(n) == 0


def test_hom_complex_needs_a_projective_witness(A2):
    P1, _ = projectives(A2)
    with pytest.raises(ValueError, match="projective witness"):
        hom_complex(module_complex(P1), projective_complex(A2, {0: [0]}))


def test_projective_witness_is_checked_against_the_action(A2):
    # the free module with its two summands listed in the wrong order has the
    # right dimension but not the listed actions
    free = projective_complex(A2, {0: [0, 1]})
    with pytest.raises(ValueError, match="does not match the action"):
        Complex(A2, dict(free.terms), {}, proj_types={0: (1, 0)})
    Complex(A2, dict(free.terms), {}, proj_types={0: (0, 1)})


def test_hom_complex_checks_each_differential_it_reads(A2):
    # a complex built without validation, as shifts and direct sums are,
    # whose differential sends e_1 to the arrow a: not a module map, since
    # the image of e_1 must lie in P1.e_1; the hom complex refuses it on
    # either side
    P1 = projective_cache(A2, 0)
    bad = Complex(A2, {-1: P1, 0: P1}, {-1: Matrix(F101, 2, 2, [[0, 1], [0, 0]])},
                  {-1: (0,), 0: (0,)}, validate=False)
    good = projective_complex(A2, {0: [0]})
    for X, Y in ((bad, good), (good, bad)):
        gh = hom_complex(X, Y)
        with pytest.raises(AssertionError, match="does not commute"):
            for n in gh.degrees():
                gh.diff(n)


_YONEDA_QUIVERS = {
    "A2": (["1", "2"], [("a", "1", "2")], []),
    "A3": (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], []),
    "square": (["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")],
               [[(1, ["a", "b"]), (-1, ["c", "d"])]]),
}
_yoneda_algebras: dict = {}


def _yoneda_algebra(name):
    if name not in _yoneda_algebras:
        verts, arrows, rels = _YONEDA_QUIVERS[name]
        _yoneda_algebras[name] = path_algebra(Quiver(verts, arrows), F101, rels)
    return _yoneda_algebras[name]


def _flat(mat):
    return tuple(x for r in mat.rows for x in r)


def _is_module_map(S, N, mat):
    try:
        ModuleMap(S, N, mat)
    except AssertionError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_YONEDA_QUIVERS)), st.integers(0, 2 ** 32 - 1))
def test_yoneda_basis_matches_hom_space(name, seed):
    # sum of indecomposable projectives against a module taken from the
    # cohomology of a random two-term complex, checked against the
    # commutation-system oracle hom_space
    A = _yoneda_algebra(name)
    rng = random.Random(seed)
    f = A.field
    nverts = len(A.idempotents)
    X = projective_complex(A, {0: [rng.randrange(nverts) for _ in range(rng.randint(1, 3))]})
    N = random_two_term(A, rng).cohomology(rng.choice([-1, 0]))
    S = X.term(0)
    gh = hom_complex(X, module_complex(N))
    basis = [h for _, h in gh.basis.get(0, ())]
    oracle = [h.mat for h in hom_space(S, N)]
    assert len(basis) == len(oracle)
    if not basis:
        return
    width = S.dim * N.dim
    ours = Matrix(f, len(basis), width, [_flat(m) for m in basis])
    theirs = Matrix(f, len(oracle), width, [_flat(m) for m in oracle])
    both = Matrix(f, 2 * len(basis), width, list(ours.rows) + list(theirs.rows))
    assert ours.rank() == theirs.rank() == both.rank() == len(basis)
    assert all(_is_module_map(S, N, m) for m in basis)
    for _ in range(3):
        coords = tuple(f.coerce(rng.randrange(101)) for _ in basis)
        comps = gh.component_maps(0, nonzero_entries(coords))
        assert gh.coords_of(0, comps) == nonzero_entries(coords)
    # a module map with one entry moved is a module map only by accident; the
    # row-checked reference reader tells the two apart
    for _ in range(3):
        comps = gh.component_maps(0, nonzero_entries(f.coerce(rng.randrange(101)) for _ in basis))
        mat = comps.get(0, Matrix.zero(f, S.dim, N.dim))
        r, c = rng.randrange(S.dim), rng.randrange(N.dim)
        bumped = Matrix(f, S.dim, N.dim,
                        [[f.add(x, f.one) if (i, j) == (r, c) else x
                          for j, x in enumerate(row)] for i, row in enumerate(mat.rows)])
        got = reference_coords_of(gh, 0, {0: bumped})
        if _is_module_map(S, N, bumped):
            assert gh.component_maps(0, got).get(0, Matrix.zero(f, S.dim, N.dim)) == bumped
        else:
            assert got is None


def test_hom_complex_componentwise_dims(A2):
    P1, P2 = projectives(A2)
    (incl,) = hom_space(P2, P1)
    X = Complex(A2, {-1: P2, 0: P1}, {-1: incl.mat},
                proj_types={-1: (1,), 0: (0,)})
    gh = hom_complex(X, X)
    assert gh.dim(0) == len(hom_space(P2, P2)) + len(hom_space(P1, P1))
    assert gh.dim(-1) == len(hom_space(P1, P2))
    assert gh.dim(1) == len(hom_space(P2, P1))
    for n in gh.basis:
        assert (gh.diff(n) @ gh.diff(n + 1)).is_zero()


def test_derived_hom_basics(A2):
    Areg = projective_complex(A2, {0: [0, 1]})
    M = module_complex(regular_module(A2))
    gh = hom_complex(Areg, M)
    assert gh.h_dim(0) == A2.dim
    assert gh.h_dim(1) == 0
    assert gh.h_dim(-1) == 0
    with pytest.raises(ValueError):
        hom_complex(M, M)


def test_ext_groups_vs_module_oracle(A2):
    S1 = module_complex(simple_module(A2, 0))
    S2 = module_complex(simple_module(A2, 1))
    P1, P2 = projectives(A2)
    R1, e1 = proj_replacement(S1)
    assert is_acyclic(cone(e1))
    # independent oracle: Ext^1(S1, S2) = coker(Hom(P1,S2) -> Hom(P2,S2))
    # for the resolution 0 -> P2 -> P1 -> S1 -> 0, so its dimension is
    # dim Hom(P2,S2) - dim Hom(P1,S2) = 1 - 0
    oracle = len(hom_space(P2, simple_module(A2, 1))) - len(hom_space(P1, simple_module(A2, 1)))
    gh = hom_complex(R1, S2)
    assert gh.h_dim(1) == oracle == 1
    assert gh.h_dim(0) == 0
    # S2 is projective, so nothing in degree 1 the other way
    R2, _ = proj_replacement(S2)
    gh = hom_complex(R2, S1)
    assert gh.h_dim(1) == 0
    assert gh.h_dim(0) == 0


# -- projective replacement ------------------------------------------------


def test_proj_replacement_fixed_point(A2):
    X = projective_complex(A2, {0: [0, 1]})
    P, eps = proj_replacement(X)
    assert P is X
    for n in X.degrees():
        assert eps.mat(n) == Matrix.identity(F101, X.term(n).dim)


def test_proj_replacement_of_simple(A2):
    S1 = module_complex(simple_module(A2, 0))
    P, eps = proj_replacement(S1)
    assert P.is_projective_complex()
    assert P.hi == 0 and P.lo == -1
    assert is_acyclic(cone(eps))
    assert P.h_dim(0) == 1 and P.h_dim(-1) == 0


def test_proj_replacement_cap():
    A = path_algebra(Quiver(["v"], [("x", "v", "v")]), F101, [[(1, ["x", "x"])]])
    k = Module(A, 1, [Matrix.identity(F101, 1), Matrix.zero(F101, 1, 1)])
    with pytest.raises(ResolutionCapError):
        proj_replacement(module_complex(k), cap=5)


def test_proj_replacement_random(A2):
    rng = random.Random(23)
    for _ in range(5):
        X = random_complex(A2, rng)
        # strip the witness so replacement actually runs
        Xp = Complex(A2, dict(X.terms), dict(X.diffs))
        P, eps = proj_replacement(Xp)
        assert P.is_projective_complex()
        assert is_acyclic(cone(eps))
        assert P.hi <= Xp.hi


def _linear(n, field, relations=()):
    """Linear A_n, 0 -> 1 -> ... -> n-1."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(n - 1)]
    return path_algebra(Quiver([str(i) for i in range(n)], arrows), field, relations)


def _d4(field):
    """D_4 with its branch vertex 0 a source."""
    arrows = [("a", "0", "1"), ("b", "0", "2"), ("c", "0", "3")]
    return path_algebra(Quiver(["0", "1", "2", "3"], arrows), field)


# the projective witness, by degree, of the replacement of each vertex simple
SIMPLE_RESOLUTIONS = {
    "kA_3": (lambda: _linear(3, F101),
             [{-1: (1,), 0: (0,)}, {-1: (2,), 0: (1,)}, {0: (2,)}]),
    "A_5 over F_101": (lambda: _linear(5, F101),
                       [{-1: (v + 1,), 0: (v,)} for v in range(4)] + [{0: (4,)}]),
    "D_4 over Q": (lambda: _d4(RationalField()),
                   [{-1: (1, 2, 3), 0: (0,)}, {0: (1,)}, {0: (2,)}, {0: (3,)}]),
    "kA_3 mod the path of length 2": (
        lambda: _linear(3, F101, [[(1, ["a0", "a1"])]]),
        [{-2: (2,), -1: (1,), 0: (0,)}, {-1: (2,), 0: (1,)}, {0: (2,)}]),
}


@pytest.mark.parametrize("name", SIMPLE_RESOLUTIONS)
def test_proj_replacement_of_every_vertex_simple(name):
    build, want = SIMPLE_RESOLUTIONS[name]
    A = build()
    for v, types in enumerate(want):
        P, eps = proj_replacement(module_complex(simple_module(A, v)))
        assert P.proj_types == types
        assert is_acyclic(cone(eps))


@pytest.mark.parametrize("name", SIMPLE_RESOLUTIONS)
def test_proj_replacement_cap_is_the_projective_dimension(name):
    # a resolution exactly cap degrees long resolves; one degree longer
    # raises, naming the degree X.lo - cap - 1 it reached
    build, want = SIMPLE_RESOLUTIONS[name]
    A = build()
    for v, types in enumerate(want):
        pd = -min(types)
        for lo in (0, 2):
            X = module_complex(simple_module(A, v), lo)
            P, _ = proj_replacement(X, cap=pd)
            assert P.proj_types == {n + lo: t for n, t in types.items()}
            if pd:
                with pytest.raises(ResolutionCapError,
                                   match=rf"reached degree {lo - pd} \(cap {pd - 1} below"):
                    proj_replacement(X, cap=pd - 1)


def test_unbounded_resolution_raises_at_every_cap():
    A = load_instance(pathlib.Path(__file__).resolve().parent.parent
                      / "instances" / "fix_dual.json").algebra
    X = module_complex(simple_module(A, 0))
    for cap in (0, 1, 2, 3, 8, 16):
        with pytest.raises(ResolutionCapError,
                           match=rf"^projective replacement reached degree {-cap - 1} "
                                 rf"\(cap {cap} below the support\)$"):
            proj_replacement(X, cap=cap)


def test_deep_resolution_reads_each_cell_a_bounded_number_of_times(monkeypatch):
    # fix_dual's simple resolves without end, one generator per degree; each
    # degree reads only the cells of the generators that reach it, so the
    # cell reads grow linearly with the depth (at the quadratic walk over
    # every generator they grow about 15-fold from cap 100 to cap 400)
    A = load_instance(pathlib.Path(__file__).resolve().parent.parent
                      / "instances" / "fix_dual.json").algebra
    X = module_complex(simple_module(A, 0))
    calls = []
    cell = DgAlgebra.cell
    monkeypatch.setattr(DgAlgebra, "cell", lambda self, i, n: calls.append(1) or cell(self, i, n))
    reads = {}
    for cap in (100, 400):
        calls.clear()
        with pytest.raises(ResolutionCapError):
            proj_replacement(X, cap=cap)
        reads[cap] = len(calls)
    assert reads[400] <= 5 * reads[100]


@pytest.mark.parametrize("name", SIMPLE_RESOLUTIONS)
def test_proj_replacement_cost_does_not_grow_with_the_cap(name):
    # the construction stops where the cone vanishes, not at the cap
    build, want = SIMPLE_RESOLUTIONS[name]
    A = build()
    for v in range(len(want)):
        X = module_complex(simple_module(A, v))
        P, eps = proj_replacement(X, cap=16)
        Q, eps_q = proj_replacement(X, cap=10**6)
        assert (Q.proj_types, Q.terms, Q.diffs) == (P.proj_types, P.terms, P.diffs)
        assert eps_q.mats == eps.mats


# -- acyclicity and long exact sequence ------------------------------------


def _acyclic_by_cohomology(X):
    return all(X.subquotient(n).dim == 0 for n in X.degrees())


def _fresh(X):
    """X again, with nothing of its cohomology built yet."""
    return Complex(X.algebra, X.terms, X.diffs, X.proj_types, validate=False)


def test_acyclic_by_ranks_matches_cohomology_on_random_complexes(A2):
    # h_dim reads ranks until a degree's subquotient is built, and the
    # subquotient's dimension after: both agree, whichever is read first
    rng = random.Random(41)
    seen = set()
    for _ in range(15):
        X = random_complex(A2, rng)
        f = random_chain_map(X, random_complex(A2, rng), rng)
        for Z in (X, cone(f), cone(identity_chain_map(X))):
            got = is_acyclic(_fresh(Z))
            assert got == _acyclic_by_cohomology(_fresh(Z))
            seen.add(got)
            degrees = range(Z.lo - 1, Z.hi + 2)
            ranks_first, sq_first = _fresh(Z), _fresh(Z)
            by_ranks = [ranks_first.h_dim(n) for n in degrees]
            assert by_ranks == [ranks_first.subquotient(n).dim for n in degrees]
            assert [sq_first.subquotient(n).dim for n in degrees] == by_ranks
            assert [sq_first.h_dim(n) for n in degrees] == by_ranks
    assert seen == {True, False}


def test_acyclic_by_ranks_matches_cohomology_on_coresolution_cones(monkeypatch):
    # every complex coresolve_A tests on the fix_a2 complexes: the regular
    # complex and each cone, acyclic or not
    inst = load_instance(pathlib.Path(__file__).resolve().parent.parent
                         / "instances" / "fix_a2.json")
    seen = []

    def checked(X):
        got = is_acyclic(X)
        assert got == _acyclic_by_cohomology(X)
        seen.append(got)
        return got

    monkeypatch.setattr(silting, "is_acyclic", checked)
    for U in inst.complexes.values():
        silting.coresolve_A(U, 8, hom_complex(U, U))
    assert True in seen and False in seen


def test_cone_long_exact_identity(A2):
    rng = random.Random(2024)
    for _ in range(10):
        X = random_complex(A2, rng)
        Y = random_complex(A2, rng)
        f = random_chain_map(X, Y, rng)
        C = cone(f)
        for n in range(C.lo - 1, C.hi + 1):
            rn = f.induced(n).rank()
            rn1 = f.induced(n + 1).rank()
            want = (Y.h_dim(n) - rn) + (X.h_dim(n + 1) - rn1)
            assert C.h_dim(n) == want


def test_euler_characteristic(A2):
    rng = random.Random(5)
    for _ in range(10):
        X = random_complex(A2, rng)
        chi_terms = sum((-1) ** (n % 2) * X.term(n).dim for n in X.degrees())
        chi_h = sum((-1) ** (n % 2) * X.h_dim(n) for n in X.degrees())
        assert chi_terms == chi_h


def test_derived_hom_invariance(A2):
    rng = random.Random(17)
    X = random_complex(A2, rng)
    Y = random_complex(A2, rng)
    P1, _ = projectives(A2)
    contractible = cone(identity_chain_map(module_complex(P1)))
    Y2 = direct_sum_complexes([Y, contractible.shift(rng.randint(-2, 2))])
    gh, gh2 = hom_complex(X, Y), hom_complex(X, Y2)
    for n in range(-4, 5):
        assert gh.h_dim(n) == gh2.h_dim(n)
        k = rng.randint(-3, 3)
        assert gh.h_dim(n) == hom_complex(X.shift(k), Y.shift(k)).h_dim(n)


def test_support_bound(A2):
    rng = random.Random(29)
    U = random_complex(A2, rng)
    width = U.hi - U.lo
    gh = hom_complex(U, U)
    for i in range(width + 1, width + 4):
        assert gh.h_dim(i) == 0
        assert gh.h_dim(-i) == 0


# -- direct sums -----------------------------------------------------------


def test_summand_projections(A2):
    rng = random.Random(31)
    X = random_complex(A2, rng)
    projs = summand_projection_maps(X)
    total = None
    for p in projs:
        p.validate()
        for n in X.degrees():
            m = p.mat(n)
            assert m @ m == m
    for n in X.degrees():
        acc = Matrix.zero(F101, X.term(n).dim, X.term(n).dim)
        for p in projs:
            acc = acc + p.mat(n)
        assert acc == Matrix.identity(F101, X.term(n).dim)
