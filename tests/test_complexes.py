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
from oracles import (nonzero_entries, reference_component_maps, reference_coords_of,
                     summand_projection_maps)
from siltcheck.algebra import (
    Module,
    ModuleMap,
    ProjectiveModule,
    Quiver,
    hom_space,
    path_algebra,
    simple_module,
)
from siltcheck.complexes import (
    ChainMap,
    Complex,
    GradedHom,
    ResolutionCapError,
    cone,
    direct_sum_complexes,
    hom_complex,
    identity_chain_map,
    is_acyclic,
    proj_replacement,
    projective_cache,
    projective_complex,
)
from siltcheck import silting, verifier
from siltcheck.dg import DgAlgebra
from siltcheck.fields import PrimeField, RationalField
from siltcheck.instances import load_instance
from siltcheck.linalg import Matrix

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def A2():
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)


def projectives(A):
    return ProjectiveModule(A, 0), ProjectiveModule(A, 1)


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
    X = P1.stalk
    assert X.h_dim(0) == P1.dim
    assert X.h_dim(1) == 0 and X.h_dim(-1) == 0
    H = X.cohomology(0)
    assert H.dimension_vector() == P1.dimension_vector()


def test_cohomology_dimensions_and_induced_maps_build_no_module(A2, monkeypatch):
    # h_dim and induced read the subquotient; only cohomology(n) builds H^n
    rng = random.Random(11)
    X, Y = random_complex(A2, rng), random_complex(A2, rng)
    f = random_chain_map(X, Y, rng)
    calls = []
    cohomology = Complex.cohomology
    monkeypatch.setattr(Complex, "cohomology",
                        lambda self, n: calls.append(n) or cohomology(self, n))
    for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2):
        assert f.induced(n).nrows == X.h_dim(n)
        assert f.induced(n).ncols == Y.h_dim(n)
    assert calls == []
    assert X.cohomology(X.lo).sq is X.subquotient(X.lo)


def test_cone_of_identity_contractible(A2):
    P1, _ = projectives(A2)
    X = P1.stalk
    assert is_acyclic(cone(identity_chain_map(X)))


def test_cone_of_zero_map(A2):
    P1, P2 = projectives(A2)
    X, Y = P1.stalk, P2.stalk
    C = cone(ChainMap(X, Y, {}))
    assert C.term(-1).dim == P1.dim and C.term(0).dim == P2.dim
    assert C.h_dim(-1) == P1.dim and C.h_dim(0) == P2.dim


def test_cone_of_inclusion_is_simple(A2):
    P1, P2 = projectives(A2)
    (incl,) = hom_space(P2, P1)
    f = ChainMap(P2.stalk, P1.stalk, {0: incl.mat})
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
        hom_complex(P1.stalk, projective_complex(A2, {0: [0]}))


def test_homs_across_two_algebras_of_equal_dimension_are_refused():
    # kA_3 and k[t]/(t^6) both have dimension 6; neither a hom complex nor a
    # hom space between objects over them exists
    A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]), F101)
    T = path_algebra(Quiver(["v"], [("t", "v", "v")]), F101, [[(1, ["t"] * 6)]])
    assert A3.dim == T.dim == 6
    X, Y = projective_complex(A3, {0: [0]}), projective_complex(T, {0: [0]})
    for x, y in ((X, Y), (Y, X)):
        with pytest.raises(ValueError, match="different algebras"):
            hom_complex(x, y)
        with pytest.raises(ValueError, match="different algebras"):
            hom_space(x.term(0), y.term(0))


def test_every_builder_reads_its_terms_off_its_witness(A2):
    # a complex of projectives is built from its witness alone, so no term
    # can disagree with it: every builder's terms are the algebra's
    # projective_sum of its witness, one projective alone being projective(v)
    rng = random.Random(5)
    X, Y = random_complex(A2, rng), random_complex(A2, rng)
    P1, P2 = projective_cache(A2, 0), projective_cache(A2, 1)
    built = [projective_complex(A2, {-1: [1], 0: [0, 1]}), X, Y,
             cone(random_chain_map(X, Y, rng)), X.shift(3), X.shift(-2), P1.stalk, P2.stalk,
             direct_sum_complexes([P2.stalk, X.shift(1)]),
             *(proj_replacement(simple_module(A2, v).stalk)[0] for v in (0, 1))]
    for Z in built:
        assert Z.is_projective_complex() and set(Z.terms) == set(Z.proj_types)
        for n, types in Z.proj_types.items():
            assert Z.terms[n] is A2.projective_sum(types)
    for v, P in enumerate((P1, P2)):
        assert P.stalk.proj_types == {0: (v,)} and P.stalk.terms[0] is P
        assert A2.projective_sum((v,)) is P and projective_complex(A2, {0: [v]}) is P.stalk
    # a witness beside terms is refused
    with pytest.raises(ValueError, match="terms or a projective witness"):
        Complex(A2, dict(X.terms), dict(X.diffs), X.proj_types)
    # a projective built outside the algebra's cache is no projective(v):
    # its stalk carries no witness, so no hom complex reads out of it
    outside = ProjectiveModule(A2, 0)
    assert outside.stalk.terms == {0: outside} and not outside.stalk.is_projective_complex()
    with pytest.raises(ValueError, match="projective witness"):
        hom_complex(outside.stalk, P1.stalk)


def test_hom_complex_checks_each_differential_it_reads(A2):
    # a differential that sends e_1 to the arrow a is not a module map, since
    # the image of e_1 must lie in P1.e_1: the constructor cuts the k-matrix
    # into generator values and refuses it, naming its degree, even unvalidated,
    # so no hom complex ever reads it
    with pytest.raises(AssertionError, match="degree -1 does not commute"):
        Complex(A2, None, {-1: Matrix(F101, 2, 2, [[0, 1], [0, 0]])},
                {-1: (0,), 0: (0,)}, validate=False)


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
    gh = hom_complex(X, N.stalk)
    basis = [gh.component_maps(0, {t: f.one})[0] for t in range(gh.dim(0))]
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


def _stripped(X):
    """X as a complex of general modules: its terms and its expanded
    differential, with no witness."""
    return Complex(X.algebra, dict(X.terms), dict(X.diffs))


def _same_complex(X, Y):
    degrees = range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 2)
    return all(X.dim(n) == Y.dim(n) and X.diff(n) == Y.diff(n) for n in degrees)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A3", "square"]), st.integers(0, 2 ** 32 - 1))
def test_generator_values_expand_to_the_given_matrices_and_build_alike(name, seed):
    # random complexes of projectives with A-linear differentials (hom_space),
    # kept as generator values: their expansion is the k-matrix each was
    # given, entry for entry; cutting the expansion gives the values back;
    # and shifts, direct sums and cones built from values equal the same
    # constructions on the expanded matrices, complexes of general modules
    A = _yoneda_algebra(name)
    rng = random.Random(seed)
    X = random_two_term(A, rng)
    Y = random_two_term(A, rng).shift(rng.choice([-1, 0, 1]))
    for Z in (X, Y):
        from_values = Complex(A, None, Z.dvalues, Z.proj_types)
        for n in Z.degrees():
            assert from_values.diff(n).entries == Z.diff(n).entries
        assert Complex(A, None, dict(Z.diffs), Z.proj_types).dvalues == Z.dvalues
    f = random_chain_map(X, Y, rng)
    assert ChainMap(X, Y, f.mats).values == f.values
    Xg, Yg = _stripped(X), _stripped(Y)
    assert _same_complex(cone(f), cone(ChainMap(Xg, Yg, f.mats)))
    assert _same_complex(direct_sum_complexes([X, Y]), direct_sum_complexes([Xg, Yg]))
    for k in (-1, 1, 2):
        assert _same_complex(X.shift(k), Xg.shift(k))


@pytest.mark.parametrize("name", ["A3", "square"])
def test_a_matrix_that_is_not_linear_over_a_is_refused_at_its_degree(name):
    # the constructors cut a k-matrix into generator values and refuse it,
    # naming its degree, unless it is their expansion: a differential, or a
    # chain map component, with one entry moved off a module map
    A = _yoneda_algebra(name)
    f = A.field
    rng = random.Random(5)
    refused = 0
    for _ in range(200):
        X = random_two_term(A, rng)
        if -1 not in X.dvalues:
            continue
        d = X.diff(-1)
        r, c = rng.randrange(d.nrows), rng.randrange(d.ncols)
        bumped = Matrix(f, d.nrows, d.ncols, [[f.add(x, f.one) if (i, j) == (r, c) else x
                                               for j, x in enumerate(row)]
                                              for i, row in enumerate(d.rows)])
        if _is_module_map(X.term(-1), X.term(0), bumped):
            continue
        with pytest.raises(AssertionError, match="differential at degree -1 does not commute"):
            Complex(A, None, {-1: bumped}, X.proj_types, validate=False)
        S, T = (projective_complex(A, {0: X.proj_types[n]}) for n in (-1, 0))
        with pytest.raises(AssertionError, match="component at degree 0 does not commute"):
            ChainMap(S, T, {0: bumped}, validate=False)
        refused += 1
    assert refused >= 20


def test_component_maps_equal_the_basis_maps_combined(coresolution_inputs, monkeypatch):
    # component_maps expands each generator value by Yoneda; the reference
    # sums each coordinate's multiple of its whole basis map, and coords_of
    # reads the maps back.  Random coordinates in every degree of Hom(U, U)
    # and of every hom module's Hom(U, X) that verify_all builds at +-1, on
    # the 14 silting sums over kA_3, U-tilt and U-silt2
    inputs = coresolution_inputs({"prime": 101})
    sums = [U for name, U in inputs.items()
            if name.startswith("a3/") and silting.presilting_witness(U) is None]
    assert len(sums) == 14
    sums += [inputs["fix_a2/U-tilt"], inputs["fix_a2/U-silt2"]]
    homs, build = [], verifier.dg_hom_module
    monkeypatch.setattr(verifier, "dg_hom_module",
                        lambda gh, base: homs.append(gh) or build(gh, base))
    for U in sums:
        homs.append(hom_complex(U, U))
        assert all(r.passed for r in verifier.verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    assert len(homs) > 2 * len(sums)
    rng, checked = random.Random(44), 0
    for gh in homs:
        f = gh.field
        for n in gh.degrees():
            for _ in range(2 if gh.dim(n) else 0):
                coords = nonzero_entries(f.coerce(rng.randrange(101)) for _ in range(gh.dim(n)))
                comps = gh.component_maps(n, coords)
                assert comps == reference_component_maps(gh, n, coords)
                assert gh.coords_of(n, comps) == coords
                checked += 1
    assert checked > len(homs)


def test_a_map_applied_to_the_cut_of_an_element_equals_its_component_map(coresolution_inputs,
                                                                          monkeypatch):
    # GradedHom.apply reads x(w) off x's generator values and the cut of w
    # into elements of A; component_maps expands x into matrices by Yoneda.
    # Random x in every degree and random w in every degree of the source,
    # on every hom complex verify_all builds at +-1 on the 14 silting sums
    # over kA_3, U-tilt and U-silt2, and on Hom(S, U) for S the second
    # summand of U-tilt, where w is also read as its block of U and x(w)
    # placed on a block of a sum
    inputs = coresolution_inputs({"prime": 101})
    sums = [U for name, U in inputs.items()
            if name.startswith("a3/") and silting.presilting_witness(U) is None]
    assert len(sums) == 14
    sums += [inputs["fix_a2/U-tilt"], inputs["fix_a2/U-silt2"]]
    homs, init = [], GradedHom.__init__
    monkeypatch.setattr(GradedHom, "__init__",
                        lambda self, X, Y: homs.append(self) or init(self, X, Y))
    for U in sums:
        assert all(r.passed for r in verifier.verify_all(U, window=(-1, 1), pair_degrees=(-1, 1)))
    U = inputs["fix_a2/U-tilt"]
    block = hom_complex(U.summands[1], U)
    rng, checked = random.Random(45), 0

    def random_vector(f, dim):
        return nonzero_entries(f.coerce(rng.randrange(101)) if rng.random() < 0.7 else f.zero
                               for _ in range(dim))

    for gh in homs:
        f, X, Y = gh.field, gh.X, gh.Y
        for m in gh.degrees():
            if not gh.dim(m):
                continue
            x = random_vector(f, gh.dim(m))
            values, comps = gh.values(m, x), gh.component_maps(m, x)
            for j in X.degrees():
                w = random_vector(f, X.dim(j))
                want = comps[j].apply_entries(w) if j in comps else {}
                assert gh.apply(m, values, gh.cut(j, w)) == want
                checked += 1
                if gh is block:
                    # w read as block 1 of U^j beside a random block 0, and
                    # x(w) placed on block 1 of the sum of Y with itself
                    two, off = direct_sum_complexes([Y, Y]), U.block_start(j, 1)
                    big = {**random_vector(f, off), **{off + r: c for r, c in w.items()}}
                    placed = {two.block_start(m + j, 1) + c: z for c, z in want.items()}
                    assert gh.apply(m, values, gh.cut(j, big, (U, 1)), (two, 1)) == placed
    assert block in homs and checked > 2 * len(homs)


def test_a_module_that_is_no_representation_is_refused_before_any_cell_read(A2):
    # the arrow of kA_2 acting on M.e_1 as the identity gives (m a) e_2 = 0
    # while m (a e_2) = m a: not a module, so no map out of e_1 A with value m
    # is a module map.  The arrow does not map e_1 into e_2, and the module is
    # refused when it is built, before a cell of it can be read
    f = A2.field

    def module(arrow):
        return Module(A2, 2, [Matrix(f, 2, 2, m) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]],
                                                           arrow)])

    good = module([[0, 1], [0, 0]])
    assert [good.cell(v).rows for v in (0, 1)] == [[{0: f.one}], [{1: f.one}]]
    with pytest.raises(AssertionError, match="does not map e_1 into e_2"):
        module([[1, 0], [0, 0]])


def test_hom_complex_componentwise_dims(A2):
    P1, P2 = projectives(A2)
    (incl,) = hom_space(P2, P1)
    X = Complex(A2, None, {-1: incl.mat}, proj_types={-1: (1,), 0: (0,)})
    gh = hom_complex(X, X)
    assert gh.dim(0) == len(hom_space(P2, P2)) + len(hom_space(P1, P1))
    assert gh.dim(-1) == len(hom_space(P1, P2))
    assert gh.dim(1) == len(hom_space(P2, P1))
    for n in gh.degrees():
        assert (gh.diff(n) @ gh.diff(n + 1)).is_zero()


def test_derived_hom_basics(A2):
    Areg = projective_complex(A2, {0: [0, 1]})
    M = regular_module(A2).stalk
    gh = hom_complex(Areg, M)
    assert gh.h_dim(0) == A2.dim
    assert gh.h_dim(1) == 0
    assert gh.h_dim(-1) == 0
    with pytest.raises(ValueError):
        hom_complex(M, M)


def test_ext_groups_vs_module_oracle(A2):
    S1 = simple_module(A2, 0).stalk
    S2 = simple_module(A2, 1).stalk
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
    S1 = simple_module(A2, 0).stalk
    P, eps = proj_replacement(S1)
    assert P.is_projective_complex()
    assert P.hi == 0 and P.lo == -1
    assert is_acyclic(cone(eps))
    assert P.h_dim(0) == 1 and P.h_dim(-1) == 0


def test_proj_replacement_of_the_empty_complex(A2):
    # no generator: the empty complex of projectives, mapped by the empty map
    X = Complex(A2, {}, {})
    assert not X.is_projective_complex()
    P, eps = proj_replacement(X)
    assert P.is_projective_complex() and P.is_empty()
    assert eps.source is P and eps.target is X and eps.mats == {}
    eps.validate()
    assert hom_complex(P, P).degrees() == range(0)


def test_proj_replacement_cap():
    A = path_algebra(Quiver(["v"], [("x", "v", "v")]), F101, [[(1, ["x", "x"])]])
    k = Module(A, 1, [Matrix.identity(F101, 1), Matrix.zero(F101, 1, 1)])
    with pytest.raises(ResolutionCapError):
        proj_replacement(k.stalk, cap=5)


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
        P, eps = proj_replacement(simple_module(A, v).stalk)
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
            X = simple_module(A, v).stalk.shift(-lo)
            P, _ = proj_replacement(X, cap=pd)
            assert P.proj_types == {n + lo: t for n, t in types.items()}
            if pd:
                with pytest.raises(ResolutionCapError,
                                   match=rf"reached degree {lo - pd} \(cap {pd - 1} below"):
                    proj_replacement(X, cap=pd - 1)


def test_unbounded_resolution_raises_at_every_cap():
    A = load_instance(pathlib.Path(__file__).resolve().parent.parent
                      / "instances" / "fix_dual.json").algebra
    X = simple_module(A, 0).stalk
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
    X = simple_module(A, 0).stalk
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
        X = simple_module(A, v).stalk
        P, eps = proj_replacement(X, cap=16)
        Q, eps_q = proj_replacement(X, cap=10**6)
        assert (Q.proj_types, Q.terms, Q.diffs) == (P.proj_types, P.terms, P.diffs)
        assert eps_q.mats == eps.mats


# -- acyclicity and long exact sequence ------------------------------------


def _acyclic_by_cohomology(X):
    return all(X.subquotient(n).dim == 0 for n in X.degrees())


def _fresh(X):
    """X again, with nothing of its cohomology built yet."""
    if X.is_projective_complex():
        return Complex(X.algebra, None, X.diffs, X.proj_types, validate=False)
    return Complex(X.algebra, X.terms, X.diffs, validate=False)


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
    contractible = cone(identity_chain_map(P1.stalk))
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
