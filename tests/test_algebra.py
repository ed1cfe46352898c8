"""Path algebras, modules, hom spaces, endomorphism algebras.

Dimension oracles used below were computed by hand from the presentations:
counting surviving paths, and Hom(e_i A, M) = M e_i for projectives.
"""

import pytest

from conftest import regular_module
from oracles import endomorphism_algebra
from siltcheck.algebra import (
    AdmissibilityError,
    Algebra,
    DimensionCapError,
    Module,
    ModuleMap,
    Quiver,
    direct_sum_modules,
    hom_space,
    path_algebra,
    projective_module,
    simple_module,
)
from siltcheck.complexes import (direct_sum_complexes, hom_complex,
                                 projective_cache, projective_complex)
from siltcheck.fields import PrimeField, RationalField
from siltcheck.linalg import Matrix

Q = RationalField()
F101 = PrimeField(101)


def two_vertex_algebra(field=Q):
    # single arrow 1 -> 2, no relations; basis e_1, e_2, a
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), field)


def dual_numbers(field=Q):
    # one loop x with x*x = 0
    return path_algebra(Quiver(["v"], [("x", "v", "v")]), field, [[(1, ["x", "x"])]])


# -- construction ----------------------------------------------------------


def test_two_vertex_path_algebra():
    A = two_vertex_algebra()
    assert A.dim == 3
    assert list(A.labels) == ["e_1", "e_2", "a"]
    assert A.idempotents == (0, 1)
    a = A.basis_vector(2)
    assert A.multiply(A.basis_vector(0), a) == a
    assert A.multiply(a, A.basis_vector(1)) == a
    assert A.multiply(a, A.basis_vector(0)) == (0, 0, 0)
    assert A.multiply(a, a) == (0, 0, 0)


def test_dual_numbers_and_truncated_polynomials():
    A = dual_numbers()
    assert A.dim == 2
    x = A.basis_vector(1)
    assert A.multiply(x, x) == (0, 0)

    B = path_algebra(Quiver(["v"], [("x", "v", "v")]), Q, [[(1, ["x", "x", "x"])]])
    assert B.dim == 3
    x = B.basis_vector(1)
    x2 = B.multiply(x, x)
    assert x2 == (0, 0, 1)
    assert B.multiply(x2, x) == (0, 0, 0)


def test_commutative_square():
    # 1 -> 2 -> 4 and 1 -> 3 -> 4 with a*b = c*d; paths: 4 trivial + 4 arrows
    # + one surviving length-2 class
    qv = Quiver(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    A = path_algebra(qv, Q, [[(1, ["a", "b"]), (-1, ["c", "d"])]])
    assert A.dim == 9
    ab = A.multiply(A.basis_vector(A.labels.index("a")), A.basis_vector(A.labels.index("b")))
    cd = A.multiply(A.basis_vector(A.labels.index("c")), A.basis_vector(A.labels.index("d")))
    assert ab == cd and any(x != 0 for x in ab)
    P1 = projective_module(A, 0)
    assert P1.dim == 4
    assert P1.dimension_vector() == (1, 1, 1, 1)


def test_kronecker_two_arrows():
    A = path_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), F101)
    assert A.dim == 4
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    assert len(hom_space(P1, P2)) == 0
    assert len(hom_space(P2, P1)) == 2


def test_bad_relations_rejected():
    qv = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(AdmissibilityError):
        path_algebra(qv, Q, [[(1, ["a"])]])  # length 1
    with pytest.raises(AdmissibilityError):
        path_algebra(qv, Q, [[(1, ["a", "a"])]])  # not composable
    loop = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(AdmissibilityError):
        # inhomogeneous over a cycle: truncation cannot detect stabilization
        path_algebra(loop, Q, [[(1, ["x", "x"]), (-1, ["x", "x", "x"])]])
    sq = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3"), ("c", "2", "3")])
    with pytest.raises(AdmissibilityError):
        path_algebra(sq, Q, [[(1, ["a", "c"]), (1, ["b", "c"])]] )  # b*c not composable
    with pytest.raises(AdmissibilityError):
        path_algebra(qv, Q, [[(1, ["a", "z"])]])  # unknown arrow


def test_free_loop_hits_dimension_cap():
    loop = Quiver(["v"], [("x", "v", "v")])
    with pytest.raises(DimensionCapError):
        path_algebra(loop, Q, dimension_cap=16)


def test_algebra_validation_catches_bad_unit():
    with pytest.raises(AssertionError):
        Algebra(Q, ["e"], {(0, 0): ((0, Q.coerce(2)),)}, (Q.one,), (0,))


def test_algebra_validation_catches_non_associative_table():
    # basis e, x, y with e the unit and x*x = y: k[x]/(x^3) is associative;
    # adding y*x = y breaks (x*x)*x = y*x = y against x*(x*x) = x*y = 0
    one = ((0, Q.one),)
    mult = {(0, 0): one, (0, 1): ((1, Q.one),), (1, 0): ((1, Q.one),),
            (0, 2): ((2, Q.one),), (2, 0): ((2, Q.one),), (1, 1): ((2, Q.one),)}
    Algebra(Q, ["e", "x", "y"], mult, (Q.one, Q.zero, Q.zero), (0,))
    with pytest.raises(AssertionError, match="associativity fails on"):
        Algebra(Q, ["e", "x", "y"], {**mult, (2, 1): ((2, Q.one),)},
                (Q.one, Q.zero, Q.zero), (0,))


# -- modules and hom spaces ------------------------------------------------


def test_projectives_and_simples_two_vertex():
    A = two_vertex_algebra()
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    assert (P1.dim, P2.dim) == (2, 1)
    assert P1.dimension_vector() == (1, 1)
    assert P2.dimension_vector() == (0, 1)
    S1, S2 = simple_module(A, 0), simple_module(A, 1)
    assert S1.dimension_vector() == (1, 0)
    assert S2.dimension_vector() == (0, 1)
    # Hom(e_i A, M) has dimension dim M e_i
    assert len(hom_space(P1, S1)) == 1
    assert len(hom_space(P2, S1)) == 0
    assert len(hom_space(P1, P2)) == 0
    assert len(hom_space(P2, P1)) == 1
    reg = regular_module(A)
    assert len(hom_space(P1, reg)) == 1
    assert len(hom_space(P2, reg)) == 2


def test_hom_composition_and_coordinates():
    A = two_vertex_algebra()
    X, Y = projective_complex(A, {0: [1]}), projective_complex(A, {0: [0]})
    P2, P1 = X.term(0), Y.term(0)
    (f,) = hom_space(P2, P1)
    (g,) = hom_space(P1, P1)
    comp = f.mat @ g.mat    # f, then g
    gh = hom_complex(X, Y)
    coords = gh.coords_of(0, {0: comp})
    assert coords is not None
    recon = Matrix.zero(Q, P2.dim, P1.dim)
    for t, c in coords.items():
        recon = recon + gh.basis[0][t][1].scale(c)
    assert recon == comp


def test_module_map_validation():
    A = two_vertex_algebra()
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    with pytest.raises(AssertionError):
        ModuleMap(P1, P2, Matrix.from_rows(Q, [[0], [1]]))


def test_module_validation_catches_bad_action():
    A = dual_numbers()
    good = Module(A, 1, [Matrix.identity(Q, 1), Matrix.zero(Q, 1, 1)])
    assert good.dim == 1
    with pytest.raises(AssertionError):
        # x acting as 1 contradicts x*x = 0
        Module(A, 1, [Matrix.identity(Q, 1), Matrix.identity(Q, 1)])


# -- endomorphism algebras ------------------------------------------------


def test_endomorphism_algebra_of_projective_generator():
    A = two_vertex_algebra()
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    E = endomorphism_algebra(A, [P1, P2])
    # End(P1 + P2) is again the two-vertex algebra: two idempotents, one
    # connecting map f: P2 -> P1
    assert E.dim == 3
    assert len(E.idempotents) == 2
    p0 = E.basis_vector(E.idempotents[0])
    p1 = E.basis_vector(E.idempotents[1])
    (fi,) = [i for i in range(E.dim) if i not in E.idempotents]
    f = E.basis_vector(fi)
    assert E.multiply(p0, f) == f          # function order: p0 after f
    assert E.multiply(f, p1) == f
    assert E.multiply(p1, f) == (0, 0, 0)
    assert E.multiply(f, f) == (0, 0, 0)


def test_endomorphism_algebra_skips_zero_composites_into_empty_blocks():
    # T = P0 + P2 + S0 over kA_3 (0 -> 1 -> 2), the degree-0 cohomology of
    # P0 + P2 + (P1 -> P0): Hom(P2, S0) = 0, so the composite P2 -> P0 -> S0
    # lands in a block with no hom basis and must be recognised as zero
    A = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]),
                     PrimeField(101))
    (f,) = hom_space(projective_cache(A, 1), projective_cache(A, 0))
    U = direct_sum_complexes([projective_complex(A, {0: [0]}),
                              projective_complex(A, {0: [2]}),
                              projective_complex(A, {-1: [1], 0: [0]}, {-1: f.mat})])
    mods = [s.cohomology(0) for s in U.summands]
    homs = [[len(hom_space(x, y)) for y in mods] for x in mods]
    assert homs == [[1, 0, 1], [1, 1, 0], [0, 0, 1]]
    E = endomorphism_algebra(A, mods)
    assert E.dim == 5 and len(E.idempotents) == 3
    E.validate()


def test_direct_sum_offsets():
    A = two_vertex_algebra()
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    M = direct_sum_modules(A, [P1, P2, P1])
    assert M.dim == 5
    assert M.summand_offsets == [(0, 2), (2, 1), (3, 2)]
    assert M.dimension_vector() == (2, 3)
