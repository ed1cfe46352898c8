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
    assert A.basis_product(0, 2) == {2: 1}
    assert A.basis_product(2, 1) == {2: 1}
    assert A.basis_product(2, 0) == {}
    assert A.basis_product(2, 2) == {}


def test_dual_numbers_and_truncated_polynomials():
    A = dual_numbers()
    assert A.dim == 2
    assert A.basis_product(1, 1) == {}

    B = path_algebra(Quiver(["v"], [("x", "v", "v")]), Q, [[(1, ["x", "x", "x"])]])
    assert B.dim == 3
    assert B.basis_product(1, 1) == {2: 1}
    assert B.basis_product(2, 1) == {}


def test_commutative_square():
    # 1 -> 2 -> 4 and 1 -> 3 -> 4 with a*b = c*d; paths: 4 trivial + 4 arrows
    # + one surviving length-2 class
    qv = Quiver(["1", "2", "3", "4"],
                [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")])
    A = path_algebra(qv, Q, [[(1, ["a", "b"]), (-1, ["c", "d"])]])
    assert A.dim == 9
    a, b, c, d = (A.labels.index(x) for x in "abcd")
    ab = A.basis_product(a, b)
    assert ab == A.basis_product(c, d) and ab
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


TWO_CYCLE = (["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
LOOPS = (["v"], [("x", "v", "v"), ("y", "v", "v")])
TWO_ROUTES = (["1", "2", "3", "4", "5"],
              [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "1", "5"), ("e", "5", "4")])


@pytest.mark.parametrize("quiver, relations, labels, products", [
    # 2-cycle with ab = ba = 0: the trivial paths and the arrows
    (TWO_CYCLE, [[(1, ["a", "b"])], [(1, ["b", "a"])]],
     ["e_1", "e_2", "a", "b"], {("a", "b"): {}, ("b", "a"): {}}),
    # 2-cycle with aba = bab = 0: the two paths of length 2 survive
    (TWO_CYCLE, [[(1, ["a", "b", "a"])], [(1, ["b", "a", "b"])]],
     ["e_1", "e_2", "a", "b", "a*b", "b*a"], {("a", "b"): {"a*b": 1}, ("a*b", "a"): {}}),
    # k<x, y>/(xy - yx, x^2, y^2): the relation row xy - yx pivots at xy,
    # the first of the two in generation order, so yx is kept
    (LOOPS, [[(1, ["x", "y"]), (-1, ["y", "x"])], [(1, ["x", "x"])], [(1, ["y", "y"])]],
     ["e_v", "x", "y", "y*x"], {("x", "y"): {"y*x": 1}, ("y", "x"): {"y*x": 1}, ("x", "x"): {}}),
    # acyclic and inhomogeneous, a*b*c = d*e: the shorter d*e pivots, a*b*c
    # is kept, and the arrows come in generation order (out of 1 first)
    (TWO_ROUTES, [[(1, ["a", "b", "c"]), (-1, ["d", "e"])]],
     ["e_1", "e_2", "e_3", "e_4", "e_5", "a", "d", "b", "c", "e", "a*b", "b*c", "a*b*c"],
     {("d", "e"): {"a*b*c": 1}, ("a*b", "c"): {"a*b*c": 1}, ("a", "b*c"): {"a*b*c": 1}}),
    # a loop with an arrow out, x^2 = 0: x*a survives, x*x*a does not
    ((["1", "2"], [("x", "1", "1"), ("a", "1", "2")]), [[(1, ["x", "x"])]],
     ["e_1", "e_2", "x", "a", "x*a"], {("x", "a"): {"x*a": 1}, ("x", "x*a"): {}}),
], ids=["2-cycle-ab-ba", "2-cycle-aba-bab", "commuting-loops", "inhomogeneous-acyclic",
        "loop-with-arrow-out"])
def test_path_algebra_hand_known_bases(quiver, relations, labels, products):
    for field in (Q, F101):
        A = path_algebra(Quiver(*quiver), field, relations)
        A.validate()
        assert (A.dim, list(A.labels)) == (len(labels), labels)
        assert A.generators == A.idempotents + tuple(
            i for i, lab in enumerate(labels) if lab[:2] != "e_" and "*" not in lab)
        at = A.labels.index
        for (x, y), want in products.items():
            assert A.basis_product(at(x), at(y)) == {at(k): c for k, c in want.items()}


def test_algebra_validation_catches_bad_unit():
    with pytest.raises(AssertionError):
        Algebra(Q, ["e"], {(0, 0): {0: Q.coerce(2)}}, {0: Q.one}, (0,))


def test_algebra_validation_catches_non_associative_table():
    # basis e, x, y with e the unit and x*x = y: k[x]/(x^3) is associative;
    # adding y*x = y breaks (x*x)*x = y*x = y against x*(x*x) = x*y = 0
    mult = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one},
            (0, 2): {2: Q.one}, (2, 0): {2: Q.one}, (1, 1): {2: Q.one}}
    Algebra(Q, ["e", "x", "y"], mult, {0: Q.one}, (0,))
    with pytest.raises(AssertionError, match="associativity fails on"):
        Algebra(Q, ["e", "x", "y"], {**mult, (2, 1): {2: Q.one}}, {0: Q.one}, (0,))


# k x k on the basis (1, 0), (1, 1): both idempotent, not orthogonal
_SPLIT_UNIT_LAST = {(0, 0): {0: Q.one}, (0, 1): {0: Q.one}, (1, 0): {0: Q.one},
                    (1, 1): {1: Q.one}}
# k x k on the basis (1, 0), (0, 1)
_SPLIT = {(0, 0): {0: Q.one}, (1, 1): {1: Q.one}}
# the left-zero band, x*y = x: associative, and a is a right identity only
_LEFT_ZERO = {(0, 0): {0: Q.one}, (0, 1): {0: Q.one}, (1, 0): {1: Q.one},
              (1, 1): {1: Q.one}}


@pytest.mark.parametrize("labels, mult, unit, idempotents, message", [
    (["e", "x"], {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}},
     {0: Q.one}, (1,), "basis element x is not idempotent"),
    (["p", "u"], _SPLIT_UNIT_LAST, {1: Q.one}, (0, 1), "idempotents not orthogonal"),
    (["p", "q"], _SPLIT, {0: Q.one, 1: Q.one}, (0,), "idempotents do not sum to the unit"),
    (["e"], {(0, 0): {0: Q.one}}, {0: Q.one}, (0, 0), "idempotents do not sum to the unit"),
    (["a", "b"], _LEFT_ZERO, {0: Q.one}, (0,), "unit is not a left identity"),
], ids=["non-idempotent", "not-orthogonal", "short-sum", "repeated", "right-unit-only"])
def test_algebra_validation_refuses_bad_idempotents_and_units(labels, mult, unit,
                                                              idempotents, message):
    with pytest.raises(AssertionError, match=message):
        Algebra(Q, labels, mult, unit, idempotents)


def linear_a8():
    # linear A_8 over F_101: 36 paths, 8 idempotents then the arrows a0..a6
    # at positions 8..14
    return path_algebra(Quiver([str(v) for v in range(8)],
                               [(f"a{v}", str(v), str(v + 1)) for v in range(7)]), F101)


def test_algebra_validation_checks_every_pair_past_desk_scale():
    # a1: 1 -> 2 and a1*a1 is zero in A_8; setting it to e_0 breaks
    # (a1*a1)*e_2 = e_0*e_2 = 0 against a1*(a1*e_2) = a1*a1 = e_0, on the pair
    # (a1, e_2), which a stride sample of every other element never meets
    A = linear_a8()
    assert A.dim == 36 and A.labels[9] == "a1" and (9, 9) not in A.mult
    with pytest.raises(AssertionError, match="associativity fails on"):
        Algebra(F101, A.labels, {**A.mult, (9, 9): {0: F101.one}}, A.unit,
                A.idempotents, A.generators)


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


def test_module_validation_checks_every_basis_element_past_desk_scale():
    # the regular module of A_8 with one entry added to the action of a1, a
    # basis element a stride sample of every other element skips
    A = linear_a8()
    action = [A.right_mult_matrix(j) for j in range(A.dim)]
    Module(A, A.dim, action)
    rows = {r: dict(nz) for r, nz in action[9].entries.items()}
    rows.setdefault(0, {})[1] = F101.add(rows.get(0, {}).get(1, F101.zero), F101.one)
    action[9] = Matrix.from_entries(F101, A.dim, A.dim, rows)
    with pytest.raises(AssertionError, match="action incompatible with multiplication"):
        Module(A, A.dim, action)


# -- endomorphism algebras ------------------------------------------------


def test_endomorphism_algebra_of_projective_generator():
    A = two_vertex_algebra()
    P1, P2 = projective_module(A, 0), projective_module(A, 1)
    E = endomorphism_algebra(A, [P1, P2])
    # End(P1 + P2) is again the two-vertex algebra: two idempotents, one
    # connecting map f: P2 -> P1
    assert E.dim == 3
    assert len(E.idempotents) == 2
    p0, p1 = E.idempotents
    (f,) = [i for i in range(E.dim) if i not in E.idempotents]
    assert E.basis_product(p0, f) == {f: 1}     # function order: p0 after f
    assert E.basis_product(f, p1) == {f: 1}
    assert E.basis_product(p1, f) == {}
    assert E.basis_product(f, f) == {}


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
