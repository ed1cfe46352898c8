"""Dg-algebras and dg-modules built from hom complexes.

All constructors validate associativity, unit laws, d^2 = 0 and the graded
Leibniz rule on basis elements, so a passing construction is itself the main
assertion; the tests then pin down cohomology tables and product behavior
against module-level facts established independently in the algebra and
complexes suites.
"""

import pytest

from siltcheck.algebra import Quiver, path_algebra, simple_module
from siltcheck.complexes import (
    cone,
    derived_hom_dim,
    direct_sum_complexes,
    identity_chain_map,
    module_complex,
    projective_complex,
    summand_projection_maps,
)
from siltcheck.dg import (
    DgAlgebra,
    DgModule,
    dg_end,
    dg_hom_module,
    evaluation_left_module,
    h0_algebra,
    h0_module,
    opposite_dg,
    restrict_scalars,
    side_swap,
    smart_truncate,
)
from siltcheck.fields import PrimeField
from siltcheck.linalg import Matrix

F101 = PrimeField(101)


@pytest.fixture(scope="module")
def A2():
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), F101)


@pytest.fixture(scope="module")
def regular_split(A2):
    """A as a complex in degree 0, split as P1 (+) P2 with summand data."""
    return direct_sum_complexes([projective_complex(A2, {0: [0]}),
                                 projective_complex(A2, {0: [1]})])


@pytest.fixture(scope="module")
def two_term_silting(A2):
    """P2 in degree 0 plus P1 placed in degree -1, zero differential."""
    return direct_sum_complexes([projective_complex(A2, {0: [1]}),
                                 projective_complex(A2, {0: [0]}).shift(1)])


@pytest.fixture(scope="module")
def simple_resolution(A2):
    """P2 -> P1 resolving the simple at the source vertex; e2 goes to the arrow."""
    return projective_complex(A2, {-1: [1], 0: [0]},
                              {-1: Matrix(F101, 1, 2, [[F101.zero, F101.one]])})


def idempotent_cocycles(B, U):
    out = []
    for pm in summand_projection_maps(U):
        comps = {n: pm.mat(n) for n in U.degrees() if U.term(n).dim}
        coords = B.gh.coords_of(0, comps)
        assert coords is not None
        out.append(coords)
    return out


# -- dg-end of basic complexes ---------------------------------------------


def test_dg_end_of_regular_complex(A2, regular_split):
    B = dg_end(regular_split)
    assert B.dim_table() == {0: 3}
    assert B.h_table() == {0: 3}
    assert B.is_nonpositive()


def test_h0_of_regular_end_behaves_like_base(A2, regular_split):
    B = dg_end(regular_split)
    E = h0_algebra(B, idempotent_cocycles(B, regular_split))
    assert E.dim == 3
    assert len(E.idempotents) == 2
    (z_idx,) = [t for t in range(E.dim) if t not in E.idempotents]
    z = E.basis_vector(z_idx)
    zero = (F101.zero,) * E.dim
    assert E.multiply(z, z) == zero
    left_units = [e for e in E.idempotents if E.multiply(E.basis_vector(e), z) == z]
    right_units = [e for e in E.idempotents if E.multiply(z, E.basis_vector(e)) == z]
    assert len(left_units) == 1 and len(right_units) == 1
    assert left_units[0] != right_units[0]


def test_two_term_silting_cohomology_table(two_term_silting):
    B = dg_end(two_term_silting)
    assert B.dim_table() == {-1: 1, 0: 2}
    assert B.h_table() == {-1: 1, 0: 2}
    assert B.is_nonpositive()


def test_two_term_silting_h0_is_product_of_fields(two_term_silting):
    B = dg_end(two_term_silting)
    E = h0_algebra(B, idempotent_cocycles(B, two_term_silting))
    assert E.dim == 2
    assert len(E.idempotents) == 2


def test_resolution_end_has_positive_part(simple_resolution):
    B = dg_end(simple_resolution)
    assert B.dim_table() == {0: 2, 1: 1}
    assert not B.is_nonpositive()
    # the resolved simple has one-dimensional endomorphisms and no self-extensions
    assert B.h_table() == {0: 1}


def test_two_route_cohomology_agreement(A2, regular_split, two_term_silting,
                                        simple_resolution):
    for U in (regular_split, two_term_silting, simple_resolution):
        B = dg_end(U)
        for n in range(B.lo - 1, B.hi + 2):
            assert B.h_dim(n) == derived_hom_dim(U, U, n)


def test_dg_end_requires_projective_witness(A2):
    X = module_complex(simple_module(A2, 0))
    with pytest.raises(ValueError):
        dg_end(X)


# -- truncation -------------------------------------------------------------


def test_smart_truncate_kills_positive_part(simple_resolution):
    B = dg_end(simple_resolution)
    C = smart_truncate(B)
    assert C.dim_table() == {0: 1}
    assert C.h_table() == {0: 1}
    assert C.is_nonpositive()
    assert C.embed[0].nrows == 1 and C.embed[0].ncols == 2
    E = h0_algebra(C)
    assert E.dim == 1


def test_smart_truncate_of_nonpositive_keeps_everything(two_term_silting):
    B = dg_end(two_term_silting)
    C = smart_truncate(B)
    assert C.dim_table() == B.dim_table()
    assert C.h_table() == B.h_table()


def test_truncation_inclusion_is_a_dg_map(simple_resolution):
    B = dg_end(simple_resolution)
    C = smart_truncate(B)
    for n in C.degrees():
        emb = C.embed.get(n)
        nxt = C.embed.get(n + 1)
        if nxt is None:
            nxt = Matrix.zero(B.field, 0, B.dim(n + 1))
        lhs = emb @ B.diff(n)
        rhs = C.diff(n) @ nxt
        assert lhs.rows == rhs.rows
    for m in C.degrees():
        for n in C.degrees():
            if C.dim(m + n) == 0 and B.dim(m + n) == 0:
                continue
            for i in range(C.dim(m)):
                for j in range(C.dim(n)):
                    inside = C.product(m, C.basis_vector(m, i), n, C.basis_vector(n, j))
                    outside = B.product(m, C.embed[m].rows[i], n, C.embed[n].rows[j])
                    if C.dim(m + n):
                        assert C.embed[m + n].apply_row(inside) == tuple(outside)
                    else:
                        assert all(c == F101.zero for c in outside)


# -- opposite and side swap -------------------------------------------------


def test_opposite_is_an_involution(two_term_silting):
    B = dg_end(two_term_silting)
    Bop = opposite_dg(B)
    back = opposite_dg(Bop)
    assert back.dims == B.dims
    assert back.unit == B.unit
    assert {n: d.rows for n, d in back.diffs.items()} == {n: d.rows for n, d in B.diffs.items()}
    for key, table in B.mult.items():
        assert [[tuple(v) for v in row] for row in back.mult[key]] == \
               [[tuple(v) for v in row] for row in table]


def test_opposite_reverses_noncommutative_products(regular_split):
    B = dg_end(regular_split)
    Bop = opposite_dg(B)
    flipped = False
    for i in range(B.dim(0)):
        for j in range(B.dim(0)):
            u, v = B.basis_vector(0, i), B.basis_vector(0, j)
            if B.product(0, u, 0, v) != Bop.product(0, u, 0, v):
                flipped = True
    assert flipped


def test_evaluation_module_and_side_swap(simple_resolution):
    B = dg_end(simple_resolution)
    M = evaluation_left_module(B, simple_resolution)
    assert M.side == "left"
    assert M.dim_table() == {-1: 1, 0: 2}
    assert M.h_table() == {0: 1}
    Bop = opposite_dg(B)
    N = side_swap(M, Bop)
    assert N.side == "right"
    assert N.dim_table() == M.dim_table()
    assert N.h_table() == M.h_table()


def test_restriction_and_module_truncation(A2, simple_resolution):
    B = dg_end(simple_resolution)
    C = smart_truncate(B)
    target = projective_complex(A2, {0: [0]})
    M = dg_hom_module(simple_resolution, target, B)
    assert M.dim_table() == {0: 1, 1: 1}
    assert M.h_table() == {}
    R = restrict_scalars(M, C)
    assert R.dim_table() == M.dim_table()


# -- cohomology-level modules ----------------------------------------------


def test_h0_module_splits_under_idempotents(two_term_silting):
    B = dg_end(two_term_silting)
    E = h0_algebra(B, idempotent_cocycles(B, two_term_silting))
    M = dg_hom_module(two_term_silting, two_term_silting, B)
    Y = h0_module(M, E)
    assert Y.dim == 2
    for e in E.idempotents:
        assert Y.action_of(E.basis_vector(e)).rank() == 1


def test_h0_algebra_rejects_vanishing_unit(A2):
    X = projective_complex(A2, {0: [0]})
    C, _ = cone(identity_chain_map(X))
    B = dg_end(C)
    with pytest.raises(ValueError):
        h0_algebra(B)


def test_dg_hom_module_builds_own_end(two_term_silting, A2):
    M = dg_hom_module(two_term_silting, projective_complex(A2, {0: [0]}))
    assert isinstance(M.algebra, DgAlgebra)
    assert isinstance(M, DgModule)
