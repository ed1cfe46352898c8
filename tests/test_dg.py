"""Dg-algebras and dg-modules built from hom complexes.

All constructors validate associativity, unit laws, d^2 = 0 and the graded
Leibniz rule on basis elements, so a passing construction is itself the main
assertion; the tests then pin down cohomology tables and product behavior
against module-level facts established independently in the algebra and
complexes suites.  The validators themselves are compared with an
element-wise reference on corrupted structure tables and on one hand-built
failing case per axiom.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_row, nonzero_entries, reference_composition_tables,
                     reference_coords_of, reference_h0_algebra, reference_hom_class_action,
                     reference_hom_diff, sparse_products)
from siltcheck import silting
from siltcheck.algebra import Quiver, path_algebra, simple_module
from siltcheck.complexes import (
    GradedHom,
    cone,
    direct_sum_complexes,
    hom_complex,
    identity_chain_map,
    module_complex,
    projective_complex,
    summand_projection_maps,
)
from siltcheck.dg import (
    DgAlgebra,
    DgModule,
    _composition_tables,
    _flat,
    _Graded,
    _per_block,
    _row_blocks,
    _stacked,
    dg_end,
    dg_hom_module,
    end_h0,
    evaluation_left_module,
    h0_algebra,
    opposite_dg,
    side_swap,
    smart_truncate,
    table_product,
)
from siltcheck.fields import PrimeField, RationalField
from siltcheck.linalg import Matrix
from siltcheck.semifree import SemifreeHom, semifree_resolve

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


# -- dg-end of basic complexes ---------------------------------------------


def test_dg_end_of_regular_complex(A2, regular_split):
    B = dg_end(regular_split)
    assert B.dims == {0: 3}
    assert B.h_table() == {0: 3}
    assert B.is_nonpositive()


def test_h0_of_regular_end_behaves_like_base(A2, regular_split):
    B = dg_end(regular_split)
    E = h0_algebra(B)
    assert E.dim == 3
    assert len(E.idempotents) == 2
    (z,) = [t for t in range(E.dim) if t not in E.idempotents]
    assert E.basis_product(z, z) == {}
    left_units = [e for e in E.idempotents if E.basis_product(e, z) == {z: F101.one}]
    right_units = [e for e in E.idempotents if E.basis_product(z, e) == {z: F101.one}]
    assert len(left_units) == 1 and len(right_units) == 1
    assert left_units[0] != right_units[0]


def test_two_term_silting_cohomology_table(two_term_silting):
    B = dg_end(two_term_silting)
    assert B.dims == {-1: 1, 0: 2}
    assert B.h_table() == {-1: 1, 0: 2}
    assert B.is_nonpositive()


def test_two_term_silting_h0_is_product_of_fields(two_term_silting):
    B = dg_end(two_term_silting)
    E = h0_algebra(B)
    assert E.dim == 2
    assert len(E.idempotents) == 2


def test_resolution_end_has_positive_part(simple_resolution):
    B = dg_end(simple_resolution)
    assert B.dims == {0: 2, 1: 1}
    assert not B.is_nonpositive()
    # the resolved simple has one-dimensional endomorphisms and no self-extensions
    assert B.h_table() == {0: 1}


def test_two_route_cohomology_agreement(A2, regular_split, two_term_silting,
                                        simple_resolution):
    for U in (regular_split, two_term_silting, simple_resolution):
        B = dg_end(U)
        gh = hom_complex(U, U)
        for n in range(B.lo - 1, B.hi + 2):
            assert B.h_dim(n) == gh.h_dim(n)


def test_dg_end_requires_projective_witness(A2):
    X = module_complex(simple_module(A2, 0))
    with pytest.raises(ValueError):
        dg_end(X)


# -- truncation -------------------------------------------------------------


def test_smart_truncate_kills_positive_part(simple_resolution):
    B = dg_end(simple_resolution)
    C = smart_truncate(B)
    assert C.dims == {0: 1}
    assert C.h_table() == {0: 1}
    assert C.is_nonpositive()
    assert C.embed[0].nrows == 1 and C.embed[0].ncols == 2
    E = h0_algebra(C)
    assert E.dim == 1


def test_smart_truncate_of_nonpositive_keeps_everything(two_term_silting):
    B = dg_end(two_term_silting)
    C = smart_truncate(B)
    assert C.dims == B.dims
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
                    inside = C.product(m, {i: F101.one}, n, {j: F101.one})
                    outside = B.product(m, C.embed[m].entries.get(i, {}),
                                        n, C.embed[n].entries.get(j, {}))
                    if C.dim(m + n):
                        assert C.embed[m + n].apply_entries(inside) == outside
                    else:
                        assert not outside


# -- opposite and side swap -------------------------------------------------


def test_opposite_is_an_involution(two_term_silting):
    B = dg_end(two_term_silting)
    Bop = opposite_dg(B)
    back = opposite_dg(Bop)
    assert back.dims == B.dims
    assert back.unit == B.unit
    assert {n: d.rows for n, d in back.diffs.items()} == {n: d.rows for n, d in B.diffs.items()}
    assert back.mult == B.mult


def test_opposite_reverses_noncommutative_products(regular_split):
    B = dg_end(regular_split)
    Bop = opposite_dg(B)
    flipped = False
    for i in range(B.dim(0)):
        for j in range(B.dim(0)):
            u, v = {i: F101.one}, {j: F101.one}
            if B.product(0, u, 0, v) != Bop.product(0, u, 0, v):
                flipped = True
    assert flipped


def test_evaluation_module_and_side_swap(simple_resolution):
    B = dg_end(simple_resolution)
    M = evaluation_left_module(B, simple_resolution)
    assert M.side == "left"
    assert M.dims == {-1: 1, 0: 2}
    assert M.h_table() == {0: 1}
    Bop = opposite_dg(B)
    N = side_swap(M, Bop)
    assert N.side == "right"
    assert N.dims == M.dims
    assert N.h_table() == M.h_table()


def _embedded(C, X, n, i):
    """The i-th degree-n basis element of X, carried into B when X is C."""
    return C.embed[n].entries.get(i, {}) if X is C else {i: F101.one}


def test_restriction_and_module_truncation(A2, simple_resolution, two_term_silting, wide):
    # a module built over the truncation C is the one over B restricted along C -> B
    for name, U in (("resolution", simple_resolution), ("silting", two_term_silting),
                    ("wide", wide)):
        B = dg_end(U)
        C = smart_truncate(B)
        gh = hom_complex(U, _hom_target(A2, name, U))
        for over_C, over_B in ((dg_hom_module(gh, C), dg_hom_module(gh, B)),
                               (evaluation_left_module(C, U), evaluation_left_module(B, U))):
            assert over_C.algebra is C and over_C.dims == over_B.dims
            first, second = (over_C, C) if over_C.side == "right" else (C, over_C)
            for m in first.degrees():
                for i in range(first.dim(m)):
                    for n in second.degrees():
                        for j in range(second.dim(n)):
                            assert over_C.act(m, {i: F101.one}, n, {j: F101.one}) == \
                                over_B.act(m, _embedded(C, first, m, i),
                                           n, _embedded(C, second, n, j))
            if name == "resolution" and over_C.side == "right":
                assert over_C.dims == {0: 1, 1: 1}
                assert over_C.h_table() == {}


# -- the one structure-table product ----------------------------------------


@pytest.mark.parametrize("field", [PrimeField(2), F101, RationalField()], ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_product_is_the_bilinear_sum_of_table_entries(field, data):
    r, c, w = (data.draw(st.integers(0, 4)) for _ in range(3))
    values = st.one_of(st.just(field.zero), (
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
        if isinstance(field, RationalField) else st.integers(0, field.p - 1)))

    def vector(n):
        return tuple(data.draw(st.lists(values, min_size=n, max_size=n)))

    table = [[vector(w) for _ in range(c)] for _ in range(r)]
    u, v = vector(r), vector(c)
    want = [field.zero] * w
    for i in range(r):
        for j in range(c):
            for k in range(w):
                want[k] = field.coerce(want[k] + u[i] * v[j] * table[i][j][k])
    u, v = nonzero_entries(u), nonzero_entries(v)
    assert table_product(field, sparse_products(table), u, v) == nonzero_entries(want)
    assert table_product(field, None, u, v) == {}


# -- cohomology-level algebra ----------------------------------------------


def test_h0_algebra_rejects_vanishing_unit(A2):
    X = projective_complex(A2, {0: [0]})
    C = cone(identity_chain_map(X))
    B = dg_end(C)
    with pytest.raises(ValueError):
        h0_algebra(B)


@pytest.mark.parametrize("field_spec", [{"prime": 101}, "rational"],
                         ids=["F101", "Q"])
def test_h0_product_table_matches_per_call_products(coresolution_inputs, field_spec):
    # products read off one table of representative products, against
    # lifting both classes and multiplying them in B on every call
    for name, U in coresolution_inputs(field_spec).items():
        B = dg_end(U)
        got, want = h0_algebra(B), reference_h0_algebra(B)
        assert got.labels == want.labels, name
        assert got.mult == want.mult, name
        assert got.unit == want.unit, name
        assert got.class_reps == want.class_reps, name
        assert got.kept_idempotents == want.kept_idempotents, name


def test_h0_off_hom_u_u_equals_h0_of_the_dg_end(coresolution_inputs, regular_split,
                                                two_term_silting, simple_resolution, wide):
    # one H^0 End(U), two constructions: composites of representatives read
    # off Hom(U, U), and products inside the dg-end built on that same gh
    inputs = {"regular_split": regular_split, "two_term_silting": two_term_silting,
              "simple_resolution": simple_resolution, "wide": wide}
    for field_spec in ({"prime": 101}, "rational"):
        inputs.update((f"{field_spec}/{name}", U)
                      for name, U in coresolution_inputs(field_spec).items())
    assert sum(name.startswith("{'prime': 101}/a3/") for name in inputs) == 84
    silting_sums = 0
    for name, U in inputs.items():
        gh = hom_complex(U, U)
        try:
            want = h0_algebra(dg_end(U, gh))
        except ValueError:
            with pytest.raises(ValueError):
                end_h0(gh)
            continue
        got = end_h0(gh)
        assert got is end_h0(gh), name
        assert got.labels == want.labels, name
        assert got.mult == want.mult, name
        assert got.unit == want.unit, name
        assert got.idempotents == want.idempotents, name
        assert got.kept_idempotents == want.kept_idempotents, name
        assert got.class_reps == want.class_reps, name
        silting_sums += "/a3/" in name and silting.silting_report(U, gh=gh).n is not None
    assert silting_sums == 2 * 14


# -- composites read off generator images -----------------------------------


@pytest.mark.parametrize("field_spec", [{"prime": 2}, {"prime": 101}, "rational"],
                         ids=["F2", "F101", "Q"])
def test_generator_images_match_the_composite_matrices(coresolution_inputs, field_spec):
    # the hom differentials, the composition tables of dg_end and of a hom
    # module over its truncation, and the postcomposition action of H^0,
    # against building each composite as a matrix and reading it back
    # through coords_of
    for name, U in coresolution_inputs(field_spec).items():
        A = U.algebra
        free = projective_complex(A, {0: list(range(len(A.idempotents)))})
        B = dg_end(U)
        C = smart_truncate(B)
        M = dg_hom_module(hom_complex(U, free), C)
        for gh in (B.gh, M.gh):
            for n in gh.degrees():
                assert gh.diff(n) == reference_hom_diff(gh, n), (name, n)
        assert B.mult == reference_composition_tables(B.gh, B.maps), name
        assert M.action == reference_composition_tables(M.gh, C.maps), name
        E = end_h0(B.gh)
        for X in (free, U):
            assert (silting._hom_class_action(X, U, B.gh, E)[2]
                    == reference_hom_class_action(X, U, B.gh, E)), name


def _honest_maps(B):
    """Degree-0 families of module maps U -> U for U = B.complex, as their
    nonzero components: the identity, the summand projections and the
    composites of verify_E_iso's route two, "chain map y, then chain map x"
    over the classes of H^0."""
    U = B.complex
    f = U.algebra.field
    yield {i: Matrix.identity(f, U.term(i).dim) for i in U.degrees() if U.term(i).dim}
    if hasattr(U, "summands"):
        for pm in summand_projection_maps(U):
            yield pm.mats
    chain_maps = [B.gh.chain_map_from_cocycle(rep) for rep in end_h0(B.gh).class_reps]
    for x in chain_maps:
        for y in chain_maps:
            yield y.compose(x).mats


def test_coords_of_agrees_with_the_row_checked_reader(coresolution_inputs, built_objects):
    # coords_of reads generator images only; on honest module maps that is
    # what the reference reads after checking every row
    ends = [B for name, B in built_objects.items() if name.startswith("dg_end")]
    for field_spec in ({"prime": 2}, {"prime": 101}, "rational"):
        ends += [dg_end(U) for U in coresolution_inputs(field_spec).values()]
    read = 0
    for B in ends:
        for comps in _honest_maps(B):
            want = reference_coords_of(B.gh, 0, comps)
            assert want is not None
            assert B.gh.coords_of(0, comps) == want
            read += 1
    assert read > len(ends)


def test_composites_make_no_coords_of_call(coresolution_inputs, monkeypatch):
    """The hom differentials, the composition tables and the postcomposition
    action read every composite off the generator images of its first
    factor, with no composite matrix for coords_of to read."""
    def refuse(*args):
        raise AssertionError("coords_of called")

    built = []
    for U in coresolution_inputs({"prime": 101}).values():
        B = dg_end(U)
        built.append((U, B, end_h0(B.gh), hom_complex(U, U)))
    monkeypatch.setattr(GradedHom, "coords_of", refuse)
    for U, B, E, gh in built:
        for n in gh.degrees():
            gh.diff(n)
        _composition_tables(gh, B.maps)
        silting._hom_class_action(U, U, B.gh, E)


# -- the validators against an element-wise reference -----------------------
#
# The reference is the validator the constructors used before the axioms were
# read off the structure tables as matrix identities: one product per basis
# pair or triple, written out coordinate by coordinate.


class _Tables(_Graded):
    """Graded data and one structure table, multiplied element by element
    over dense rows."""

    def __init__(self, field, dims, diffs, table):
        super().__init__(field, dims, diffs)
        self.table = table

    def basis_vector(self, n, i):
        f = self.field
        return tuple(f.one if k == i else f.zero for k in range(self.dim(n)))

    def dense_diff(self, n, u):
        return dense_row(self.field, self.diff(n).apply_entries(nonzero_entries(u)), self.dim(n + 1))

    def mul(self, m, u, n, v):
        f = self.field
        out = (f.zero,) * self.dim(m + n)
        table = self.table.get((m, n))
        if table is None:
            return out
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                c = f.coerce(a * b)
                p = table[i][j]
                out = tuple(f.coerce(x + c * p.get(k, f.zero)) for k, x in enumerate(out))
        return out


def _items(X):
    return [(n, i) for n in X.degrees() for i in range(X.dim(n))]


def _reference_leibniz(Z, X, Y, message):
    f = Z.field
    for m, i in _items(X):
        u = X.basis_vector(m, i)
        du = X.dense_diff(m, u)
        sign = f.one if m % 2 == 0 else f.neg(f.one)
        for n, j in _items(Y):
            v = Y.basis_vector(n, j)
            lhs = Z.dense_diff(m + n, Z.mul(m, u, n, v))
            rhs = tuple(f.coerce(a + sign * b) for a, b in
                        zip(Z.mul(m + 1, du, n, v), Z.mul(m, u, n + 1, Y.dense_diff(n, v))))
            if lhs != rhs:
                raise AssertionError(message.format(m, n))


def _reference_associativity(Z, factors, XY, YZ, message):
    picks = [_items(F) for F in factors]
    for m, i in picks[0]:
        u = factors[0].basis_vector(m, i)
        for n, j in picks[1]:
            v = factors[1].basis_vector(n, j)
            uv = XY.mul(m, u, n, v)
            for p, k in picks[2]:
                w = factors[2].basis_vector(p, k)
                if Z.mul(m + n, uv, p, w) != Z.mul(m, u, n + p, YZ.mul(n, v, p, w)):
                    raise AssertionError(message.format(m, n, p))


def reference_algebra_check(field, dims, mult, diffs, unit):
    """Raise what DgAlgebra(field, dims, mult, diffs, unit) must raise."""
    f = field
    B = _Tables(f, dims, diffs, mult)
    for n in B.degrees():
        if not (B.diff(n) @ B.diff(n + 1)).is_zero():
            raise AssertionError(f"dg differential does not square to zero at degree {n}")
    if any(not 0 <= k < B.dim(0) for k in unit):
        raise AssertionError("unit has an entry outside degree 0")
    unit = tuple(unit.get(k, f.zero) for k in range(B.dim(0)))
    if any(c != f.zero for c in B.dense_diff(0, unit)):
        raise AssertionError("unit is not a cocycle")
    for n in B.degrees():
        for i in range(B.dim(n)):
            v = B.basis_vector(n, i)
            if B.mul(0, unit, n, v) != v:
                raise AssertionError(f"left unit fails in degree {n}")
            if B.mul(n, v, 0, unit) != v:
                raise AssertionError(f"right unit fails in degree {n}")
    _reference_leibniz(B, B, B, "graded Leibniz fails on degrees ({}, {})")
    _reference_associativity(B, (B, B, B), B, B, "associativity fails on degrees ({}, {}, {})")


def reference_module_check(algebra, side, dims, action, diffs):
    """Raise what DgModule(algebra, side, dims, action, diffs) must raise."""
    B = _Tables(algebra.field, algebra.dims, algebra.diffs, algebra.mult)
    M = _Tables(algebra.field, dims, diffs, action)
    unit = tuple(algebra.unit.get(k, algebra.field.zero) for k in range(B.dim(0)))
    right = side == "right"
    for n in M.degrees():
        if not (M.diff(n) @ M.diff(n + 1)).is_zero():
            raise AssertionError(f"module differential does not square to zero at {n}")
    for n in M.degrees():
        for i in range(M.dim(n)):
            x = M.basis_vector(n, i)
            if (M.mul(n, x, 0, unit) if right else M.mul(0, unit, n, x)) != x:
                raise AssertionError(f"unit action fails in degree {n}")
    first, second = (M, B) if right else (B, M)
    _reference_leibniz(M, first, second, "module Leibniz fails on degrees ({}, {})")
    factors, XY, YZ = ((M, B, B), M, B) if right else ((B, B, M), B, M)
    _reference_associativity(M, factors, XY, YZ, "action associativity fails on ({}, {}, {})")


def _verdict(build, args):
    """None if build(*args) accepts, else the axiom it names, degrees dropped."""
    try:
        build(*args)
    except AssertionError as e:
        return str(e).rstrip("-0123456789(), ")
    return None


@pytest.fixture(scope="module")
def wide(A2, simple_resolution):
    """A complex whose dg-end has 27 basis elements."""
    return direct_sum_complexes([simple_resolution, simple_resolution.shift(1),
                                 projective_complex(A2, {0: [0, 1]})])


def _hom_target(A2, name, U):
    return U if name == "silting" else projective_complex(A2, {0: [0]})


@pytest.fixture(scope="module")
def built_objects(A2, simple_resolution, two_term_silting, wide):
    """Outputs of every constructor family, keyed by a readable name."""
    out = {}
    for name, U in (("resolution", simple_resolution), ("silting", two_term_silting),
                    ("wide", wide)):
        B = dg_end(U)
        C = smart_truncate(B)
        left = evaluation_left_module(B, U)
        gh = hom_complex(U, _hom_target(A2, name, U))
        out.update({f"dg_end {name}": B,
                    f"dg_hom_module {name}": dg_hom_module(gh, B),
                    f"evaluation_left_module {name}": left,
                    f"side_swap {name}": side_swap(left, opposite_dg(B)),
                    f"hom over C {name}": dg_hom_module(gh, C),
                    f"evaluation over C {name}": evaluation_left_module(C, U)})
    return out


def _constructor_args(X):
    if isinstance(X, DgAlgebra):
        return [X.field, dict(X.dims), X.mult, dict(X.diffs), X.unit]
    return [X.algebra, X.side, dict(X.dims), X.action, dict(X.diffs)]


def _corrupt(rng, X):
    """X's constructor arguments with one entry of its table, of a
    differential or of the unit shifted by a nonzero scalar, and which."""
    f = X.field
    args = _constructor_args(X)
    algebra = isinstance(X, DgAlgebra)
    t_pos, d_pos = (2, 3) if algebra else (3, 4)
    keys = sorted(k for k, t in args[t_pos].items() if t and t[0] and X.dim(sum(k)))
    degrees = [n for n in X.degrees() if X.dim(n) and X.dim(n + 1)]
    what = rng.choice(["table"] * 3 * bool(keys) + ["diff"] * 2 * bool(degrees)
                      + ["unit"] * algebra)
    c = rng.randrange(1, f.p)
    if what == "table":
        key = rng.choice(keys)
        t = [list(row) for row in args[t_pos][key]]
        i = rng.randrange(len(t))
        j = rng.randrange(len(t[i]))
        v = dict(t[i][j])
        l = rng.randrange(X.dim(sum(key)))
        v[l] = f.add(v.get(l, f.zero), c)
        t[i][j] = {k: x for k, x in v.items() if x}
        args[t_pos] = {**args[t_pos], key: t}
    elif what == "diff":
        n = rng.choice(degrees)
        rows = [list(r) for r in X.diff(n).rows]
        r, s = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows[r][s] = f.add(rows[r][s], c)
        args[d_pos] = {**args[d_pos], n: Matrix(f, len(rows), len(rows[0]), rows)}
    else:
        unit = dict(args[4])
        l = rng.randrange(X.dim(0))
        unit[l] = f.add(unit.get(l, f.zero), c)
        args[4] = {k: x for k, x in unit.items() if x}
    return args, what


@pytest.mark.parametrize("name", [f"{kind} {name}" for name in ("resolution", "silting", "wide")
                                  for kind in ("dg_end", "dg_hom_module",
                                               "evaluation_left_module", "side_swap",
                                               "hom over C", "evaluation over C")])
def test_validator_agrees_with_reference_on_corruptions(built_objects, name):
    X = built_objects[name]
    algebra = isinstance(X, DgAlgebra)
    build, reference = ((DgAlgebra, reference_algebra_check) if algebra
                        else (DgModule, reference_module_check))
    assert _verdict(build, _constructor_args(X)) is None
    rng = random.Random(f"corrupt/{name}")
    rejected = 0
    for _ in range(16):
        args, what = _corrupt(rng, X)
        expected = _verdict(reference, args)
        assert _verdict(build, args) == expected, (what, expected)
        rejected += expected is not None
    assert rejected


def test_structure_tables_hold_nonzero_canonical_entries(built_objects):
    """Every product in a structure table, of each object and of the algebra
    a module is over, is a dict of nonzero canonical entries in range."""
    tables = []
    for X in built_objects.values():
        if isinstance(X, DgAlgebra):
            tables.append((X, X.mult))
        else:
            tables += [(X, X.action), (X.algebra, X.algebra.mult)]
    products = 0
    for Z, table in tables:
        for (m, n), t in table.items():
            for p in chain.from_iterable(t):
                assert type(p) is dict
                assert all(0 <= k < Z.dim(m + n) and type(x) is int and 0 < x < Z.field.p
                           for k, x in p.items())
                products += 1
    assert products


def test_validators_take_no_dense_detour(built_objects, monkeypatch):
    """Validation reads every table block as sparse entries: it builds no
    Matrix from dense rows and reads no dense row view."""
    def dense(*args):
        raise RuntimeError("dense Matrix detour in a validator")

    monkeypatch.setattr(Matrix, "__init__", dense)
    monkeypatch.setattr(Matrix, "rows", property(dense))
    for X in built_objects.values():
        X.validate()


def test_dg_end_and_resolutions_take_no_dense_detour(A2, simple_resolution, two_term_silting,
                                                     wide, monkeypatch):
    """dg_end, semifree_resolve and the differential of the hom out of a
    resolution pass elements as sparse entries: they build no Matrix from
    dense rows and read no dense row view."""
    cases = []
    for name, U in (("resolution", simple_resolution), ("silting", two_term_silting),
                    ("wide", wide)):
        C = smart_truncate(dg_end(U))
        cases.append((U, dg_hom_module(hom_complex(U, _hom_target(A2, name, U)), C)))

    def dense(*args):
        raise RuntimeError("dense Matrix detour")

    monkeypatch.setattr(Matrix, "__init__", dense)
    monkeypatch.setattr(Matrix, "rows", property(dense))
    generators = 0
    for U, M in cases:
        dg_end(U)
        P = semifree_resolve(M, -4)
        sh = SemifreeHom(P, M)
        sh.h_table()
        for m in sh.degrees():
            sh.diff(m)
        generators += len(P.gens)
    assert generators


# -- the sparse reshapes against the dense slicing they replace --------------


def _dense_stacked(field, t, outer, inner, width):
    zero = (field.zero,) * width
    return tuple(tuple(t[o][q]) if t else zero for o in outer for q in inner)


def _dense_flat(field, t, outer, inner, width, swap):
    zero = (field.zero,) * width
    pick = (lambda o, q: t[q][o]) if swap else (lambda o, q: t[o][q])
    return tuple(tuple(chain.from_iterable(pick(o, q) if t else zero for q in inner))
                 for o in outer)


def _dense_per_block(rows, ncols, w, run):
    return tuple(tuple(chain.from_iterable(r[i * w:(i + 1) * w] for r in rows[g:g + run]))
                 for i in range(ncols // w) for g in range(0, len(rows), run))


def _dense_row_blocks(rows, ncols, w):
    return tuple(tuple(r[j * w:(j + 1) * w]) for r in rows for j in range(ncols // w))


def _entry(field, density):
    values = (st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
              if isinstance(field, RationalField) else st.integers(-300, 300))
    return st.tuples(st.integers(0, 9), values).map(
        lambda t: field.coerce(t[1]) if t[0] < density else field.zero)


@pytest.mark.parametrize("field", [F101, PrimeField(2), RationalField()], ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_reshapes_match_dense_slicing(field, data):
    """_per_block and _row_blocks regroup the entries of a matrix made of
    width-w blocks exactly as slicing its dense rows does, and _stacked and
    _flat read a table block, or a missing one, as the dense rows would."""
    density = data.draw(st.sampled_from([0, 1, 2, 5, 10]))
    cell = _entry(field, density)
    w, blocks = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    run, groups = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    nrows, ncols = run * groups, w * blocks
    rows = data.draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    M = Matrix.from_rows(field, rows, ncols)
    for got, want in ((_per_block(M, w, run), _dense_per_block(M.rows, ncols, w, run)),
                      (_row_blocks(M, w), _dense_row_blocks(M.rows, ncols, w))):
        assert got.nrows == len(want) and got.rows == want
        assert all(nz and all(nz.values()) for nz in got.entries.values())
    a, b = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    t = data.draw(st.lists(st.lists(st.lists(cell, min_size=w, max_size=w).map(tuple),
                                    min_size=b, max_size=b), min_size=a, max_size=a))
    if not data.draw(st.booleans()):
        t = None
    table = {(0, 0): sparse_products(t)} if t is not None else {}
    outer = data.draw(st.lists(st.integers(0, a - 1), max_size=3)) if a else []
    inner = data.draw(st.lists(st.integers(0, b - 1), max_size=3)) if b else []
    assert (_stacked(field, table, (0, 0), outer, inner, w).rows
            == _dense_stacked(field, t, outer, inner, w))
    assert (_flat(field, table, (0, 0), range(a), inner, w).rows
            == _dense_flat(field, t, range(a), inner, w, False))
    assert (_flat(field, table, (0, 0), range(b), outer, w, swap=True).rows
            == _dense_flat(field, t, range(b), outer, w, True))

def _products(dims_x, dims_y, dims_z, products):
    """A structure table with the given {(m, i, n, j): coordinates} and zero
    products elsewhere."""
    zero = F101.zero
    return {(m, n): sparse_products([[products.get((m, i, n, j), (zero,) * dims_z[m + n])
                                      for j in range(dy)] for i in range(dx)])
            for m, dx in dims_x.items() for n, dy in dims_y.items() if dims_z.get(m + n)}


def _unital(dims, products):
    """products plus 1*v = v*1 = v, where 1 is the first degree-0 basis element."""
    out = dict(products)
    for n, d in dims.items():
        for j in range(d):
            e = tuple(int(t == j) for t in range(d))
            out[(0, 0, n, j)] = out[(n, j, 0, 0)] = e
    return out


# The ground field K; D = k<x, y> with |x| = -1, dx = y and every product of x
# and y zero; A = k[a]/(a^4) with |a| = -1 and zero differential.  Each case
# breaks one axiom and keeps every axiom checked before it.
K_DIMS = {0: 1}
K_PRODUCTS = _unital(K_DIMS, {})
D_DIMS = {-1: 1, 0: 2}
D_PRODUCTS = _unital(D_DIMS, {})
D_DIFF = {-1: Matrix(F101, 1, 2, [[0, 1]])}
A_DIMS = {0: 1, -1: 1, -2: 1, -3: 1}
A_PRODUCTS = _unital(A_DIMS, {(-1, 0, -1, 0): (1,), (-1, 0, -2, 0): (1,), (-2, 0, -1, 0): (1,)})
A_SQUARED_TIMES_A_ZERO = {(-2, 0, -1, 0): (0,)}
CHAIN_DIMS = {-1: 1, 0: 1, 1: 1}
CHAIN_DIFF = {-1: Matrix(F101, 1, 1, [[1]]), 0: Matrix(F101, 1, 1, [[1]])}
Y_SQUARED = {(0, 1, 0, 1): (0, 1)}


def _algebra(dims, products, diffs=None, unit=None):
    return (F101, dims, _products(dims, dims, dims, products), diffs or {},
            unit or {0: 1})


def _module(over, side, dims, products, diffs=None):
    B = DgAlgebra(*over)
    first, second = (dims, B.dims) if side == "right" else (B.dims, dims)
    return (B, side, dims, _products(first, second, dims, products), diffs or {})


K = _algebra(K_DIMS, K_PRODUCTS)
D = _algebra(D_DIMS, D_PRODUCTS, D_DIFF)
A = _algebra(A_DIMS, A_PRODUCTS)
BROKEN = {
    "algebra d^2": (_algebra(CHAIN_DIMS, {}, CHAIN_DIFF),
                    "dg differential does not square to zero at degree -1"),
    "algebra unit": (_algebra(K_DIMS, K_PRODUCTS, unit={0: 2}),
                     "left unit fails in degree 0"),
    "algebra Leibniz": (_algebra(D_DIMS, _unital(D_DIMS, Y_SQUARED), D_DIFF),
                        "graded Leibniz fails on degrees (-1, 0)"),
    "algebra associativity": (_algebra(A_DIMS, {**A_PRODUCTS, **A_SQUARED_TIMES_A_ZERO}),
                              "associativity fails on degrees (-1, -1, -1)"),
}
for side in ("right", "left"):
    unit_action = {(n, 0, 0, 0) if side == "right" else (0, 0, n, 0): (1,) for n in CHAIN_DIMS}
    BROKEN.update({
        f"{side} module d^2": (_module(K, side, CHAIN_DIMS, unit_action, CHAIN_DIFF),
                               "module differential does not square to zero at -1"),
        f"{side} module unit": (_module(K, side, K_DIMS, {(0, 0, 0, 0): (2,)}),
                                "unit action fails in degree 0"),
        f"{side} module Leibniz": (_module(D, side, D_DIMS, _unital(D_DIMS, Y_SQUARED),
                                           D_DIFF),
                                   "module Leibniz fails on degrees (-1, 0)"),
        f"{side} module associativity": (
            _module(A, side, A_DIMS, {**A_PRODUCTS, **A_SQUARED_TIMES_A_ZERO}),
            "action associativity fails on "
            + ("(-1, -1, -1)" if side == "right" else "(-2, -1, 0)")),
    })


def test_unbroken_hand_built_structures_validate():
    """K, D and A, and each as a right and a left module over itself."""
    for over, dims, products, diffs in ((K, K_DIMS, K_PRODUCTS, {}),
                                        (D, D_DIMS, D_PRODUCTS, D_DIFF),
                                        (A, A_DIMS, A_PRODUCTS, {})):
        assert _verdict(DgAlgebra, over) is None
        assert _verdict(reference_algebra_check, over) is None
        for side in ("right", "left"):
            args = _module(over, side, dims, products, diffs)
            assert _verdict(DgModule, args) is None
            assert _verdict(reference_module_check, args) is None


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_axiom_is_enforced(case):
    args, message = BROKEN[case]
    build, reference = ((DgAlgebra, reference_algebra_check) if case.startswith("algebra")
                        else (DgModule, reference_module_check))
    for check in (build, reference):
        with pytest.raises(AssertionError) as err:
            check(*args)
        assert str(err.value) == message


def test_associativity_is_checked_on_every_triple_past_desk_scale():
    # linear A_8 as a dg-algebra in degree 0 with zero differential: 36 basis
    # elements.  a1: 1 -> 2 sits at position 9 and a1*a1 is zero; setting it
    # to e_0 breaks (a1*a1)*e_2 = e_0*e_2 = 0 against a1*(a1*e_2) = e_0, on
    # triples through a1, which a stride sample of every other element never
    # meets
    A = path_algebra(Quiver([str(v) for v in range(8)],
                            [(f"a{v}", str(v), str(v + 1)) for v in range(7)]), F101)
    table = [[A.basis_product(i, j) for j in range(A.dim)] for i in range(A.dim)]
    DgAlgebra(F101, {0: A.dim}, {(0, 0): table}, {}, A.unit)
    assert A.labels[9] == "a1" and not table[9][9]
    table[9] = table[9][:9] + [{0: F101.one}] + table[9][10:]
    with pytest.raises(AssertionError, match="associativity fails on degrees"):
        DgAlgebra(F101, {0: A.dim}, {(0, 0): table}, {}, A.unit)
