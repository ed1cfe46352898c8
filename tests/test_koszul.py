"""The Koszul pairs over linear kA_n and B = kA_n/rad^2: U = the sum of S_v[v].

On the A side each vertex simple S_v is given by its two-term projective
resolution, on the B side by its projective resolution of length n - 1 - v,
so U spreads over the n degrees -(n - 1)..0 on either side.  It is tilting
and its coresolution takes n - 1 steps.  H^0 End(U) is the other side's
algebra (Beilinson-Ginzburg-Soergel, J. AMS 1996): its Peirce dimensions
dim e_i E e_j, read off its summand idempotents, are the transpose of the
other side's Cartan matrix, so dim E is 2n - 1 on the A side and
n(n + 1)/2 on the B side.  With the opposite shifts the sum has a
self-extension in degree 2.  These are deep complexes with known answers,
past the two-term complexes of the fixtures.
"""

import pytest

from conftest import koszul_dual_sum, koszul_sum, linear_quiver_algebra
from siltcheck import algebra, complexes, semifree, silting, verifier
from siltcheck.algebra import simple_module
from siltcheck.complexes import hom_complex
from siltcheck.dg import end_h0
from siltcheck.linalg import Matrix
from siltcheck.semifree import semifree_resolve
from siltcheck.verifier import SiltingContext, verify_all


def peirce_dims(X, n: int) -> list:
    """dim e_i X e_j for the first n basis elements e_i of the algebra X,
    its idempotents: the rank of the products e_i b e_j over its basis b."""
    f = X.field

    def times(x: dict, j: int) -> dict:
        out = {}
        for k, c in x.items():
            for t, d in X.basis_product(k, j).items():
                out[t] = out.get(t, 0) + c * d
        return f.reduce_entries(out)

    return [[Matrix.from_row_entries(f, X.dim, [times(X.basis_product(i, k), j)
                                                for k in range(X.dim)]).rank()
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", range(2, 7))
def test_the_koszul_sum_is_tilting_and_its_mirror_is_not_presilting(n):
    A = linear_quiver_algebra(n)
    U = koszul_sum(A)
    assert (U.lo, U.hi) == (-(n - 1), 0)
    gh = hom_complex(U, U)
    report = silting.silting_report(U, gh=gh)
    assert report.tilting and not report.inconclusive
    assert report.n == n - 1
    assert end_h0(gh).dim == 2 * n - 1
    mirror = silting.silting_report(koszul_sum(A, sign=-1))
    assert not mirror.presilting
    assert mirror.presilting_witness[0] == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_the_koszul_dual_sum_is_tilting_and_its_mirror_is_not_presilting(n):
    B = linear_quiver_algebra(n, radical_square_zero=True)
    U = koszul_dual_sum(B)
    assert (U.lo, U.hi) == (-(n - 1), 0)
    gh = hom_complex(U, U)
    report = silting.silting_report(U, gh=gh)
    assert report.tilting and not report.inconclusive
    assert report.n == n - 1
    assert end_h0(gh).dim == n * (n + 1) // 2
    mirror = silting.silting_report(koszul_dual_sum(B, sign=-1))
    assert mirror.presilting_witness == (2, n - 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_each_side_has_the_other_sides_algebra_as_its_h0_end(n):
    A = linear_quiver_algebra(n)
    B = linear_quiver_algebra(n, radical_square_zero=True)
    cartan_A, cartan_B = peirce_dims(A, n), peirce_dims(B, n)
    # a path i -> j exists for j >= i, and one of length <= 1 for j - i in {0, 1}
    assert cartan_A == [[int(j >= i) for j in range(n)] for i in range(n)]
    assert cartan_B == [[int(j - i in (0, 1)) for j in range(n)] for i in range(n)]
    for U, other in ((koszul_sum(A), cartan_B), (koszul_dual_sum(B), cartan_A)):
        E = end_h0(hom_complex(U, U))
        # E's first n basis elements are the projections onto U's summands
        assert E.idempotents == tuple(range(n))
        assert peirce_dims(E, n) == [list(row) for row in zip(*other)]


@pytest.mark.parametrize("n", range(2, 6))
def test_the_koszul_sum_passes_every_check_at_window_1(n):
    reports = verify_all(koszul_sum(linear_quiver_algebra(n)), window=(-1, 1),
                         pair_degrees=(-1, 1))
    assert reports and all(r.passed for r in reports), [r.kind for r in reports if not r.passed]


@pytest.mark.parametrize("n", (4, 5))
def test_the_koszul_dual_sum_passes_every_check_at_window_1(n):
    reports = verify_all(koszul_dual_sum(linear_quiver_algebra(n, radical_square_zero=True)),
                         window=(-1, 1), pair_degrees=(-1, 1))
    assert reports and all(r.passed for r in reports), [r.kind for r in reports if not r.passed]


@pytest.mark.parametrize("side", ("A", "B"))
@pytest.mark.parametrize("n", range(2, 7))
def test_each_simple_is_one_cell_over_the_truncation(n, side):
    # S_v[v] is the summand U_v of U, so Hom(U, S_v) = Hom(U, U_v[-v]) is the
    # cell e_v C of the truncation C moved to degree v (X[k]^m = X^{m+k}):
    # its resolution over C has exactly one generator, of degree v and cell
    # e_v, the projection onto U_v
    U = (koszul_sum(linear_quiver_algebra(n)) if side == "A" else
         koszul_dual_sum(linear_quiver_algebra(n, radical_square_zero=True)))
    ctx = SiltingContext(U)
    for v in range(n):
        M = ctx.hom_module(simple_module(U.algebra, v).stalk)
        assert (M.lo, M.hi) == (v, v)
        P = semifree_resolve(M, M.lo - 2)
        assert (P.gens, P.cells) == ([v], [v])


def test_a_coresolution_checks_no_module_map_and_builds_no_direct_sum(monkeypatch):
    # a cone and an approximation between complexes of projectives are built
    # from generator values, A-linear by construction: once U and Hom(U, U)
    # are built, the whole coresolution of the Koszul A side at n = 8
    # validates no ModuleMap and builds no direct-sum module
    U = koszul_sum(linear_quiver_algebra(8))
    gh = hom_complex(U, U)
    checked, sums = [], []
    init = algebra.ModuleMap.__init__

    def counted_init(self, source, target, mat, validate=True):
        checked.append(validate)
        init(self, source, target, mat, validate)

    monkeypatch.setattr(algebra.ModuleMap, "__init__", counted_init)
    direct_sum = algebra.direct_sum_modules
    for module in (algebra, complexes, semifree, verifier):
        monkeypatch.setattr(module, "direct_sum_modules",
                            lambda A, mods: sums.append(len(mods)) or direct_sum(A, mods))
    report = silting.silting_report(U, max_steps=10, gh=gh)
    assert report.n == 7 and report.tilting
    assert True not in checked and sums == []
