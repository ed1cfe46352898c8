"""The A side of the Koszul pairs: over linear kA_n, U = the sum of S_v[v].

Each vertex simple S_v is given by its two-term projective resolution, so U
spreads over the n degrees -(n - 1)..0.  It is tilting, its coresolution
takes n - 1 steps, and H^0 End(U) has dimension 2n - 1, that of
kA_n/rad^2 (Beilinson-Ginzburg-Soergel, J. AMS 1996); with the opposite
shifts the sum has a self-extension in degree 2.  These are deep complexes
with known answers, past the two-term complexes of the fixtures.
"""

import pytest

from conftest import koszul_sum, linear_quiver_algebra
from siltcheck import silting
from siltcheck.complexes import hom_complex
from siltcheck.dg import end_h0
from siltcheck.verifier import verify_all


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


@pytest.mark.parametrize("n", range(2, 6))
def test_the_koszul_sum_passes_every_check_at_window_1(n):
    reports = verify_all(koszul_sum(linear_quiver_algebra(n)), window=(-1, 1),
                         pair_degrees=(-1, 1))
    assert reports and all(r.passed for r in reports), [r.kind for r in reports if not r.passed]
