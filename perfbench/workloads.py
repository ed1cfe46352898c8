"""The three kA_3 workloads: generated inputs, known answers, and one case runner.

Every workload works over the path algebra of the linear quiver 0 -> 1 -> 2
over F_101.  The seed picks the nonzero scalar on every two-term differential
and the order in which the cases run; it changes no expected answer.

Known answers come from the mathematics, not from the program:

* Two-term presilting compatibility over a hereditary algebra follows from
  Adachi-Iyama-Reiten (tau-tilting theory, arXiv:1210.1036): two module
  presentations are compatible iff Ext^1 vanishes both ways, a presentation
  and a shifted projective P_v[1] iff the module vanishes at v, and shifted
  projectives always are.  A sum of three pairwise compatible indecomposables
  is silting; there are Catalan(4) = 14 such sums over kA_3, and every other
  sum of three has a positive self-extension.
* The paper's theorem: every silting complex passes the whole verification
  battery, so every verify case must exit 0 and every sweep report must pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

N_VERTICES = 3
PRIME = 101
VERIFY_OPTIONS = {"window": [-1, 1], "pair_degrees": [-1, 1]}
SWEEP_WINDOWS = (0, 1, 2, 3)
SWEEP_PAIR_DEGREES = (-1, 1)
CATALAN_4 = 14

# The nine indecomposable two-term presilting complexes over kA_3, as
# (projective types per degree, module interval or shifted vertex).
# P_j -> P_i presents the interval module M[i, j-1]; P_i is M[i, 2].
INDECOMPOSABLES = {
    "P0": ({0: [0]}, ("module", 0, 2)),
    "P1": ({0: [1]}, ("module", 1, 2)),
    "P2": ({0: [2]}, ("module", 2, 2)),
    "P1toP0": ({-1: [1], 0: [0]}, ("module", 0, 0)),
    "P2toP0": ({-1: [2], 0: [0]}, ("module", 0, 1)),
    "P2toP1": ({-1: [2], 0: [1]}, ("module", 1, 1)),
    "P0[1]": ({-1: [0]}, ("shifted", 0)),
    "P1[1]": ({-1: [1]}, ("shifted", 1)),
    "P2[1]": ({-1: [2]}, ("shifted", 2)),
}


# -- known answers -------------------------------------------------------------


def _dims(interval) -> tuple:
    _, i, j = interval
    return tuple(1 if i <= v <= j else 0 for v in range(N_VERTICES))


def _hom(m, n) -> int:
    """dim Hom(M[i,j], M[k,l]) over linear A_n: 1 iff k <= i <= l <= j."""
    (_, i, j), (_, k, l) = m, n
    return 1 if k <= i <= l <= j else 0


def _euler(m, n) -> int:
    a, b = _dims(m), _dims(n)
    return (sum(x * y for x, y in zip(a, b))
            - sum(a[v] * b[v + 1] for v in range(N_VERTICES - 1)))


def _ext1(m, n) -> int:
    return _hom(m, n) - _euler(m, n)


def compatible(x: str, y: str) -> bool:
    """Whether the sum of two indecomposables is presilting (AIR, hereditary)."""
    a, b = INDECOMPOSABLES[x][1], INDECOMPOSABLES[y][1]
    if a[0] == "shifted" and b[0] == "shifted":
        return True
    if a[0] == "shifted" or b[0] == "shifted":
        shifted, module = (a, b) if a[0] == "shifted" else (b, a)
        return _dims(module)[shifted[1]] == 0
    return _ext1(a, b) == 0 and _ext1(b, a) == 0


def triples() -> list:
    """All C(9,3) = 84 sums of three distinct indecomposables, canonical order."""
    return list(itertools.combinations(INDECOMPOSABLES, 3))


def silting_triples() -> set:
    out = {t for t in triples()
           if all(compatible(x, y) for x, y in itertools.combinations(t, 2))}
    if len(out) != CATALAN_4:
        raise AssertionError(f"oracle found {len(out)} silting sums, "
                             f"expected Catalan(4) = {CATALAN_4}")
    return out


def case_name(triple) -> str:
    return "+".join(triple)


# -- generated inputs ------------------------------------------------------------


def build_algebra(sc):
    """kA_3 over F_101 with the quiver 0 -> 1 -> 2, from the program's API."""
    quiver = sc.Quiver([str(v) for v in range(N_VERTICES)],
                       [("a", "0", "1"), ("b", "1", "2")])
    return quiver, sc.path_algebra(quiver, sc.PrimeField(PRIME))


def _indecomposable(sc, A, name: str, rng: random.Random):
    types, _ = INDECOMPOSABLES[name]
    if len(types) == 1:
        return sc.projective_complex(A, types)
    src, tgt = types[-1][0], types[0][0]
    (basis,) = sc.hom_space(sc.projective_cache(A, src),
                            sc.projective_cache(A, tgt))
    scalar = rng.randrange(1, PRIME)
    return sc.projective_complex(A, types, {-1: basis.mat.scale(scalar)})


def sum_complex(sc, A, triple, rng: random.Random):
    return sc.direct_sum_complexes([_indecomposable(sc, A, x, rng)
                                    for x in triple])


def free_complex(sc, A):
    """The free module as the sum of its indecomposable summands P0+P1+P2."""
    return sc.direct_sum_complexes([sc.projective_complex(A, {0: [v]})
                                    for v in range(N_VERTICES)])


def make_instance(sc, workload: str, seed: int):
    """The seeded instance a workload loads; only these inputs reach the program."""
    rng = random.Random(f"{workload}/{seed}/scalars")
    quiver, A = build_algebra(sc)
    options = {}
    if workload == "a3-two-term-check":
        chosen = triples()
    elif workload == "a3-verify":
        chosen = sorted(silting_triples())
        options = dict(VERIFY_OPTIONS)
    elif workload == "a3-window-sweep":
        chosen = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    complexes = {case_name(t): sum_complex(sc, A, t, rng) for t in chosen}
    if workload == "a3-window-sweep":
        complexes["free"] = free_complex(sc, A)
    return sc.Instance(f"bench-{workload}-{seed}", A.field, quiver, [], A,
                       complexes, {}, {}, options)


# -- cases -------------------------------------------------------------------------


@dataclass
class Case:
    name: str
    expected: str
    arg: object = None


@dataclass
class Outcome:
    result: str          # what the program answered, e.g. "silting" or "exit 1"
    digest: str          # hash of everything the program returned or printed
    ok: bool


def cases(workload: str, seed: int) -> list:
    """The fixed case list of a workload, in the seed's order."""
    if workload == "a3-two-term-check":
        good = silting_triples()
        out = [Case(case_name(t), "silting" if t in good else "not presilting")
               for t in triples()]
    elif workload == "a3-verify":
        out = [Case(case_name(t), "exit 0") for t in sorted(silting_triples())]
    elif workload == "a3-window-sweep":
        out = [Case(f"window+-{w}", "all pass", w) for w in SWEEP_WINDOWS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{workload}/{seed}/order").shuffle(out)
    return out


def run_case(sc, workload: str, case: Case, inst, path: Path) -> Outcome:
    """Run one case and compare it with its known answer.

    An exception that escapes the program is an outcome like any other: it
    counts as a failed case, never as a crash of the benchmark.
    """
    try:
        if workload == "a3-two-term-check":
            rep = sc.silting_report(inst.complexes[case.name])
            if rep.presilting and rep.n is not None:
                result = "silting"
            elif rep.presilting_witness is not None:
                result = "not presilting"
            else:
                result = "inconclusive"
            digest = _digest(repr(sorted(vars(rep).items())))
        elif workload == "a3-verify":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = sc.cli.main(["verify", str(path), case.name])
            result = f"exit {code}"
            digest = _digest(buf.getvalue())
        else:
            w = case.arg
            reports = sc.verify_all(inst.complexes["free"], window=(-w, w),
                                    pair_degrees=SWEEP_PAIR_DEGREES)
            result = "all pass" if all(r.passed for r in reports) else "fail"
            digest = _digest(repr([r.as_dict() for r in reports]))
    except Exception as e:  # noqa: BLE001 - a program failure is a measured outcome
        result = f"raised {type(e).__name__}: {e}"
        digest = _digest(result)
    return Outcome(result, digest, result == case.expected)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
