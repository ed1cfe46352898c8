"""Session fixtures: base algebras, certified silting complexes, random complexes.

The silting fixtures are certified here by brute force against the module
oracles in oracles.py before any test uses them, so a broken fixture fails
loudly at setup rather than silently weakening the suite.
"""

import itertools
import json
import pathlib

import pytest

from oracles import ext1_dim, hom_dim
from siltcheck.algebra import (Module, Quiver, hom_space, path_algebra,
                               simple_module)
from siltcheck.complexes import (direct_sum_complexes, proj_replacement, projective_cache,
                                 projective_complex)
from siltcheck.fields import PrimeField
from siltcheck.instances import parse_instance
from siltcheck.linalg import Matrix

F101 = PrimeField(101)
FIX_A2 = pathlib.Path(__file__).resolve().parent.parent / "instances" / "fix_a2.json"

# The nine indecomposable two-term presilting complexes over kA_3 (0 -> 1 -> 2)
# as projective types per degree; P_j -> P_i carries the path from i to j.
A3_INDECOMPOSABLES = {
    "P0": {0: [0]}, "P1": {0: [1]}, "P2": {0: [2]},
    "P1toP0": {-1: [1], 0: [0]}, "P2toP0": {-1: [2], 0: [0]},
    "P2toP1": {-1: [2], 0: [1]},
    "P0[1]": {-1: [0]}, "P1[1]": {-1: [1]}, "P2[1]": {-1: [2]},
}


@pytest.fixture(scope="session")
def field():
    return F101


@pytest.fixture(scope="session")
def A2(field):
    return path_algebra(Quiver(["1", "2"], [("a", "1", "2")]), field)


@pytest.fixture(scope="session")
def K(field):
    return path_algebra(Quiver(["v"], []), field)


@pytest.fixture(scope="session")
def dual_numbers(field):
    return path_algebra(Quiver(["v"], [("x", "v", "v")]), field,
                        [[(1, ["x", "x"])]])


@pytest.fixture(scope="session")
def indecs(A2):
    """All three indecomposable modules over the arrow algebra."""
    out = {"P1": projective_cache(A2, 0), "P2": projective_cache(A2, 1),
           "S1": simple_module(A2, 0)}
    assert {k: v.dim for k, v in out.items()} == {"P1": 2, "P2": 1, "S1": 1}
    return out


def _is_tilting_module_pair(X, Y):
    """Brute module-level test: hereditary base, so projective dimension is
    at most one and only self-extension vanishing plus summand count matter."""
    return (ext1_dim(X, X) == 0 and ext1_dim(Y, Y) == 0
            and ext1_dim(X, Y) == 0 and ext1_dim(Y, X) == 0)


@pytest.fixture(scope="session")
def tilt_summands(indecs):
    """The unique tilting pair besides the free module, found by enumeration."""
    names = sorted(indecs)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if _is_tilting_module_pair(indecs[a], indecs[b])]
    assert pairs == [("P1", "P2"), ("P1", "S1")]
    return [indecs["P1"], indecs["S1"]]


@pytest.fixture(scope="session")
def P1c(A2):
    return projective_complex(A2, {0: [0]})


@pytest.fixture(scope="session")
def P2c(A2):
    return projective_complex(A2, {0: [1]})


@pytest.fixture(scope="session")
def s1res(A2):
    """Two-term projective resolution of the simple at the source vertex."""
    return projective_complex(A2, {-1: [1], 0: [0]},
                              {-1: Matrix(F101, 1, 2, [[F101.zero, F101.one]])})


@pytest.fixture(scope="session")
def U_tilt(A2, P1c, s1res, tilt_summands, indecs):
    U = direct_sum_complexes([P1c, s1res])
    assert U.cohomology(0).dimension_vector() == (2, 1)
    assert all(U.h_dim(n) == 0 for n in U.degrees() if n != 0)
    return U


@pytest.fixture(scope="session")
def U_silt2(A2, P1c, P2c, indecs):
    """Two-term silting complex; the orientation with no backward module maps."""
    assert hom_dim(indecs["P1"], indecs["P2"]) == 0
    assert hom_dim(indecs["P2"], indecs["P1"]) == 1
    return direct_sum_complexes([P2c, P1c.shift(1)])


@pytest.fixture(scope="session")
def U_bad(A2, P1c, P2c):
    """The opposite orientation: a genuine positive self-extension exists."""
    return direct_sum_complexes([P1c, P2c.shift(1)])


@pytest.fixture(scope="session")
def U_K(K):
    return projective_complex(K, {0: [0]})


def linear_quiver_algebra(n, field=F101, radical_square_zero=False):
    """kA_n, the path algebra of 0 -> 1 -> ... -> n-1, or with
    radical_square_zero its quotient kA_n/rad^2 by the relations a_v a_{v+1}."""
    relations = [[(1, [f"a{v}", f"a{v + 1}"])] for v in range(n - 2)] if radical_square_zero else []
    return path_algebra(Quiver([str(v) for v in range(n)],
                               [(f"a{v}", str(v), str(v + 1)) for v in range(n - 1)]),
                        field, relations)


def koszul_sum(A, sign=1):
    """The A side of the Koszul pairs over A = kA_n: the sum over the vertices
    v of S_v[sign * v], each simple S_v given by its projective resolution
    P_{v+1} -> P_v, the one map e_{v+1} -> a_v, and P_{n-1} alone at the sink.
    With sign 1 it is tilting in degrees -(n - 1)..0; with sign -1 it is not
    presilting."""
    n = len(A.idempotents)
    parts = []
    for v in range(n - 1):
        (m,) = hom_space(projective_cache(A, v + 1), projective_cache(A, v))
        parts.append(projective_complex(A, {-1: [v + 1], 0: [v]}, {-1: m.mat}))
    parts.append(projective_complex(A, {0: [n - 1]}))
    return direct_sum_complexes([S.shift(sign * v) for v, S in enumerate(parts)])


def koszul_dual_sum(B, sign=1):
    """The B side of the Koszul pairs over B = kA_n/rad^2: the sum over the
    vertices v of S_v[sign * v], each simple S_v given by its projective
    resolution, of length n - 1 - v.  With sign 1 it is tilting in degrees
    -(n - 1)..0; with sign -1 it is not presilting."""
    return direct_sum_complexes([proj_replacement(simple_module(B, v).stalk)[0].shift(sign * v)
                                 for v in range(len(B.idempotents))])


def regular_module(A):
    """A as a right module over itself."""
    return Module(A, A.dim, [A.right_mult_matrix(g) for g in A.generators])


def random_projective_types(A, rng, degrees=(-1, 0), max_copies=2):
    nverts = len(A.idempotents)
    types = {}
    for n in degrees:
        vs = [v for v in range(nverts) for _ in range(rng.randrange(0, max_copies + 1))]
        if vs:
            types[n] = vs
    if not types:
        types[0] = [rng.randrange(nverts)]
    return types


def random_two_term(A, rng, max_copies=2):
    """A random two-term complex of projectives with an A-linear differential."""
    from siltcheck.algebra import direct_sum_modules
    types = random_projective_types(A, rng, max_copies=max_copies)
    if len(types) < 2:
        return projective_complex(A, types)
    terms = {n: direct_sum_modules(A, [projective_cache(A, v) for v in vs])
             for n, vs in types.items()}
    basis = hom_space(terms[-1], terms[0])
    f = A.field
    d = Matrix.zero(f, terms[-1].dim, terms[0].dim)
    for b in basis:
        c = rng.randrange(0, 3)
        if c:
            coeff = f.one if c == 1 else f.add(f.one, f.one)
            d = d + b.mat.scale(coeff)
    return projective_complex(A, types, {-1: d})


@pytest.fixture(scope="session")
def coresolution_inputs():
    """field spec -> {name: complex}: the fix_a2 complexes read over that
    field ({"prime": p} or "rational") and the 84 sums of three distinct
    two-term indecomposables over kA_3, built once per field through the
    public API."""
    built = {}

    def build(field_spec):
        key = json.dumps(field_spec)
        if key in built:
            return built[key]
        data = json.loads(FIX_A2.read_text(encoding="utf-8"))
        data["field"] = field_spec
        inst = parse_instance(data)
        out = {f"fix_a2/{k}": U for k, U in inst.complexes.items()}
        A3 = path_algebra(Quiver(["0", "1", "2"], [("a", "0", "1"), ("b", "1", "2")]),
                          inst.field)
        parts = {}
        for name, types in A3_INDECOMPOSABLES.items():
            if len(types) == 1:
                parts[name] = projective_complex(A3, types)
                continue
            (basis,) = hom_space(projective_cache(A3, types[-1][0]),
                                 projective_cache(A3, types[0][0]))
            parts[name] = projective_complex(A3, types, {-1: basis.mat})
        for triple in itertools.combinations(A3_INDECOMPOSABLES, 3):
            out["a3/" + "+".join(triple)] = direct_sum_complexes([parts[x] for x in triple])
        built[key] = out
        return out

    return build
