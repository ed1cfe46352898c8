"""Finite-dimensional path algebras with relations, and their right modules.

Conventions (used consistently by every downstream module):

* Path composition is diagrammatic: for arrows a: i -> j and b: j -> k the
  product a*b is the path i -> k.  Trivial paths e_i are the complete
  orthogonal idempotent set, and e_i * p = p exactly when p starts at i.
* Algebra and module elements are row vectors given by their nonzero entries
  {index: entry}, as in every other layer; the right action of an algebra
  element is a matrix acting on the right, so action(a*b) = action(a) @ action(b).
* A right module map f is a matrix F with f(x) = x @ F, and A-linearity reads
  action_M(a) @ F = F @ action_N(a).
* A module is a representation of the quiver with relations (Gabriel): a
  matrix per vertex and per arrow, a path acting as the product of its
  arrows'.  It is an A-module exactly when the vertex matrices are complete
  orthogonal idempotents, each arrow maps between its own vertices and each
  relation acts as zero.

Construction of the algebra from a presentation enumerates paths by length
and takes one quotient by the relation ideal.  On an acyclic quiver the
enumeration ends with the paths, and any relations are exact; on a quiver
with directed cycles only length-homogeneous relations are accepted (the
ideal is then length-graded, and the enumeration ends at the first length
the ideal fills); the mixed case is rejected rather than silently truncated.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .linalg import Matrix, RowSpace, quotient_map


class AdmissibilityError(ValueError):
    """Malformed presentation: bad relation paths or unsupported relation shape."""


class DimensionCapError(RuntimeError):
    """Path enumeration or algebra dimension exceeded the configured cap."""


class Quiver:
    """A finite quiver: vertex labels plus named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[tuple[str, str, str]]):
        self.vertices = [str(v) for v in vertices]
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = []
        names = set()
        for name, src, tgt in arrows:
            if name in names or name in self.vindex:
                raise ValueError(f"duplicate or clashing arrow name {name!r}")
            if src not in self.vindex or tgt not in self.vindex:
                raise ValueError(f"arrow {name!r} references unknown vertex")
            names.add(name)
            self.arrows.append((str(name), self.vindex[src], self.vindex[tgt]))
        self.aindex = {a[0]: i for i, a in enumerate(self.arrows)}
        self.out = {v: [] for v in range(len(self.vertices))}  # vertex -> arrows leaving it
        for i, (_, s, _) in enumerate(self.arrows):
            self.out[s].append(i)

    def has_cycle(self) -> bool:
        """Whether some arrows form a directed cycle: peeling off, one at a
        time, the vertices that no remaining arrow enters leaves a vertex
        behind exactly when they do."""
        indegree = [0] * len(self.vertices)
        for _, _, t in self.arrows:
            indegree[t] += 1
        ready = [v for v, d in enumerate(indegree) if not d]
        peeled = 0
        while ready:
            peeled += 1
            for i in self.out[ready.pop()]:
                w = self.arrows[i][2]
                indegree[w] -= 1
                if not indegree[w]:
                    ready.append(w)
        return peeled < len(self.vertices)


# paths are pairs (source_vertex_index, tuple_of_arrow_indices)


def _path_target(quiver: Quiver, path) -> int:
    src, arrows = path
    return quiver.arrows[arrows[-1]][2] if arrows else src


def _path_label(quiver: Quiver, path) -> str:
    src, arrows = path
    if not arrows:
        return f"e_{quiver.vertices[src]}"
    return "*".join(quiver.arrows[i][0] for i in arrows)


def _parse_relations(quiver: Quiver, relations):
    """Relations: each a list of (coeff, [arrow names]) terms.

    Every term must be a composable path of length >= 2 and all terms of one
    relation must be parallel (same source and target).
    """
    parsed = []
    for rel in relations:
        terms = []
        ends = None
        for coeff, names in rel:
            if len(names) < 2:
                raise AdmissibilityError(
                    f"relation term {names} has length {len(names)}; relations must lie "
                    "in the square of the arrow ideal"
                )
            try:
                arrws = tuple(quiver.aindex[n] for n in names)
            except KeyError as e:
                raise AdmissibilityError(f"unknown arrow {e.args[0]!r} in relation") from None
            for x, y in zip(arrws, arrws[1:]):
                if quiver.arrows[x][2] != quiver.arrows[y][1]:
                    raise AdmissibilityError(f"relation path {names} is not composable")
            src = quiver.arrows[arrws[0]][1]
            tgt = quiver.arrows[arrws[-1]][2]
            if ends is None:
                ends = (src, tgt)
            elif ends != (src, tgt):
                raise AdmissibilityError("relation mixes non-parallel paths")
            terms.append((coeff, arrws))
        if terms:
            parsed.append(terms)
    return parsed


class Algebra:
    """Finite-dimensional algebra with a distinguished basis.

    An element is its nonzero entries {index: entry}, stored as for
    Matrix.from_entries: nonzero, canonical, taken over and never mutated.
    mult maps each basis index pair (i, j) with b_i b_j nonzero to that
    product, and unit is the unit.  idempotents are indices of basis elements
    forming a complete orthogonal idempotent set (for a path algebra, the
    trivial paths).  generators must multiplicatively generate the algebra and
    contain the idempotents; module-map linearity is checked against them.
    A path algebra has its quiver, the path (source, arrows) of each basis
    element, path_index the inverse, and its relations as lists of
    (coefficient, arrows) terms; other algebras have None for all four.
    """

    def __init__(self, field, labels: Sequence[str], mult: dict, unit: dict,
                 idempotents: Sequence[int], generators: Sequence[int] | None = None,
                 quiver: Quiver | None = None, paths=None, relations=None, validate: bool = True):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = mult
        self.unit = unit
        self.idempotents = tuple(idempotents)
        self.generators = tuple(generators) if generators is not None else tuple(range(self.dim))
        self.quiver, self.paths, self.relations = quiver, paths, relations
        self.path_index = {p: i for i, p in enumerate(paths)} if paths is not None else None
        self._rmul = {}
        self._lmul = {}
        self._proj = {}  # idempotent position -> projective module
        self._proj_sums = {}  # tuple of idempotent positions -> their direct sum
        if validate:
            self.validate()

    @cached_property
    def dg(self):
        """This algebra as a dg-algebra in degree 0, built on first read."""
        from .dg import DgAlgebra
        mult = [[self.basis_product(i, j) for j in range(self.dim)] for i in range(self.dim)]
        return DgAlgebra(self.field, {0: self.dim}, {(0, 0): mult}, {}, self.unit,
                         idempotents=[{e: self.field.one} for e in self.idempotents])

    def projective(self, v: int) -> ProjectiveModule:
        """The indecomposable projective at idempotent v, built once."""
        if v not in self._proj:
            self._proj[v] = ProjectiveModule(self, v)
        return self._proj[v]

    def projective_sum(self, types: Sequence[int]) -> Module:
        """The direct sum of the listed indecomposable projectives, in the
        listed order: the term a projective witness names, built once; one
        projective alone is projective(v) itself."""
        types = tuple(types)
        if types not in self._proj_sums:
            self._proj_sums[types] = (self.projective(types[0]) if len(types) == 1 else
                                      direct_sum_modules(self, [self.projective(v) for v in types]))
        return self._proj_sums[types]

    def basis_product(self, i: int, j: int) -> dict:
        """b_i b_j as its nonzero entries."""
        return self.mult.get((i, j), {})

    def right_mult_matrix(self, j: int) -> Matrix:
        """Matrix of x |-> x * b_j in row convention."""
        if j not in self._rmul:
            self._rmul[j] = Matrix.from_entries(
                self.field, self.dim, self.dim,
                {i: p for i in range(self.dim) if (p := self.mult.get((i, j)))})
        return self._rmul[j]

    def left_mult_matrix(self, j: int) -> Matrix:
        """Matrix of x |-> b_j * x in row convention."""
        if j not in self._lmul:
            self._lmul[j] = Matrix.from_entries(
                self.field, self.dim, self.dim,
                {i: p for i in range(self.dim) if (p := self.mult.get((j, i)))})
        return self._lmul[j]

    def validate(self):
        f = self.field
        # unit: row i of sum u_t R_t is b_i u, and of sum u_t L_t is u b_i
        for side, mult_matrix in (("right", self.right_mult_matrix),
                                  ("left", self.left_mult_matrix)):
            terms = ((c, mult_matrix(t)) for t, c in self.unit.items())
            if Matrix.combination(f, self.dim, self.dim, terms) != Matrix.identity(f, self.dim):
                raise AssertionError(f"unit is not a {side} identity")
        # idempotents: complete orthogonal set of basis elements
        for e in self.idempotents:
            if self.basis_product(e, e) != {e: f.one}:
                raise AssertionError(f"basis element {self.labels[e]} is not idempotent")
        for e in self.idempotents:
            for e2 in self.idempotents:
                if e != e2 and self.basis_product(e, e2):
                    raise AssertionError("idempotents not orthogonal")
        # their sum, where a repeated idempotent counts once per repeat
        if f.reduce_entries({e: self.idempotents.count(e) for e in self.idempotents}) != self.unit:
            raise AssertionError("idempotents do not sum to the unit")
        # associativity: (b_i b_j) b_k = b_i (b_j b_k) for every i is the
        # matrix identity R_j R_k = sum_t c^{jk}_t R_t of right regular
        # matrices, checked for every basis element j and generator k.
        # Linearity gives (xy)g = x(yg) for every x, y and generator g, and
        # induction on the length of a product of generators gives it for
        # every element of A: the generators span A by products and contain
        # the idempotents
        for j in range(self.dim):
            for k in self.generators:
                rhs = Matrix.combination(f, self.dim, self.dim,
                                         ((c, self.right_mult_matrix(t))
                                          for t, c in self.basis_product(j, k).items()))
                if self.right_mult_matrix(j) @ self.right_mult_matrix(k) != rhs:
                    raise AssertionError(
                        f"associativity fails on ({self.labels[j]}, {self.labels[k]})")

    def __repr__(self):
        return f"Algebra(dim={self.dim}, basis={list(self.labels)!r})"


def path_algebra(quiver: Quiver, field, relations=(), dimension_cap: int = 512) -> Algebra:
    """Quotient of the path algebra of `quiver` by the given relations.

    Paths are enumerated by length, each length with the relation rows
    p*r*q whose longest path has that length, until no path is left or, on a
    quiver with directed cycles, every path of one length lies in the ideal.
    One quotient map over every enumerated path then gives the basis, and a
    path past the enumeration is 0.

    Basis: the surviving paths, ordered by (length, generation order).
    Raises DimensionCapError if enumeration or the quotient dimension exceeds
    the cap, AdmissibilityError for malformed or unsupported relations.
    """
    rels = _parse_relations(quiver, relations)
    cyclic = quiver.has_cycle()
    if cyclic and any(len({len(arrws) for _, arrws in terms}) > 1 for terms in rels):
        raise AdmissibilityError(
            "length-inhomogeneous relations on a quiver with directed cycles "
            "are not supported (length-truncated saturation would be unsound)"
        )
    enumeration_cap = max(dimension_cap * 64, 32768)
    layers = [[(v, ()) for v in range(len(quiver.vertices))]]
    index = {p: i for i, p in enumerate(layers[0])}

    def multiples(terms, n):
        """The rows p*r*q of the relation r = terms whose longest path has
        length n, over the positions of index; every shorter path is there."""
        m = max(len(arrws) for _, arrws in terms)
        src = quiver.arrows[terms[0][1][0]][1]
        tgt = quiver.arrows[terms[0][1][-1]][2]
        out = []
        for i in range(n - m + 1):
            for p in layers[i]:
                if _path_target(quiver, p) != src:
                    continue
                for q in layers[n - m - i]:
                    if q[0] != tgt:
                        continue
                    row = {}
                    for coeff, arrws in terms:
                        j = index[(p[0], p[1] + arrws + q[1])]
                        row[j] = row.get(j, 0) + field.coerce(coeff)
                    out.append(field.reduce_entries(row))
        return out

    rows = []
    kept = len(index)  # surviving paths so far, counted on a cyclic quiver
    while True:
        layer = [(p[0], p[1] + (ai,)) for p in layers[-1]
                 for ai in quiver.out[_path_target(quiver, p)]]
        if not layer:
            break
        if len(index) + len(layer) > enumeration_cap:
            raise DimensionCapError(f"path enumeration exceeded {enumeration_cap}" + (
                "; presentation is likely not admissible" if cyclic else ""))
        index.update((p, len(index)) for p in layer)
        new = [row for terms in rels for row in multiples(terms, len(layers))]
        if cyclic:
            # the relations are homogeneous, so this length's rows lie in its paths
            survivors = len(layer) - Matrix.from_row_entries(field, len(index), new).rank()
            if not survivors:
                break
            kept += survivors
            if kept > dimension_cap:
                raise DimensionCapError(f"algebra dimension exceeded cap {dimension_cap}")
        layers.append(layer)
        rows += new
    paths = [p for layer in layers for p in layer]
    free, proj = quotient_map(field, len(paths), rows)
    basis_paths = [paths[j] for j in free]
    if len(basis_paths) > dimension_cap:
        raise DimensionCapError(f"algebra dimension {len(basis_paths)} exceeds cap {dimension_cap}")

    def reduce_path(p):
        # a path past the enumeration, or of the length where it stopped, has
        # no projection row: it lies in the ideal
        return proj.entries.get(index.get(p), {})

    # sparse multiplication table on the surviving-path basis
    mult = {}
    for i, p in enumerate(basis_paths):
        pt = _path_target(quiver, p)
        for j, q in enumerate(basis_paths):
            if pt != q[0]:
                continue
            prod = reduce_path((p[0], p[1] + q[1]))
            if prod:
                mult[(i, j)] = prod

    labels = [_path_label(quiver, p) for p in basis_paths]
    trivial = list(range(len(quiver.vertices)))  # the first layer survives whole
    arrows = [i for i, p in enumerate(basis_paths) if len(p[1]) == 1]
    return Algebra(field, labels, mult, {t: field.one for t in trivial}, trivial,
                   generators=trivial + arrows, quiver=quiver, paths=basis_paths,
                   relations=[[(field.coerce(c), arrws) for c, arrws in terms] for terms in rels])


# -- right modules ---------------------------------------------------------


class Module:
    """A right module over a path algebra as a representation of its quiver:
    the matrices of A.generators, the vertices and then the arrows.  Another
    basis element is a path, whose matrix (action) is built on its first read
    and kept.  sq is set by Complex.cohomology and is None otherwise.  A map
    out of e_v A into it is, by Yoneda, its value on e_v: an element of
    cell(v), sending row r of e_v A to that value times yoneda(v)[r].  stalk
    is the module as a complex in degree 0, built once."""

    def __init__(self, algebra: Algebra, dim: int, generators: Sequence[Matrix], sq=None):
        if algebra.paths is None:
            raise ValueError("a module needs a path algebra presentation")
        if (len(generators) != len(algebra.generators)
                or any(m.nrows != dim or m.ncols != dim for m in generators)):
            raise ValueError(f"need one {dim}x{dim} matrix per algebra generator")
        self.algebra, self.dim, self.sq = algebra, dim, sq
        self._action = dict(zip(algebra.generators, generators))
        self._cells = {}  # vertex -> (cell(v), yoneda(v))
        self.validate()

    def action(self, i: int) -> Matrix:
        """The matrix of the i-th basis element of A."""
        return self._action.get(i) or self._along(*self.algebra.paths[i])

    def _along(self, src: int, arrows: tuple) -> Matrix:
        """The product of the arrows' matrices along a path from src: its
        longest prefix already kept, times each further arrow, keeping each
        prefix that is a basis element."""
        A, kept = self.algebra, self._action
        k = len(arrows)
        while (m := kept.get(A.path_index.get((src, arrows[:k])))) is None:
            k -= 1
        for k, a in enumerate(arrows[k:], k + 1):
            m = m @ kept[A.path_index[(A.quiver.arrows[a][1], (a,))]]
            if (i := A.path_index.get((src, arrows[:k]))) is not None:
                kept[i] = m
        return m

    def action_of(self, vec: dict) -> Matrix:
        """The action of an algebra element given as its nonzero entries; a
        basis element's is its own action matrix, not a copy."""
        return Matrix.combination(self.algebra.field, self.dim, self.dim,
                                  ((c, self.action(i)) for i, c in vec.items()))

    def validate(self):
        """The representation is an A-module: the vertex matrices are
        complete orthogonal idempotents, each arrow is e_s a e_t for its
        source s and target t, and each relation acts as zero."""
        A, f, d = self.algebra, self.algebra.field, self.dim
        if self.action_of(A.unit) != Matrix.identity(f, d):
            raise AssertionError("the vertex idempotents do not sum to the identity")
        es = [self._action[e] for e in A.idempotents]
        # e_v times every vertex matrix side by side is zero off block v
        side: dict = {}
        for w, e in enumerate(es):
            for i, nz in e.entries.items():
                side.setdefault(i, {}).update((w * d + j, x) for j, x in nz.items())
        side = Matrix.from_entries(f, d, d * len(es), side)
        if any(j // d != v for v, e in enumerate(es)
               for nz in (e @ side).entries.values() for j in nz):
            raise AssertionError("the vertex idempotents are not orthogonal")
        for g in A.generators[len(es):]:
            name, s, t = A.quiver.arrows[A.paths[g][1][0]]
            if es[s] @ self._action[g] @ es[t] != self._action[g]:
                raise AssertionError(f"arrow {name} does not map e_{A.quiver.vertices[s]} "
                                     f"into e_{A.quiver.vertices[t]}")
        for k, terms in enumerate(A.relations):
            src = A.quiver.arrows[terms[0][1][0]][1]
            if not Matrix.combination(f, d, d, ((c, self._along(src, arrws))
                                                for c, arrws in terms if c)).is_zero():
                raise AssertionError(f"relation {k} does not act as zero")

    def dimension_vector(self) -> tuple[int, ...]:
        """dim M.e for each vertex idempotent e: the rank of its action."""
        return tuple(self.action(e).rank() for e in self.algebra.idempotents)

    def cell(self, v: int) -> RowSpace:
        """M.e_v as its echelon basis, built on the first read of v and kept
        with yoneda(v).  A value's coordinates are its entries at the pivots."""
        if v not in self._cells:
            P = self.algebra.projective(v)
            self._cells[v] = (RowSpace(self.action(self.algebra.idempotents[v])),
                              [self.action_of(r) for r in P.ambient_rows])
        return self._cells[v][0]

    def yoneda(self, v: int) -> list:
        """The action on M of each ambient row of e_v A, in row order: the
        map out of e_v A with value y on e_v sends row r to y times the r-th."""
        self.cell(v)
        return self._cells[v][1]

    @cached_property
    def stalk(self):
        """This module in degree 0 (in degree d, stalk.shift(-d)), witnessed
        by its vertex exactly when it is the algebra's projective(v)."""
        from .complexes import Complex
        A = self.algebra
        if isinstance(self, ProjectiveModule) and self is A.projective(self.vertex):
            return Complex(A, None, {}, {0: (self.vertex,)}, validate=False)
        return Complex(A, {0: self}, {}, validate=False)

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra!r})"


class ModuleMap:
    """Right-module map, f(x) = x @ F."""

    def __init__(self, source: Module, target: Module, mat: Matrix, validate: bool = True):
        if mat.nrows != source.dim or mat.ncols != target.dim:
            raise ValueError("module map matrix has wrong shape")
        self.source = source
        self.target = target
        self.mat = mat
        if validate:
            for g in source.algebra.generators:
                if source.action(g) @ mat != mat @ target.action(g):
                    raise AssertionError(
                        f"matrix does not commute with the action of {source.algebra.labels[g]}"
                    )

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def hom_space(M: Module, N: Module) -> list[ModuleMap]:
    """k-basis of Hom_A(M, N), deterministic order.

    Solves the commutation system action_M(g) @ F = F @ action_N(g) over the
    algebra generators; a map commuting with a multiplicative generating set
    commutes with everything.
    """
    A = M.algebra
    if N.algebra is not A:
        raise ValueError("modules over different algebras")
    f, m, n = A.field, M.dim, N.dim
    rows = []
    for g in A.generators:
        RM, RN = M.action(g).entries, N.action(g).transpose().entries
        # constraint entry (i,j): sum_k RM[i][k] F[k][j] - sum_l F[i][l] RN[l][j] = 0
        for i in range(m):
            for j in range(n):
                row = {k * n + j: c for k, c in RM.get(i, {}).items()}
                for l, c in RN.get(j, {}).items():
                    row[i * n + l] = row.get(i * n + l, 0) - c
                rows.append(f.reduce_entries(row))
    maps = []
    # the solutions F, flattened, are the left kernel of the transposed system
    for flat in Matrix.from_row_entries(f, m * n, rows).transpose().left_kernel().entries.values():
        entries: dict = {}
        for k, x in flat.items():
            entries.setdefault(k // n, {})[k % n] = x
        maps.append(ModuleMap(M, N, Matrix.from_entries(f, m, n, entries), validate=False))
    return maps


def generator_image(P: Module, rows: dict, start: int = 0) -> dict:
    """The image of the generator e_v of P = e_v A, as its nonzero entries,
    under the map whose row r is rows[start + r] (nonzero rows
    {row: {column: entry}})."""
    acc: dict = {}
    for r, g in P.generator.items():
        for k, x in rows.get(start + r, {}).items():
            acc[k] = acc.get(k, 0) + g * x
    return P.algebra.field.reduce_entries(acc)


class ProjectiveModule(Module):
    """e_i A for the idem_pos-th idempotent, with its generator recorded.

    ambient_rows is its basis inside A, each an element of A as its nonzero
    entries, and ambient those rows as a matrix; generator the nonzero
    coordinates {row: entry} of e_i itself, and vertex = idem_pos.
    """

    def __init__(self, A: Algebra, idem_pos: int):
        e = A.idempotents[idem_pos]
        space = RowSpace(A.left_mult_matrix(e))
        span, d = space.matrix, space.dim
        # e A g lies in e A, so each row of it solves against the span
        super().__init__(A, d, [Matrix.from_entries(A.field, d, d, {
            r: span.solve_left_rows(v) for r, v in (span @ A.right_mult_matrix(g)).entries.items()
        }) for g in A.generators])
        self.ambient_rows, self.ambient = space.rows, span
        self.generator = span.solve_left_rows({e: A.field.one})
        self.vertex = idem_pos


def simple_module(A: Algebra, idem_pos: int) -> Module:
    """Vertex simple of a path algebra: one-dimensional, only e_v acts as 1."""
    e, f = A.idempotents[idem_pos], A.field
    return Module(A, 1, [Matrix.from_entries(f, 1, 1, {0: {0: f.one}} if j == e else {})
                         for j in A.generators])


def direct_sum_modules(A: Algebra, mods: Sequence[Module]) -> Module:
    return Module(A, sum(m.dim for m in mods),
                  [Matrix.block_diag(A.field, [m.action(g) for m in mods]) for g in A.generators])
