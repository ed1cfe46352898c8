"""Finite-dimensional path algebras with relations, and their right modules.

Conventions (used consistently by every downstream module):

* Path composition is diagrammatic: for arrows a: i -> j and b: j -> k the
  product a*b is the path i -> k.  Trivial paths e_i are the complete
  orthogonal idempotent set, and e_i * p = p exactly when p starts at i.
* Module elements are row vectors; the right action of an algebra element is a
  matrix acting on the right, so action(a*b) = action(a) @ action(b).
* A right module map f is a matrix F with f(x) = x @ F, and A-linearity reads
  action_M(a) @ F = F @ action_N(a).

Construction of the algebra from a presentation enumerates paths and quotients
by the relation ideal.  For acyclic quivers this is exact for arbitrary
relations; for quivers with directed cycles only length-homogeneous relations
are accepted (the ideal is then length-graded and saturation is sound);
the mixed case is rejected rather than silently truncated.
"""

from __future__ import annotations

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

    def has_cycle(self) -> bool:
        out = {i: [] for i in range(len(self.vertices))}
        for _, s, t in self.arrows:
            out[s].append(t)
        state = {}  # 0 visiting, 1 done

        def visit(v):
            state[v] = 0
            for w in out[v]:
                if state.get(w) == 0:
                    return True
                if w not in state and visit(w):
                    return True
            state[v] = 1
            return False

        return any(visit(v) for v in range(len(self.vertices)) if v not in state)


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

    mult maps a basis index pair (i, j) to a sparse product, a tuple of
    (index, coefficient) pairs.  idempotents are indices of basis elements
    forming a complete orthogonal idempotent set (for a path algebra, the
    trivial paths).  generators must multiplicatively generate the algebra and
    contain the idempotents; module-map linearity is checked against them.
    """

    def __init__(self, field, labels: Sequence[str], mult: dict, unit: Sequence,
                 idempotents: Sequence[int], generators: Sequence[int] | None = None,
                 path_info=None, validate: bool = True):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.mult = mult
        self.unit = tuple(unit)
        self.idempotents = tuple(idempotents)
        self.generators = tuple(generators) if generators is not None else tuple(range(self.dim))
        self.path_info = path_info  # list of (source, target, arrows) for path algebras
        self._rmul = {}
        self._lmul = {}
        self._proj = {}  # idempotent position -> projective module
        self._proj_sums = {}  # tuple of idempotent positions -> their direct sum
        self._dg = None  # this algebra as a dg-algebra in degree 0
        if validate:
            self.validate()

    # sparse product of two basis elements
    def basis_product(self, i: int, j: int):
        return self.mult.get((i, j), ())

    def multiply(self, u: Sequence, v: Sequence) -> tuple:
        f = self.field
        out = [f.zero] * self.dim
        for i, a in enumerate(u):
            if a == f.zero:
                continue
            for j, b in enumerate(v):
                if b == f.zero:
                    continue
                c = f.mul(a, b)
                for k, s in self.basis_product(i, j):
                    out[k] = f.add(out[k], f.mul(c, s))
        return tuple(out)

    def right_mult_matrix(self, j: int) -> Matrix:
        """Matrix of x |-> x * b_j in row convention."""
        if j not in self._rmul:
            f = self.field
            rows = []
            for i in range(self.dim):
                row = [f.zero] * self.dim
                for k, s in self.basis_product(i, j):
                    row[k] = f.add(row[k], s)
                rows.append(row)
            self._rmul[j] = Matrix(f, self.dim, self.dim, rows)
        return self._rmul[j]

    def left_mult_matrix(self, j: int) -> Matrix:
        """Matrix of x |-> b_j * x in row convention."""
        if j not in self._lmul:
            f = self.field
            rows = []
            for i in range(self.dim):
                row = [f.zero] * self.dim
                for k, s in self.basis_product(j, i):
                    row[k] = f.add(row[k], s)
                rows.append(row)
            self._lmul[j] = Matrix(f, self.dim, self.dim, rows)
        return self._lmul[j]

    def validate(self):
        f = self.field
        # unit is a two-sided identity
        for i in range(self.dim):
            ei = tuple(f.one if k == i else f.zero for k in range(self.dim))
            if self.multiply(self.unit, ei) != ei or self.multiply(ei, self.unit) != ei:
                raise AssertionError(f"unit fails on basis element {self.labels[i]}")
        # idempotents: complete orthogonal set of basis elements
        acc = [f.zero] * self.dim
        for e in self.idempotents:
            ee = self.basis_product(e, e)
            if dict(ee) != {e: f.one}:
                raise AssertionError(f"basis element {self.labels[e]} is not idempotent")
            acc[e] = f.add(acc[e], f.one)
        for e in self.idempotents:
            for e2 in self.idempotents:
                if e != e2 and self.basis_product(e, e2):
                    raise AssertionError("idempotents not orthogonal")
        if tuple(acc) != self.unit:
            raise AssertionError("idempotents do not sum to the unit")
        # associativity: (b_i b_j) b_k = b_i (b_j b_k) for every i is the
        # matrix identity R_j R_k = sum_t c^{jk}_t R_t of right regular
        # matrices, checked per pair (j, k) of a strided sample above desk
        # scale
        step = 1 if self.dim <= 24 else max(1, self.dim // 16)
        idx = range(0, self.dim, step)
        for j in idx:
            for k in idx:
                rhs = Matrix.combination(f, self.dim, self.dim,
                                         ((c, self.right_mult_matrix(t))
                                          for t, c in self.basis_product(j, k)))
                if self.right_mult_matrix(j) @ self.right_mult_matrix(k) != rhs:
                    raise AssertionError(
                        f"associativity fails on ({self.labels[j]}, {self.labels[k]})")

    def basis_vector(self, i: int) -> tuple:
        f = self.field
        return tuple(f.one if k == i else f.zero for k in range(self.dim))

    def __repr__(self):
        return f"Algebra(dim={self.dim}, basis={list(self.labels)!r})"


def path_algebra(quiver: Quiver, field, relations=(), dimension_cap: int = 512) -> Algebra:
    """Quotient of the path algebra of `quiver` by the given relations.

    Basis: the surviving paths, ordered by (length, generation order).
    Raises DimensionCapError if enumeration or the quotient dimension exceeds
    the cap, AdmissibilityError for malformed or unsupported relations.
    """
    rels = _parse_relations(quiver, relations)
    cyclic = quiver.has_cycle()
    if cyclic:
        for terms in rels:
            lengths = {len(arrws) for _, arrws in terms}
            if len(lengths) > 1:
                raise AdmissibilityError(
                    "length-inhomogeneous relations on a quiver with directed cycles "
                    "are not supported (length-truncated saturation would be unsound)"
                )
    enumeration_cap = max(dimension_cap * 64, 32768)

    paths_by_len: list[list] = [[(v, ()) for v in range(len(quiver.vertices))]]
    total_paths = len(paths_by_len[0])

    def extend(paths):
        out = []
        for path in paths:
            t = _path_target(quiver, path)
            for ai, (_, s, _) in enumerate(quiver.arrows):
                if s == t:
                    out.append((path[0], path[1] + (ai,)))
        return out

    if not cyclic:
        # enumerate everything, then one global quotient
        while paths_by_len[-1]:
            nxt = extend(paths_by_len[-1])
            total_paths += len(nxt)
            if total_paths > enumeration_cap:
                raise DimensionCapError(f"path enumeration exceeded {enumeration_cap}")
            paths_by_len.append(nxt)
        paths_by_len.pop()
        all_paths = [p for group in paths_by_len for p in group]
        index = {p: i for i, p in enumerate(all_paths)}
        width = len(all_paths)
        rows = []
        for terms in rels:
            src = quiver.arrows[terms[0][1][0]][1]
            tgt = quiver.arrows[terms[0][1][-1]][2]
            for p in all_paths:
                if _path_target(quiver, p) != src:
                    continue
                for q in all_paths:
                    if q[0] != tgt:
                        continue
                    row = {}
                    for coeff, arrws in terms:
                        j = index[(p[0], p[1] + arrws + q[1])]
                        row[j] = row.get(j, 0) + field.coerce(coeff)
                    rows.append(field.reduce_entries(row))
        free, proj = quotient_map(field, width, rows)
        basis_paths = [all_paths[j] for j in free]
        bindex = {p: i for i, p in enumerate(basis_paths)}

        def reduce_path(p):
            return tuple(sorted(proj.entries.get(index[p], {}).items()))

    else:
        # length-graded quotient, one block per length, until saturation
        indices: list[dict] = []         # length -> {path: position}
        projs: list[Matrix] = []         # length -> projection onto survivors
        survivors_by_len: list[list] = []
        n = 0
        while True:
            paths_n = paths_by_len[n]
            width = len(paths_n)
            index_n = {p: i for i, p in enumerate(paths_n)}
            rows = []
            for terms in rels:
                m = len(terms[0][1])
                if m > n:
                    continue
                src = quiver.arrows[terms[0][1][0]][1]
                tgt = quiver.arrows[terms[0][1][-1]][2]
                for i in range(n - m + 1):
                    for p in paths_by_len[i]:
                        if _path_target(quiver, p) != src:
                            continue
                        for q in paths_by_len[n - m - i]:
                            if q[0] != tgt:
                                continue
                            row = {}
                            ok = True
                            for coeff, arrws in terms:
                                comb = (p[0], p[1] + arrws + q[1])
                                if comb not in index_n:
                                    ok = False
                                    break
                                j = index_n[comb]
                                row[j] = row.get(j, 0) + field.coerce(coeff)
                            if ok:
                                rows.append(field.reduce_entries(row))
            free_n, proj_n = quotient_map(field, width, rows)
            indices.append(index_n)
            projs.append(proj_n)
            surv_n = [paths_n[j] for j in free_n]
            survivors_by_len.append(surv_n)
            if n >= 1 and not surv_n:
                break
            nxt = extend(paths_n)
            total_paths += len(nxt)
            if total_paths > enumeration_cap:
                raise DimensionCapError(
                    f"path enumeration exceeded {enumeration_cap}; presentation "
                    "is likely not admissible"
                )
            if sum(len(s) for s in survivors_by_len) > dimension_cap:
                raise DimensionCapError(f"algebra dimension exceeded cap {dimension_cap}")
            paths_by_len.append(nxt)
            n += 1
        L_stop = n
        basis_paths = [p for group in survivors_by_len for p in group]
        offsets = []
        off = 0
        for group in survivors_by_len:
            offsets.append(off)
            off += len(group)
        bindex = {p: i for i, p in enumerate(basis_paths)}

        def reduce_path(p):
            ln = len(p[1])
            if ln >= L_stop:
                return ()
            row = projs[ln].entries.get(indices[ln][p], {})
            return tuple((offsets[ln] + k, c) for k, c in sorted(row.items()))

    if len(basis_paths) > dimension_cap:
        raise DimensionCapError(f"algebra dimension {len(basis_paths)} exceeds cap {dimension_cap}")

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
    trivial = [bindex[(v, ())] for v in range(len(quiver.vertices))]
    arrows = [bindex[p] for p in basis_paths if len(p[1]) == 1]
    unit = [field.zero] * len(basis_paths)
    for t in trivial:
        unit[t] = field.one
    path_info = [(p[0], _path_target(quiver, p), p[1]) for p in basis_paths]
    alg = Algebra(field, labels, mult, unit, trivial, generators=trivial + arrows,
                  path_info=path_info)
    alg.quiver = quiver
    return alg


# -- right modules ---------------------------------------------------------


class Module:
    """A right module: row vectors with one action matrix per algebra basis element."""

    def __init__(self, algebra: Algebra, dim: int, action: Sequence[Matrix], validate: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.nrows != dim or m.ncols != dim:
                raise ValueError("action matrix has wrong shape")
        self._homs_from = {}  # vertex -> ProjectiveHoms out of its projective
        if validate:
            self.validate()

    def action_of(self, vec: Sequence) -> Matrix:
        """The action of an algebra element; a basis element's is its own
        action matrix, not a copy."""
        f = self.algebra.field
        return Matrix.combination(f, self.dim, self.dim,
                                  ((c, self.action[i]) for i, c in enumerate(vec) if c != f.zero))

    def validate(self):
        A = self.algebra
        ident = Matrix.identity(A.field, self.dim)
        if self.action_of(A.unit) != ident:
            raise AssertionError("unit does not act as identity")
        step = 1 if A.dim <= 32 else max(1, A.dim // 16)
        idx = range(0, A.dim, step)
        f = A.field
        for i in idx:
            for j in idx:
                rhs = Matrix.combination(f, self.dim, self.dim,
                                         ((c, self.action[k]) for k, c in A.basis_product(i, j)))
                if self.action[i] @ self.action[j] != rhs:
                    raise AssertionError(
                        f"action incompatible with multiplication on ({A.labels[i]}, {A.labels[j]})"
                    )

    def dimension_vector(self) -> tuple[int, ...]:
        """dim M.e for each vertex idempotent e: the rank of its action."""
        return tuple(self.action[e].rank() for e in self.algebra.idempotents)

    def homs_from(self, P: "Module") -> "ProjectiveHoms":
        """Hom(P, self) for the indecomposable projective P = e_v A, built
        once per vertex and kept on this module."""
        if P.vertex not in self._homs_from:
            self._homs_from[P.vertex] = ProjectiveHoms(P, self)
        return self._homs_from[P.vertex]

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
                if source.action[g] @ mat != mat @ target.action[g]:
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
    if N.algebra is not A and N.algebra.dim != A.dim:
        raise ValueError("modules over different algebras")
    f = A.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return []
    rows = []
    for g in A.generators:
        RM, RN = M.action[g], N.action[g]
        # constraint entry (i,j): sum_k RM[i][k] F[k][j] - sum_l F[i][l] RN[l][j] = 0
        for i in range(m):
            for j in range(n):
                row = [f.zero] * (m * n)
                for k in range(m):
                    c = RM.rows[i][k]
                    if c != f.zero:
                        row[k * n + j] = f.add(row[k * n + j], c)
                for l in range(n):
                    c = RN.rows[l][j]
                    if c != f.zero:
                        row[i * n + l] = f.sub(row[i * n + l], c)
                rows.append(row)
    C = Matrix(f, len(rows), m * n, rows)
    ker = C.kernel_basis()
    maps = []
    for ci in range(ker.ncols):
        flat = [ker.rows[r][ci] for r in range(m * n)]
        mat = Matrix(f, m, n, [flat[i * n:(i + 1) * n] for i in range(m)])
        maps.append(ModuleMap(M, N, mat, validate=False))
    return maps


class ProjectiveHoms:
    """Hom(e_v A, N) read off N.e_v by Yoneda, with no system to solve.

    A map out of P = e_v A is fixed by the image w of e_v, any element of
    N.e_v, and sends row r of P (ambient_rows[r], an element of A) to w times
    that element.  space is the echelon basis of N.e_v, acts the action
    matrix on N of each ambient row, and blocks the basis maps, one per
    echelon row of space, as P.dim x N.dim matrices, each checked to be a
    module map when built.  The coordinates of a map are the entries of w at the pivots of
    space, whose echelon rows are fully reduced with unit pivots
    (complexes.read_image).
    """

    def __init__(self, P: Module, N: Module):
        f = N.algebra.field
        self.P = P
        self.space = RowSpace(N.action[N.algebra.idempotents[P.vertex]])
        self.acts = [N.action_of(r) for r in P.ambient_rows]
        self.blocks = []
        for y in self.space.rows:
            rows = {r: img for r, a in enumerate(self.acts) if (img := a.apply_entries(y))}
            self.blocks.append(ModuleMap(P, N, Matrix.from_entries(f, P.dim, N.dim, rows)).mat)

    def checked_image(self, rows: dict) -> dict | None:
        """The image w of e_v under the map P -> N with the given nonzero
        rows {row: {column: entry}}, or None when they are not a module map.

        The map is a module map exactly when each of its rows is w times its
        ambient row, so rebuilding the rows from w decides membership
        without elimination.
        """
        w = generator_image(self.P, rows)
        for r, a in enumerate(self.acts):
            if a.apply_entries(w) != rows.get(r, {}):
                return None
        return w


def generator_image(P: Module, rows: dict, start: int = 0) -> dict:
    """The image of the generator e_v of P = e_v A, as its nonzero entries,
    under the map whose row r is rows[start + r] (nonzero rows
    {row: {column: entry}})."""
    acc: dict = {}
    for r, g in P.generator:
        for k, x in rows.get(start + r, {}).items():
            acc[k] = acc.get(k, 0) + g * x
    return P.algebra.field.reduce_entries(acc)


def projective_module(A: Algebra, idem_pos: int) -> Module:
    """e_i A for the idem_pos-th idempotent, with its generator recorded.

    Works for any algebra with a complete orthogonal idempotent basis set, not
    just path algebras.  Attributes: ambient_rows (basis inside A), generator
    (the nonzero coordinates (row, entry) of e_i itself), vertex (= idem_pos).
    """
    e = A.idempotents[idem_pos]
    f = A.field
    rows = RowSpace(A.left_mult_matrix(e)).rows
    span = Matrix.from_entries(f, len(rows), A.dim, dict(enumerate(rows)))
    action = []
    for j in range(A.dim):
        mats = {}
        for r, v in (span @ A.right_mult_matrix(j)).entries.items():
            sol = span.solve_left_rows(v)
            if sol is None:
                raise AssertionError("projective weight space not closed under the action")
            mats[r] = sol
        action.append(Matrix.from_entries(f, len(rows), len(rows), mats))
    P = Module(A, len(rows), action, validate=False)
    P.ambient_rows = span.rows
    gen = span.solve_left_rows({e: f.one})
    if gen is None:
        raise AssertionError("idempotent not inside its own projective")
    P.generator = tuple(sorted(gen.items()))
    P.vertex = idem_pos
    P.validate()
    return P


def simple_module(A: Algebra, idem_pos: int) -> Module:
    """Vertex simple of a path algebra: one-dimensional, only e_v acts as 1."""
    if A.path_info is None:
        raise ValueError("simple_module needs a path algebra presentation")
    e = A.idempotents[idem_pos]
    f = A.field
    action = []
    for j in range(A.dim):
        val = f.one if j == e else f.zero
        action.append(Matrix(f, 1, 1, [(val,)]))
    return Module(A, 1, action)


def direct_sum_modules(A: Algebra, mods: Sequence[Module]) -> Module:
    f = A.field
    action = []
    for j in range(A.dim):
        action.append(Matrix.block_diag(f, [m.action[j] for m in mods]))
    total = sum(m.dim for m in mods)
    M = Module(A, total, action, validate=False)
    offs = []
    off = 0
    for m in mods:
        offs.append((off, m.dim))
        off += m.dim
    M.summand_offsets = offs
    return M
