"""Module-level oracles independent of the dg machinery, and a dense linear
algebra reference independent of the sparse Matrix storage.

The module oracles are computed with hom_space and dimension vectors only, so
the numbers frozen into the verifier tests do not come from the code under
test.
"""

from siltcheck.algebra import Module, hom_space


def hom_dim(M: Module, N: Module) -> int:
    return len(hom_space(M, N))


def euler_pairing(M: Module, N: Module) -> int:
    """hom - ext1 over the two-vertex arrow algebra, from dimension vectors.

    For the quiver with one arrow from the first vertex to the second the
    pairing is m1*n1 + m2*n2 - m1*n2; the algebra is hereditary, so this plus
    hom_dim determines ext1.
    """
    m1, m2 = M.dimension_vector()
    n1, n2 = N.dimension_vector()
    return m1 * n1 + m2 * n2 - m1 * n2


def ext1_dim(M: Module, N: Module) -> int:
    return hom_dim(M, N) - euler_pairing(M, N)


def weight_dims(M: Module) -> tuple:
    """Dimension of M at each vertex: dim Hom(P_v, M) for every projective."""
    return M.dimension_vector()


# -- dense reference for linalg ---------------------------------------------
# Lists of rows, one field call per cell and nothing skipped: the storage-free
# definitions the sparse Matrix kernels are checked against.  The elimination
# is the one Matrix.rref promises: pivot on the first nonzero row in order,
# swap it up, scale it to a unit pivot, clear the column in every other row.


def dense_matmul(f, a, b, ncols):
    return [[_dot(f, r, [s[j] for s in b]) for j in range(ncols)] for r in a]


def dense_add(f, a, b):
    return [[f.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_sub(f, a, b):
    return [[f.sub(x, y) for x, y in zip(r, s)] for r, s in zip(a, b)]


def dense_scale(f, c, a):
    c = f.coerce(c)
    return [[f.mul(c, x) for x in r] for r in a]


def dense_transpose(a, ncols):
    return [[r[j] for r in a] for j in range(ncols)]


def dense_block_diag(f, blocks):
    """blocks: (rows, ncols) pairs."""
    width = sum(c for _, c in blocks)
    out, c0 = [], 0
    for rows, c in blocks:
        out += [[f.zero] * c0 + list(r) + [f.zero] * (width - c0 - c) for r in rows]
        c0 += c
    return out


def dense_apply_row(f, v, a, ncols):
    return [_dot(f, v, [r[j] for r in a]) for j in range(ncols)]


def dense_rref(f, a, ncols):
    """(reduced rows, pivot columns, op record) in Matrix.rref's format."""
    rows = [list(r) for r in a]
    pivots, ops = [], []
    for col in range(ncols):
        if len(pivots) == len(rows):
            break
        prow = len(pivots)
        sel = next((i for i in range(prow, len(rows)) if rows[i][col] != f.zero), None)
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        inv = f.inv(rows[prow][col])
        rows[prow] = [f.mul(inv, x) for x in rows[prow]]
        elims = []
        for i, r in enumerate(rows):
            c = r[col]
            if i != prow and c != f.zero:
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(r, rows[prow])]
                elims.append((i, c))
        ops.append((sel, inv, elims))
        pivots.append(col)
    return rows, tuple(pivots), ops


def dense_kernel(f, a, ncols):
    """Rows of the kernel basis matrix: column k is the k-th free column's
    solution of a @ x = 0, with that free variable 1 and the others 0."""
    R, pivots, _ = dense_rref(f, a, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    cols = []
    for j in free:
        x = [f.zero] * ncols
        x[j] = f.one
        for prow, pcol in enumerate(pivots):
            x[pcol] = f.neg(R[prow][j])
        cols.append(x)
    return dense_transpose(cols, ncols)


def dense_solve(f, a, ncols, b, bcols):
    """x with a @ x = b from the RREF of [a | b], free variables 0; None if
    inconsistent."""
    R, pivots, _ = dense_rref(f, [list(r) + list(s) for r, s in zip(a, b)], ncols + bcols)
    if any(p >= ncols for p in pivots):
        return None
    x = [[f.zero] * bcols for _ in range(ncols)]
    for prow, pcol in enumerate(pivots):
        x[pcol] = R[prow][ncols:]
    return x


def _dot(f, u, v):
    acc = f.zero
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc
