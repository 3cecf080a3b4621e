"""Dense linear algebra over GF(q).

Matrices are 2-d numpy arrays of element encodings.  Everything here is
Gaussian elimination driven by the field's table arithmetic (reduced row
echelon form, rank and kernel, which interpolation and the syndrome table
use), plus the one vector-matrix product.  Elimination loops over pivots in
Python and updates all rows of a pivot step at once; the product is a single
array operation, an integer matmul mod p on prime fields (int32 while no
sum can reach 2^31, int64 above) and, on extension fields, one 1-d take
from the flattened product table plus a field sum.  Polynomials live
elsewhere, as `poly.Poly` or as coefficient vectors over a basis whose
evaluations are the rows of a matrix, so evaluating one is a `vec_mat` with
that matrix.
"""

import numpy as np

from .gf import DTYPE


def row_reduce(gf, mat):
    """Reduced row echelon form.  Returns (rref, pivot_columns)."""
    a = np.array(mat, dtype=DTYPE)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = gf.mul(a[r], gf.inv(int(a[r, c])))
        col = a[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            a[mask] = gf.sub(a[mask], gf.mul(col[mask, None], a[r][None, :]))
        pivots.append(c)
        r += 1
    return a, pivots


def rank(gf, mat):
    return len(row_reduce(gf, mat)[1])


def kernel(gf, mat):
    """Rows spanning {x : mat @ x = 0}; shape (nullity, cols)."""
    a = np.asarray(mat, dtype=DTYPE)
    rref, pivots = row_reduce(gf, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = gf.zeros((len(free), cols))
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = gf.neg(rref[:len(pivots), free].T)
    return out


def vec_mat(gf, vec, mat):
    """vec @ mat over GF; vec is (r,), mat is (r, c).

    On GF(p) the product is an integer matmul reduced mod p.  It runs on the
    int32 operands as they are whenever no sum can wrap, (p-1)^2 * r < 2^31,
    and on int64 copies otherwise.  On GF(p^e) the r x c products are one
    take from the q x q product table read as a flat array, at the indices
    vec[i] * q + mat[i, j], and gf._sum adds them down the rows; mat may be
    any strided view, since the index array is built fresh.
    """
    mat = np.asarray(mat, dtype=DTYPE)
    if gf.e == 1:
        if (gf.p - 1) ** 2 * len(vec) < 2 ** 31:
            return np.asarray(vec, dtype=DTYPE) @ mat % gf.p
        # exact in int64: (p-1)^2 * r < 2^63 for p < 2^16 and r < 2^31
        prod = np.asarray(vec, dtype=np.int64) @ mat.astype(np.int64)
        return (prod % gf.p).astype(DTYPE)
    idx = np.asarray(vec, dtype=DTYPE)[:, None] * gf.q + mat
    return gf._sum(gf._mul_table.ravel().take(idx))
