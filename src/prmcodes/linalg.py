"""Dense linear algebra over GF(q).

Matrices are 2-d numpy arrays of element encodings.  Everything here is
Gaussian elimination driven by the field's table arithmetic (reduced row
echelon form, rank and kernel, which interpolation and the syndrome table
use), plus the one vector-matrix product.  Elimination loops over pivots in
Python and updates all rows of a pivot step at once; the product is a single
array operation, an integer matmul mod p on prime fields (int32 while no
sum can reach 2^31, a sum over bounded row blocks above) and, on extension
fields, one 1-d take from the flattened product table plus a field sum.
Polynomials live elsewhere, as `poly.Poly` or as coefficient vectors over a
basis whose evaluations are the rows of a matrix, so evaluating one is a
`vec_mat` with that matrix.
"""

import numpy as np

from .gf import DTYPE

# the most entries of mat that one int64 block of vec_mat copies on a prime
# field whose single products pass int32
_WIDE_BLOCK = 2 ** 18


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
    int32 operands as they are whenever no sum can wrap, (p-1)^2 * r < 2^31.
    Above that it adds up the products of row blocks, each reduced mod p:
    int32 blocks of the most rows whose sum cannot wrap while one product
    fits, (p-1)^2 < 2^31, and otherwise int64 copies of blocks of at most
    2^18 entries, or of one row where a row holds more, so that no call
    copies all of mat.  On GF(p^e) the r x c
    products are one take from the q x q product table read as a flat
    array, at the indices vec[i] * q + mat[i, j], and gf._sum adds them down
    the rows; mat may be any strided view, since the index array is built
    fresh.
    """
    mat = np.asarray(mat, dtype=DTYPE)
    vec = np.asarray(vec, dtype=DTYPE)
    if gf.e > 1:
        return gf._sum(gf._mul_table.ravel().take(vec[:, None] * gf.q + mat))
    p = gf.p
    rows = (2 ** 31 - 1) // (p - 1) ** 2
    if rows >= len(vec):
        return vec @ mat % p
    wide = not rows
    if wide:
        rows = max(1, _WIDE_BLOCK // max(1, mat.shape[1]))
    out = np.zeros(mat.shape[1], dtype=np.int64)
    for i in range(0, len(vec), rows):
        v, m = vec[i:i + rows], mat[i:i + rows]
        out += (v.astype(np.int64) @ m.astype(np.int64) if wide else v @ m) % p
    return (out % p).astype(DTYPE)
