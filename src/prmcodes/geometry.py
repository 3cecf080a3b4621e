"""Point enumerations for affine and projective spaces over GF(q).

Projective points are the standard representatives: scale each equivalence
class so its leftmost nonzero coordinate is 1.  The orderings are the nested
recursive ones that make puncturing and splitting a codeword a matter of
slicing:

    P^m   = {1} x F_q^m  followed by  {0} x P^(m-1),      P^0 = [(1,)]
    F_q^m = P^(m-1), xi*P^(m-1), ..., xi^(q-2)*P^(m-1), then the origin

where xi is the field's primitive element.  Under these orderings the last
(q^j - 1)/(q - 1) coordinates of a projective evaluation vector are exactly
the evaluation over a copy of P^(j-1).

Each point set is built once, from the level below it, as a cached and
frozen numpy array: F_q^m is one broadcast product of the antilog table
xi^0..xi^(q-2) with P^(m-1), then the origin row, and P^m is a ones column
beside F_q^m above a zeros column beside P^(m-1).  projective_points and
affine_points are uncached tuple views of those arrays; the library reads
the arrays alone.
"""

from functools import lru_cache

import numpy as np

from .gf import DTYPE


def num_projective_points(q, m):
    """|P^m| = (q^(m+1) - 1)/(q - 1)."""
    return (q ** (m + 1) - 1) // (q - 1)


def projective_points(gf, m):
    """Standard representatives of P^m as a tuple of (m+1)-tuples."""
    return tuple(map(tuple, projective_array(gf, m).tolist()))


def affine_points(gf, m):
    """All of F_q^m as a tuple of m-tuples, in the nested ordering."""
    return tuple(map(tuple, affine_array(gf, m).tolist()))


@lru_cache(maxsize=None)
def projective_array(gf, m):
    """P^m as a frozen (|P^m|, m+1) array, one point a row."""
    if m < 0:
        raise ValueError("m must be >= 0")
    chart = gf.q ** m
    arr = np.zeros((num_projective_points(gf.q, m), m + 1), dtype=DTYPE)
    arr[:chart, 0] = 1
    arr[:chart, 1:] = affine_array(gf, m)
    if m:
        arr[chart:, 1:] = projective_array(gf, m - 1)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def affine_array(gf, m):
    """F_q^m as a frozen (q^m, m) array, one point a row, the origin last."""
    if m < 0:
        raise ValueError("m must be >= 0")
    arr = np.zeros((gf.q ** m, m), dtype=DTYPE)
    if m:
        fan = gf.mul(gf.antilog_table[:, None, None], projective_array(gf, m - 1)[None])
        arr[:-1] = fan.reshape(-1, m)
    arr.setflags(write=False)
    return arr
