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
"""

from functools import lru_cache

import numpy as np

from .gf import DTYPE


def num_projective_points(q, m):
    """|P^m| = (q^(m+1) - 1)/(q - 1)."""
    return (q ** (m + 1) - 1) // (q - 1)


@lru_cache(maxsize=None)
def projective_points(gf, m):
    """Standard representatives of P^m as a tuple of (m+1)-tuples."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return ((1,),)
    head = tuple((1,) + a for a in affine_points(gf, m))
    tail = tuple((0,) + p for p in projective_points(gf, m - 1))
    return head + tail


@lru_cache(maxsize=None)
def affine_points(gf, m):
    """All of F_q^m as a tuple of m-tuples, in the nested ordering."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return ((),)
    reps = projective_points(gf, m - 1)
    out = list(reps)
    for s in range(1, gf.q - 1):
        c = int(gf.antilog_table[s])
        out.extend(tuple(gf.mul(c, x) for x in p) for p in reps)
    out.append((0,) * m)
    return tuple(out)


@lru_cache(maxsize=None)
def projective_array(gf, m):
    """projective_points as an (n, m+1) numpy array, n = |P^m|."""
    arr = np.array(projective_points(gf, m), dtype=DTYPE)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def affine_array(gf, m):
    """affine_points as a (q^m, m) numpy array."""
    arr = np.array(affine_points(gf, m), dtype=DTYPE).reshape(gf.q ** m, m)
    arr.setflags(write=False)
    return arr

