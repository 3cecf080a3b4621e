"""Affine and projective evaluation codes of bounded-degree polynomials.

Two families over GF(q):

  RM(m, d):  length q^m, evaluations over F_q^m of reduced polynomials of
             degree <= d in m variables.
  PRM(m, d): length p_m = (q^(m+1)-1)/(q-1), evaluations over P^m of the
             degree-d forms in m+1 variables.

Parameters come from exact integer formulas and are cross-checked against an
independent monomial count; eta is the projective decoder's guaranteed
decoding diameter, computed by two routes and asserted equal.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import linalg
from .gf import GF
from .geometry import affine_array, num_projective_points, projective_array
from .poly import Poly, _monomial_values, affine_basis, projective_basis

RM = "RM"
PRM = "PRM"


class NotInCodeError(ValueError):
    """Raised when a vector asserted to be a codeword is not one."""


# --- parameter formulas ---

def rm_weight(q, m, d):
    """Minimum distance of RM(m, d); 1 once d reaches m(q-1)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d >= m * (q - 1):
        return 1
    nu, mu = divmod(d, q - 1)
    return (q - mu) * q ** (m - nu - 1)


def prm_weight(q, m, d):
    """Minimum distance of PRM(m, d); 1 once d exceeds m(q-1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > m * (q - 1):
        return 1
    nu, mu = divmod(d - 1, q - 1)
    return (q - mu) * q ** (m - nu - 1)


def eta(q, m, d):
    """Guaranteed decoding diameter of the recursive projective decoder.

    Half of this quantity bounds the correctable error weight: one affine
    minimum distance is spent per recursion level, so eta is the sum of
    wt(RM(m - i, d)) over the levels the recursion visits, plus 1.  Computed
    by that sum and by a closed form, asserted equal.  eta <= wt(PRM(m, d)),
    with equality exactly when mu = 0 or nu = m - 1.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > m * (q - 1):
        return 1
    nu, mu = divmod(d - 1, q - 1)
    closed = (q - mu) * q ** (m - nu - 1) - mu * (q ** (m - nu - 1) - 1) // (q - 1)
    levels = 1 + sum(rm_weight(q, m - i, d) for i in range(m - nu))
    if closed != levels:
        raise AssertionError(f"eta mismatch for q={q} m={m} d={d}")
    return closed


def rm_dimension(q, m, d):
    """Number of reduced monomials of degree <= d, by inclusion-exclusion."""
    if d < 0:
        raise ValueError("d must be >= 0")
    k = 0
    for t in range(d + 1):
        for j in range(m + 1):
            a = t - j * q
            if a < 0:
                break
            k += (-1) ** j * comb(m, j) * comb(a + m - 1, a)
    return k


def prm_dimension(q, m, d):
    """Dimension of PRM(m, d), by inclusion-exclusion over degrees = d mod q-1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    k = 0
    for t in range(1, d + 1):
        if (d - t) % (q - 1):
            continue
        for j in range(m + 2):
            a = t - j * q
            if a < 0:
                break
            k += (-1) ** j * comb(m + 1, j) * comb(a + m, a)
    return k


# independent count of the same monomial sets, by convolution rather than
# inclusion-exclusion; used as a construction-time cross-check

@lru_cache(maxsize=None)
def _bounded_sum_counts(parts, cap, upto):
    c = [1] + [0] * upto
    for _ in range(parts):
        c = [sum(c[t - v] for v in range(min(cap, t) + 1)) for t in range(upto + 1)]
    return tuple(c)


def _rm_monomial_count(q, m, d):
    counts = _bounded_sum_counts(m, q - 1, min(d, m * (q - 1)))
    return sum(counts)


def _prm_monomial_count(q, m, d):
    total = 0
    for lead in range(m + 1):
        trail = m - lead
        counts = _bounded_sum_counts(trail, q - 1, min(d - 1, trail * (q - 1)))
        for a in range(1, d + 1):
            if d - a <= trail * (q - 1):
                total += counts[d - a]
    return total


# --- specs and parameters ---

@dataclass(frozen=True)
class CodeSpec:
    """One code: family RM or PRM over gf, m variables axes, degree d."""
    family: str
    gf: GF
    m: int
    d: int

    def __post_init__(self):
        if self.family not in (RM, PRM):
            raise ValueError(f"unknown family {self.family!r}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        top = self.m * (self.gf.q - 1)
        lo = 0 if self.family == RM else 1
        if not lo <= self.d <= top:
            raise ValueError(
                f"degree {self.d} out of range [{lo}, {top}] for "
                f"{self.family} over GF({self.gf.q}) with m={self.m}")

    @property
    def n(self):
        q = self.gf.q
        return q ** self.m if self.family == RM else num_projective_points(q, self.m)


@dataclass(frozen=True)
class CodeParams:
    """Derived parameters; projective-only fields are None for RM."""
    n: int
    k: int
    wt: int
    eta: int | None
    T: int
    T0: int | None


@lru_cache(maxsize=None)
def code_params(spec):
    q, m, d = spec.gf.q, spec.m, spec.d
    if spec.family == RM:
        wt = rm_weight(q, m, d)
        k = rm_dimension(q, m, d)
        if k != _rm_monomial_count(q, m, d):
            raise AssertionError(f"dimension mismatch for {spec}")
        return CodeParams(n=q ** m, k=k, wt=wt, eta=None, T=(wt - 1) // 2, T0=None)
    wt = prm_weight(q, m, d)
    k = prm_dimension(q, m, d)
    if k != _prm_monomial_count(q, m, d):
        raise AssertionError(f"dimension mismatch for {spec}")
    et = eta(q, m, d)
    return CodeParams(n=num_projective_points(q, m), k=k, wt=wt, eta=et,
                      T=(wt - 1) // 2, T0=(et - 1) // 2)


# --- generator matrices, encoding, interpolation ---

def basis_monomials(spec):
    return _eval_matrix(spec.gf, spec.family, spec.m, spec.d)[0]


# the basis and its evaluations, read by basis_monomials, generator_matrix,
# _solver and the recursive decoder; keyed without a CodeSpec because the
# recursive decoder also interpolates where d exceeds m(q-1) and the code
# fills the whole space, which CodeSpec rejects

@lru_cache(maxsize=None)
def _eval_matrix(gf, family, m, d):
    if family == PRM:
        mons = projective_basis(gf, m, d)
        g = _monomial_values(gf, mons, projective_array(gf, m), 0)
    else:
        mons = affine_basis(gf, m, d)
        g = _monomial_values(gf, mons, affine_array(gf, m), 1)
    g.setflags(write=False)
    return mons, g


def generator_matrix(spec):
    """k x n matrix whose rows evaluate the canonical basis monomials."""
    g = _eval_matrix(spec.gf, spec.family, spec.m, spec.d)[1]
    if g.shape != (code_params(spec).k, spec.n):
        raise AssertionError(f"generator shape mismatch for {spec}")
    return g


def encode(spec, message):
    """Codeword and polynomial for basis coefficients `message` (length k)."""
    g = generator_matrix(spec)
    msg = spec.gf.asarray(message)
    if msg.shape != (g.shape[0],):
        raise ValueError(f"message length {msg.shape} != k = {g.shape[0]}")
    cw = linalg.vec_mat(spec.gf, msg, g)
    f = Poly(spec.gf, spec.m + 1, zip(basis_monomials(spec), msg))
    return cw, f


@lru_cache(maxsize=None)
def _solver(gf, family, m, d):
    # one elimination of [g | I]: its pivots in g's n columns are g's own, and
    # where g has full rank, which is its k pivots all below n, the right
    # block is E with E g the rref of g, so E inverts g[:, pivots]
    g = _eval_matrix(gf, family, m, d)[1]
    k, n = g.shape
    aug, pivots = linalg.row_reduce(gf, np.hstack([g, np.eye(k, dtype=g.dtype)]))
    if pivots[-1] >= n:
        raise AssertionError(f"monomial basis is dependent: {family} m={m} d={d}")
    return g, pivots, aug[:, n:]


def _coefficients(gf, family, m, d, vec):
    # interpolate_family's coefficient vector over the basis, without the Poly;
    # vec is an array of field elements, which the caller has checked
    g, pivots, inv = _solver(gf, family, m, d)
    if vec.shape != (g.shape[1],):
        raise ValueError(f"vector length {vec.shape} != n = {g.shape[1]}")
    msg = linalg.vec_mat(gf, vec[pivots], inv)
    if not np.array_equal(linalg.vec_mat(gf, msg, g), vec):
        raise NotInCodeError(f"vector is not in {family}(m={m}, d={d}) over GF({gf.q})")
    return msg


def interpolate_family(gf, family, m, d, vec):
    """Polynomial over the canonical basis with evaluation `vec`."""
    msg = _coefficients(gf, family, m, d, gf.asarray(vec))
    return Poly(gf, m + 1, zip(_eval_matrix(gf, family, m, d)[0], msg))


def interpolate(spec, c):
    """Unique basis-coefficient polynomial with eval = c; NotInCodeError else."""
    return interpolate_family(spec.gf, spec.family, spec.m, spec.d, c)


# --- the recursive codeword structure ---

def replicate_scaled(gf, v, d):
    """Concatenate (v, s^d v, s^(2d) v, ..., s^((q-2)d) v, 0), s primitive.

    For |v| = p_{m-1} this is the length-q^m expansion aligned with the
    affine point ordering; a projective codeword v expands to the affine
    evaluation of the lift of its polynomial.  The scale s^(jd) is entry
    jd mod (q-1) of the field's antilog table, so the expansion is one
    gather of the scales, one broadcast product of them and v, then the 0.
    """
    v = gf.asarray(v)
    out = gf.zeros((gf.q - 1) * len(v) + 1)
    scales = gf.antilog_table[np.arange(gf.q - 1) * d % (gf.q - 1)]
    out[:-1] = gf.mul(scales[:, None], v).ravel()
    return out
