"""Affine and projective evaluation codes of bounded-degree polynomials.

Two families over GF(q):

  RM(m, d):  length q^m, evaluations over F_q^m of reduced polynomials of
             degree <= d in m variables.
  PRM(m, d): length p_m = (q^(m+1)-1)/(q-1), evaluations over P^m of the
             degree-d forms in m+1 variables.

Each parameter is one closed form, and the projective ones are stated through
the affine ones: wt(PRM(m, d)) = wt(RM(m, d-1)), and dim PRM(m, d) sums
dim RM(j, d-1) over the lead-variable blocks j = 0..m of the projective basis.
eta is the projective decoder's guaranteed decoding diameter.  One cap of
2^26 elements bounds a code's k x n evaluation matrix: a code whose length
alone passes it is refused where it is named, any other before its basis,
points or matrix are enumerated.  The exhaustive decoder's codeword scan
holds its codebook to the same cap (see decoders.decode_exhaustive).
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

# the cap on a code's k x n evaluation matrix, in elements, checked from the
# closed forms (see _check_size)
_MAX_ELEMENTS = 2 ** 26


def rm_weight(q, m, d):
    """Minimum distance of RM(m, d); 1 once d reaches m(q-1)."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d >= m * (q - 1):
        return 1
    nu, mu = divmod(d, q - 1)
    return (q - mu) * q ** (m - nu - 1)


def prm_weight(q, m, d):
    """Minimum distance of PRM(m, d), that of RM(m, d-1); 1 once d exceeds m(q-1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return rm_weight(q, m, d - 1)


def eta(q, m, d):
    """Guaranteed decoding diameter of the recursive projective decoder.

    Half of this quantity bounds the correctable error weight: one affine
    minimum distance is spent per recursion level, so eta is 1 plus the sum
    of wt(RM(m - i, d)) over the m - nu levels the recursion visits, with
    nu, mu = divmod(d - 1, q - 1).  That sum is wt(PRM(m, d)) less
    mu (q^(m-nu-1) - 1)/(q - 1), so eta <= wt(PRM(m, d)), with equality
    exactly when mu = 0 or nu = m - 1.
    """
    wt = prm_weight(q, m, d)
    if d > m * (q - 1):
        return wt
    nu, mu = divmod(d - 1, q - 1)
    return wt - mu * (q ** (m - nu - 1) - 1) // (q - 1)


def rm_dimension(q, m, d):
    """Number of reduced monomials of degree <= d in m variables.

    Inclusion-exclusion over the i exponents that reach q, each such count
    a stars-and-bars count of degree <= d - iq.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    return sum((-1) ** i * comb(m, i) * comb(d - i * q + m, m)
               for i in range(min(m, d // q) + 1))


def prm_dimension(q, m, d):
    """Dimension of PRM(m, d): the sum of rm_dimension(q, j, d-1), j = 0..m.

    projective_basis has one block per lead variable: the j variables after
    it carry a reduced monomial of degree <= d - 1 and the lead takes the
    rest of the degree, at least 1.  The hockey-stick identity folds the sum
    over j of rm_dimension's inclusion-exclusion into this one sum.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return sum((-1) ** i * comb(d - 1 - i * q + i, i) * comb(d - i * q + m, m - i)
               for i in range(min(m, (d - 1) // q) + 1))


def _check_size(family, q, m, d, built):
    """Raise ValueError where the code's k x n evaluation matrix passes the cap.

    A code is named (code_params, and so CodeSpec) with built False: only its
    length n is checked, since k >= 1, so a length past the cap refuses the
    code before any sum is worked out.  Its basis, points and matrix are
    enumerated (_eval_matrix) with built True, after k x n is checked too.
    """
    n = q ** m if family == RM else num_projective_points(q, m)
    dimension = rm_dimension if family == RM else prm_dimension
    if n > _MAX_ELEMENTS or built and n * dimension(q, m, d) > _MAX_ELEMENTS:
        raise ValueError(
            f"{family}(m={m}, d={d}) over GF({q}) is too large: its k x n "
            f"evaluation matrix has more than {_MAX_ELEMENTS} elements")


# --- specs and parameters ---

@dataclass(frozen=True)
class CodeSpec:
    """One code: family RM or PRM over gf, m variables axes, degree d.

    Raises ValueError for a degree out of range, and for a code whose length
    alone passes the size cap (see _check_size).
    """
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
        code_params(self)

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
    """The code's parameters, from the closed forms above.

    Raises ValueError, before any sum, when the code's length alone passes
    the size cap of 2^26 evaluation-matrix elements.
    """
    q, m, d = spec.gf.q, spec.m, spec.d
    _check_size(spec.family, q, m, d, built=False)
    if spec.family == RM:
        wt = rm_weight(q, m, d)
        return CodeParams(n=spec.n, k=rm_dimension(q, m, d), wt=wt, eta=None,
                          T=(wt - 1) // 2, T0=None)
    wt, et = prm_weight(q, m, d), eta(q, m, d)
    return CodeParams(n=spec.n, k=prm_dimension(q, m, d), wt=wt, eta=et,
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
    _check_size(family, gf.q, m, d, built=True)
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
    # interpolate_family's coefficient vector over the basis, without the Poly,
    # or None where vec is not a codeword; vec is an array of field elements,
    # which the caller has checked
    g, pivots, inv = _solver(gf, family, m, d)
    if vec.shape != (g.shape[1],):
        raise ValueError(f"vector length {vec.shape} != n = {g.shape[1]}")
    msg = linalg.vec_mat(gf, vec[pivots], inv)
    return msg if np.array_equal(linalg.vec_mat(gf, msg, g), vec) else None


def interpolate_family(gf, family, m, d, vec):
    """Polynomial over the canonical basis with evaluation `vec`."""
    msg = _coefficients(gf, family, m, d, gf.asarray(vec))
    if msg is None:
        raise NotInCodeError(f"vector is not in {family}(m={m}, d={d}) over GF({gf.q})")
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
