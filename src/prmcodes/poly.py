"""Sparse multivariate polynomials over GF(q).

Variables are x_0 .. x_{nvars-1}.  Block-structured operations address the
TRAILING variables, matching the nested point orderings in geometry: the last
j variables span an affine F_q^j, the last j+1 a projective P^j.  A degree-d
form in the last j+1 variables evaluates to a codeword of length p_j; setting
its block-leading variable to 1 and reducing exponents modulo x^q = x gives
the affine polynomial seen on the {1} x F_q^j chart.

Monomials are exponent tuples; coefficients are field encodings.  Polynomials
are immutable values and all operations return fresh ones.  Equal exponent
tuples are shared: the constructor and the monomial bases intern each one in
a module-wide table, so the many polynomials a decode returns over the same
monomials hold one tuple object per monomial rather than one per term.

The recursive decoder does not build Polys as it goes: its witnesses are
coefficient vectors over the monomial bases below, and the ring maps act on
them as cached index arrays (`_homogenize_map` and its siblings), which the
tests hold to the Poly maps here.  A vector over a basis evaluates as a
`linalg.vec_mat` with the matrix of the basis monomials' values.  A Poly
is built from such a vector only when a witness is read or traced; the
decoders keep a returned witness packed until then.
"""

import re
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import linalg
from .geometry import affine_array, projective_array
from .gf import DTYPE

_MONOMIALS = {}  # exponent tuple -> its one shared instance


def _intern(exps):
    return _MONOMIALS.setdefault(exps, exps)


class Poly:
    """Sparse polynomial: map from exponent tuple to nonzero coefficient.

    The constructor accepts a dict or an iterable of (exps, coeff) pairs and
    merges duplicates with field addition, dropping zeros.
    """

    __slots__ = ("gf", "nvars", "terms")

    def __init__(self, gf, nvars, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for exps, c in items:
            exps = tuple(map(int, exps))
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            exps = _intern(exps)
            c = int(c)
            if not 0 <= c < gf.q:
                raise ValueError(f"coefficient {c} out of range for GF({gf.q})")
            if exps in acc:
                c = gf.add(acc[exps], c)
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        self.gf = gf
        self.nvars = nvars
        self.terms = acc

    @classmethod
    def _of_vector(cls, gf, nvars, mons, vec):
        # the Poly with coefficient vector vec over mons, a basis of interned
        # exponent tuples of length nvars, so the terms need no checks
        f = object.__new__(cls)
        f.gf, f.nvars = gf, nvars
        nz = np.flatnonzero(vec)
        f.terms = dict(zip([mons[i] for i in nz.tolist()], vec[nz].tolist()))
        return f

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, gf, nvars):
        return cls(gf, nvars)

    @classmethod
    def constant(cls, gf, nvars, c):
        return cls(gf, nvars, [((0,) * nvars, c)])

    @classmethod
    def monomial(cls, gf, exps, coeff=1):
        return cls(gf, len(exps), [(tuple(exps), coeff)])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    @property
    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_zero(self):
        return not self.terms

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def min_var(self):
        """Smallest variable index appearing in any term, or None."""
        idx = None
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    if idx is None or i < idx:
                        idx = i
                    break
        return idx

    def _check_trailing(self, count):
        """Require that only the last `count` variables appear."""
        lo = self.min_var()
        if lo is not None and lo < self.nvars - count:
            raise ValueError(
                f"x{lo} used, but only the last {count} of {self.nvars} "
                f"variables are allowed here"
            )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return Poly(self.gf, self.nvars,
                    list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.gf, self.nvars,
                    [(e, self.gf.neg(c)) for e, c in self.terms.items()])

    def scale(self, c):
        gf = self.gf
        return Poly(gf, self.nvars, [(e, gf.mul(c, v)) for e, v in self.terms.items()])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        gf = self.gf
        pairs = []
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                pairs.append((tuple(a + b for a, b in zip(ea, eb)), gf.mul(ca, cb)))
        return Poly(gf, self.nvars, pairs)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, Poly) or other.gf != self.gf or other.nvars != self.nvars:
            raise ValueError("polynomials live in different rings")

    def evaluate(self, point):
        """Value at one point, a tuple of nvars coordinates."""
        gf = self.gf
        out = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = gf.mul(v, gf.pow(int(x), e))
            out = gf.add(out, v)
        return out

    # -- formatting ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True)
        parts = []
        for exps, c in items:
            factors = [f"x{i}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return "+".join(parts)

    def __repr__(self):
        return f"Poly({self})"

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.gf == other.gf
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.gf, self.nvars, frozenset(self.terms.items())))


# --- evaluation over point blocks ---

def _monomial_values(gf, mons, pts, base):
    """Values of the monomials `mons` at the rows of pts, one row per monomial;
    point column t is variable base+t.

    All monomials at all points at once, in the log domain: the log of a
    value is the sum of exponent * log(coordinate), mod q-1, and the value is
    0 wherever a coordinate with a positive exponent is 0.  Positive exponents
    are first reduced into [1, q-1] as in reduce_mod_affine, which leaves the
    values unchanged and keeps the int64 sums exact however large the
    exponents are.
    """
    r = gf.q - 1
    exps = np.array([[(e - 1) % r + 1 if e else 0 for e in mon[base:]] for mon in mons],
                    dtype=np.int64)
    zero = pts == 0
    logs = np.where(zero, 0, gf.log_table[pts]).astype(np.int64)
    values = gf.antilog_table[exps @ logs.T % r]
    values[(exps > 0).astype(np.int64) @ zero.T.astype(np.int64) > 0] = 0
    return values


def _eval_at(f, pts, base):
    # the coefficient vector times the values of f's monomials at pts
    gf = f.gf
    if not f.terms:
        return gf.zeros(len(pts))
    coeffs = np.fromiter(f.terms.values(), dtype=DTYPE, count=len(f.terms))
    return linalg.vec_mat(gf, coeffs, _monomial_values(gf, f.terms, pts, base))


def eval_affine(f, j=None):
    """Evaluate over F_q^j (the last j variables); vector of length q^j."""
    if j is None:
        j = f.nvars - 1
    f._check_trailing(j)
    return _eval_at(f, affine_array(f.gf, j), f.nvars - j)


def eval_projective(f, j=None):
    """Evaluate a form over P^j (the last j+1 variables); length p_j."""
    if j is None:
        j = f.nvars - 1
    if not f.is_homogeneous:
        raise ValueError("projective evaluation needs a homogeneous polynomial")
    f._check_trailing(j + 1)
    return _eval_at(f, projective_array(f.gf, j), f.nvars - 1 - j)


# --- ring maps between the affine chart and degree-d forms ---

def reduce_mod_affine(f):
    """Reduce every exponent with x^q = x; affine evaluations unchanged.

    Nonzero exponents map into [1, q-1] by e -> ((e-1) mod (q-1)) + 1, so the
    result is the unique representative with all exponents below q.
    """
    r = f.gf.q - 1
    return Poly(f.gf, f.nvars,
                [(tuple(((e - 1) % r) + 1 if e else 0 for e in exps), c)
                 for exps, c in f.terms.items()])


def dehomogenize(f):
    """Substitute 1 for the lowest-index variable that appears in f."""
    lead = f.min_var()
    if lead is None:
        return f
    return Poly(f.gf, f.nvars,
                [(exps[:lead] + (0,) + exps[lead + 1:], c)
                 for exps, c in f.terms.items()])


def homogenize(f, d, j=None):
    """Multiply each term by lead^(d - deg term), lead = x_{nvars-1-j}.

    f must have degree <= d and use only the last j variables; the output is
    homogeneous of degree d in the last j+1 variables.
    """
    if j is None:
        j = f.nvars - 1
    f._check_trailing(j)
    lead = f.nvars - 1 - j
    pairs = []
    for exps, c in f.terms.items():
        t = sum(exps)
        if t > d:
            raise ValueError(f"term of degree {t} cannot homogenize to degree {d}")
        pairs.append((exps[:lead] + (d - t,) + exps[lead + 1:], c))
    return Poly(f.gf, f.nvars, pairs)


def lift_to_degree(f, d):
    """Raise a form of degree d' to equivalent degree d, d = d' mod (q-1).

    Adds d - d' to each term's leading exponent.  Projective evaluations are
    unchanged: the extra factor is a (q-1)-th power of a coordinate that is
    nonzero whenever the term is.
    """
    if not f.terms:
        return f
    if not f.is_homogeneous:
        raise ValueError("lift needs a homogeneous polynomial")
    d0 = int(f.degree)
    if d < d0 or (d - d0) % (f.gf.q - 1) != 0:
        raise ValueError(f"cannot lift degree {d0} to {d} over GF({f.gf.q})")
    if d == d0:
        return f
    pairs = []
    for exps, c in f.terms.items():
        lead = next(i for i, e in enumerate(exps) if e)
        pairs.append((exps[:lead] + (exps[lead] + d - d0,) + exps[lead + 1:], c))
    return Poly(f.gf, f.nvars, pairs)


def embed_poly(f, extra=1):
    """Reinterpret f in a ring with `extra` new leading variables."""
    return Poly(f.gf, f.nvars + extra,
                [((0,) * extra + exps, c) for exps, c in f.terms.items()])


# --- bad/good decomposition ---

BadGoodSplit = namedtuple("BadGoodSplit", ["bad", "good_top", "good_low"])


def split_bad_good(f, d):
    """Split f (degree <= d) by the behavior of each term under degree-d lift.

    A term of degree t is bad when 0 < t < d and t = d mod (q-1): it collides
    with a degree-d form on the affine chart but not projectively.  good_top
    collects the degree-d terms, good_low everything else.
    """
    r = f.gf.q - 1
    bad, top, low = [], [], []
    for exps, c in f.terms.items():
        t = sum(exps)
        if t > d:
            raise ValueError(f"term of degree {t} above split degree {d}")
        if t == d:
            top.append((exps, c))
        elif 0 < t and (d - t) % r == 0:
            bad.append((exps, c))
        else:
            low.append((exps, c))
    mk = lambda pairs: Poly(f.gf, f.nvars, pairs)
    return BadGoodSplit(mk(bad), mk(top), mk(low))


# --- monomial bases ---
#
# Basis monomials are interned when a basis is built, so a Poly over a basis
# can take them as its keys directly.

def _bounded_comps(total, parts, cap):
    # exponent tuples summing to total, each in [0, cap], lexicographic order
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = max(0, total - cap * (parts - 1))
    for first in range(lo, min(cap, total) + 1):
        for rest in _bounded_comps(total - first, parts - 1, cap):
            yield (first,) + rest


@lru_cache(maxsize=None)
def projective_basis(gf, m, d):
    """Monomial basis of the degree-d forms on P^m, as exponent tuples.

    Block with leading variable x_i: leading exponent >= 1 (unbounded), later
    exponents <= q-1.  Blocks are ordered x_0 first, lexicographic inside a
    block.  Restricting exponents after the leading one kills the relations
    x_i^q x_j = x_i x_j^q, so evaluation is injective on the span.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    q = gf.q
    out = []
    for lead in range(m + 1):
        trail = m - lead
        for a in range(max(1, d - trail * (q - 1)), d + 1):
            for rest in _bounded_comps(d - a, trail, q - 1):
                out.append(_intern((0,) * lead + (a,) + rest))
    return tuple(out)


@lru_cache(maxsize=None)
def affine_basis(gf, m, d):
    """Reduced monomials of degree <= d in the last m of m+1 variables.

    All exponents <= q-1; ordered by total degree, lexicographic inside a
    degree.  These evaluate to a basis of the affine code's span.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    q = gf.q
    out = []
    for t in range(min(d, m * (q - 1)) + 1):
        for exps in _bounded_comps(t, m, q - 1):
            out.append(_intern((0,) + exps))
    return tuple(out)


# --- the ring maps on coefficient vectors over the bases ---
#
# On the bases the recursive decoder works in, each ring map above sends every
# basis monomial to one monomial of another basis, with coefficient 1 and no
# two to the same one.  Such a map is an index array idx: the coefficient of
# src[i] lands at position idx[i] of dst.  The arrays are cached per (m, d)
# and computed on exponent tuples; the tests hold them to the ring maps.

def _index_map(src, dst, image):
    pos = {mon: i for i, mon in enumerate(dst)}
    idx = [pos[image(mon)] for mon in src]
    if len(set(idx)) != len(idx):
        raise AssertionError("two basis monomials map to one")
    idx = np.array(idx, dtype=np.intp)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _homogenize_map(gf, m, d0, d):
    """affine_basis(m, d0) into projective_basis(m, d), as homogenize(., d)."""
    return _index_map(affine_basis(gf, m, d0), projective_basis(gf, m, d),
                      lambda mon: (d - sum(mon),) + mon[1:])


@lru_cache(maxsize=None)
def _embed_map(gf, m, d):
    """projective_basis(m-1, d) into projective_basis(m, d), as embed_poly."""
    return _index_map(projective_basis(gf, m - 1, d), projective_basis(gf, m, d),
                      lambda mon: (0,) + mon)


@lru_cache(maxsize=None)
def _lift_map(gf, m, d0, d):
    """projective_basis(m, d0) into projective_basis(m, d), as lift_to_degree."""
    def lift(mon):
        lead = next(i for i, e in enumerate(mon) if e)
        return mon[:lead] + (mon[lead] + d - d0,) + mon[lead + 1:]
    return _index_map(projective_basis(gf, m, d0), projective_basis(gf, m, d), lift)


@lru_cache(maxsize=None)
def _reduce_map(gf, m, d0, d):
    """projective_basis(m-1, d0) into affine_basis(m, d), as embed_poly then
    reduce_mod_affine."""
    r = gf.q - 1
    return _index_map(projective_basis(gf, m - 1, d0), affine_basis(gf, m, d),
                      lambda mon: (0,) + tuple((e - 1) % r + 1 if e else 0 for e in mon))


@lru_cache(maxsize=None)
def _split_map(gf, m, d):
    """BadGoodSplit of the positions in affine_basis(m, d) whose terms
    split_bad_good sends to each part."""
    r = gf.q - 1
    bad, top, low = [], [], []
    for i, mon in enumerate(affine_basis(gf, m, d)):
        t = sum(mon)
        if t == d:
            top.append(i)
        elif 0 < t and (d - t) % r == 0:
            bad.append(i)
        else:
            low.append(i)
    split = BadGoodSplit(*(np.array(p, dtype=np.intp) for p in (bad, top, low)))
    for idx in split:
        idx.setflags(write=False)
    return split


# --- text form ---

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_poly(gf, text, nvars):
    """Parse `2*x0^3+x1*x2+a` style text; `-` scales the term by -1."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    pairs = []
    for chunk in re.split(r"(?=[+-])", s):
        if not chunk:
            continue
        sign = chunk[0]
        if sign in "+-":
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign in polynomial text")
        coeff = 1
        exps = [0] * nvars
        for i, piece in enumerate(chunk.split("*")):
            hit = _FACTOR_RE.match(piece)
            if hit:
                idx, e = int(hit.group(1)), int(hit.group(2) or 1)
                if idx >= nvars:
                    raise ValueError(f"variable x{idx} out of range (nvars={nvars})")
                exps[idx] += e
            elif i == 0:
                coeff = gf.parse_element(piece)
            else:
                raise ValueError(f"bad factor {piece!r} in polynomial text")
        if sign == "-":
            coeff = gf.neg(coeff)
        pairs.append((tuple(exps), coeff))
    return Poly(gf, nvars, pairs)
