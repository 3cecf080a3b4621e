"""Decoders: exhaustive oracle, Reed-Solomon, and the recursive projective pair.

The projective decoders reduce a length-p_m problem to affine subproblems via
the block structure (first q^m symbols = affine chart, tail = smaller
projective space) and call pluggable affine decoders.  Any callable meeting
the bounded-distance contract can be registered per (m, d):

    decode(spec: RM CodeSpec, r) -> DecodeResult with, whenever r = c + e and
    wt(e) <= floor((wt-1)/2), Success(c, f), eval_affine(f, m) = c, f reduced
    of degree <= d.  Codes with wt 1 accept exactly the codewords.

The recursion keeps only f and evaluates it itself, so the registry checks
each Success of a registered decoder once: a term of f outside the basis,
or a c other than eval_affine(f, m), raises ValueError.

The projective line, the [q+1, d+1, q-d+1] code, is level m = 1 of the same
recursion; its affine engine is Gao's Reed-Solomon decoder.  That decoder's
partial Euclid keeps each remainder and its cofactor as the two columns of
one (n, 2) intp array, so a step is an in-place multiply-subtract mod p on a
prime field and, on GF(2^e), one 1-d take from a row of the product table
and an in-place XOR on a contiguous block of rows.  It reads the codeword
off the error locator v: the word itself off the roots of v, g'/v' on them
(simple roots whenever the word is within the radius).  The interpolation
of r is its one q x q product; the witness is that interpolation minus the
interpolation of the error, which lives on the roots.  Outcomes are those
of exact bounded-distance decoding, since a codeword within the radius is
unique (see decode_rs_affine).

Each affine call chooses its engine once.  AffineDecoders resolves every
decoder it holds to a chooser when it is given one; at each call the
chooser names an engine (scan, syndrome, member, rs or registered) and
hands over its vector engine, which returns the witness vector alone, or
None beyond the radius, and the recursion runs that engine and names it in
the call's trace event.  The exhaustive decoder's routes, and the
rule that picks one, are those of decode_exhaustive; its codeword scan
reads the witness of the word it matched off that word's index in the
codebook, the index's base-q digits, and solves nothing.

Inside the recursion a witness is a coefficient vector over a cached monomial
basis (affine_basis for the affine engines, projective_basis for a level's).
A level returns its witness alone, or None; only the entry point builds a
DecodeResult, and it reads a level's None as NotInCode when the top code is
its own base case (weight <= 2) and as BeyondRadius otherwise.  The
library's engines hand over the vector they compute; a registered engine's
Poly is converted once, at the registry.  Homogenizing, lifting and reducing
are index arrays on those vectors, embedding is the suffix of the larger
projective basis, splitting reads the degree-d positions of the affine
basis, and evaluation is a vec_mat with the basis evaluation matrix.  Every
codeword a level reads is a block of its own PRM(m, d) evaluation matrix g,
whose first q^m columns are the affine chart: a first-branch candidate is
the witness times all of g, and a tail witness times g's tail rows gives its
replicated scaled copy on the chart columns and its own codeword on the
rest.  A success returned by a library entry point keeps only its witness
vector, packed in a byte string, and evaluates the codeword and builds a
fresh witness Poly on each read; trace events get a Poly, and the tail and
second-branch events their codewords v and u, only when a trace list is
passed.

decode_prm, decode_prm_robust and check_error_pattern first name their code
as CodeSpec(PRM, gf, m, d), which checks m and d and the size cap of codes.
A received word is checked once, where it enters: decode_prm,
decode_prm_robust, decode_exhaustive, decode_rs_affine and the default
engine behind AffineDecoders.decode (like interpolate_family, encode and
replicate_scaled in codes) read it with gf.asarray, which raises ValueError
on a non-integer array or a symbol outside [0, q-1], checked before it is
narrowed to int32, and check its length.  Below them the
recursion, its per-level constants and the vector engines trust the arrays
the recursion builds from that word.

`decode_prm` propagates an unsolvable base-case interpolation as a hard
Inconsistent failure; `decode_prm_robust` converts every such condition into
an ordinary branch failure and keeps going, which pays off on error patterns
that overload one block but satisfy check_error_pattern.
"""

import os
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb

import numpy as np

from . import linalg
from .codes import (_MAX_ELEMENTS, PRM, RM, CodeSpec, _coefficients, _eval_matrix,
                    code_params, eta, generator_matrix, prm_weight)
from .geometry import num_projective_points
from .gf import DTYPE
from .poly import (Poly, _homogenize_map, _lift_map, _reduce_map,
                   affine_basis, embed_poly, projective_basis, split_bad_good)

BEYOND_RADIUS = "BeyondRadius"
NOT_IN_CODE = "NotInCode"
INCONSISTENT = "Inconsistent"

DEFAULT_ENUM_BOUND = 2 ** 24
_TABLE_PATTERNS = 2 ** 18  # syndrome-table size cap, unless ceil(T/2) classes hold more
# the time of one syndrome-lookup step (a stored syndrome symbol of the
# join: subtracted, multiplied into an int64 key, with its share of a binary
# search) in codeword-scan steps (a uint8 compare-and-add along a contiguous
# row): measured 11-22 ns against 0.14-0.27 ns, a ratio of 64-96, on the
# large joins of RM(1,3) and RM(1,4)/GF(13); 173-201 while the join divided
# each key back into symbols.  Within 64-256 the routes do not move
_LOOKUP_STEP = 128
# the most block words the codeword scan compares with the word in one call.
# The row loop makes one call per position, so its cost follows the rows,
# and the one call wins on blocks of few words however many rows they have:
# 2-6x on RM(4,1)/GF(3)'s 81 x 243, RM(2,1)/GF(9)'s 81 x 729 and
# RM(7,1)/GF(2)'s 128 x 256.  Every block of 4096 or more words timed was
# as fast or faster on the loop, RM(1,3)/GF(13) 5x and RM(3,2)/GF(3) 6x
_SCAN_AT_ONCE = 2 ** 10


class EnumerationBoundError(RuntimeError):
    """Exhaustive decoding would exceed the configured work bound."""


class _InconsistentBase(Exception):
    # internal: unsolvable base-case interpolation under strict semantics
    pass


_FAILURES = {}  # failure kind -> its one shared DecodeResult


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """A decoded codeword and its witness Poly, or a failure kind.

    A success returned by decode_prm, decode_prm_robust, decode_exhaustive,
    decode_rs_affine or a default engine keeps one byte string, the witness
    coefficient vector over the basis, one byte an element (two above
    q = 256), next to a (gf, m, basis, evaluation matrix) tuple that all
    results of its code share.  Reading codeword evaluates that vector, one
    vec_mat, into a fresh array in the field dtype every time; reading
    witness builds a fresh Poly every time, so changing one changes no later
    read.  Two such results are equal when their code and bytes are.  A
    result made by `success`, as a registered engine makes it, holds its
    codeword and witness as given; two of them are equal when their
    codewords hold the same values (np.array_equal) and their witnesses and
    failure kinds are equal.  A packed result never equals an unpacked one.
    Only the entry points build one: the recursion's levels and the affine
    engines they run return a bare witness vector, or None.
    """
    codeword: object
    witness: object
    failure: str | None = None

    @property
    def ok(self):
        return self.failure is None

    @classmethod
    def success(cls, codeword, witness):
        return cls(codeword, witness, None)

    @classmethod
    def fail(cls, kind):
        """The failed result of this kind, one shared instance per kind."""
        out = _FAILURES.get(kind)
        if out is None:
            out = _FAILURES[kind] = cls(None, None, kind)
        return out

    def __eq__(self, other):
        if type(other) is not DecodeResult:
            return NotImplemented
        return (self.failure == other.failure
                and _same(self.codeword, other.codeword)
                and _same(self.witness, other.witness))

    def __hash__(self):
        return hash((self.failure, _hashable(self.codeword), _hashable(self.witness)))


def _same(a, b):
    # equality of two result fields, arrays by their values
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _hashable(a):
    # a result field in a form that hashes alike whenever _same holds
    return tuple(a.tolist()) if isinstance(a, np.ndarray) else a


class _Packed(DecodeResult):
    # a packed success (see DecodeResult).  Its properties shadow the names
    # codeword and witness, so the code key and the packed bytes live in
    # those inherited slots, reached through their descriptors: no slot added
    __slots__ = ()
    _code = DecodeResult.codeword
    _packed = DecodeResult.witness

    def __init__(self, code, packed):
        object.__setattr__(self, "failure", None)
        object.__setattr__(self, "_code", code)
        object.__setattr__(self, "_packed", packed)

    def _vector(self):
        return np.frombuffer(self._packed, dtype=_narrow_dtype(self._code[0].q))

    @property
    def codeword(self):
        gf, _, _, g = self._code
        return linalg.vec_mat(gf, self._vector(), g)

    @property
    def witness(self):
        gf, m, mons, _ = self._code
        return Poly._of_vector(gf, m + 1, mons, self._vector())

    def __eq__(self, other):
        if type(other) is not _Packed:
            return NotImplemented
        return self._packed == other._packed and self._code[:3] == other._code[:3]

    def __hash__(self):
        return hash((self._code[:3], self._packed))

    def __repr__(self):
        return (f"DecodeResult(codeword={self.codeword!r}, "
                f"witness={self.witness!r}, failure=None)")

    def __reduce__(self):
        return _Packed, (self._code, self._packed)


def weight(vec):
    """Hamming weight."""
    return int(np.count_nonzero(np.asarray(vec)))


def _trace(trace, **event):
    if trace is not None:
        trace.append(event)


@lru_cache(maxsize=None)
def _code_key(gf, family, m, d):
    # (gf, m, basis, evaluation matrix), shared by the packed results of a code
    return (gf, m) + _eval_matrix(gf, family, m, d)


def _narrow_dtype(q):
    # the narrowest unsigned dtype that holds every element of GF(q): one byte
    # an element up to q = 256, two above
    return np.uint8 if q <= 256 else np.uint16


def _pack(vec, gf, family, m, d):
    # the success of the code whose witness is vec, a vector over the basis
    packed = vec.astype(_narrow_dtype(gf.q)).tobytes()
    return _Packed(_code_key(gf, family, m, d), packed)


# --- exhaustive bounded-distance decoding (the oracle) ---

def _enum_bound():
    return int(os.environ.get("PRM_ENUM_BOUND", DEFAULT_ENUM_BOUND))


def _span(gf, rows, dtype):
    # every combination of `rows` by q-fold expansion, position-major: column i
    # is the word whose coefficient of row j is base-q digit j of i
    words = np.zeros((rows.shape[1], 1), dtype=dtype)
    for row in rows:
        words = np.concatenate(
            [gf.add(words, gf.mul(v, row)[:, None]).astype(dtype, copy=False)
             for v in range(gf.q)], axis=1)
    return words


def _offset_rows(q, k):
    # the leading generator rows _codebook spans as offsets: the fewest that
    # leave at most 2^16 block words, found from q alone so that a large k
    # costs nothing
    rows = 0  # the most rows a block may take
    while q ** (rows + 1) <= 2 ** 16:
        rows += 1
    return max(0, k - rows)


def _codebook_size(q, n, k):
    # the symbols _codebook holds: n for each offset and each block word
    lo = _offset_rows(q, k)
    return n * (q ** lo + q ** (k - lo))


@lru_cache(maxsize=8)
def _codebook(spec):
    """(offsets, block): spans of the leading and of the last generator rows.

    The block takes as many last rows as fit in 2^16 words; every codeword
    is one offset plus one block word.  Offset o plus block word j, lo the
    number of leading rows, is the codeword whose coefficient of generator
    row t is base-q digit t of o + q^lo j: the scan's witness.  Both are
    position-major, one row per code position and one column per word.  The
    block, which the scan reads in full per offset, holds one byte per
    symbol (uint8) for q <= 256 and two (uint16) above; the offsets stay in
    the field dtype.
    """
    gf, g = spec.gf, generator_matrix(spec)
    lo = _offset_rows(gf.q, len(g))
    books = (_span(gf, g[:lo], DTYPE),
             _span(gf, g[lo:], _narrow_dtype(gf.q)))
    for book in books:
        book.setflags(write=False)
    return books


def _scan_codewords(spec, r, cap_t):
    # the codeword-scan route of decode_exhaustive: the nearest block word to
    # r - offset, one offset at a time, and the witness of the first one
    # within cap_t, or None.  Offset o plus block word j is codeword
    # i = o + q^lo j of the span, whose witness is the k base-q digits of i,
    # least significant first.  A block of at most _SCAN_AT_ONCE words is
    # compared with r - offset in one call.  In a larger one the distance of
    # every block word is counted position by position in a counter that
    # holds n, so each step is one compare and one add over a contiguous row
    gf, q, k = spec.gf, spec.gf.q, code_params(spec).k
    offsets, block = _codebook(spec)
    n, words = block.shape
    at_once = words <= _SCAN_AT_ONCE
    if not at_once:
        hit = np.empty(words, dtype=bool)
        dist = np.empty(words, dtype=np.min_scalar_type(n))
    for o, offset in enumerate(offsets.T):
        target = gf.sub(r, offset).astype(block.dtype)
        if at_once:
            dist = np.count_nonzero(block != target[:, None], axis=0)
        else:
            dist.fill(0)
            for row, s in zip(block, target):
                np.not_equal(row, s, out=hit)
                dist += hit.view(np.uint8)  # a uint8 add; adding bools is slower
        j = int(np.argmin(dist))
        if dist[j] <= cap_t:
            i = o + offsets.shape[1] * j
            return np.array([i // q ** t % q for t in range(k)], dtype=DTYPE)
    return None


def _patterns(q, n, w):
    # the number of error patterns of weight w
    return (q - 1) ** w * comb(n, w)


def _stored_weights(q, n, cap_t):
    # h, the heaviest weight the syndrome table stores: the largest weight
    # whose classes 1..h hold at most 2^18 patterns together, but never less
    # than ceil(T/2)
    top = (cap_t + 1) // 2
    stored = sum(_patterns(q, n, w) for w in range(1, top + 1))
    while top < cap_t:
        stored += _patterns(q, n, top + 1)
        if stored > _TABLE_PATTERNS:
            break
        top += 1
    return top


@lru_cache(maxsize=8)
def _syndrome_table(spec):
    """Sorted syndrome-key tables of the light error patterns, weights 1..h.

    h is _stored_weights, at least ceil(T/2), so a pattern of any weight W
    in (h, T] is the sum of a stored pattern of weight W-h and one of weight
    h; _find_pattern looks those up as a join of the two classes.  A class
    is (keys, pattern index, supports, values, syndromes), sorted by key;
    pattern i of the class is support i // nv with values i % nv, nv the
    number of value tuples, and the pattern index holds the i of each key
    as int32.  For the classes 1..T-h that a join subtracts, syndromes holds
    the symbols of each key, keys // powers % q, one row per key in the
    narrow dtype of the field; heavier classes, which only the search reads,
    keep None there.
    """
    gf = spec.gf
    params = code_params(spec)
    g = generator_matrix(spec)
    n, q = params.n, gf.q
    top = _stored_weights(q, n, params.T)
    h = linalg.kernel(gf, g)
    rows = h.shape[0]
    powers = q ** np.arange(rows, dtype=np.int64)
    # the weight-1 syndromes v * h_i, indexed [i, v]; a weight-w syndrome is
    # the field sum of w of them
    unit = gf.mul(np.arange(q)[None, :, None], h.T[:, None, :])
    classes = []
    for w in range(1, top + 1):
        sups = np.array(list(combinations(range(n), w)), dtype=np.int16)
        vals = np.array(list(product(range(1, q), repeat=w)), dtype=np.int16)
        nv = len(vals)
        keys = np.empty(len(sups) * nv, dtype=np.int64)
        chunk = max(1, 2 ** 21 // max(1, nv * rows))
        for lo in range(0, len(sups), chunk):
            sup = sups[lo:lo + chunk]
            syn = unit[sup[:, 0, None], vals[None, :, 0]]  # (chunk, nv, rows)
            for slot in range(1, w):
                syn = gf.add(syn, unit[sup[:, slot, None], vals[None, :, slot]])
            keys[lo * nv:(lo + len(sup)) * nv] = (syn.astype(np.int64) @ powers).ravel()
        # keys are unique: two patterns of weight <= T with one syndrome
        # would differ by a codeword of weight <= 2T < wt
        order = np.argsort(keys)
        keys = keys[order]
        syns = None
        if w <= params.T - top:
            syns = (keys[:, None] // powers % q).astype(_narrow_dtype(q))
        classes.append((keys, order.astype(np.int32), sups, vals, syns))
    return h, powers, classes


def _find_pattern(gf, n, cap_t, syn, key, powers, classes):
    # the one error pattern of weight <= cap_t whose syndrome is syn, of key
    # syn @ powers, or None.  Past the stored classes 1..h, h = len(classes),
    # a pattern of weight W in (h, cap_t] is e1 + e2 with wt(e1) = W-h and
    # wt(e2) = h: for every stored e1 of weight W-h at once, one subtraction
    # of its stored syndrome row and one searchsorted ask whether
    # s - syn(e1) is a key of class h.  Any hit is a pattern of weight <= W
    # with syndrome s, and that pattern is unique, so every hit gives the same
    # e.  The first W that hits is wt(e), where e1 and e2 are disjoint parts
    # of e; the field add keeps e right for any hit.
    for cls in classes:
        keys = cls[0]
        pos = int(np.searchsorted(keys, key))
        if pos < len(keys) and keys[pos] == key:
            return _add_pattern(gf, gf.zeros(n), cls, pos)
    h_keys = classes[-1][0]
    for cls in classes[:cap_t - len(classes)]:
        rest = gf.sub(syn, cls[4]).astype(np.int64) @ powers
        pos = np.minimum(np.searchsorted(h_keys, rest), len(h_keys) - 1)
        hit = np.flatnonzero(h_keys[pos] == rest)
        if len(hit):
            e = _add_pattern(gf, gf.zeros(n), cls, hit[0])
            return _add_pattern(gf, e, classes[-1], pos[hit[0]])
    return None


def _add_pattern(gf, e, cls, at):
    # e plus the pattern at sorted position `at` of the syndrome-table class
    # cls: pattern i is support i // nv with values i % nv
    _, idx, sups, vals, _ = cls
    sup, val = divmod(int(idx[at]), len(vals))
    e[sups[sup]] = gf.add(e[sups[sup]], vals[val])
    return e


def _interpolate(spec, c):
    # the witness of c, or None where c is not a codeword; at radius 0 this is
    # the whole decoder, since exactly the codewords decode
    return _coefficients(spec.gf, spec.family, spec.m, spec.d, c)


def _affine_entry(spec, r, choose, *args):
    # a public affine decoder: check the received word r where it enters,
    # run the engine that choose(spec, *args) picks, and pack its witness
    r = spec.gf.asarray(r)
    n = code_params(spec).n
    if r.shape != (n,):
        raise ValueError(f"received word length {r.shape} != n = {n}")
    vec = choose(spec, *args)[1](spec, r)
    if vec is None:
        return DecodeResult.fail(BEYOND_RADIUS)
    return _pack(vec, spec.gf, spec.family, spec.m, spec.d)


def decode_exhaustive(spec, r, bound=None):
    """Bounded-distance decoding by brute force, radius floor((wt-1)/2).

    At radius 0 exactly the codewords decode, with nothing enumerated.
    Otherwise there are two exact routes: a scan of the q^k codewords, or a
    syndrome lookup among the error patterns within the radius.  A route
    may run only when its enumeration, q^k codewords or all patterns of
    weight <= T, fits in `bound` (default 2^24, env PRM_ENUM_BOUND, read on
    every call).  The scan also needs its codebook, n symbols for each of
    its offsets and block words, to fit the 2^26-element size cap of codes.
    When neither route fits this raises EnumerationBoundError, before any
    table is built.  Of the routes that fit, the lookup is preferred when
    fewer error patterns than codewords lie within the radius, or when it
    does less work per decode and its table holds no more patterns than the
    scan's codebook holds words.  The scan's work is n * q^k
    compare-and-adds of one byte; the lookup's is the syndrome's n * (n-k)
    symbols plus (n-k) for each stored pattern the join subtracts, each
    symbol step weighted as 128 scan steps (measured at 64-96 with stored
    join syndromes, 173-201 before).
    Valid for both families; the projective decoders use it as the default
    affine engine for m >= 2 and the tests as the ground-truth oracle.

    The codeword scan reads a cached position-major codebook of up to 2^16
    words, one byte per symbol for q <= 256 and two above, once per span
    word of the remaining leading generator rows.  A codebook block of at
    most 2^10 words is compared with the word in one call; a larger one
    position by position.  The witness of the codeword it matches is the
    base-q digits of that codeword's index in the span of the generator
    rows, so the scan neither builds the codeword nor interpolates it.

    The syndrome lookup stores the error patterns of weights 1..h only, the
    most classes that fit in 2^18 patterns but at least ceil(T/2) of them.
    A heavier pattern, of weight W <= T, is found by a join: one stored
    pattern of weight W-h whose syndrome, subtracted from the received one,
    leaves the syndrome of a stored pattern of weight h.  The classes
    1..T-h that a join subtracts keep their syndromes as rows of symbols,
    so a join is one subtraction and one key product, with no division.
    """
    return _affine_entry(spec, r, _exhaustive_engine, bound)


def _syndrome_route(spec, r, cap_t):
    # the syndrome-lookup route of decode_exhaustive
    gf = spec.gf
    h, powers, classes = _syndrome_table(spec)
    syn = linalg.vec_mat(gf, r, h.T)
    key = int(syn.astype(np.int64) @ powers)
    if key == 0:
        return _interpolate(spec, r)
    e = _find_pattern(gf, len(r), cap_t, syn, key, powers, classes)
    return None if e is None else _interpolate(spec, gf.sub(r, e))


@lru_cache(maxsize=None)
def _route(spec):
    # the routes of decode_exhaustive on spec, fixed per code and preferred
    # first: (name, enumeration count, vector engine), the engine taking
    # (spec, r) and returning its witness as a vector over the basis, or
    # None beyond the radius.  A scan whose codebook passes the size cap of
    # codes has no engine, and a lookup needs syndrome keys that fit in an int64
    params = code_params(spec)
    q, n, k, cap_t = spec.gf.q, params.n, params.k, params.T
    if cap_t == 0:
        return (("member", 0, _interpolate),)
    book = _codebook_size(q, n, k)
    scan = ("scan", q ** k,
            partial(_scan_codewords, cap_t=cap_t) if book <= _MAX_ELEMENTS else None)
    if q ** (n - k) >= 2 ** 62:
        return (scan,)
    patterns = sum(_patterns(q, n, w) for w in range(1, cap_t + 1))
    top = _stored_weights(q, n, cap_t)
    stored = sum(_patterns(q, n, w) for w in range(1, top + 1))
    joined = sum(_patterns(q, n, w) for w in range(1, cap_t - top + 1))
    cheaper = _LOOKUP_STEP * (n - k) * (n + joined) < n * q ** k
    small = n * stored <= book
    routes = (("syndrome", patterns, partial(_syndrome_route, cap_t=cap_t)), scan)
    lookup = patterns < q ** k or (cheaper and small)
    return routes if lookup else routes[::-1]


def _exhaustive_engine(spec, bound=None):
    # (name, vector engine) of the first of _route's routes that has an engine
    # and whose enumeration fits the bound; a route that enumerates nothing
    # fits any bound
    if bound is None:
        bound = _enum_bound()
    routes = _route(spec)
    for name, count, run in routes:
        if run and (count <= bound or not count):
            return name, run
    params = code_params(spec)
    book = _codebook_size(spec.gf.q, params.n, params.k)
    over = f" and its codebook holds {book} elements, past the cap of {_MAX_ELEMENTS}"
    raise EnumerationBoundError(
        f"{spec}: no exhaustive route within bound {bound} ("
        + ", ".join(f"{name} enumerates {count}" + ("" if run else over)
                    for name, count, run in routes) + ")")


# --- Reed-Solomon decoding for the m = 1 affine codes ---

def decode_rs_affine(spec, r):
    """Gao's decoder for RM(1, d) = RS over the q affine points.

    Over all of F_q, r interpolates to R(x) = sum_a r(a)(1 - (x - a)^(q-1)),
    whose x^j coefficient is r(0) for j = 0 and -sum_a r(a) a^(q-1-j) for
    j >= 1: one vec_mat with the symmetric block xi^(ij), i, j < q - 1, of
    the cached RM(1, q-1) evaluation matrix (row j: x^j at the points), read
    at negated indices.  The extended Euclidean algorithm on (x^q - x, R)
    runs until its remainder g has degree below (q + d + 1)/2, with
    g = u(x^q - x) + vR, so deg v <= T = floor((q-d-1)/2).  When wt(e) <= T,
    g = fv for the sent f and v is a scalar times the error locator,
    prod (x - a) over the error positions (S. Gao, "A new algorithm for
    decoding Reed-Solomon codes", 2003).

    The codeword is read off v, not divided out: v is evaluated at the q
    points, and off its roots the codeword is r itself.  On a root a, which
    is simple, f(a) = g'(a)/v'(a) with the formal derivative (j a_j, j mod
    p), since g' = f'v + fv'; a root where v' vanishes is BeyondRadius.  The
    error e = r - values lives on the roots, and f is R minus the line
    interpolation of e, a product with one row per root; f with a
    coefficient above d is BeyondRadius.  The check wt(e) <= T makes the
    behavior strictly bounded-distance, mirroring decode_exhaustive.
    Outcomes are those of an exact division: when the values form a
    codeword of degree <= d, it lies within T of r, and a codeword within T
    is unique and, for it, v is its error locator.  So any word within T of
    a codeword yields that codeword and its f, and any other word fails.
    At radius 0 exactly the codewords decode.
    """
    return _affine_entry(spec, r, _rs_engine)


@lru_cache(maxsize=None)
def _rs_engine(spec):
    # (name, vector engine) of decode_rs_affine on spec: Gao's decoder, or
    # membership at radius 0
    if spec.family != RM or spec.m != 1:
        raise ValueError("decode_rs_affine handles RM specs with m = 1 only")
    cap_t = code_params(spec).T
    if cap_t == 0:
        return "member", _interpolate
    return "rs", partial(_rs_affine, cap_t=cap_t)


def _interpolate_line(gf, r, at=None):
    # the coefficients, lowest degree first, of R with R(a) = r(a) at the q
    # affine points a of the line (see decode_rs_affine); given the sorted
    # positions `at`, r holds R's values there alone and R vanishes at the
    # other points.  At a = xi^i, a^(q-1-j) = xi^(-ij), so with s the values
    # at the nonzero points times the symmetric block xi^(ij), i, j < q-1, of
    # the evaluation matrix, the x^j coefficient is -s[-j mod q-1] for
    # 0 < j < q-1.  The point 0 is last: R(0) = r(0) is the x^0 coefficient,
    # and the x^(q-1) coefficient is -s[0] - r(0)
    q = gf.q
    block = _eval_matrix(gf, RM, 1, q - 1)[1][:-1, :-1]
    zero = 0
    if at is None:
        r, zero = r[:-1], r[-1]
    else:
        if len(at) and at[-1] == q - 1:
            r, zero, at = r[:-1], r[-1], at[:-1]
        block = block[at]
    s = linalg.vec_mat(gf, r, block)
    out = np.empty(q, dtype=DTYPE)
    out[0], out[1:-1], out[-1] = 0, s[:0:-1], gf.add(s[0], zero)
    out = gf.neg(out)
    out[0] = zero
    return out


def _degree(a):
    # degree of the coefficient array a, lowest degree first; -1 for zero
    nz = np.flatnonzero(a)
    return int(nz[-1]) if len(nz) else -1


@lru_cache(maxsize=None)
def _scalar_tables(gf):
    # GF(p^e) for Euclid's steps: the product table as intp, whose rows index
    # takes without a conversion, and the inverses as a list (entry 0
    # unused), both read off the numpy tables
    inv = gf.antilog_table[-gf.log_table % (gf.q - 1)]
    inv[0] = 0
    return gf._mul_table.astype(np.intp), inv.tolist()


def _partial_euclid(gf, a, b, stop):
    # the first remainder g of Euclid on (a, b) with 2 deg g < stop, and v
    # with g = ua + vb.  Each remainder and its cofactor of b are the two
    # columns of one (n, 2) intp array, so a step, which cancels the leading
    # term of the higher remainder with a shifted multiple of the lower one,
    # updates both on one contiguous block of rows: in place by an integer
    # multiply-subtract mod p on a prime field, and on GF(p^e) by a 1-d take
    # from a row of _scalar_tables' product table, then an in-place XOR on
    # GF(2^e) and one field subtraction elsewhere.  The step's scalar c is an
    # integer product mod p on a prime field and a product-table read
    # otherwise
    n = len(a)
    hi, lo = np.zeros((n, 2), dtype=np.intp), np.zeros((n, 2), dtype=np.intp)
    hi[:, 0], lo[:len(b), 0], lo[0, 1] = a, b, 1
    dh, dl = _degree(a), _degree(b)
    p = gf.p if gf.e == 1 else 0
    if not p:
        products, inverses = _scalar_tables(gf)
    while 2 * dl >= stop:
        if p:
            inv = pow(lo.item(dl, 0), -1, p)
        else:
            by_inv = products[inverses[lo.item(dl, 0)]]  # x -> x * lead(lo)^-1
        while dh >= dl:
            s = dh - dl
            top = hi[s:]
            if p:
                top -= hi.item(dh, 0) * inv % p * lo[:n - s]
                top %= p
            else:
                prod = products[by_inv.item(hi.item(dh, 0))].take(lo[:n - s])
                if gf.p == 2:
                    top ^= prod
                else:
                    hi[s:] = gf.sub(top, prod)
            dh -= 1
            while dh >= 0 and not hi.item(dh, 0):
                dh -= 1
        hi, lo, dh, dl = lo, hi, dl, dh
    return lo[:dl + 1, 0].astype(DTYPE), lo[:, 1].astype(DTYPE)


def _derivative(gf, a):
    # the formal derivative of the coefficient array a: j a_j, j taken mod p
    return gf.mul(np.arange(1, len(a)) % gf.p, a[1:])


def _rs_affine(spec, r, cap_t):
    # Gao's decoder at radius cap_t >= 1: the witness as a coefficient
    # vector over the basis, f[j] the coefficient of x^j, or None
    gf, d, q = spec.gf, spec.d, spec.gf.q
    field = gf.zeros(q + 1)  # x^q - x
    field[q], field[1] = 1, gf.neg(1)
    interp = _interpolate_line(gf, r)
    g, v = _partial_euclid(gf, field, interp, q + d + 1)
    v = v[:_degree(v) + 1]
    if len(g) - len(v) > d:
        return None
    x = _eval_matrix(gf, RM, 1, q - 1)[1]  # row j: x^j at the points
    roots = np.flatnonzero(linalg.vec_mat(gf, v, x[:len(v)]) == 0)
    # on a root a of v, g = fv gives g' = f'v + fv', so f(a) = g'(a) / v'(a)
    num, den = (linalg.vec_mat(gf, a, x[:len(a), roots])
                for a in (_derivative(gf, g), _derivative(gf, v)))
    if not den.all():
        return None
    values = gf.antilog_table[(gf.log_table[num] - gf.log_table[den]) % (q - 1)]
    values[num == 0] = 0
    e = gf.sub(r[roots], values)  # r minus the codeword, zero off the roots
    if np.count_nonzero(e) > cap_t:
        return None
    f = gf.sub(interp, _interpolate_line(gf, e, roots))
    return None if f[d + 1:].any() else f[:d + 1]


# --- the pluggable affine-decoder registry ---

def _default_engine(spec):
    # Gao's decoder on the line, the exhaustive decoder above it
    return _rs_engine(spec) if spec.m == 1 else _exhaustive_engine(spec)


def _default_affine(spec, r):
    return _affine_entry(spec, r, _default_engine)


@lru_cache(maxsize=None)
def _chart_positions(gf, m, d):
    return {mon: i for i, mon in enumerate(affine_basis(gf, m, d))}


def _chooser(fn):
    # fn's chooser, (name, vector engine) for a spec: a library decoder's own,
    # found by identity, or else fn as "registered": its return checked to be
    # a DecodeResult, a success's witness to be a Poly, that Poly read as
    # a vector over the basis, which the contract (reduced, degree <= d)
    # keeps every term inside, and its codeword checked to be that vector
    # evaluated
    if fn is _default_affine:
        return _default_engine
    if fn is decode_exhaustive:
        return _exhaustive_engine
    if fn is decode_rs_affine:
        return _rs_engine

    def registered(spec, r):
        out = fn(spec, r)
        if not (isinstance(out, DecodeResult)
                and (not out.ok or isinstance(out.witness, Poly))):
            raise ValueError(f"affine decoder for {spec} returned neither a failed "
                             f"DecodeResult nor a success with a Poly witness")
        if not out.ok:
            return None
        pos = _chart_positions(spec.gf, spec.m, spec.d)
        vec = spec.gf.zeros(len(pos))
        for exps, c in out.witness.terms.items():
            if exps not in pos:
                raise ValueError(f"affine decoder for {spec} returned the term "
                                 f"{exps}, not a reduced monomial of degree <= {spec.d}")
            vec[pos[exps]] = c
        if not np.array_equal(linalg.vec_mat(spec.gf, vec, generator_matrix(spec)),
                              out.codeword):
            raise ValueError(f"affine decoder for {spec} returned a codeword "
                             f"that is not its witness evaluated")
        return vec

    return lambda spec: ("registered", registered)


class AffineDecoders:
    """Maps (m, d) to an affine decoder; unknown keys use the default.

    The default runs Gao's decoder for m = 1 and the exhaustive decoder
    otherwise.  Register alternatives to swap in faster engines per level.
    Each decoder is resolved once, when given, to a chooser that picks, on
    every affine call of the recursion, the one engine that runs and the
    name its trace event carries.  The library's decoders choose as their
    docstrings say and hand over the witness vector they compute; any other
    callable runs as "registered", its Poly witness converted once to its
    vector over the RM(m, d) basis.  A return breaking the contract raises
    ValueError: anything but a DecodeResult, a success whose witness is no
    Poly, a witness term outside that basis, or a codeword that is not the
    witness evaluated (the recursion keeps the witness only).
    """

    def __init__(self, default=None):
        self._table = {}  # (m, d) -> (decoder, its chooser)
        default = default or _default_affine
        self._default = (default, _chooser(default))

    def register(self, m, d, fn):
        self._table[(m, d)] = (fn, _chooser(fn))
        return self

    def decode(self, spec, r):
        return self._table.get((spec.m, spec.d), self._default)[0](spec, r)

    def _engine(self, spec):
        # (name, vector engine) of the engine that decodes spec on this call
        return self._table.get((spec.m, spec.d), self._default)[1](spec)


def exhaustive_decoders():
    """Registry that forces the exhaustive engine at every level."""
    return AffineDecoders(default=decode_exhaustive)


# --- recursive projective decoding ---

_Level = namedtuple("_Level", "rm rm_low g hom low tail top top_tail lift red")


@lru_cache(maxsize=None)
def _level(gf, m, d):
    """Cached specs and arrays that carry the witness vectors of level (m, d).

    rm and rm_low are the specs of the affine codes RM(m, d) and RM(m, d-1)
    that the level's two branches decode.  The level's witness is a vector
    over projective_basis(m, d) and g, the PRM(m, d) evaluation matrix,
    evaluates it.  hom and low homogenize the RM(m, d) and RM(m, d-1)
    witnesses into that basis; low is a prefix of hom, since affine_basis
    lists its monomials by degree.  tail, a slice, is where the PRM(m-1, d)
    witness lands: projective_basis lists the x_0 block first, so the
    embedded basis of P^(m-1) is its last len(projective_basis(m-1, d))
    entries, in order.  For d >= q, top holds the positions of the degree-d
    monomials of affine_basis(m, d), the good_top part of split_bad_good,
    top_tail their evaluations on the tail P^(m-1), and lift and red carry
    the PRM(m-1, d-(q-1)) sub-witness into projective_basis(m, d) (embed,
    which is the same suffix of _lift_map, then lift) and into
    affine_basis(m, d) (embed, then reduce).
    """
    q = gf.q
    g = _eval_matrix(gf, PRM, m, d)[1]
    hom = _homogenize_map(gf, m, d, d)
    top = top_tail = lift = red = None
    if d > q - 1:
        d0 = d - (q - 1)
        top = np.flatnonzero([sum(mon) == d for mon in affine_basis(gf, m, d)])
        top.setflags(write=False)
        top_tail = g[hom[top], q ** m:]
        lift = _lift_map(gf, m, d0, d)[-len(projective_basis(gf, m - 1, d0)):]
        red = _reduce_map(gf, m, d0, d)
    low = hom[:len(affine_basis(gf, m, d - 1))]
    return _Level(CodeSpec(RM, gf, m, d), CodeSpec(RM, gf, m, d - 1), g, hom, low,
                  slice(-len(projective_basis(gf, m - 1, d)), None),
                  top, top_tail, lift, red)


def _scatter(gf, n, *parts):
    # field sum of each (index array, values) part scattered into n zeros
    out = gf.zeros(n)
    for idx, vals in parts:
        out[idx] = gf.add(out[idx], vals)
    return out


def _decode_level(gf, m, d, r, decoders, strict, trace):
    # Level m works on the last m+1 variables of its own (m+1)-variable ring.
    # It returns its witness, a coefficient vector over projective_basis(gf,
    # m, d), or None; the index arrays of _level carry a sub-witness upward,
    # and every codeword the level reads is a vec_mat with a block of lv.g,
    # the tail's on the chart (its replicated scaled copy) and on the tail
    # (the sub-level's codeword).  Trace events get Polys.
    if m == 0:
        return r.copy()  # the coefficient of x0^d
    q = gf.q
    wt = prm_weight(q, m, d)
    if wt <= 2:
        # any correctable r is already a codeword; find its witness
        f = _coefficients(gf, PRM, m, d, r)
        _trace(trace, event="base", m=m, d=d, ok=f is not None)
        if f is None and strict:
            raise _InconsistentBase()
        return f
    lv = _level(gf, m, d)
    k, chart = len(lv.g), q ** m
    r1, r2 = r[:chart], r[chart:]

    # first part: trust the affine block
    engine, run = decoders._engine(lv.rm)
    f0 = run(lv.rm, r1)
    if trace is not None:
        trace.append(dict(event="affine", part="first", m=m, d=d, ok=f0 is not None,
                          engine=engine))
    if f0 is not None:
        f = None
        if d <= q - 1:
            f = _scatter(gf, k, (lv.hom, f0))
        else:
            d0 = d - (q - 1)
            if trace is not None:
                split = split_bad_good(
                    Poly._of_vector(gf, m + 1, affine_basis(gf, m, d), f0), d)
                trace.append(dict(event="split", m=m, d=d, **split._asdict()))
            c_good = linalg.vec_mat(gf, f0[lv.top], lv.top_tail)
            sub = _decode_level(gf, m - 1, d0, gf.sub(r2, c_good), decoders, strict,
                                trace)
            if sub is not None:
                # f = homogenize(g0) + lift(f_sub) + good_top with g0 the
                # reduction of f0 - f_sub - good_top, whose degree is below d;
                # good_top is its own homogenization, so f is homogenize(h)
                # + lift(f_sub) with h = g0 + good_top = f0 - reduced f_sub
                h = f0.copy()
                h[lv.red] = gf.sub(h[lv.red], sub)
                if trace is not None:
                    g0 = h.copy()
                    g0[lv.top] = 0
                    f_sub = Poly._of_vector(gf, m, projective_basis(gf, m - 1, d0), sub)
                    g0 = Poly._of_vector(gf, m + 1, affine_basis(gf, m, d), g0)
                    trace.append(dict(event="residue", m=m, d=d, f_sub=embed_poly(f_sub),
                                      g0=g0))
                f = _scatter(gf, k, (lv.hom, h), (lv.lift, sub))
        if f is not None:
            cand = linalg.vec_mat(gf, f, lv.g)
            if 2 * weight(gf.sub(r, cand)) < wt:
                if trace is not None:
                    trace.append(dict(
                        event="accept", part="first", m=m, d=d,
                        f=Poly._of_vector(gf, m + 1, projective_basis(gf, m, d), f)))
                return f
            _trace(trace, event="reject", part="first", m=m, d=d)

    # second part: trust the projective tail
    second = _decode_level(gf, m - 1, d, r2, decoders, strict, trace)
    if trace is not None:
        g = v = None
        if second is not None:
            g = embed_poly(Poly._of_vector(gf, m, projective_basis(gf, m - 1, d),
                                           second))
            v = linalg.vec_mat(gf, second, lv.g[lv.tail, chart:])
        trace.append(dict(event="tail", m=m, d=d, ok=second is not None, v=v, g=g))
    if second is None:
        return None
    vxd = linalg.vec_mat(gf, second, lv.g[lv.tail, :chart])
    engine, run = decoders._engine(lv.rm_low)
    low = run(lv.rm_low, gf.sub(r1, vxd))
    if trace is not None:
        u = f_low = None
        if low is not None:
            u = linalg.vec_mat(gf, low, lv.g[lv.low, :chart])
            f_low = Poly._of_vector(gf, m + 1, affine_basis(gf, m, d - 1), low)
        trace.append(dict(event="affine", part="second", m=m, d=d - 1,
                          ok=low is not None, u=u, f_low=f_low, engine=engine))
    if low is None:
        return None
    f = _scatter(gf, k, (lv.low, low), (lv.tail, second))
    if trace is not None:
        trace.append(dict(
            event="accept", part="second", m=m, d=d,
            f=Poly._of_vector(gf, m + 1, projective_basis(gf, m, d), f)))
    return f


@lru_cache(maxsize=None)
def _prm_params(gf, m, d):
    # the code an entry point names, once per (gf, m, d): CodeSpec checks m,
    # d and the size cap
    return code_params(CodeSpec(PRM, gf, m, d))


def _decode_entry(gf, m, d, r, decoders, strict, trace):
    params = _prm_params(gf, m, d)
    r = gf.asarray(r)
    if r.shape != (params.n,):
        raise ValueError(f"received word length {r.shape} != n = {params.n}")
    f = _decode_level(gf, m, d, r, decoders or AffineDecoders(), strict, trace)
    if f is not None:
        return _pack(f, gf, PRM, m, d)
    # a top code of weight <= 2 is its own base case
    return DecodeResult.fail(NOT_IN_CODE if params.wt <= 2 else BEYOND_RADIUS)


def decode_prm(gf, m, d, r, decoders=None, trace=None):
    """Recursive projective decoding, strict variant.

    On a word c + e with wt(e) <= T0 = floor((eta-1)/2) it returns c or
    Failure(Inconsistent), never another codeword and never another failure
    kind.  A base-case interpolation with no solution yields
    Failure(Inconsistent) at once, with no fallback.  Within T0 that happens
    at m >= 3 with d >= q: the first branch can miscorrect the affine chart,
    and the d >= q sub-recursion on the tail then reaches a base case with
    no solution before the second branch runs.  decode_prm_robust decodes
    those words.

    With the default engines this raises EnumerationBoundError (a
    RuntimeError) when an affine code the recursion reaches for m >= 2 is
    too large for decode_exhaustive, even on an error-free word.  It raises
    ValueError on a non-integer word, a symbol outside the field, a word of
    the wrong length, a code that does not exist, a code or affine code past
    the size cap of codes, or a registered affine decoder whose return
    breaks the contract (see AffineDecoders).
    """
    try:
        return _decode_entry(gf, m, d, r, decoders, True, trace)
    except _InconsistentBase:
        return DecodeResult.fail(INCONSISTENT)


def decode_prm_robust(gf, m, d, r, decoders=None, trace=None):
    """decode_prm with every internal failure downgraded to a branch failure.

    Returns what decode_prm returns wherever that is a success, but keeps
    trying the remaining branches when one block of the received word is
    hopeless; this recovers all patterns accepted by check_error_pattern,
    which include every pattern of weight <= T0, even past eta/2.  Raises
    EnumerationBoundError and ValueError as decode_prm does.
    """
    return _decode_entry(gf, m, d, r, decoders, False, trace)


def check_error_pattern(gf, m, d, e):
    """Sufficient condition for decode_prm_robust to correct the pattern e.

    wt(e) must be below wt(PRM(m, d))/2, and for some level i the nested tail
    blocks must be cleanly decodable: every tail of length p_j (i < j <= m)
    carries fewer than wt(PRM(j, d))/2 errors, and the p_i tail fewer than
    eta(i, d)/2.  The first condition follows from the second: the tail p_m
    is all of e, and eta(m, d) <= wt(PRM(m, d)).  Each tail's weight is
    counted once.
    """
    n = _prm_params(gf, m, d).n
    e = gf.asarray(e)
    q = gf.q
    if e.shape != (n,):
        raise ValueError("pattern length mismatch")
    tails = [weight(e[len(e) - num_projective_points(q, i):]) for i in range(m + 1)]
    clean = [2 * tails[j] < prm_weight(q, j, d) for j in range(1, m + 1)]
    return any(2 * tails[i] < eta(q, i, d) and all(clean[i:]) for i in range(m + 1))
