"""Finite field arithmetic GF(p^e) for small q.

Field elements are plain Python integers in ``[0, q-1]``: the base-p digits of
the integer are the coefficients of the element over the power basis
``{1, x, ..., x^(e-1)}`` of ``GF(p)[x]/(modulus)``.  Under this encoding 0 and
1 are the additive and multiplicative identities, and serialized vectors are
bit-exact across implementations.

The modulus for each extension field is a fixed Conway polynomial, so e.g.
GF(4) satisfies a^2 = a + 1 where a (encoding 2) is the class of x.  The
primitive element ``xi`` is the class of x for e >= 2 and the smallest
primitive root mod p for prime fields.  All elements are ordered as
``[xi^0, xi^1, ..., xi^(q-2), 0]``.

``add``/``sub``/``mul`` take scalars or numpy integer arrays and work
elementwise: prime fields by integer arithmetic mod p, extension fields by
gathers from q x q tables, except that on GF(2^e) adding and subtracting
are both the XOR of the encodings (the base-2 digits add without carry), so
``add``/``sub``/``neg`` need no table there.  ``add`` and ``sub`` (and
``neg``, which is ``sub(0, a)``) evaluate one expression for scalars and
arrays alike: two scalars first become Python ints, so a narrow numpy
scalar cannot wrap, and a table read of scalars is turned back into one.
``mul`` keeps a branch of plain integer arithmetic for scalars, which a
numpy product of two scalars costs several times over, and widens
prime-field arrays to int64.  On every field scalars, numpy scalars
included, come back as Python ints; an XOR keeps the dtype of its array
operands.  A prime field adds and subtracts arrays in their promoted dtype
when that is a signed one of at least 32 bits; an unsigned or narrower
result, which can have wrapped because no operand was an int32 or int64
array, is computed again with both operands widened to int32.
``_sum`` adds an array down its first axis in one pass on an extension
field (an XOR reduction for p = 2, a base-p digit sum otherwise); prime
fields sum inside ``linalg.vec_mat``'s integer matmul.  With it,
and with products taken in the log domain through the log/antilog tables,
vector-matrix products and polynomial evaluation run without per-row
Python loops.  The product table ``_mul_table`` is C-contiguous, so its
flat view is free: ``linalg.vec_mat`` gathers from it with one 1-d take at
a * q + b, and Gao's Euclid takes from the rows of an intp copy of it.
``mul`` keeps the 2-d fancy index, which builds no full-size index array
from broadcast operands.
"""

import numpy as np

# Conway polynomials C(p, e), coefficient tuples lowest degree first, for every
# prime power p^e <= 128 with e >= 2.  Derived offline from the definition
# (minimal in the signed-word order among monic primitive polynomials
# compatible with all proper subfields); prime fields are handled dynamically.
_CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
}

MAX_Q = 2 ** 16

DTYPE = np.int32


def _prime_factors(n):
    out = []
    i = 2
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            while n % i == 0:
                n //= i
        i += 1
    if n > 1:
        out.append(n)
    return out


_INT32 = np.dtype(DTYPE)


def _plain(x):
    # a field op's result: an array as it is, a scalar as a Python int
    return x if isinstance(x, np.ndarray) else int(x)


def _unwrapped(out, ufunc, a, b):
    # out = ufunc(a, b), an array that is not int32, as numpy computed it, or
    # ufunc(a, b) again with both operands widened to int32 when out can have
    # wrapped: unsigned, or narrower than int32 (no operand was an int32 or
    # int64 array)
    wraps = out.dtype.kind == "u" or out.itemsize < 4
    return ufunc(a, b, dtype=DTYPE) if wraps else out


def _smallest_primitive_root(p):
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for r in range(2, p):
        if all(pow(r, (p - 1) // f, p) != 1 for f in factors):
            return r
    raise AssertionError("no primitive root found")  # unreachable for prime p


class GF:
    """Finite field GF(p^e), q = p^e <= 2^16.

    Parameters
    ----------
    p : prime characteristic.
    e : extension degree; for e >= 2 the modulus comes from the built-in
        Conway table, which covers every prime power up to 128.

    Attributes
    ----------
    q : field size.
    modulus : modulus coefficients, lowest degree first, length e+1.
    xi : encoding of the fixed primitive element.
    """

    def __init__(self, p, e=1):
        # the size first, so no huge p is factored and no huge p^e computed:
        # p >= 2, so q <= 2^16 needs e <= 16
        if e < 1:
            raise ValueError(f"e = {e} must be >= 1")
        if p >= 2 and (e > 16 or p ** e > MAX_Q):
            raise ValueError(f"q = {p}^{e} exceeds the supported range {MAX_Q}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"p = {p} is not prime")
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        # read by every lru_cache keyed on a field; ints hash alike in every
        # process, so a pickled field keeps a valid hash
        self._hash = hash((p, e))
        if e == 1:
            self.xi = _smallest_primitive_root(p)
            self.modulus = ((p - self.xi) % p, 1)
        else:
            try:
                self.modulus = _CONWAY[(p, e)]
            except KeyError:
                raise ValueError(
                    f"no modulus table entry for GF({p}^{e}); "
                    f"extension fields are supported up to q = 128"
                ) from None
            self.xi = p  # class of x
        self._build_tables()

    @classmethod
    def from_order(cls, q):
        """Build the field of order q, factoring q = p^e."""
        if q < 2:
            raise ValueError(f"q = {q} is not a prime power")
        if q > MAX_Q:
            raise ValueError(f"q = {q} exceeds the supported range {MAX_Q}")
        factors = _prime_factors(q)
        if len(factors) != 1:
            raise ValueError(f"q = {q} is not a prime power")
        p = factors[0]
        e = 0
        while q % p == 0:
            q //= p
            e += 1
        return cls(p, e)

    # -- construction helpers ------------------------------------------------

    def _digits(self, a):
        out = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _encode(self, digits):
        v = 0
        for d in reversed(digits):
            v = v * self.p + d
        return v

    def _times_x(self, a):
        # a * x, reduced by the modulus: the digits shift up one place, and the
        # carried top digit c, c x^e = -c (modulus - x^e), is subtracted as c
        # times the modulus' lower digits
        c, rest = divmod(a, self.q // self.p)
        shifted = zip(self._digits(rest * self.p), self.modulus)
        return self._encode([(digit - c * t) % self.p for digit, t in shifted])

    def _build_tables(self):
        q = self.q
        antilog = np.empty(q - 1, dtype=DTYPE)
        log = np.full(q, -1, dtype=DTYPE)
        acc = 1
        for i in range(q - 1):
            antilog[i] = acc
            if log[acc] != -1:
                raise AssertionError("xi does not have order q-1")
            log[acc] = i
            acc = (acc * self.xi) % self.p if self.e == 1 else self._times_x(acc)
        if acc != 1:
            raise AssertionError("xi does not have order q-1")
        self.antilog_table = antilog
        self.log_table = log
        if self.e > 1:
            # q <= 128 here, so full q x q tables are cheap
            digits = np.empty((q, self.e), dtype=DTYPE)
            for a in range(q):
                digits[a] = self._digits(a)
            powers = self.p ** np.arange(self.e, dtype=np.int64)
            self._powers = powers
            if self.p > 2:  # GF(2^e) adds and subtracts by XOR
                self._add_table = (
                    ((digits[:, None, :] + digits[None, :, :]) % self.p) @ powers
                ).astype(DTYPE)
                self._sub_table = (
                    ((digits[:, None, :] - digits[None, :, :]) % self.p) @ powers
                ).astype(DTYPE)
            mul = np.zeros((q, q), dtype=DTYPE)
            nz = self.antilog_table
            idx = (self.log_table[nz][:, None] + self.log_table[nz][None, :]) % (q - 1)
            mul[np.ix_(nz, nz)] = self.antilog_table[idx]
            self._mul_table = mul

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
            a, b = int(a), int(b)  # numpy scalars would wrap in a narrow dtype
        if self.e == 1:
            out = a + b
            if type(out) is np.ndarray and out.dtype is not _INT32:
                out = _unwrapped(out, np.add, a, b)
            return out % self.p
        return a ^ b if self.p == 2 else _plain(self._add_table[a, b])

    def sub(self, a, b):
        if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
            a, b = int(a), int(b)  # numpy scalars would wrap in a narrow dtype
        if self.e == 1:
            out = a - b
            if type(out) is np.ndarray and out.dtype is not _INT32:
                out = _unwrapped(out, np.subtract, a, b)
            return out % self.p
        return a ^ b if self.p == 2 else _plain(self._sub_table[a, b])

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if self.e == 1:
                # widen first: int32*int32 can wrap for p near 2^16
                return (np.multiply(a, b, dtype=np.int64) % self.p).astype(DTYPE)
            return self._mul_table[a, b]
        if self.e == 1:
            return (int(a) * int(b)) % self.p
        return int(self._mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.antilog_table[(-int(self.log_table[a])) % (self.q - 1)])

    def pow(self, a, k):
        """a**k; k may be negative for nonzero a, and pow(a, q-1) = 1."""
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no negative powers")
            return 0
        return int(self.antilog_table[(int(self.log_table[a]) * k) % (self.q - 1)])

    def _sum(self, arr):
        """Field sum of a numpy array of encodings down axis 0, on GF(p^e)
        with e >= 2 (vec_mat sums prime fields in its matmul)."""
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=0).astype(DTYPE, copy=False)
        # odd p: add the base-p digits of the elements separately
        digits = arr[..., None] // self._powers % self.p
        return ((digits.sum(axis=0) % self.p) @ self._powers).astype(DTYPE)

    # -- ordering and parsing --------------------------------------------------

    def ordering(self):
        """All q elements as [xi^0, xi^1, ..., xi^(q-2), 0]."""
        return [int(v) for v in self.antilog_table] + [0]

    def parse_element(self, text):
        """Parse an element: its integer encoding, or `a` for the class of x."""
        text = text.strip()
        v = self.p if text == "a" else int(text)
        if not 0 <= v < self.q:
            raise ValueError(f"element encoding {v} out of range for GF({self.q})")
        return v

    # -- plumbing --------------------------------------------------------------

    def zeros(self, n):
        return np.zeros(n, dtype=DTYPE)

    def asarray(self, values):
        """values as an int32 array: ValueError on a non-integer array, or on a
        value outside [0, q-1] as given, before it is narrowed; int32 input
        comes back as it is, and empty input of any dtype is accepted."""
        arr = np.asarray(values)
        if not arr.size:
            return arr.astype(DTYPE)
        if arr.dtype is not _INT32 and arr.dtype.kind not in "biu":
            raise ValueError(f"values for GF({self.q}) must be integers, "
                             f"not {arr.dtype}")
        if arr.min() < 0 or arr.max() >= self.q:
            raise ValueError(f"values out of range for GF({self.q})")
        return arr if arr.dtype is _INT32 else arr.astype(DTYPE)

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.q})" if self.e == 1 else f"GF({self.p}^{self.e})"
