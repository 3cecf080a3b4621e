"""Field arithmetic: frozen moduli, goldens, and an independent polynomial
arithmetic oracle for the extension fields."""

import numpy as np
import pytest

from prmcodes.gf import GF


# --- construction goldens ---

def test_gf4_modulus_and_generator():
    gf = GF(2, 2)
    assert gf.q == 4
    assert gf.modulus == (1, 1, 1)  # x^2 + x + 1
    # a^2 = a + 1 with a encoded as 2, a+1 as 3
    assert gf.mul(2, 2) == 3
    assert gf.xi == 2


def test_small_prime_fields():
    assert GF(2).xi == 1
    assert GF(3).xi == 2
    assert GF(5).xi == 2
    assert GF(7).xi == 3
    assert GF(3).inv(2) == 2


def test_orderings():
    assert GF(2, 2).ordering() == [1, 2, 3, 0]
    assert GF(2).ordering() == [1, 0]
    assert GF(3).ordering() == [1, 2, 0]


def test_ordering_is_generator_powers():
    for gf in (GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)):
        order = gf.ordering()
        assert order[-1] == 0
        assert sorted(order) == list(range(gf.q))
        acc = 1
        for v in order[:-1]:
            assert v == acc
            acc = gf.mul(acc, gf.xi)
        assert acc == 1  # xi has order exactly q - 1


def test_from_order():
    assert GF.from_order(4) == GF(2, 2)
    assert GF.from_order(9) == GF(3, 2)
    assert GF.from_order(7) == GF(7)
    with pytest.raises(ValueError):
        GF.from_order(12)
    with pytest.raises(ValueError):
        GF.from_order(1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2, 0)


# --- field axioms, exhaustively on small fields ---

@pytest.mark.parametrize("gf", [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)])
def test_field_axioms(gf):
    q = gf.q
    elems = range(q)
    for a in elems:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
        for b in elems:
            assert gf.add(a, b) == gf.add(b, a)
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.sub(a, b) == gf.add(a, gf.neg(b))
    # associativity and distributivity on a coarser triple grid
    for a in elems:
        for b in elems:
            for c in elems:
                assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(2, 2).inv(0)


# --- independent oracle: digit-polynomial arithmetic mod the frozen modulus ---

def _poly_oracle_mul(p, modulus, a, b):
    # int encoding = base-p digits, lowest first; school multiplication then
    # reduction by the monic modulus
    def digits(x):
        out = []
        while x:
            out.append(x % p)
            x //= p
        return out
    da, db = digits(a), digits(b)
    prod = [0] * (len(da) + len(db))
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(modulus) - 1
    for top in range(len(prod) - 1, deg - 1, -1):
        coef = prod[top]
        if coef:
            prod[top] = 0
            for k in range(deg):
                prod[top - deg + k] = (prod[top - deg + k] - coef * modulus[k]) % p
    return sum(c * p ** i for i, c in enumerate(prod))


@pytest.mark.parametrize("gf", [GF(2, 2), GF(2, 3), GF(2, 4), GF(3, 2), GF(5, 2)])
def test_extension_mul_against_poly_oracle(gf):
    for a in range(gf.q):
        for b in range(gf.q):
            assert gf.mul(a, b) == _poly_oracle_mul(gf.p, gf.modulus, a, b)


@pytest.mark.parametrize("gf", [GF(2, 2), GF(3, 2), GF(2, 7), GF(3, 3)])
def test_extension_add_is_digitwise(gf):
    p = gf.p
    for a in range(gf.q):
        for b in range(gf.q):
            want = 0
            aa, bb, mult = a, b, 1
            while aa or bb:
                want += ((aa + bb) % p) * mult
                aa //= p
                bb //= p
                mult *= p
            assert gf.add(a, b) == want


# --- array semantics ---

def test_array_ops_match_scalars():
    # GF(2^e) adds and subtracts by XOR, other fields by tables or mod p; on
    # every field scalars, numpy scalars included, come back as Python ints,
    # and narrow ones do not wrap (0 - 3 in uint8); GF(2^e) arrays keep
    # their dtype
    for gf in (GF(3), GF(5), GF(2, 2), GF(3, 2), GF(2, 7), GF(3, 3)):
        pairs = [(a, b) for a in range(gf.q) for b in range(gf.q)]
        av = gf.asarray([a for a, _ in pairs])
        bv = gf.asarray([b for _, b in pairs])
        for op in (gf.add, gf.sub, gf.mul):
            out = op(av, bv)
            assert out.dtype == av.dtype
            assert out.tolist() == [op(a, b) for a, b in pairs]
            assert all(type(op(a, b)) is int for a, b in pairs)
            for i, (a, b) in enumerate(pairs[:50]):
                for x, y in ((av[i], b), (a, np.int64(b)), (av[i], bv[i]),
                             (np.uint8(a), b), (a, np.int8(b))):
                    assert type(op(x, y)) is int and op(x, y) == op(a, b)
        assert gf.neg(av).dtype == av.dtype
        assert gf.neg(av).tolist() == [gf.neg(a) for a, _ in pairs]
        assert all(type(gf.neg(a)) is int for a, _ in pairs)
        assert all(type(gf.neg(a)) is int for a in av[:50])
        assert all(gf.neg(np.uint8(a)) == gf.neg(a) for a, _ in pairs[:50])
        if gf.p == 2:
            narrow = av.astype(np.uint8)
            for out in (gf.add(narrow, bv.astype(np.uint8)), gf.sub(narrow, 1),
                        gf.neg(narrow)):
                assert out.dtype == np.uint8


def test_large_prime_no_overflow():
    # products near 2^32 must not wrap in the int32 representation
    gf = GF(65521)
    a, b = 65519, 65520
    assert gf.mul(a, b) == (a * b) % 65521
    av = gf.asarray([a, a])
    bv = gf.asarray([b, b])
    assert list(gf.mul(av, bv)) == [(a * b) % 65521] * 2


def test_pow():
    gf = GF(2, 2)
    assert gf.pow(2, 3) == 1          # a^3 = 1
    assert gf.pow(2, -1) == gf.inv(2)
    assert gf.pow(0, 0) == 1


def test_parse_element():
    gf = GF(2, 2)
    assert gf.parse_element("a") == 2
    assert gf.parse_element("3") == 3
    with pytest.raises(ValueError):
        gf.parse_element("4")
    with pytest.raises(ValueError):
        GF(3).parse_element("a")


def test_zeros_and_asarray():
    gf = GF(3)
    z = gf.zeros(4)
    assert z.shape == (4,) and z.dtype == np.int32 and not z.any()
    with pytest.raises(ValueError):
        gf.asarray([0, 3])
    with pytest.raises(ValueError):
        gf.asarray([-1])
