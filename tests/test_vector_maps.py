"""The cached index arrays that carry the recursive decoder's witness vectors
between monomial bases, against the ring maps of poly they stand for: on
random coefficient vectors over the source basis, moving each coefficient to
its mapped position in the target basis must give exactly the polynomial the
ring map gives.  The same holds for the two positions a decoder level reads
off the bases, its tail slice (embed_poly) and its top positions (the
good_top part of split_bad_good).  Prime fields, GF(2^e) and GF(9); degrees
below, at and above q-1 (where the decoder splits); lifts to degrees far
past 2^64."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prmcodes.decoders import _level
from prmcodes.gf import GF
from prmcodes.poly import (Poly, _homogenize_map, _lift_map, _reduce_map,
                           affine_basis, embed_poly, homogenize, lift_to_degree,
                           projective_basis, reduce_mod_affine, split_bad_good)

ORDERS = (2, 3, 5, 7, 4, 8, 9)
FIELDS = {q: GF.from_order(q) for q in ORDERS}


def poly_of(gf, nvars, mons, coeffs):
    return Poly(gf, nvars, zip(mons, coeffs))


def moved(gf, nvars, idx, coeffs, dst):
    # the target polynomial, one coefficient at a time
    assert len(idx) == len(coeffs)
    out = [0] * len(dst)
    for i, c in zip(idx.tolist(), coeffs):
        out[i] = c
    return poly_of(gf, nvars, dst, out)


@st.composite
def levels(draw, lowest_m=1):
    """(gf, m, d) with d below, at or above q-1 about equally often."""
    gf = FIELDS[draw(st.sampled_from(ORDERS))]
    q = gf.q
    m = draw(st.integers(lowest_m, 3 if q <= 4 else 2))
    top = m * (q - 1)
    kind = draw(st.sampled_from(("below", "at", "above")))
    if kind == "below" and q > 2:
        d = draw(st.integers(1, q - 2))
    elif kind == "above" and top >= q:
        d = draw(st.integers(q, top))
    else:
        d = q - 1
    return gf, m, d


def coeffs_over(draw, gf, mons):
    return draw(st.lists(st.integers(0, gf.q - 1), min_size=len(mons),
                         max_size=len(mons)))


@settings(max_examples=150, deadline=None)
@given(levels(), st.data())
def test_homogenize_map(level, data):
    gf, m, d = level
    d0 = data.draw(st.integers(0, d))
    src, dst = affine_basis(gf, m, d0), projective_basis(gf, m, d)
    coeffs = coeffs_over(data.draw, gf, src)
    want = homogenize(poly_of(gf, m + 1, src, coeffs), d)
    assert moved(gf, m + 1, _homogenize_map(gf, m, d0, d), coeffs, dst) == want


@settings(max_examples=150, deadline=None)
@given(levels(), st.data())
def test_embed_map(level, data):
    # the tail witness lands on the suffix of the level's basis
    gf, m, d = level
    src, dst = projective_basis(gf, m - 1, d), projective_basis(gf, m, d)
    coeffs = coeffs_over(data.draw, gf, src)
    want = embed_poly(poly_of(gf, m, src, coeffs))
    tail = np.arange(len(dst))[_level(gf, m, d).tail]
    assert moved(gf, m + 1, tail, coeffs, dst) == want


@settings(max_examples=150, deadline=None)
@given(levels(), st.data())
def test_lift_map(level, data):
    gf, m, d0 = level
    steps = data.draw(st.one_of(st.integers(0, 3), st.integers(2 ** 64, 2 ** 70)))
    d = d0 + steps * (gf.q - 1)
    src, dst = projective_basis(gf, m, d0), projective_basis(gf, m, d)
    coeffs = coeffs_over(data.draw, gf, src)
    want = lift_to_degree(poly_of(gf, m + 1, src, coeffs), d)
    assert moved(gf, m + 1, _lift_map(gf, m, d0, d), coeffs, dst) == want


@settings(max_examples=150, deadline=None)
@given(levels(), st.data())
def test_reduce_map(level, data):
    # the decoder reduces an embedded degree d-(q-1) sub-witness; any source
    # degree up to d must map the same way
    gf, m, d = level
    d0 = data.draw(st.integers(1, d))
    src, dst = projective_basis(gf, m - 1, d0), affine_basis(gf, m, d)
    coeffs = coeffs_over(data.draw, gf, src)
    want = reduce_mod_affine(embed_poly(poly_of(gf, m, src, coeffs)))
    assert moved(gf, m + 1, _reduce_map(gf, m, d0, d), coeffs, dst) == want


@settings(max_examples=150, deadline=None)
@given(levels(), st.data())
def test_level_top_is_good_top(level, data):
    # for d >= q, top is the positions of split_bad_good's good_top terms, in
    # basis order, and read-only like the other cached maps; below, the level
    # does not split
    gf, m, d = level
    top = _level(gf, m, d).top
    if d < gf.q:
        assert top is None
        return
    assert not top.flags.writeable
    mons = affine_basis(gf, m, d)
    every = split_bad_good(poly_of(gf, m + 1, mons, [1] * len(mons)), d)
    assert [mons[i] for i in top] == list(every.good_top.terms)
    coeffs = coeffs_over(data.draw, gf, mons)
    want = split_bad_good(poly_of(gf, m + 1, mons, coeffs), d).good_top
    assert poly_of(gf, m + 1, [mons[i] for i in top],
                   [coeffs[i] for i in top]) == want
