"""Property tests of the recursive decoders' contract on small PRM codes,
among them codes with d >= q where the first part splits the chart witness:

  * decode_prm(c + e) == c whenever wt(e) <= T0;
  * decode_prm_robust succeeds, with the same codeword, wherever decode_prm
    succeeds;
  * check_error_pattern(e) implies that decode_prm_robust(c + e) == c.

Each runs with the default engines, with exhaustive_decoders(), and with a
registered engine that wraps the default ones and hands the recursion Poly
witnesses."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from prmcodes.codes import PRM, CodeSpec, code_params, encode
from prmcodes.decoders import (AffineDecoders, check_error_pattern,
                               decode_prm, decode_prm_robust,
                               exhaustive_decoders)
from prmcodes.gf import GF
from prmcodes.poly import Poly, eval_projective

# (q, m, d): d below, at and above q-1, over prime fields and GF(4), GF(8), GF(9)
CODES = [(2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (3, 2, 2), (3, 2, 3),
         (3, 2, 4), (3, 3, 3), (4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 2, 5),
         (5, 1, 2), (5, 1, 4), (7, 1, 3), (8, 1, 5), (9, 1, 8)]
FIELDS = {q: GF.from_order(q) for q in {q for q, _, _ in CODES}}


def poly_wrapper():
    inner = AffineDecoders()
    return AffineDecoders(default=lambda spec, r: inner.decode(spec, r))


ENGINES = {"default": lambda: None, "exhaustive": exhaustive_decoders,
           "poly-wrapper": poly_wrapper}


@st.composite
def received(draw, radius):
    """(gf, m, d, codeword, error) with wt(error) <= radius(params)."""
    q, m, d = draw(st.sampled_from(CODES))
    gf = FIELDS[q]
    p = code_params(CodeSpec(PRM, gf, m, d))
    msg = draw(st.lists(st.integers(0, q - 1), min_size=p.k, max_size=p.k))
    c, _ = encode(CodeSpec(PRM, gf, m, d), msg)
    w = draw(st.integers(0, radius(p)))
    support = draw(st.lists(st.integers(0, p.n - 1), min_size=w, max_size=w,
                            unique=True))
    e = gf.zeros(p.n)
    e[support] = draw(st.lists(st.integers(1, q - 1), min_size=w, max_size=w))
    return gf, m, d, c, e


def decoded(out, c, m):
    return (out.ok and np.array_equal(out.codeword, c)
            and isinstance(out.witness, Poly)
            and np.array_equal(eval_projective(out.witness, m), c))


@settings(max_examples=120, deadline=None)
@given(received(lambda p: p.T0), st.sampled_from(sorted(ENGINES)))
def test_strict_decodes_within_t0(word, engines):
    gf, m, d, c, e = word
    out = decode_prm(gf, m, d, gf.add(c, e), decoders=ENGINES[engines]())
    assert decoded(out, c, m)


@settings(max_examples=120, deadline=None)
@given(received(lambda p: p.T), st.sampled_from(sorted(ENGINES)))
def test_robust_succeeds_wherever_strict_does(word, engines):
    gf, m, d, c, e = word
    r = gf.add(c, e)
    strict = decode_prm(gf, m, d, r, decoders=ENGINES[engines]())
    if strict.ok:
        robust = decode_prm_robust(gf, m, d, r, decoders=ENGINES[engines]())
        assert robust.ok and np.array_equal(robust.codeword, strict.codeword)
        assert robust.witness == strict.witness


@settings(max_examples=120, deadline=None)
@given(received(lambda p: p.T), st.sampled_from(sorted(ENGINES)))
def test_robust_decodes_every_checked_pattern(word, engines):
    gf, m, d, c, e = word
    if check_error_pattern(gf, m, d, e):
        out = decode_prm_robust(gf, m, d, gf.add(c, e), decoders=ENGINES[engines]())
        assert decoded(out, c, m)
