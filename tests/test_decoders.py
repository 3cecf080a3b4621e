"""Decoders: the exhaustive oracle against an in-test nearest-codeword scan,
Gao's Reed-Solomon decoder against the oracle, the recursive projective
decoders against goldens, the oracle, and their guaranteed radii, and the
packed results the entry points return."""

import hashlib
import itertools
import pickle
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmcodes.codes import (PRM, RM, CodeSpec, _eval_matrix, code_params,
                            encode, generator_matrix, interpolate,
                            interpolate_family, replicate_scaled)
from prmcodes.decoders import (_SCAN_AT_ONCE, DEFAULT_ENUM_BOUND,
                               AffineDecoders, DecodeResult,
                               EnumerationBoundError, _codebook,
                               _exhaustive_engine, _interpolate_line, _pack, _route,
                               _scan_codewords, _scan_route, _stored_weights,
                               _syndrome_route, _syndrome_table,
                               check_error_pattern, decode_exhaustive,
                               decode_prm, decode_prm_robust,
                               decode_rs_affine, exhaustive_decoders, weight)
from prmcodes.gf import DTYPE, GF
from prmcodes.linalg import kernel, vec_mat
from prmcodes.poly import Poly, eval_affine, eval_projective, parse_poly

EX_R = [3, 2, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]
EX_C = [1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]


def spec_of(family, q, m, d):
    return CodeSpec(family, GF.from_order(q), m, d)


def random_error(gf, rng, n, w):
    e = gf.zeros(n)
    if w:
        sup = rng.choice(n, size=w, replace=False)
        e[sup] = rng.integers(1, gf.q, size=w)
    return e


def codebook(spec):
    gf = spec.gf
    g = generator_matrix(spec)
    k, n = g.shape
    msgs = np.array(list(itertools.product(range(gf.q), repeat=k)), dtype=g.dtype)
    cws = gf.zeros((len(msgs), n))
    for i in range(k):
        cws = gf.add(cws, gf.mul(msgs[:, i][:, None], g[i][None, :]))
    return cws


# --- exhaustive bounded-distance decoding ---

def test_exhaustive_identity_on_codewords():
    rng = np.random.default_rng(0)
    for family, q, m, d in [(RM, 3, 2, 2), (PRM, 4, 2, 3), (RM, 4, 1, 2)]:
        spec = spec_of(family, q, m, d)
        k = code_params(spec).k
        cw, f = encode(spec, rng.integers(0, q, size=k))
        out = decode_exhaustive(spec, cw)
        assert out.ok and np.array_equal(out.codeword, cw) and out.witness == f


def test_exhaustive_corrects_three_errors_on_rm22():
    spec = spec_of(RM, 4, 2, 2)  # [16, 6, 8], radius 3
    gf = spec.gf
    rng = np.random.default_rng(1)
    for _ in range(20):
        cw, _ = encode(spec, rng.integers(0, 4, size=6))
        r = gf.add(cw, random_error(gf, rng, 16, 3))
        out = decode_exhaustive(spec, r)
        assert out.ok and np.array_equal(out.codeword, cw)


def test_exhaustive_matches_nearest_codeword_scan():
    # dual route: same verdict as an independent full-codebook nearest search
    # RM(2,2)/GF(7) has 117649 codewords, more than the 2^16 the decoder
    # compares at once, so its scan runs over offsets of the leading rows.
    # Random words are nearly all beyond its T = 17, so half of its words are
    # planted within the radius and both verdicts of that scan run.
    rng = np.random.default_rng(2)
    for family, q, m, d, planted in [(PRM, 3, 1, 1, False), (RM, 3, 2, 1, False),
                                     (PRM, 4, 1, 2, False), (RM, 7, 2, 2, True)]:
        spec = spec_of(family, q, m, d)
        gf, p = spec.gf, code_params(spec)
        book = codebook(spec)
        verdicts = set()
        for i in range(40):
            if planted and i % 2:
                e = random_error(gf, rng, p.n, int(rng.integers(0, p.T + 1)))
                r = gf.add(book[rng.integers(len(book))], e)
            else:
                r = gf.asarray(rng.integers(0, q, size=p.n))
            dists = np.count_nonzero(book != r[None, :], axis=1)
            best = int(dists.min())
            out = decode_exhaustive(spec, r)
            verdicts.add(out.ok)
            if best <= p.T:
                assert out.ok
                assert np.count_nonzero(out.codeword != r) == best
            else:
                assert not out.ok and out.failure == "BeyondRadius"
        if planted:
            assert verdicts == {True, False}


def test_exhaustive_scan_counter_holds_n():
    # n = 257 and n = 256 both reach distance 256, one more than a uint8
    # counter holds; GF(257) also needs two bytes per stored symbol
    spec = spec_of(RM, 257, 1, 0)  # the constants: [257, 1, 257], T = 128
    gf = spec.gf
    out = decode_exhaustive(spec, gf.asarray(np.arange(257)))
    assert not out.ok and out.failure == "BeyondRadius"  # 256 from every codeword
    rng = np.random.default_rng(7)
    for c, w in ((256, 0), (0, 1), (255, 100), (256, 128)):
        cw = gf.asarray(np.full(257, c))
        out = decode_exhaustive(spec, gf.add(cw, random_error(gf, rng, 257, w)))
        assert out.ok and np.array_equal(out.codeword, cw)
        assert out.codeword.dtype == cw.dtype
    spec = spec_of(RM, 16, 2, 1)  # [256, 3, 240], T = 119, 4096 codewords
    gf, book = spec.gf, codebook(spec)
    for i in range(12):
        cw = book[rng.integers(len(book))]
        if i % 3 == 0:  # nonzero at every position: 256 from cw
            r = gf.add(cw, gf.asarray(rng.integers(1, 16, size=256)))
        elif i % 3 == 1:
            r = gf.add(cw, random_error(gf, rng, 256, int(rng.integers(0, 120))))
        else:
            r = gf.asarray(rng.integers(0, 16, size=256))
        dists = np.count_nonzero(book != r[None, :], axis=1)
        out = decode_exhaustive(spec, r)
        if dists.min() <= 119:
            assert out.ok and np.array_equal(out.codeword, book[np.argmin(dists)])
        else:
            assert not out.ok and out.failure == "BeyondRadius"


# codes on the codeword-scan route with q^k <= 2^12: prime fields, GF(2^e)
# and odd-characteristic extension fields, with blocks on both sides of
# _SCAN_AT_ONCE; RM(1,1)/GF(32)'s 32 x 1024 block is exactly 2^10 words
SCAN_CODES = [(RM, 3, 2, 1), (PRM, 3, 2, 1), (RM, 7, 1, 2), (PRM, 5, 1, 1),
              (RM, 5, 2, 1), (PRM, 7, 2, 1), (RM, 2, 4, 1), (PRM, 2, 3, 1),
              (RM, 4, 2, 1), (RM, 4, 2, 2), (PRM, 4, 2, 2), (RM, 8, 1, 2),
              (PRM, 8, 1, 1), (RM, 16, 1, 2), (RM, 9, 1, 2), (PRM, 9, 1, 2),
              (RM, 9, 2, 1), (RM, 25, 1, 1), (PRM, 27, 1, 1), (RM, 2, 6, 1),
              (RM, 32, 1, 1)]


@lru_cache(maxsize=None)
def scan_case(family, q, m, d):
    spec = spec_of(family, q, m, d)
    return spec, code_params(spec), codebook(spec)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCAN_CODES), st.booleans(), st.data())
def test_exhaustive_scan_matches_nearest_codeword_search(code, planted, data):
    spec, p, book = scan_case(*code)
    gf, m = spec.gf, spec.m
    if planted:
        cw = book[data.draw(st.integers(0, len(book) - 1))]
        w = data.draw(st.integers(0, p.T + 1))
        sup = data.draw(st.lists(st.integers(0, p.n - 1), min_size=w, max_size=w,
                                 unique=True))
        e = gf.zeros(p.n)
        e[sup] = data.draw(st.lists(st.integers(1, gf.q - 1), min_size=w, max_size=w))
        r = gf.add(cw, e)
    else:
        r = gf.asarray(data.draw(st.lists(st.integers(0, gf.q - 1), min_size=p.n,
                                          max_size=p.n)))
    dists = np.count_nonzero(book != r[None, :], axis=1)
    out = decode_exhaustive(spec, r)
    if dists.min() <= p.T:
        assert out.ok
        assert np.array_equal(out.codeword, book[np.argmin(dists)])
        assert out.codeword.dtype == r.dtype
        ev = eval_affine if spec.family == RM else eval_projective
        assert np.array_equal(ev(out.witness, m), out.codeword)
    else:
        assert not out.ok and out.failure == "BeyondRadius"


def test_scan_codes_cover_both_scan_paths(monkeypatch):
    # a block of at most _SCAN_AT_ONCE words is compared in one
    # count_nonzero call, a larger one position by position; the property
    # test above covers both only while SCAN_CODES holds blocks of each kind,
    # one of them exactly at the bound
    calls = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero",
                        lambda *a, **kw: calls.append(1) or count_nonzero(*a, **kw))
    at_once = {}
    for code in SCAN_CODES:
        spec, p, _ = scan_case(*code)
        words = _codebook(spec)[1].shape[1]
        calls.clear()
        _scan_codewords(spec, spec.gf.zeros(p.n), p.T)
        at_once[code] = bool(calls)
        assert at_once[code] == (words <= _SCAN_AT_ONCE), (code, words)
    assert set(at_once.values()) == {True, False}
    assert _codebook(scan_case(RM, 32, 1, 1)[0])[1].shape[1] == _SCAN_AT_ONCE
    assert at_once[(RM, 32, 1, 1)]


def test_exhaustive_beyond_radius_explicit():
    # [5, 2, 4] over GF(4) has T = 1; a weight-2 perturbation keeps distance
    # at least 2 from every codeword, so the decoder must report failure
    spec = spec_of(PRM, 4, 1, 1)
    gf = spec.gf
    cw, _ = encode(spec, [1, 2])
    r = cw.copy()
    r[[0, 1]] = gf.add(r[[0, 1]], gf.asarray([1, 3]))
    book = codebook(spec)
    assert int(np.count_nonzero(book != r[None, :], axis=1).min()) == 2
    out = decode_exhaustive(spec, r)
    assert not out.ok and out.failure == "BeyondRadius"


def test_exhaustive_enumeration_bound():
    spec = spec_of(PRM, 4, 2, 3)
    with pytest.raises(EnumerationBoundError):
        decode_exhaustive(spec, spec.gf.zeros(21), bound=10)


def test_exhaustive_env_bound(monkeypatch):
    monkeypatch.setenv("PRM_ENUM_BOUND", "10")
    with pytest.raises(EnumerationBoundError):
        decode_exhaustive(spec_of(PRM, 4, 2, 3), GF(2, 2).zeros(21))


def test_exhaustive_weight_one_code():
    # wt 1 means radius 0: accept codewords, reject everything else
    spec = spec_of(RM, 4, 1, 3)  # [4, 4, 1], the whole space
    out = decode_exhaustive(spec, spec.gf.asarray([0, 1, 2, 3]))
    assert out.ok
    spec = spec_of(RM, 3, 2, 3)  # [9, 8, 2], radius 0 but a proper subspace
    gf = spec.gf
    cw, _ = encode(spec, [1, 0, 2, 0, 0, 1, 0, 2])
    assert decode_exhaustive(spec, cw).ok
    bad = cw.copy()
    bad[0] = gf.add(int(bad[0]), 1)
    out = decode_exhaustive(spec, bad)
    assert not out.ok


@pytest.mark.parametrize("q,m,d", [(3, 2, 2), (4, 1, 1), (8, 1, 4), (9, 1, 5),
                                   (3, 2, 1), (8, 1, 3), (9, 1, 4)])
def test_syndrome_table_matches_per_pattern_build(q, m, d):
    # the first four take the syndrome route at T = 1; the last three have
    # T = 2, so their weight-2 syndromes sum two columns
    spec = spec_of(RM, q, m, d)
    gf, n, cap_t = spec.gf, code_params(spec).n, code_params(spec).T
    h = kernel(gf, generator_matrix(spec))
    rows = h.shape[0]
    got_h, got_powers, classes = _syndrome_table(spec)
    assert np.array_equal(got_h, h)
    assert got_powers.tolist() == [q ** i for i in range(rows)]
    assert len(classes) == cap_t
    for w, got in enumerate(classes, start=1):
        sups = list(itertools.combinations(range(n), w))
        vals = list(itertools.product(range(1, q), repeat=w))
        keys, pattern = [], []
        for si, sup in enumerate(sups):
            for vi, val in enumerate(vals):
                key = 0
                for r in range(rows):
                    s = 0
                    for i, v in zip(sup, val):
                        s = gf.add(s, gf.mul(v, int(h[r, i])))
                    key += s * q ** r
                keys.append(key)
                pattern.append((si, vi))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        want = (np.array([keys[i] for i in order], dtype=np.int64),
                np.array([pattern[i][0] for i in order], dtype=np.int32),
                np.array([pattern[i][1] for i in order], dtype=np.int32),
                np.array(sups, dtype=np.int16),
                np.array(vals, dtype=np.int16))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("q,m,d", [(3, 2, 1), (8, 1, 3), (9, 1, 4), (7, 1, 2),
                                   (5, 2, 3)])
def test_syndrome_keys_unique_across_classes(q, m, d):
    # two patterns of weight <= T with one syndrome would differ by a
    # codeword of weight <= 2T < wt, so no key repeats in or across classes;
    # RM(2,3)/GF(5) is the plane-t0 table, T = 4, of which classes 1-3 are
    # stored: 152,100 patterns
    spec = spec_of(RM, q, m, d)
    assert code_params(spec).T >= 2
    classes = _syndrome_table(spec)[2]
    keys = np.concatenate([c[0] for c in classes])
    assert len(np.unique(keys)) == len(keys)
    assert all((np.diff(c[0]) > 0).all() for c in classes)


@pytest.mark.parametrize("q,m,d", [(5, 2, 3), (7, 2, 6), (4, 3, 5)])
def test_split_syndrome_table_joins_heavy_patterns(q, m, d):
    # these tables store fewer than T classes, so a pattern heavier than the
    # stored ones is found as a join of two stored patterns; every weight up
    # to T decodes, and past T the decoder fails or lands within T
    spec = spec_of(RM, q, m, d)
    gf, p = spec.gf, code_params(spec)
    assert route_of(spec) == "syndrome"
    assert len(_syndrome_table(spec)[2]) < p.T
    rng = np.random.default_rng(q)
    for w in range(p.T + 2):
        for _ in range(6):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            r = gf.add(cw, random_error(gf, rng, p.n, w))
            out = decode_exhaustive(spec, r)
            if w <= p.T:
                assert out.ok and np.array_equal(out.codeword, cw)
            elif not out.ok:
                assert out.failure == "BeyondRadius"
                continue
            assert weight(gf.sub(r, out.codeword)) <= p.T
            assert np.array_equal(eval_affine(out.witness, m), out.codeword)


@pytest.mark.parametrize("q,m,d", [(3, 3, 2), (5, 2, 3), (7, 2, 6), (4, 3, 5),
                                   (5, 2, 4)])
def test_syndrome_table_stores_join_syndromes(q, m, d):
    # a join subtracts the syndromes of the classes 1..T-h, so those keep
    # them as rows, keys // powers % q; heavier classes keep none.  On
    # RM(3,2)/GF(3) that is the 54 x 17 rows of class 1, and PRM(2,4)/GF(5)'s
    # RM(2,4) stores every class up to T, so it joins nothing
    spec = spec_of(RM, q, m, d)
    p = code_params(spec)
    h = _stored_weights(q, p.n, p.T)
    _, powers, classes = _syndrome_table(spec)
    assert len(classes) == h
    for w, cls in enumerate(classes, start=1):
        keys, syns = cls[0], cls[5]
        if w <= p.T - h:
            assert syns.dtype == np.uint8
            assert np.array_equal(syns, keys[:, None] // powers % q)
        else:
            assert syns is None
    if (q, m, d) == (3, 3, 2):
        assert classes[0][5].shape == (54, 17)
    if (q, m, d) == (5, 2, 4):
        assert h == p.T


def route_of(spec, bound=DEFAULT_ENUM_BOUND):
    # the route decode_exhaustive takes on spec under bound
    return _exhaustive_engine(spec, bound)[0]


# the affine engines of the workload codes: solid-beyond's PRM(3,2)/GF(3)
# and plane-t0's PRM(2,4)/GF(5); the first-pass RM(3,2)/GF(3) costs 27 * 59049
# compares by scan, but 17 * (27 + 54) int64 steps, at 128 compares each, by
# syndrome, and stores 24,858 patterns, fewer than its 59,049 codewords
WORKLOAD_ROUTES = {(3, 3, 2): "syndrome", (3, 3, 1): "scan", (3, 2, 1): "scan",
                   (3, 2, 2): "syndrome", (5, 2, 4): "syndrome", (5, 2, 3): "syndrome"}


@pytest.mark.parametrize("q,m,d", sorted(WORKLOAD_ROUTES))
def test_workload_engine_routes(q, m, d):
    assert route_of(spec_of(RM, q, m, d)) == WORKLOAD_ROUTES[(q, m, d)]


def test_scan_codes_stay_on_the_scan():
    # the scan property test above covers the codeword scan only while its
    # codes take that route
    for code in SCAN_CODES:
        assert route_of(spec_of(*code)) == "scan", code


def test_route_keeps_tables_no_larger_than_the_codebook():
    # RM(1,5)/GF(16) would join far fewer symbols than its scan compares, but
    # its table would hold 1,917,240 patterns where the codebook holds
    # 2^16 + 2^8 words; plane-t0's RM(2,3)/GF(5) keeps its 152,100-pattern
    # table because fewer patterns than codewords lie within its radius
    assert _route(spec_of(RM, 16, 1, 5))[0][0] == "scan"
    assert _route(spec_of(RM, 5, 2, 3))[0][0] == "syndrome"


def test_route_weighs_lookup_steps_against_scan_steps():
    # RM(1,3)/GF(13) and RM(1,4)/GF(13) store classes 1-2 and join 11,388
    # patterns of up to 9 syndrome symbols for 4 errors: counted one for one
    # against 13 * 13^k scan compares the lookup looks cheaper, but each of
    # its int64 steps takes about 150 one-byte compares, and it runs 3-20x
    # slower than the scan; RM(3,2)/GF(3) joins 54 patterns
    assert route_of(spec_of(RM, 13, 1, 3)) == "scan"
    assert route_of(spec_of(RM, 13, 1, 4)) == "scan"
    assert route_of(spec_of(RM, 3, 3, 2)) == "syndrome"


def test_route_falls_back_within_the_bound():
    # a route runs only when its enumeration fits the bound: RM(3,2)/GF(3)
    # prefers the syndrome route, whose 305,658 patterns exceed a bound of
    # 59,049 that its codebook meets; below that neither fits
    spec = spec_of(RM, 3, 3, 2)
    gf, p = spec.gf, code_params(spec)
    assert [route[:2] for route in _route(spec)] == [("syndrome", 305658), ("scan", 59049)]
    assert route_of(spec, 305658) == "syndrome"
    assert route_of(spec, 305657) == "scan" == route_of(spec, 59049)
    rng = np.random.default_rng(4)
    cw, _ = encode(spec, rng.integers(0, 3, size=p.k))
    r = gf.add(cw, random_error(gf, rng, p.n, p.T))
    out = decode_exhaustive(spec, r, bound=59049)
    assert out.ok and np.array_equal(out.codeword, cw)
    with pytest.raises(EnumerationBoundError):
        decode_exhaustive(spec, r, bound=59048)


def test_radius_zero_enumerates_nothing(monkeypatch):
    # at radius 0 exactly the codewords decode under any bound, even one
    # that admits no enumeration at all
    spec = spec_of(RM, 3, 2, 3)  # [9, 8, 2], T = 0
    gf = spec.gf
    cw, _ = encode(spec, [1] * 8)
    bad = cw.copy()
    bad[0] = gf.add(bad[0], 1)
    for bound in (0, -1):
        assert np.array_equal(decode_exhaustive(spec, cw, bound).codeword, cw)
        assert decode_exhaustive(spec, bad, bound).failure == "BeyondRadius"
    monkeypatch.setenv("PRM_ENUM_BOUND", "-1")
    trace = []
    assert decode_prm(gf, 2, 3, gf.zeros(13), trace=trace).ok
    assert [ev["engine"] for ev in trace if ev["event"] == "affine"] == ["member", "member"]


# codes whose scan and syndrome routes both fit under the default bound
BOTH_ROUTES = [(RM, 3, 3, 2), (RM, 3, 2, 2), (RM, 4, 2, 2), (PRM, 4, 2, 2)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BOTH_ROUTES), st.booleans(), st.data())
def test_scan_and_syndrome_routes_agree(code, planted, data):
    spec = spec_of(*code)
    gf, p = spec.gf, code_params(spec)
    assert all(count <= DEFAULT_ENUM_BOUND for _, count, _ in _route(spec))
    if planted:
        msg = data.draw(st.lists(st.integers(0, gf.q - 1), min_size=p.k, max_size=p.k))
        w = data.draw(st.integers(0, p.T + 2))
        sup = data.draw(st.lists(st.integers(0, p.n - 1), min_size=w, max_size=w,
                                 unique=True))
        e = gf.zeros(p.n)
        e[sup] = data.draw(st.lists(st.integers(1, gf.q - 1), min_size=w, max_size=w))
        r = gf.add(encode(spec, msg)[0], e)
    else:
        r = gf.asarray(data.draw(st.lists(st.integers(0, gf.q - 1), min_size=p.n,
                                          max_size=p.n)))
    scan, syndrome = _scan_route(spec, r, p.T), _syndrome_route(spec, r, p.T)
    assert scan.failure == syndrome.failure
    if scan.ok:
        assert np.array_equal(scan.codeword, syndrome.codeword)
        assert np.array_equal(scan.witness, syndrome.witness)
        assert weight(gf.sub(r, scan.codeword)) <= p.T
    else:
        assert scan.failure == "BeyondRadius"


# --- Reed-Solomon (Gao's decoder) ---

def test_rs_golden_single_error():
    gf = GF(2, 2)
    spec = CodeSpec(RM, gf, 1, 1)  # [4, 2, 3]
    c = eval_affine(parse_poly(gf, "x1", 2), 1)
    assert list(c) == [1, 2, 3, 0]
    for pos in range(4):
        for delta in (1, 2, 3):
            r = c.copy()
            r[pos] = gf.add(int(r[pos]), delta)
            out = decode_rs_affine(spec, r)
            assert out.ok and np.array_equal(out.codeword, c)


def test_rs_zero_errors_identity():
    rng = np.random.default_rng(3)
    for q in (3, 4, 5, 7):
        gf = GF.from_order(q)
        for d in range(0, q - 1):
            spec = CodeSpec(RM, gf, 1, d)
            cw, f = encode(spec, rng.integers(0, q, size=d + 1))
            out = decode_rs_affine(spec, cw)
            assert out.ok and np.array_equal(out.codeword, cw) and out.witness == f


def test_rs_agrees_with_exhaustive():
    # GF(8) and GF(9) run the extension-field tables.  Random words there are
    # mostly beyond the radius, so every second one is planted within it.
    rng = np.random.default_rng(4)
    for q, d, planted in [(4, 1, False), (5, 2, False), (7, 3, False),
                          (5, 1, False), (8, 2, True), (9, 3, True)]:
        spec = spec_of(RM, q, 1, d)
        gf, p = spec.gf, code_params(spec)
        verdicts = set()
        for i in range(100):
            if planted and i % 2:
                cw, _ = encode(spec, rng.integers(0, q, size=d + 1))
                e = random_error(gf, rng, p.n, int(rng.integers(0, p.T + 1)))
                r = gf.add(cw, e)
            else:
                r = gf.asarray(rng.integers(0, q, size=p.n))
            bw = decode_rs_affine(spec, r)
            oracle = decode_exhaustive(spec, r)
            verdicts.add(bw.ok)
            assert bw.ok == oracle.ok
            if bw.ok:
                assert np.array_equal(bw.codeword, oracle.codeword)
                assert bw.witness == oracle.witness
        assert verdicts == {True, False}


def test_rs_round_trip_gf128_at_radius():
    # RM(1,63)/GF(2^7), the affine code of the projective line PRM(1,63)
    # over GF(128): at weight T = 32 the codeword comes back; one more error
    # may fail or land on another codeword, but never outside the radius
    spec = spec_of(RM, 128, 1, 63)
    gf, p = spec.gf, code_params(spec)
    assert p.T == 32
    rng = np.random.default_rng(5)
    for _ in range(3):
        cw, f = encode(spec, rng.integers(0, 128, size=64))
        out = decode_rs_affine(spec, gf.add(cw, random_error(gf, rng, p.n, p.T)))
        assert out.ok and np.array_equal(out.codeword, cw) and out.witness == f
        r = gf.add(cw, random_error(gf, rng, p.n, p.T + 1))
        out = decode_rs_affine(spec, r)
        if out.ok:
            assert weight(gf.sub(r, out.codeword)) <= p.T
            assert np.array_equal(eval_affine(out.witness, 1), out.codeword)
        else:
            assert out.failure == "BeyondRadius"


def test_rs_rejects_wrong_spec():
    with pytest.raises(ValueError):
        decode_rs_affine(spec_of(PRM, 4, 1, 1), GF(2, 2).zeros(5))
    with pytest.raises(ValueError):
        decode_rs_affine(spec_of(RM, 4, 2, 1), GF(2, 2).zeros(16))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 128, 521])
def test_line_interpolation_inverts_the_evaluation_matrix(q):
    # R = sum_a r(a)(1 - (x - a)^(q-1)) in closed form: the interpolation of
    # every unit word evaluates back to it, so the map is the inverse of the
    # RM(1, q-1) evaluation matrix
    gf = GF.from_order(q)
    v = _eval_matrix(gf, RM, 1, q - 1)[1]
    for a in range(q):
        unit = gf.zeros(q)
        unit[a] = 1
        assert np.array_equal(vec_mat(gf, _interpolate_line(gf, unit), v), unit)
    f = gf.asarray(np.random.default_rng(q).integers(0, q, size=q))
    assert np.array_equal(_interpolate_line(gf, vec_mat(gf, f, v)), f)


# the oracle runs a route only when it enumerates at most this many words
# or patterns, which keeps each of its decodes within milliseconds
ORACLE_BOUND = 2 ** 21


def oracle_fits(q, d):
    return any(count <= ORACLE_BOUND for _, count, _ in _route(spec_of(RM, q, 1, d)))


RS_CODES = [(q, d) for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27) for d in range(q - 2)
            if (q - d - 1) // 2 >= 1 and oracle_fits(q, d)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(RS_CODES), st.data())
def test_rs_matches_exhaustive_property(code, data):
    # kind, codeword and witness equal the oracle's on a uniform word or at
    # distance 0..min(T+3, n) from a random codeword, on every RM(1, d) with
    # T >= 1 over q <= 27 whose oracle fits ORACLE_BOUND.  Past T, Gao's
    # quotient meets roots where v' vanishes and quotients of degree above d,
    # on prime fields and on extension fields of both characteristics
    q, d = code
    spec = spec_of(RM, q, 1, d)
    gf, p = spec.gf, code_params(spec)
    symbols = st.integers(0, gf.q - 1)
    if data.draw(st.integers(0, 4)) == 0:
        r = gf.asarray(data.draw(st.lists(symbols, min_size=p.n, max_size=p.n)))
    else:
        msg = data.draw(st.lists(symbols, min_size=p.k, max_size=p.k))
        w = data.draw(st.integers(0, min(p.T + 3, p.n)))
        sup = data.draw(st.lists(st.integers(0, p.n - 1), min_size=w, max_size=w,
                                 unique=True))
        e = gf.zeros(p.n)
        e[sup] = data.draw(st.lists(st.integers(1, gf.q - 1), min_size=w, max_size=w))
        r = gf.add(encode(spec, msg)[0], e)
    gao, oracle = decode_rs_affine(spec, r), decode_exhaustive(spec, r, ORACLE_BOUND)
    assert gao.failure == oracle.failure
    if gao.ok:
        assert np.array_equal(gao.codeword, oracle.codeword)
        assert gao.witness == oracle.witness
        assert list(gao.witness.terms.items()) == list(oracle.witness.terms.items())


def test_rs_golden_digest_gf128():
    # 200 RM(1,63)/GF(2^7) words at weights T..T+3: the failure kinds,
    # codewords and witness terms hash to the value of the division-based
    # quotient this decoder had before it divided by evaluation
    spec = spec_of(RM, 128, 1, 63)
    gf, p = spec.gf, code_params(spec)
    rng = np.random.default_rng(63)
    digest = hashlib.sha256()
    kinds = set()
    for i in range(200):
        cw, _ = encode(spec, rng.integers(0, 128, size=p.k))
        out = decode_rs_affine(spec, gf.add(cw, random_error(gf, rng, p.n, p.T + i % 4)))
        kinds.add(out.failure)
        digest.update(repr(out.failure).encode())
        if out.ok:
            digest.update(out.codeword.astype("<i4").tobytes())
            digest.update(repr([(e, int(c)) for e, c in out.witness.terms.items()]).encode())
    assert kinds == {None, "BeyondRadius"}
    assert digest.hexdigest() == (
        "35a2c59aa66c9147982e2ddd9f12d08fbc932075b71a2c7e238c64ca11f02b04")


def test_rs_golden_digest_odd_fields():
    # 150 RM(1,8)/GF(3^3) and 150 RM(1,1)/GF(5) words at weights T..T+2,
    # where Gao's Euclid steps subtract through gf.sub, not by XOR: the
    # failure kinds, codewords and witness terms hash to the value of the
    # decoder whose Euclid kept remainder and cofactor as rows of one array
    digest = hashlib.sha256()
    kinds = set()
    for q, d, seed in ((27, 8, 27), (5, 1, 5)):
        spec = spec_of(RM, q, 1, d)
        gf, p = spec.gf, code_params(spec)
        rng = np.random.default_rng(seed)
        for i in range(150):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            out = decode_rs_affine(spec, gf.add(cw, random_error(gf, rng, p.n, p.T + i % 3)))
            kinds.add((q, out.failure))
            digest.update(repr(out.failure).encode())
            if out.ok:
                digest.update(out.codeword.astype("<i4").tobytes())
                digest.update(repr([(e, int(c)) for e, c in out.witness.terms.items()]).encode())
    assert kinds == {(q, kind) for q in (27, 5) for kind in (None, "BeyondRadius")}
    assert digest.hexdigest() == (
        "25fd3602a2fa9980136169f7079238838929046c14bb4cbcbe042f10f2b4c4ec")


def _digest_value(x):
    # a trace or result field as bytes that pin it exactly: a Poly by its
    # terms in order, an array by its values and dtype
    if isinstance(x, Poly):
        return repr([(e, int(c)) for e, c in x.terms.items()]).encode()
    if isinstance(x, np.ndarray):
        return x.dtype.str.encode() + x.tobytes()
    return repr(x).encode()


def test_prm_golden_digest_workload_codes():
    # the benchmark's m >= 2 codes: 200 PRM(2,4)/GF(5) words at T0 through
    # decode_prm and 200 PRM(3,2)/GF(3) words at T through decode_prm_robust;
    # results and trace events, engine names included, hash to the value
    # these decoders had before the received word was validated only at the
    # entry
    digest = hashlib.sha256()
    for q, m, d, decode, radius in ((5, 2, 4, decode_prm, "T0"),
                                    (3, 3, 2, decode_prm_robust, "T")):
        spec = spec_of(PRM, q, m, d)
        gf, p = spec.gf, code_params(spec)
        rng = np.random.default_rng(q * 100 + m * 10 + d)
        for _ in range(200):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            trace = []
            out = decode(gf, m, d, gf.add(cw, random_error(gf, rng, p.n, getattr(p, radius))),
                         trace=trace)
            digest.update(_digest_value(out.failure))
            if out.ok:
                digest.update(_digest_value(out.codeword))
                digest.update(_digest_value(out.witness))
            for ev in trace:
                for key, value in ev.items():
                    digest.update(key.encode())
                    digest.update(_digest_value(value))
    assert digest.hexdigest() == (
        "3fa254f0c148eb0e7dc7afccea5d43f9dc64e55c712666d8a16f293aed3e3832")


def _poly_witnesses(spec, r):
    # a registered engine: the default's result, its witness as a Poly
    out = AffineDecoders().decode(spec, r)
    return out if not out.ok else DecodeResult.success(out.codeword, out.witness)


# (spec, bounds) of the bound ladder below: each bound just under, at and
# over every route's enumeration (none past 2^24 where a route would build
# a table or codebook that large)
BOUND_LADDER = [((RM, 3, 3, 2), (0, 59048, 59049, 305657, 305658, DEFAULT_ENUM_BOUND)),
                ((RM, 5, 2, 3), (0, 3390499, 3390500, 9765624, 9765625)),
                ((RM, 13, 1, 3), (0, 28560, 28561, 15331835, 15331836)),
                ((RM, 7, 2, 3), (0, 1, DEFAULT_ENUM_BOUND, 282475248))]


def test_prm_golden_digest_registry_kinds(monkeypatch):
    # results and trace events under the three kinds of registry (the
    # default, exhaustive_decoders() and a registered engine returning Poly
    # witnesses) on four PRM codes at weights 0..T+1, then decode_exhaustive
    # over a bound ladder: each EnumerationBoundError message, or the result
    # of a word with T errors; the value was computed before the affine
    # engine choice was made in one place
    monkeypatch.delenv("PRM_ENUM_BOUND", raising=False)
    registered = AffineDecoders(default=_poly_witnesses).register(1, 1, _poly_witnesses)
    digest = hashlib.sha256()
    engines, raised = set(), 0
    for q, m, d in ((5, 2, 4), (3, 3, 2), (3, 2, 3), (5, 1, 2)):
        spec = spec_of(PRM, q, m, d)
        gf, p = spec.gf, code_params(spec)
        for kind, decoders in (("default", None), ("exhaustive", exhaustive_decoders()),
                               ("registered", registered)):
            rng = np.random.default_rng(q * 100 + m * 10 + d)
            for i in range(24):
                cw, _ = encode(spec, rng.integers(0, q, size=p.k))
                r = gf.add(cw, random_error(gf, rng, p.n, i % (p.T + 2)))
                for decode in (decode_prm, decode_prm_robust):
                    trace = []
                    out = decode(gf, m, d, r, decoders=decoders, trace=trace)
                    digest.update(kind.encode() + _digest_value(out.failure))
                    if out.ok:
                        digest.update(_digest_value(out.codeword))
                        digest.update(_digest_value(out.witness))
                    for ev in trace:
                        engines.add(ev.get("engine"))
                        for key, value in ev.items():
                            digest.update(key.encode())
                            digest.update(_digest_value(value))
    for code, bounds in BOUND_LADDER:
        spec = spec_of(*code)
        gf, p = spec.gf, code_params(spec)
        rng = np.random.default_rng(p.n)
        cw, _ = encode(spec, rng.integers(0, gf.q, size=p.k))
        r = gf.add(cw, random_error(gf, rng, p.n, p.T))
        for bound in bounds:
            try:
                out = decode_exhaustive(spec, r, bound)
            except EnumerationBoundError as exc:
                raised += 1
                digest.update(str(exc).encode())
                continue
            digest.update(_digest_value(out.failure))
            digest.update(_digest_value(out.codeword))
            digest.update(_digest_value(out.witness))
    assert engines == {None, "scan", "syndrome", "rs", "member", "registered"}
    assert raised == 10
    assert digest.hexdigest() == (
        "82f28f413800947dc62ab118acdeca96a08653194ef6810e02a92771fe725d1c")


def test_prm_line_reaches_gf521_at_t0():
    # PRM(1,260)/GF(521), n = 522, at its full radius T0 = 130: Gao's decoder
    # needs no linear solve, so this is a cheap decode
    gf = GF(521)
    spec = CodeSpec(PRM, gf, 1, 260)
    p = code_params(spec)
    assert p.T0 == 130
    rng = np.random.default_rng(11)
    cw, f = encode(spec, rng.integers(0, 521, size=p.k))
    out = decode_prm(gf, 1, 260, gf.add(cw, random_error(gf, rng, p.n, p.T0)))
    assert out.ok and np.array_equal(out.codeword, cw) and out.witness == f


def test_returned_codeword_is_a_fresh_array_per_read():
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 2)
    cw, _ = encode(spec, [1, 0, 2, 1, 0, 0])
    for out in (decode_prm(gf, 2, 2, cw), decode_prm_robust(gf, 2, 2, cw),
                decode_exhaustive(spec, cw)):
        first = out.codeword
        assert first.dtype == DTYPE and np.array_equal(first, cw)
        first[:] = 0
        again = out.codeword
        assert again is not first and np.array_equal(again, cw)


def test_returned_witness_is_built_fresh_in_todays_form():
    gf = GF(2, 7)
    line, chart = CodeSpec(PRM, gf, 1, 63), CodeSpec(RM, gf, 1, 63)
    plane = CodeSpec(RM, GF(5), 2, 3)
    for spec, decode in [(line, lambda r: decode_prm(gf, 1, 63, r)),
                         (chart, lambda r: decode_rs_affine(chart, r)),
                         (plane, lambda r: decode_exhaustive(plane, r))]:
        p = code_params(spec)
        rng = np.random.default_rng(2)
        cw, _ = encode(spec, rng.integers(0, spec.gf.q, size=p.k))
        out = decode(spec.gf.add(cw, random_error(spec.gf, rng, p.n, p.T)))
        assert out.ok and np.array_equal(out.codeword, cw)
        w = out.witness
        ref = interpolate(spec, out.codeword)
        assert w == ref and hash(w) == hash(ref)
        assert str(w) == str(ref) and list(w.terms.items()) == list(ref.terms.items())
        # each read is a fresh Poly, so changing one leaves the result as it was
        again = out.witness
        assert again is not w and again == w
        mon = next(iter(w.terms))
        w.terms[mon] = spec.gf.add(w.terms[mon], 1)
        assert out.witness == ref and hash(out.witness) == hash(ref)
        assert out == decode(cw) and hash(out) == hash(decode(cw))


def test_returned_results_compare_by_content():
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 2)
    cw, _ = encode(spec, [1, 0, 2, 1, 0, 0])
    other, _ = encode(spec, [0, 1, 2, 1, 0, 0])
    a, b = decode_prm(gf, 2, 2, cw), decode_prm_robust(gf, 2, 2, cw)
    assert a is not b and a == b and hash(a) == hash(b)
    a.witness.terms.clear()  # a read witness takes no part in == or hash
    assert a == b and hash(a) == hash(b)
    assert a != decode_prm(gf, 2, 2, other)
    assert a != DecodeResult.fail("BeyondRadius")
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and np.array_equal(copy.codeword, cw) and copy.witness == a.witness
    assert repr(a).startswith("DecodeResult(codeword=array(")
    # a registered engine's result comes back as it was made
    made = DecodeResult.success(cw, a.witness)
    reg = AffineDecoders().register(2, 2, lambda spec, r: made)
    assert reg.decode(CodeSpec(RM, gf, 2, 2), gf.zeros(9)) is made


def test_unpacked_results_compare_by_value():
    # results made by `success`, as registered engines make them, compare
    # their codeword arrays by value and hash alike when equal
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 2)
    cw, f = encode(spec, [1, 0, 2, 1, 0, 0])
    other, g = encode(spec, [0, 1, 2, 1, 0, 0])
    a, b = DecodeResult.success(cw.copy(), f), DecodeResult.success(cw.copy(), f)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != DecodeResult.success(other, f)
    assert a != DecodeResult.success(cw.copy(), g)
    assert a != DecodeResult.success(cw[:-1].copy(), f)
    fail = DecodeResult.fail("BeyondRadius")
    assert a != fail and fail != a and hash(fail) == hash(DecodeResult(None, None, "BeyondRadius"))
    assert a != decode_prm(gf, 2, 2, cw)  # a packed result equals only packed ones
    # the recursion's results hold vector witnesses and compare the same way
    v = DecodeResult.success(cw.copy(), gf.asarray([1, 2]))
    assert v == DecodeResult.success(cw.copy(), gf.asarray([1, 2]))
    assert hash(v) == hash(DecodeResult.success(cw.copy(), gf.asarray([1, 2])))
    assert v != DecodeResult.success(cw.copy(), gf.asarray([1, 0]))


@pytest.mark.parametrize("q", [5, 251, 257, 65521])
def test_packed_witness_takes_one_or_two_bytes_an_element(q):
    # a packed success keeps its witness vector one byte an element up to
    # q = 256 and two above, so an entry q - 1 survives on either side
    gf = GF.from_order(q)
    mons, g = _eval_matrix(gf, RM, 1, 3)
    vec = gf.asarray([q - 1, 0, 1, q - 2])
    cw = vec_mat(gf, vec, g)
    out = _pack(DecodeResult.success(cw, vec), gf, RM, 1, 3)
    assert out.witness == Poly(gf, 2, zip(mons, vec.tolist()))
    assert np.array_equal(out.codeword, cw)
    assert pickle.loads(pickle.dumps(out)) == out
    assert len(out._packed) == len(vec) * (1 if q <= 256 else 2)


def test_packed_success_is_no_larger_than_a_failure():
    # a packed success keeps its code key and bytes in the codeword and
    # witness slots it inherits, so it adds no slot of its own, and still
    # pickles, compares and hashes by its code and bytes
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 3, 2)
    p = code_params(spec)
    rng = np.random.default_rng(3)
    cw, f = encode(spec, rng.integers(0, 3, size=p.k))
    out = decode_prm_robust(gf, 3, 2, cw)
    assert type(out) is not DecodeResult and out.ok
    assert sys.getsizeof(out) <= sys.getsizeof(DecodeResult(None, None, "x"))
    assert np.array_equal(out.codeword, cw) and out.witness == f
    assert out.failure is None and out.codeword.dtype == DTYPE
    copy = pickle.loads(pickle.dumps(out))
    assert type(copy) is type(out) and copy == out and hash(copy) == hash(out)
    assert np.array_equal(copy.codeword, cw) and copy.witness == f
    assert out == decode_prm(gf, 3, 2, cw) and hash(out) == hash(decode_prm(gf, 3, 2, cw))
    other, _ = encode(spec, rng.integers(0, 3, size=p.k))
    assert out != decode_prm(gf, 3, 2, other)
    assert out != DecodeResult.success(cw, f)


def test_kept_line_results_stay_small():
    # 1000 kept PRM(1,63)/GF(128) results, each a 64-coefficient witness
    # vector of one byte an element; a result's size does not depend on the
    # errors, so codewords keep the decodes cheap
    gf = GF(2, 7)
    spec = CodeSpec(PRM, gf, 1, 63)
    p = code_params(spec)
    rng = np.random.default_rng(9)
    words = [encode(spec, rng.integers(0, 128, size=p.k))[0] for _ in range(20)]
    decode_prm(gf, 1, 63, words[0])
    tracemalloc.start()
    try:
        kept = [decode_prm(gf, 1, 63, words[i % 20]) for i in range(1000)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(out.ok for out in kept)
    assert held < 400_000


def test_failures_are_shared_per_kind():
    beyond = DecodeResult.fail("BeyondRadius")
    assert beyond is DecodeResult.fail("BeyondRadius")
    assert beyond is not DecodeResult.fail("NotInCode")
    assert beyond == DecodeResult(None, None, "BeyondRadius")
    assert beyond != DecodeResult.fail("NotInCode")
    assert not beyond.ok and beyond.codeword is None and beyond.witness is None
    assert DecodeResult.success(np.zeros(2), None).ok
    # decodes return the shared instance
    gf = GF(3)
    far = gf.asarray([1, 2] * 20)
    outs = [decode_prm_robust(gf, 3, 2, far) for _ in range(2)]
    assert not outs[0].ok and outs[0] is outs[1] is DecodeResult.fail(outs[0].failure)


# --- the registry ---

def test_registry_dispatch_and_override():
    calls = []

    def spy(spec, r):
        calls.append((spec.m, spec.d))
        return decode_exhaustive(spec, r)

    gf = GF(3)
    decoders = AffineDecoders().register(2, 2, spy)
    spec = CodeSpec(PRM, gf, 2, 2)
    cw, _ = encode(spec, [1, 0, 2, 1, 0, 0])
    out = decode_prm(gf, 2, 2, cw, decoders=decoders)
    assert out.ok and (2, 2) in calls


def test_registry_rejects_witness_outside_the_basis():
    # the contract asks for a reduced witness of degree <= d; x1^3 over GF(3)
    # evaluates like x1 on the chart but is no basis monomial, so the
    # recursion refuses it instead of carrying it along
    gf = GF(3)

    def unreduced(spec, r):
        out = decode_exhaustive(spec, r)
        x1 = Poly.monomial(gf, (0, 1, 0))
        return DecodeResult.success(out.codeword, out.witness - x1 + x1 * x1 * x1)

    spec = CodeSpec(PRM, gf, 2, 2)
    cw, _ = encode(spec, [1, 0, 2, 1, 0, 0])
    with pytest.raises(ValueError, match="not a reduced monomial"):
        decode_prm(gf, 2, 2, cw, decoders=AffineDecoders().register(2, 2, unreduced))


def test_entry_checks_only_assembled_results():
    # a first-branch accept is its own witness evaluated, so a registered
    # engine's codeword cannot spoil it; a result the second branch
    # assembles from a registered (m, d-1) engine is checked at the entry,
    # and a codeword that disagrees with that engine's witness raises
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 2)
    cw, f = encode(spec, [1, 0, 2, 1, 0, 0])

    def refuse(spec, r):
        return DecodeResult.fail("BeyondRadius")

    def shifted(spec, r):
        out = decode_exhaustive(spec, r)
        return DecodeResult.success(gf.add(out.codeword, 1), out.witness)

    for decoders in (AffineDecoders().register(2, 2, shifted),
                     AffineDecoders().register(2, 2, refuse)):
        out = decode_prm(gf, 2, 2, cw, decoders=decoders)
        assert out == decode_prm(gf, 2, 2, cw) and out.witness == f
    lying = AffineDecoders().register(2, 2, refuse).register(2, 1, shifted)
    with pytest.raises(AssertionError, match="does not evaluate to the codeword"):
        decode_prm(gf, 2, 2, cw, decoders=lying)


def test_exhaustive_registry_forces_oracle():
    # with the forced registry, the m = 1 path also goes through the oracle;
    # results agree with the default Reed-Solomon route
    gf = GF(2, 2)
    rng = np.random.default_rng(5)
    spec = CodeSpec(PRM, gf, 2, 3)
    p = code_params(spec)
    for _ in range(10):
        cw, _ = encode(spec, rng.integers(0, 4, size=p.k))
        r = gf.add(cw, random_error(gf, rng, p.n, 2))
        a = decode_prm(gf, 2, 3, r)
        b = decode_prm(gf, 2, 3, r, decoders=exhaustive_decoders())
        assert a.ok and b.ok
        assert np.array_equal(a.codeword, b.codeword)


# --- projective Reed-Solomon ---

def test_prs_corrects_within_radius_exhaustively():
    for q in (3, 4, 5):
        gf = GF.from_order(q)
        rng = np.random.default_rng(q)
        for d in range(1, q):
            spec = CodeSpec(PRM, gf, 1, d)
            p = code_params(spec)
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            for w in range(0, p.T + 1):
                for sup in itertools.combinations(range(p.n), w):
                    for vals in itertools.product(range(1, q), repeat=w):
                        r = cw.copy()
                        r[list(sup)] = gf.add(r[list(sup)], gf.asarray(vals))
                        out = decode_prm_robust(gf, 1, d, r)
                        assert out.ok and np.array_equal(out.codeword, cw)
                        assert np.array_equal(eval_projective(out.witness, 1), cw)


def test_prs_last_coordinate_error_uses_first_branch():
    gf = GF(5)
    spec = CodeSpec(PRM, gf, 1, 2)  # [6, 3, 4], radius 1
    cw, _ = encode(spec, [1, 2, 3])
    r = cw.copy()
    r[5] = gf.add(int(r[5]), 4)
    out = decode_prm_robust(gf, 1, 2, r)
    assert out.ok and np.array_equal(out.codeword, cw)


def test_prs_second_branch_covers_first_branch_outage():
    # the first branch needs the chart decoder at degree d; refuse it and the
    # last coordinate (error-free by the radius argument) still drives the
    # degree d-1 pass to the same answer
    gf = GF(5)
    refuse_chart = AffineDecoders().register(
        1, 2, lambda spec, r: DecodeResult.fail("BeyondRadius"))
    spec = CodeSpec(PRM, gf, 1, 2)
    rng = np.random.default_rng(6)
    for _ in range(20):
        cw, _ = encode(spec, rng.integers(0, 5, size=3))
        e = gf.zeros(6)
        e[rng.integers(0, 5)] = rng.integers(1, 5)  # never the last coordinate
        out = decode_prm_robust(gf, 1, 2, gf.add(cw, e), decoders=refuse_chart)
        assert out.ok and np.array_equal(out.codeword, cw)


def test_prs_membership_base_when_radius_zero():
    # d = q - 1 gives wt 2: the chart code has wt 1, so branch one must reject
    # non-codewords by membership rather than invent corrections
    gf = GF(5)
    spec = CodeSpec(PRM, gf, 1, 4)
    cw, _ = encode(spec, [1, 0, 0, 2, 3])
    out = decode_prm_robust(gf, 1, 4, cw)
    assert out.ok and np.array_equal(out.codeword, cw)


def test_prs_validates_input():
    gf = GF(5)
    with pytest.raises(ValueError):
        decode_prm_robust(gf, 1, 0, gf.zeros(6))
    with pytest.raises(ValueError):
        decode_prm_robust(gf, 1, 2, gf.zeros(5))


# --- recursive projective decoding, strict variant ---

def test_prm_zero_error_identity_grid():
    rng = np.random.default_rng(7)
    for q, m in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        gf = GF.from_order(q)
        for d in range(1, m * (q - 1) + 1):
            spec = CodeSpec(PRM, gf, m, d)
            p = code_params(spec)
            cw, f = encode(spec, rng.integers(0, q, size=p.k))
            out = decode_prm(gf, m, d, cw)
            assert out.ok and np.array_equal(out.codeword, cw)
            assert np.array_equal(eval_projective(out.witness, m), cw)


def test_prm_within_guarantee_with_oracle():
    rng = np.random.default_rng(8)
    for q in (3, 4, 5):
        gf = GF.from_order(q)
        for d in range(1, 2 * (q - 1) + 1):
            spec = CodeSpec(PRM, gf, 2, d)
            p = code_params(spec)
            for w in range(0, p.T0 + 1):
                for _ in range(12):
                    cw, _ = encode(spec, rng.integers(0, q, size=p.k))
                    r = gf.add(cw, random_error(gf, rng, p.n, w))
                    out = decode_prm(gf, 2, d, r)
                    assert out.ok and np.array_equal(out.codeword, cw), (q, d, w)
                    try:
                        oracle = decode_exhaustive(spec, r, bound=2 ** 22)
                    except EnumerationBoundError:
                        continue
                    assert oracle.ok
                    assert np.array_equal(oracle.codeword, cw)


def test_prm_golden_walkthrough_gf3():
    # error-free decode of the form whose chart restriction collapses
    # monomials; every intermediate is pinned
    gf = GF(3)
    f = parse_poly(gf, "x0^2*x1+2*x1^3+x1^2*x2+x0*x2^2+x2^3", 3)
    c = eval_projective(f, 2)
    assert list(c) == [0, 2, 0, 2, 2, 0, 0, 0, 0, 1, 0, 2, 1]
    trace = []
    out = decode_prm(gf, 2, 3, c, trace=trace)
    assert out.ok and np.array_equal(out.codeword, c)
    assert str(out.witness) == "x0^2*x1+x0*x2^2+2*x1^3+x1^2*x2+x2^3"
    split = next(ev for ev in trace if ev["event"] == "split")
    assert str(split["bad"]) == "x2"
    assert str(split["good_top"]) == "x1^2*x2"
    assert str(split["good_low"]) == "x2^2"
    assert list(eval_projective(split["good_top"], 1)) == [1, 2, 0, 0]
    residue = next(ev for ev in trace if ev["event"] == "residue")
    assert str(residue["f_sub"]) == "2*x1+x2"
    assert str(residue["g0"]) == "x2^2+x1"
    accept = next(ev for ev in trace if ev["event"] == "accept")
    assert accept["part"] == "first"


def test_prm_strict_inconsistent_base():
    # two tail errors overwhelm the weight-1 tail code and the strict decoder
    # reports the broken base interpolation instead of guessing
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 4)  # wt 2, tail code PRS_4(1) needs exactness
    cw, _ = encode(spec, [0] * code_params(spec).k)
    r = cw.copy()
    r[0] = 1
    out = decode_prm(gf, 2, 4, r)
    assert not out.ok and out.failure in ("Inconsistent", "BeyondRadius")


def test_prm_input_validation():
    gf = GF(3)
    with pytest.raises(ValueError):
        decode_prm(gf, 2, 0, gf.zeros(13))
    with pytest.raises(ValueError):
        decode_prm(gf, 2, 5, gf.zeros(13))
    with pytest.raises(ValueError):
        decode_prm(gf, 2, 2, gf.zeros(12))


def test_public_entries_reject_out_of_range_symbols():
    # the recursion trusts the arrays it builds, so every public entry checks
    # the symbols it is given: a negative one and one >= q raise ValueError
    gf = GF(5)
    prm, rm2, rm1 = CodeSpec(PRM, gf, 2, 4), CodeSpec(RM, gf, 2, 2), CodeSpec(RM, gf, 1, 2)
    calls = [
        (31, lambda r: decode_prm(gf, 2, 4, r)),
        (31, lambda r: decode_prm_robust(gf, 2, 4, r)),
        (25, lambda r: decode_exhaustive(rm2, r)),
        (5, lambda r: decode_rs_affine(rm1, r)),
        (25, lambda r: AffineDecoders().decode(rm2, r)),
        (5, lambda r: AffineDecoders().decode(rm1, r)),
        (25, lambda r: exhaustive_decoders().decode(rm2, r)),
        (31, lambda r: interpolate(prm, r)),
        (25, lambda r: interpolate_family(gf, RM, 2, 2, r)),
        (code_params(prm).k, lambda r: encode(prm, r)),
        (6, lambda r: replicate_scaled(gf, r, 4)),
    ]
    for n, call in calls:
        call([0] * n)
        for bad in (-1, gf.q):
            for word in ([0] * (n - 1) + [bad], np.array([bad] + [0] * (n - 1))):
                with pytest.raises(ValueError, match="out of range"):
                    call(word)


def test_decode_prm_checks_the_word_once(monkeypatch):
    # a PRM(2,4)/GF(5) word whose first branch is rejected, so both branches,
    # the base case and the tail's replication run on the checked word
    gf = GF(5)
    cw, _ = encode(CodeSpec(PRM, gf, 2, 4), [1] * 15)
    r = cw.copy()
    r[:3] = gf.add(r[:3], 1)
    trace = []
    assert np.array_equal(decode_prm(gf, 2, 4, r, trace=trace).codeword, cw)
    assert [ev["event"] for ev in trace] == ["affine", "reject", "base", "tail",
                                             "affine", "accept"]
    calls = []
    checked = GF.asarray

    def counted(self, values):
        calls.append(values)
        return checked(self, values)

    monkeypatch.setattr(GF, "asarray", counted)
    assert np.array_equal(decode_prm(gf, 2, 4, r).codeword, cw)
    assert len(calls) == 1 and calls[0] is r


# --- recursive projective decoding, robust variant ---

def test_robust_full_walkthrough_gf4():
    gf = GF(2, 2)
    r = gf.asarray(EX_R)
    trace = []
    out = decode_prm_robust(gf, 2, 3, r, trace=trace)
    assert out.ok
    assert list(out.codeword) == EX_C
    assert str(out.witness) == "x0^3+x1^3+x2^3"
    first = next(ev for ev in trace
                 if ev["event"] == "affine" and ev.get("part") == "first")
    assert first["ok"] is False            # three errors exceed [16,10,4]
    tail = next(ev for ev in trace if ev["event"] == "tail")
    assert list(tail["v"]) == [0, 0, 0, 1, 1]
    assert str(tail["g"]) == "x1^3+x2^3"
    second = next(ev for ev in trace
                  if ev["event"] == "affine" and ev.get("part") == "second")
    assert list(second["u"]) == [1] * 16
    assert str(second["f_low"]) == "1"
    accept = next(ev for ev in trace if ev["event"] == "accept")
    assert accept["part"] == "second"


def test_robust_agrees_with_strict_within_guarantee():
    rng = np.random.default_rng(9)
    for q, m, d in [(3, 2, 2), (3, 2, 3), (4, 2, 3), (4, 2, 4), (5, 2, 3)]:
        gf = GF.from_order(q)
        spec = CodeSpec(PRM, gf, m, d)
        p = code_params(spec)
        for w in range(0, p.T0 + 1):
            for _ in range(8):
                cw, _ = encode(spec, rng.integers(0, q, size=p.k))
                r = gf.add(cw, random_error(gf, rng, p.n, w))
                a = decode_prm(gf, m, d, r)
                b = decode_prm_robust(gf, m, d, r)
                assert a.ok and b.ok
                assert np.array_equal(a.codeword, b.codeword)


def test_robust_clean_tail_patterns_beyond_strict_radius():
    # weight T = 3 > T0 errors confined to the chart block: the sufficient
    # pattern condition accepts them and the robust decoder delivers
    gf = GF(2, 2)
    spec = CodeSpec(PRM, gf, 2, 3)
    rng = np.random.default_rng(10)
    p = code_params(spec)
    hits = 0
    for _ in range(60):
        cw, _ = encode(spec, rng.integers(0, 4, size=p.k))
        e = gf.zeros(p.n)
        sup = rng.choice(16, size=3, replace=False)  # chart block only
        e[sup] = rng.integers(1, 4, size=3)
        assert check_error_pattern(gf, 2, 3, e)
        out = decode_prm_robust(gf, 2, 3, gf.add(cw, e))
        assert out.ok and np.array_equal(out.codeword, cw)
        hits += 1
    assert hits == 60


def test_check_error_pattern_goldens():
    gf = GF(2, 2)
    e = gf.zeros(21)
    e[[0, 1, 5]] = [2, 3, 1]
    assert check_error_pattern(gf, 2, 3, e)     # the worked example's pattern
    assert check_error_pattern(gf, 2, 3, gf.zeros(21))
    # too heavy overall
    heavy = gf.zeros(21)
    heavy[[0, 1, 2, 3]] = 1
    assert not check_error_pattern(gf, 2, 3, heavy)
    # weight 3 with one error in the tail fails every block condition
    split = gf.zeros(21)
    split[[0, 1, 17]] = [1, 1, 1]
    assert not check_error_pattern(gf, 2, 3, split)
    with pytest.raises(ValueError):
        check_error_pattern(gf, 2, 3, gf.zeros(20))


def test_trace_top_level_affine_calls_bounded():
    # one invocation consults the top-level affine decoder at most twice
    rng = np.random.default_rng(11)
    for q, m, d in [(3, 2, 3), (4, 2, 3), (4, 2, 5), (5, 2, 4)]:
        gf = GF.from_order(q)
        spec = CodeSpec(PRM, gf, m, d)
        p = code_params(spec)
        for w in range(0, p.T0 + 1):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            r = gf.add(cw, random_error(gf, rng, p.n, w))
            trace = []
            out = decode_prm(gf, m, d, r, trace=trace)
            assert out.ok
            top = [ev for ev in trace if ev["event"] == "affine" and ev["m"] == m]
            assert len(top) <= 2


def test_trace_names_each_affine_engine():
    # solid-beyond's PRM(3,2)/GF(3): the syndrome route at RM(3,2) and
    # RM(2,2), the scan at RM(3,1) and RM(2,1); PRM(2,3)/GF(3) meets RM(2,3)
    # and, past its split, RM(1,1), both of radius 0; the line PRM(1,2)/GF(5)
    # runs Gao's decoder
    def engines(gf, m, d, *words, **kw):
        trace = []
        for r in words:
            decode_prm_robust(gf, m, d, r, trace=trace, **kw)
        return {(ev["m"], ev["d"]): ev["engine"] for ev in trace if ev["event"] == "affine"}

    gf = GF(3)
    spec = CodeSpec(PRM, gf, 3, 2)
    rng = np.random.default_rng(5)
    far = [gf.add(encode(spec, rng.integers(0, 3, size=10))[0],
                  random_error(gf, rng, 40, 8)) for _ in range(20)]
    assert engines(gf, 3, 2, *far) == {(3, 2): "syndrome", (3, 1): "scan",
                                       (2, 2): "syndrome", (2, 1): "scan"}
    assert engines(gf, 2, 3, gf.zeros(13)) == {(2, 3): "member", (1, 1): "member"}
    gf5 = GF(5)
    assert engines(gf5, 1, 2, gf5.zeros(6)) == {(1, 2): "rs"}
    assert engines(gf5, 1, 2, gf5.zeros(6),
                   decoders=exhaustive_decoders()) == {(1, 2): "syndrome"}
    spy = AffineDecoders().register(2, 1, lambda spec, r: decode_exhaustive(spec, r))
    assert engines(gf, 3, 2, *far, decoders=spy)[(2, 1)] == "registered"


def test_trace_names_the_engine_that_ran(monkeypatch):
    # under a bound of 100,000 solid-beyond's RM(3,2)/GF(3) cannot use its
    # 305,658-pattern syndrome route, so it scans and its events say so;
    # RM(2,2)/GF(3) keeps its 18-pattern lookup
    from prmcodes import decoders
    built = {"scan": set(), "syndrome": set()}
    for route, name in (("scan", "_codebook"), ("syndrome", "_syndrome_table")):
        def spy(spec, _route=route, _table=getattr(decoders, name)):
            built[_route].add((spec.m, spec.d))
            return _table(spec)
        monkeypatch.setattr(decoders, name, spy)
    monkeypatch.setenv("PRM_ENUM_BOUND", "100000")
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 3, 2)
    rng = np.random.default_rng(5)
    traced = set()
    for _ in range(20):
        trace = []
        r = gf.add(encode(spec, rng.integers(0, 3, size=10))[0],
                   random_error(gf, rng, 40, 8))
        decode_prm_robust(gf, 3, 2, r, trace=trace)
        traced |= {(ev["m"], ev["d"], ev["engine"]) for ev in trace
                   if ev["event"] == "affine"}
    assert traced == {(3, 2, "scan"), (3, 1, "scan"), (2, 2, "syndrome"), (2, 1, "scan")}
    assert built == {"scan": {(3, 2), (3, 1), (2, 1)}, "syndrome": {(2, 2)}}
    # a library engine registered by name traces as itself, any other
    # callable as registered
    gf5, trace = GF(5), []
    rs_line = exhaustive_decoders().register(1, 2, decode_rs_affine)
    decode_prm(gf5, 1, 2, gf5.zeros(6), decoders=rs_line, trace=trace)
    assert [ev.get("engine") for ev in trace] == ["rs", None]
    trace = []
    wrapped = AffineDecoders().register(1, 2, lambda spec, r: decode_exhaustive(spec, r))
    decode_prm(gf5, 1, 2, gf5.zeros(6), decoders=wrapped, trace=trace)
    assert [ev.get("engine") for ev in trace] == ["registered", None]


def test_witness_always_evaluates_to_codeword():
    # strict mode is exercised at m = 2 where its no-failure guarantee holds;
    # at m = 3 a wrong in-radius affine answer can reach an unsolvable base
    # interpolation, which strict reports as Inconsistent by design, so the
    # deeper configuration runs the robust variant only
    rng = np.random.default_rng(12)
    grid = [(3, 2, 3, (decode_prm, decode_prm_robust)),
            (4, 2, 3, (decode_prm, decode_prm_robust)),
            (3, 3, 4, (decode_prm_robust,))]
    for q, m, d, decs in grid:
        gf = GF.from_order(q)
        spec = CodeSpec(PRM, gf, m, d)
        p = code_params(spec)
        for w in range(0, p.T0 + 1):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            r = gf.add(cw, random_error(gf, rng, p.n, w))
            for dec in decs:
                out = dec(gf, m, d, r)
                assert out.ok
                assert np.array_equal(eval_projective(out.witness, m), out.codeword)


def test_strict_base_violation_reported_at_depth():
    # the concrete m = 3 aliasing case: two chart errors within T0 alias the
    # distance-3 affine code to a wrong nearby codeword, the polluted inner
    # recursion hits an unsolvable base system, strict surfaces Inconsistent
    # while robust falls through to the tail branch and recovers
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 3, 4)
    rng = np.random.default_rng(12)
    found = None
    for _ in range(200):
        cw, _ = encode(spec, rng.integers(0, 3, size=code_params(spec).k))
        r = gf.add(cw, random_error(gf, rng, 40, 2))
        a = decode_prm(gf, 3, 4, r)
        b = decode_prm_robust(gf, 3, 4, r)
        assert b.ok and np.array_equal(b.codeword, cw)
        if not a.ok:
            assert a.failure == "Inconsistent"
            found = r
    assert found is not None


def test_weight_helper():
    assert weight([0, 0, 0]) == 0
    assert weight(np.array([1, 0, 2])) == 2
