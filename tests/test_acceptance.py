"""Acceptance gate: ten criteria, one test each, run in file order.

Each test prints a single CRITERION line (visible with -s or on failure) and
enforces the runtime budget where one applies.  Criterion 10 reuses the
per-invocation instrumentation collected while criterion 5 runs its trials.
"""

import itertools
import time

import numpy as np

from prmcodes import linalg
from prmcodes.cli import main
from prmcodes.codes import (PRM, RM, CodeSpec, code_params, encode, eta,
                            generator_matrix, rm_weight)
from prmcodes.decoders import (check_error_pattern, decode_prm,
                               decode_prm_robust)
from prmcodes.geometry import projective_points
from prmcodes.gf import GF
from prmcodes.poly import eval_projective

# filled by criterion 5, asserted by criterion 10
_TOP_AFFINE_COUNTS = []

P2_GF4 = [
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 0), (1, 0, 1),
    (1, 2, 2), (1, 2, 3), (1, 2, 1), (1, 2, 0), (1, 0, 2),
    (1, 3, 3), (1, 3, 1), (1, 3, 2), (1, 3, 0), (1, 0, 3),
    (1, 0, 0),
    (0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 0), (0, 0, 1),
]

EX_R = [3, 2, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]
EX_C = [1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]


def _rand_error(gf, rng, n, w):
    e = gf.zeros(n)
    if w:
        sup = rng.choice(n, size=w, replace=False)
        e[sup] = rng.integers(1, gf.q, size=w)
    return e


def test_criterion_01_point_order_golden():
    started = time.perf_counter()
    pts = projective_points(GF(2, 2), 2)
    assert list(pts) == P2_GF4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS - 21-point order reproduced in {elapsed:.3f}s")


def test_criterion_02_parameter_goldens():
    p = code_params(CodeSpec(PRM, GF(2, 2), 2, 3))
    assert (p.n, p.k, p.wt, p.eta, p.T, p.T0) == (21, 10, 8, 6, 3, 2)
    p = code_params(CodeSpec(RM, GF(2, 2), 2, 3))
    assert (p.n, p.k, p.wt) == (16, 10, 4)
    p = code_params(CodeSpec(RM, GF(2, 2), 1, 3))
    assert (p.n, p.k, p.wt) == (4, 4, 1)
    for q in (3, 4, 5, 7):
        gf = GF.from_order(q)
        for d in range(1, q):
            p = code_params(CodeSpec(PRM, gf, 1, d))
            assert (p.n, p.k, p.wt) == (q + 1, d + 1, q - d + 1), (q, d)
    print("CRITERION 2: PASS - [21,10,8]/[16,10,4]/[4,4,1] and the MDS line")


def _min_weight_brute(spec):
    gf = spec.gf
    g = generator_matrix(spec)
    k, n = g.shape
    q = gf.q
    best = n + 1
    powers = q ** np.arange(k, dtype=np.int64)
    for start in range(1, q ** k, 8192):
        idx = np.arange(start, min(start + 8192, q ** k), dtype=np.int64)
        msgs = ((idx[:, None] // powers) % q).astype(g.dtype)
        cws = gf.zeros((len(idx), n))
        for i in range(k):
            cws = gf.add(cws, gf.mul(msgs[:, i][:, None], g[i][None, :]))
        best = min(best, int(np.count_nonzero(cws, axis=1).min()))
    return best


def test_criterion_03_rank_and_brute_distance():
    started = time.perf_counter()
    checked = 0
    for q in (3, 4, 5):
        gf = GF.from_order(q)
        for m in (1, 2):
            for family in (PRM, RM):
                lo = 1 if family == PRM else 0
                for d in range(lo, m * (q - 1) + 1):
                    spec = CodeSpec(family, gf, m, d)
                    p = code_params(spec)
                    g = generator_matrix(spec)
                    assert linalg.rank(gf, g) == p.k, spec
                    if q ** p.k <= 3 ** 12:
                        assert _min_weight_brute(spec) == p.wt, spec
                        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(f"CRITERION 3: PASS - ranks match k; {checked} brute-force "
          f"distances match the weight formula in {elapsed:.1f}s")


def test_criterion_04_eta_identities():
    for q in (3, 4, 5, 7, 8, 9):
        for m in range(1, 7):
            for d in range(1, m * (q - 1) + 1):
                nu, mu = divmod(d - 1, q - 1)
                summation = sum(rm_weight(q, m - i, d)
                                for i in range(m - nu)) + 1
                closed = (q - mu) * q ** (m - nu - 1) \
                    - mu * (q ** (m - nu - 1) - 1) // (q - 1)
                val = eta(q, m, d)
                assert val == summation == closed, (q, m, d)
                wt = code_params(CodeSpec(PRM, GF.from_order(q), m, d)).wt
                assert (val == wt) == (mu == 0 or nu == m - 1), (q, m, d)
                if m >= 2 and d >= q:
                    assert val == eta(q, m - 1, d - (q - 1)), (q, m, d)
    print("CRITERION 4: PASS - summation, closed form, wt equality "
          "condition, and recurrence agree for q<=9, m<=6")


def test_criterion_05_decoding_guarantee():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    trials_per_weight = 200
    total = 0
    for q in (3, 4, 5):
        gf = GF.from_order(q)
        for d in range(1, 2 * (q - 1) + 1):
            spec = CodeSpec(PRM, gf, 2, d)
            p = code_params(spec)
            for w in range(0, p.T0 + 1):
                for _ in range(trials_per_weight):
                    c, _ = encode(spec, rng.integers(0, q, size=p.k))
                    r = gf.add(c, _rand_error(gf, rng, p.n, w))
                    trace = []
                    out = decode_prm(gf, 2, d, r, trace=trace)
                    assert out.ok, (q, d, w)
                    assert np.array_equal(out.codeword, c), (q, d, w)
                    assert np.array_equal(
                        eval_projective(out.witness, 2), c), (q, d, w)
                    _TOP_AFFINE_COUNTS.append(sum(
                        1 for ev in trace
                        if ev["event"] == "affine" and ev["m"] == 2))
                    total += 1
    # q=3, m=2, d=3: every support of weight <= T0 = 1, every nonzero value
    gf = GF(3)
    spec = CodeSpec(PRM, gf, 2, 3)
    p = code_params(spec)
    assert p.T0 == 1
    for sup in [()] + [(i,) for i in range(p.n)]:
        for vals in itertools.product((1, 2), repeat=len(sup)):
            c, _ = encode(spec, rng.integers(0, 3, size=p.k))
            r = c.copy()
            for pos, v in zip(sup, vals):
                r[pos] = gf.add(int(r[pos]), v)
            out = decode_prm(gf, 2, 3, r)
            assert out.ok and np.array_equal(out.codeword, c), sup
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    print(f"CRITERION 5: PASS - {total} strict decodes within the radius, "
          f"100% exact recovery in {elapsed:.1f}s")


def test_criterion_06_prs_capability():
    rng = np.random.default_rng(6)
    total = 0
    for q in (3, 4, 5):
        gf = GF.from_order(q)
        for d in range(1, q):
            n = q + 1
            cap = (q - d) // 2
            for _ in range(3):
                c, _ = encode(CodeSpec(PRM, gf, 1, d),
                              rng.integers(0, q, size=d + 1))
                for w in range(0, cap + 1):
                    for sup in itertools.combinations(range(n), w):
                        for vals in itertools.product(range(1, q), repeat=w):
                            r = c.copy()
                            r[list(sup)] = gf.add(r[list(sup)],
                                                  gf.asarray(vals))
                            out = decode_prm_robust(gf, 1, d, r)
                            assert out.ok, (q, d, sup, vals)
                            assert np.array_equal(out.codeword, c)
                            total += 1
    print(f"CRITERION 6: PASS - {total} exhaustive PRS decodes up to "
          "floor((q-d)/2) errors")


def test_criterion_07_worked_example_end_to_end():
    gf = GF(2, 2)
    r = gf.asarray(EX_R)
    out = decode_prm_robust(gf, 2, 3, r)
    assert out.ok
    assert list(out.codeword) == EX_C
    assert str(out.witness) == "x0^3+x1^3+x2^3"
    trace = []
    decode_prm(gf, 2, 3, r, trace=trace)
    first = next(ev for ev in trace
                 if ev["event"] == "affine" and ev.get("part") == "first")
    assert first["m"] == 2 and first["d"] == 3
    assert first["ok"] is False
    # RM(2,3)/GF(4) has 4^10 codewords but 48 patterns within T = 1, so its
    # syndrome is looked up; RM(2,2)/GF(4), T = 3, scans its 4096 codewords
    assert first["engine"] == "syndrome"
    second = next(ev for ev in trace
                  if ev["event"] == "affine" and ev.get("part") == "second")
    assert second["engine"] == "scan"
    print("CRITERION 7: PASS - robust decode returns the listed codeword "
          "and witness; the strict first pass rejects as narrated")


def test_criterion_08_error_pattern_property():
    started = time.perf_counter()
    gf = GF(2, 2)
    spec = CodeSpec(PRM, gf, 2, 3)
    p = code_params(spec)
    rng = np.random.default_rng(8)
    supports = []
    for w in range(0, p.T + 1):
        for sup in itertools.combinations(range(p.n), w):
            probe = gf.zeros(p.n)
            probe[list(sup)] = 1
            if check_error_pattern(gf, 2, 3, probe):
                supports.append(sup)
    assert len(supports) == 792
    total = 0
    for sup in supports:
        for _ in range(20):
            c, _ = encode(spec, rng.integers(0, 4, size=p.k))
            e = gf.zeros(p.n)
            if sup:
                e[list(sup)] = rng.integers(1, 4, size=len(sup))
            out = decode_prm_robust(gf, 2, 3, gf.add(c, e))
            assert out.ok and np.array_equal(out.codeword, c), sup
            total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(f"CRITERION 8: PASS - {len(supports)} qualifying supports, "
          f"{total} robust decodes, 100% recovery in {elapsed:.1f}s")


def test_criterion_09_ratio_tables(capsys):
    for q, m in [(3, 2), (4, 2), (5, 2), (7, 2), (3, 5), (4, 5), (5, 5), (7, 5)]:
        assert main(["ratio-table", "--q", str(q), "--m", str(m)]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == m * (q - 1)
        for row in rows:
            d, ratio = int(row[0]), row[5]
            nu, mu = divmod(d - 1, q - 1)
            if mu == 0 or nu == m - 1:
                assert ratio in ("1.000", ""), (q, m, d)
            if q == 3 and m == 2:
                assert ratio in ("1.000", ""), (q, m, d)
    print("CRITERION 9: PASS - capability ratio is 1 whenever mu=0 or "
          "nu=m-1, and everywhere for q=3, m=2")


def test_criterion_10_top_level_call_count():
    counts = _TOP_AFFINE_COUNTS
    if not counts:  # standalone run: collect a small sweep here instead
        rng = np.random.default_rng(10)
        for q, d in [(3, 3), (4, 3), (5, 4)]:
            gf = GF.from_order(q)
            spec = CodeSpec(PRM, gf, 2, d)
            p = code_params(spec)
            for w in range(0, p.T0 + 1):
                for _ in range(30):
                    c, _ = encode(spec, rng.integers(0, q, size=p.k))
                    r = gf.add(c, _rand_error(gf, rng, p.n, w))
                    trace = []
                    assert decode_prm(gf, 2, d, r, trace=trace).ok
                    counts.append(sum(1 for ev in trace
                                      if ev["event"] == "affine"
                                      and ev["m"] == 2))
    assert max(counts) <= 2
    print(f"CRITERION 10: PASS - {len(counts)} instrumented invocations, "
          f"top-level affine decoder consulted at most {max(counts)} times")
