"""Code parameters and encoding: frozen goldens from worked examples, plus
dual-route checks where every closed-form value is recomputed here by brute
force (minimum weight by codebook enumeration, dimension by distinct-codeword
counting and rank)."""

import itertools

import numpy as np
import pytest

from prmcodes import linalg
from prmcodes.codes import (PRM, RM, CodeSpec, NotInCodeError, _solver,
                            basis_monomials, code_params, encode, eta,
                            generator_matrix, interpolate, interpolate_family,
                            prm_dimension, prm_weight, replicate_scaled,
                            rm_dimension, rm_weight)
from prmcodes.gf import GF
from prmcodes.poly import embed_poly, eval_projective

EX_CODEWORD = [1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]


def spec_of(family, q, m, d):
    return CodeSpec(family, GF.from_order(q), m, d)


# --- parameter goldens ---

def test_parameters_golden_quartic_plane():
    p = code_params(spec_of(PRM, 4, 2, 3))
    assert (p.n, p.k, p.wt) == (21, 10, 8)
    assert p.eta == 6 and p.T == 3 and p.T0 == 2


def test_parameters_golden_affine():
    p = code_params(spec_of(RM, 4, 2, 3))
    assert (p.n, p.k, p.wt, p.T) == (16, 10, 4, 1)
    assert p.eta is None and p.T0 is None
    p = code_params(spec_of(RM, 4, 1, 3))
    assert (p.n, p.k, p.wt) == (4, 4, 1)
    p = code_params(spec_of(RM, 4, 2, 2))
    assert (p.n, p.k, p.wt) == (16, 6, 8)


def test_parameters_projective_line_is_mds():
    for q in (3, 4, 5, 7):
        gf = GF.from_order(q)
        for d in range(1, q):
            p = code_params(CodeSpec(PRM, gf, 1, d))
            assert (p.n, p.k, p.wt) == (q + 1, d + 1, q - d + 1)
            assert p.eta == q - d + 1  # the bound is tight on the line


def test_parameters_cubic_plane_gf3():
    p = code_params(spec_of(PRM, 3, 2, 3))
    assert (p.n, p.k, p.wt) == (13, 10, 3)


def test_extreme_degrees():
    # d = m(q-1) gives weight 2 for PRM, weight 1 beyond is rejected
    p = code_params(spec_of(PRM, 3, 2, 4))
    assert p.wt == 2
    p = code_params(spec_of(RM, 3, 2, 4))
    assert p.wt == 1
    assert rm_weight(3, 2, 5) == 1    # saturated semantics
    assert prm_weight(3, 2, 5) == 1
    assert eta(3, 2, 5) == 1


def test_spec_validation():
    gf = GF(3)
    with pytest.raises(ValueError):
        CodeSpec(PRM, gf, 2, 0)
    with pytest.raises(ValueError):
        CodeSpec(PRM, gf, 2, 5)
    with pytest.raises(ValueError):
        CodeSpec(RM, gf, 2, 5)
    with pytest.raises(ValueError):
        CodeSpec(PRM, gf, 0, 1)
    CodeSpec(RM, gf, 2, 0)  # the constant code is fine


# --- dual route: brute-force minimum weight vs the closed forms ---

def _min_weight_brute(spec):
    gf = spec.gf
    g = generator_matrix(spec)
    k, n = g.shape
    q = gf.q
    best = n + 1
    powers = q ** np.arange(k, dtype=np.int64)
    total = q ** k
    for start in range(0, total, 4096):
        idx = np.arange(start, min(start + 4096, total), dtype=np.int64)
        msgs = ((idx[:, None] // powers) % q).astype(g.dtype)
        cws = gf.zeros((len(idx), n))
        for i in range(k):
            cws = gf.add(cws, gf.mul(msgs[:, i][:, None], g[i][None, :]))
        w = np.count_nonzero(cws, axis=1)
        w = w[w > 0]
        if w.size:
            best = min(best, int(w.min()))
    return best


@pytest.mark.parametrize("family,q,m,d", [
    (PRM, 3, 2, 1), (PRM, 3, 2, 2), (PRM, 3, 2, 3), (PRM, 3, 2, 4),
    (PRM, 4, 2, 1), (PRM, 4, 2, 2), (PRM, 5, 2, 2),
    (RM, 3, 2, 1), (RM, 3, 2, 2), (RM, 3, 2, 3),
    (RM, 4, 2, 2), (RM, 2, 3, 2),
    (PRM, 4, 1, 2), (PRM, 5, 1, 3), (RM, 5, 1, 2),
])
def test_min_weight_matches_formula(family, q, m, d):
    spec = spec_of(family, q, m, d)
    assert _min_weight_brute(spec) == code_params(spec).wt


# --- dual route: dimension vs injectivity and rank ---

@pytest.mark.parametrize("family,q,m", [
    (PRM, 3, 2), (RM, 3, 2), (PRM, 4, 2), (RM, 4, 2),
    (PRM, 2, 3), (RM, 2, 3), (PRM, 5, 1), (RM, 5, 1),
])
def test_dimension_is_rank(family, q, m):
    gf = GF.from_order(q)
    lo = 1 if family == PRM else 0
    for d in range(lo, m * (q - 1) + 1):
        spec = CodeSpec(family, gf, m, d)
        g = generator_matrix(spec)
        assert g.shape[0] == code_params(spec).k
        assert linalg.rank(gf, g) == g.shape[0]


def test_dimension_by_distinct_codewords():
    # encoding is injective: q^k distinct codewords, counted directly
    for family, q, m, d in [(PRM, 3, 2, 2), (RM, 3, 2, 1), (PRM, 4, 1, 2)]:
        spec = spec_of(family, q, m, d)
        gf, k = spec.gf, code_params(spec).k
        seen = set()
        for msg in itertools.product(range(q), repeat=k):
            cw, _ = encode(spec, msg)
            seen.add(bytes(cw.astype(np.uint8)))
        assert len(seen) == q ** k


def test_dimension_closed_form_values():
    # inclusion-exclusion spot values recomputed from scratch
    def rm_dim_oracle(q, m, d):
        return sum(1 for e in itertools.product(range(q), repeat=m) if sum(e) <= d)

    for q, m in ((3, 2), (4, 2), (2, 3), (5, 1)):
        for d in range(0, m * (q - 1) + 1):
            assert rm_dimension(q, m, d) == rm_dim_oracle(q, m, d)
    # projective dimension equals the count of basis monomials
    for q, m in ((3, 2), (4, 2), (5, 2)):
        gf = GF.from_order(q)
        for d in range(1, m * (q - 1) + 1):
            assert prm_dimension(q, m, d) == len(basis_monomials(CodeSpec(PRM, gf, m, d)))


# --- eta identities ---

def test_eta_summation_equals_closed_form():
    for q in (3, 4, 5):
        for m in (1, 2, 3, 4):
            for d in range(1, m * (q - 1) + 1):
                nu, mu = divmod(d - 1, q - 1)
                total = sum(rm_weight(q, m - i, d) for i in range(m - nu)) + 1
                closed = (q - mu) * q ** (m - nu - 1) - mu * (q ** (m - nu - 1) - 1) // (q - 1)
                assert eta(q, m, d) == total == closed


def test_eta_equals_weight_iff():
    for q in (3, 4, 5):
        for m in (2, 3):
            for d in range(1, m * (q - 1) + 1):
                nu, mu = divmod(d - 1, q - 1)
                tight = (mu == 0) or (nu == m - 1)
                assert (eta(q, m, d) == prm_weight(q, m, d)) == tight
                assert eta(q, m, d) <= prm_weight(q, m, d)


def test_eta_recurrence():
    for q in (3, 4, 5):
        for m in (2, 3, 4):
            for d in range(q, m * (q - 1) + 1):
                assert eta(q, m, d) == eta(q, m - 1, d - (q - 1))


# --- generator matrices and encoding ---

def test_generator_rows_projective_line():
    g = generator_matrix(spec_of(PRM, 3, 1, 1))
    assert [list(r) for r in g] == [[1, 1, 1, 0], [1, 2, 0, 1]]


def test_generator_rows_affine_line():
    g = generator_matrix(spec_of(RM, 3, 1, 1))
    assert [list(r) for r in g] == [[1, 1, 1], [1, 2, 0]]


def test_encode_golden_cubic():
    spec = spec_of(PRM, 4, 2, 3)
    basis = basis_monomials(spec)
    msg = [0] * len(basis)
    for exps in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
        msg[basis.index(exps)] = 1
    cw, f = encode(spec, msg)
    assert list(cw) == EX_CODEWORD
    assert str(f) == "x0^3+x1^3+x2^3"


def test_encode_zero_message():
    spec = spec_of(PRM, 4, 2, 3)
    cw, f = encode(spec, [0] * 10)
    assert not cw.any() and f.is_zero()


def test_encode_validates_length():
    with pytest.raises(ValueError):
        encode(spec_of(PRM, 3, 1, 1), [1, 2, 0])


# --- interpolation ---

def test_interpolate_round_trip():
    rng = np.random.default_rng(5)
    for family, q, m, d in [(PRM, 3, 2, 3), (PRM, 4, 2, 3), (RM, 3, 2, 2),
                            (RM, 4, 1, 2), (PRM, 5, 1, 3)]:
        spec = spec_of(family, q, m, d)
        k = code_params(spec).k
        for _ in range(5):
            cw, f = encode(spec, rng.integers(0, q, size=k))
            g = interpolate(spec, cw)
            assert g == f


def test_interpolate_prs_golden():
    gf = GF(2, 2)
    f = interpolate_family(gf, PRM, 1, 3, gf.asarray([0, 0, 0, 1, 1]))
    assert str(f) == "x0^3+x1^3"            # within its own 2-variable ring
    assert str(embed_poly(f)) == "x1^3+x2^3"  # as the tail block of the plane


def test_interpolate_zero():
    spec = spec_of(PRM, 3, 2, 2)
    assert interpolate(spec, GF(3).zeros(13)).is_zero()


def test_interpolate_rejects_non_codeword():
    gf = GF(2, 2)
    spec = CodeSpec(PRM, gf, 1, 1)  # [5, 2, 4]: one flip never lands in the code
    cw, _ = encode(spec, [1, 2])
    bad = cw.copy()
    bad[2] = gf.add(int(bad[2]), 1)
    with pytest.raises(NotInCodeError):
        interpolate(spec, bad)


def test_interpolate_extended_degree():
    # degrees past m(q-1) still interpolate (the decoder's base case needs it)
    gf = GF(2, 2)
    r = gf.asarray([0, 0, 0, 1, 1])
    f = interpolate_family(gf, PRM, 1, 4, r)
    assert np.array_equal(eval_projective(f, 1), r)


@pytest.mark.parametrize("family", [RM, PRM])
@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_solver_matches_two_step_elimination(family, q):
    # one elimination of [g | I] gives the pivots of g and the inverse of
    # its pivot columns, as reducing g and then [g[:, pivots] | I] does;
    # degrees below, at and above q-1
    gf = GF.from_order(q)
    for d in (1, q - 1, q, 2 * (q - 1)):
        g, pivots, inv = _solver(gf, family, 2, d)
        k = len(g)
        _, want_pivots = linalg.row_reduce(gf, g)
        aug, _ = linalg.row_reduce(gf, np.hstack([g[:, want_pivots],
                                                  np.eye(k, dtype=g.dtype)]))
        assert pivots == want_pivots and len(pivots) == k
        assert np.array_equal(inv, aug[:, k:])


def test_solver_rejects_a_dependent_basis(monkeypatch):
    # a basis whose evaluations are dependent leaves a pivot of [g | I] in I
    gf = GF(3)
    g = gf.asarray([[1, 2, 0], [2, 1, 0]])
    monkeypatch.setattr("prmcodes.codes._eval_matrix", lambda *key: ((), g))
    with pytest.raises(AssertionError, match="dependent"):
        _solver.__wrapped__(gf, RM, 1, 1)


# --- the recursive construction's building blocks ---

def test_replicate_scaled_golden():
    gf = GF(3)
    v = gf.asarray([1, 2])
    assert list(replicate_scaled(gf, v, 1)) == [1, 2, 2, 1, 0]
    assert list(replicate_scaled(gf, v, 2)) == [1, 2, 1, 2, 0]  # xi^2 = 1


def test_replicate_scaled_tail_of_plane():
    gf = GF(2, 2)
    v = gf.asarray([0, 0, 0, 1, 1])
    assert list(replicate_scaled(gf, v, 3)) == [
        0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0]


def test_replicate_scaled_zero():
    gf = GF(3)
    assert not replicate_scaled(gf, gf.zeros(4), 2).any()


def test_recursive_split_property():
    # every projective codeword splits as (u + v_xi_d, v) with u affine of
    # degree <= d-1 and v projective of the same degree
    rng = np.random.default_rng(6)
    for q, m, d in [(3, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3)]:
        gf = GF.from_order(q)
        spec = CodeSpec(PRM, gf, m, d)
        p = code_params(spec)
        for _ in range(5):
            cw, _ = encode(spec, rng.integers(0, q, size=p.k))
            v = cw[q ** m:]
            interpolate_family(gf, PRM, m - 1, d, v)  # tail is a codeword
            u = gf.sub(cw[:q ** m], replicate_scaled(gf, v, d))
            interpolate_family(gf, RM, m, d - 1, u)   # residue has low degree
