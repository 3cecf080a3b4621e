"""Polynomial ring operations: evaluation goldens, the exponent-capping
reduction, homogenization and its inverses, the bad/good split, and the
canonical monomial bases (sizes cross-checked against an inclusion-exclusion
count computed here)."""

import itertools

import numpy as np
import pytest

from prmcodes.geometry import affine_points
from prmcodes.gf import GF
from prmcodes.poly import (Poly, affine_basis, dehomogenize, embed_poly,
                           eval_affine, eval_projective, homogenize,
                           lift_to_degree, parse_poly, projective_basis,
                           reduce_mod_affine, split_bad_good)


def P(gf, text, nvars):
    return parse_poly(gf, text, nvars)


# --- Poly algebra and formatting ---

def test_poly_construction_merges_terms():
    gf = GF(3)
    f = Poly(gf, 2, [((1, 0), 2), ((1, 0), 2)])
    assert f.coeff((1, 0)) == 1
    assert Poly(gf, 2, [((1, 0), 1), ((1, 0), 2)]).is_zero()


def test_poly_str_goldens():
    gf = GF(3)
    assert str(Poly.zero(gf, 2)) == "0"
    assert str(Poly.constant(gf, 2, 1)) == "1"
    assert str(P(gf, "2*x1^3+x2^3", 3)) == "2*x1^3+x2^3"
    assert str(P(gf, "x1^2*x2+x2^2+x2", 3)) == "x1^2*x2+x2^2+x2"
    # descending graded ordering regardless of input order
    assert str(P(gf, "x2^3+2*x1^3+x1^2*x2+x0*x2^2+x0^2*x1", 3)) == \
        "x0^2*x1+x0*x2^2+2*x1^3+x1^2*x2+x2^3"


def test_parse_round_trip():
    gf = GF(5)
    rng = np.random.default_rng(0)
    exps = list(itertools.product(range(3), repeat=3))
    for _ in range(25):
        take = rng.choice(len(exps), size=4, replace=False)
        terms = [(exps[i], int(rng.integers(1, 5))) for i in take]
        f = Poly(gf, 3, terms)
        assert P(gf, str(f), 3) == f


def test_parse_minus_sign():
    gf = GF(3)
    assert P(gf, "-x1+x2", 3) == P(gf, "2*x1+x2", 3)
    assert P(GF(2), "-x1", 2) == P(GF(2), "x1", 2)  # -1 = 1 in char 2


def test_poly_ring_identities():
    gf = GF(2, 2)
    rng = np.random.default_rng(1)
    exps = list(itertools.product(range(4), repeat=2))
    polys = []
    for _ in range(6):
        take = rng.choice(len(exps), size=3, replace=False)
        polys.append(Poly(gf, 2, [(exps[i], int(rng.integers(1, 4))) for i in take]))
    for f in polys:
        assert f - f == Poly.zero(gf, 2)
        assert f + Poly.zero(gf, 2) == f
        for g in polys:
            assert f + g == g + f
            pts = affine_points(gf, 2)
            lhs = (f * g).evaluate(pts[3])
            assert lhs == gf.mul(f.evaluate(pts[3]), g.evaluate(pts[3]))


def test_degree_and_homogeneous():
    gf = GF(3)
    assert P(gf, "x0^2*x1+x2^3", 3).degree == 3
    assert P(gf, "x0^2*x1+x2^3", 3).is_homogeneous
    assert not P(gf, "x0^2*x1+x2^2", 3).is_homogeneous
    assert Poly.zero(gf, 3).is_homogeneous


# --- evaluation ---

def test_eval_projective_golden_cubic():
    gf = GF(2, 2)
    f = P(gf, "x0^3+x1^3+x2^3", 3)
    assert list(eval_projective(f, 2)) == [
        1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1]


def test_eval_projective_tail_golden():
    gf = GF(2, 2)
    f = P(gf, "x1^3+x2^3", 3)
    assert list(eval_projective(f, 1)) == [0, 0, 0, 1, 1]


def test_eval_affine_constant():
    gf = GF(2, 2)
    assert list(eval_affine(Poly.constant(gf, 3, 1), 2)) == [1] * 16


def test_eval_affine_last_variable_square():
    gf = GF(3)
    f = Poly(gf, 2, [((0, 2), 1)])
    assert list(eval_affine(f, 1)) == [1, 1, 0]


def test_eval_projective_lead_indicator():
    # the block-leading variable to any power marks the {1} x F_q^j block
    for gf, m in ((GF(3), 2), (GF(2, 2), 2)):
        for d in (1, 2, 3):
            f = Poly(gf, m + 1, [(tuple([d] + [0] * m), 1)])
            v = list(eval_projective(f, m))
            assert v == [1] * gf.q ** m + [0] * (len(v) - gf.q ** m)


def test_eval_projective_requires_homogeneous():
    gf = GF(3)
    with pytest.raises(ValueError):
        eval_projective(P(gf, "x0^2+x1", 3), 2)


def test_eval_trailing_variable_convention():
    # j < nvars - 1 evaluates only the last j+1 (projective) or j (affine)
    # variables; leading variables must not appear
    gf = GF(3)
    f = P(gf, "x1^2+x2^2", 3)
    with pytest.raises(ValueError):
        eval_affine(f, 1)
    assert len(eval_affine(f, 2)) == 9
    g = P(gf, "x2^2", 3)
    assert list(eval_affine(g, 1)) == [1, 1, 0]


# --- reduction mod the vanishing ideal of affine space ---

@pytest.mark.parametrize("gf", [GF(2), GF(3), GF(2, 2)])
def test_reduce_preserves_affine_evaluation(gf):
    rng = np.random.default_rng(2)
    exps = list(itertools.product(range(2 * gf.q), repeat=2))
    for _ in range(30):
        take = rng.choice(len(exps), size=3, replace=False)
        f = Poly(gf, 2, [(exps[i], int(rng.integers(1, gf.q))) for i in take])
        g = reduce_mod_affine(f)
        assert max((max(e) for e in g.terms), default=0) <= gf.q - 1
        assert np.array_equal(eval_affine(f, 2), eval_affine(g, 2))
        assert reduce_mod_affine(g) == g  # idempotent


def test_reduce_golden():
    gf = GF(2, 2)
    f = Poly(gf, 2, [((0, 4), 1)])
    assert reduce_mod_affine(f) == Poly(gf, 2, [((0, 1), 1)])
    # exponent 0 stays 0: constants are untouched
    assert reduce_mod_affine(Poly.constant(gf, 2, 3)) == Poly.constant(gf, 2, 3)


# --- dehomogenization and homogenization ---

def test_dehomogenize_goldens():
    gf = GF(2, 2)
    f = P(gf, "x0^3+x1^3+x2^3", 3)
    assert str(dehomogenize(f)) == "x1^3+x2^3+1"
    gf3 = GF(3)
    assert dehomogenize(Poly(gf3, 3, [((3, 0, 0), 1)])) == Poly.constant(gf3, 3, 1)


def test_dehomogenize_then_reduce_golden_chain():
    # the degree-3 form whose chart restriction collapses two monomials
    gf = GF(3)
    f = P(gf, "x0^2*x1+2*x1^3+x1^2*x2+x0*x2^2+x2^3", 3)
    f_chart = dehomogenize(f)
    assert f_chart == P(gf, "x1+2*x1^3+x1^2*x2+x2^2+x2^3", 3)
    f0 = reduce_mod_affine(f_chart)
    assert str(f0) == "x1^2*x2+x2^2+x2"
    # chart evaluations agree with the projective ones on the {1} block
    assert np.array_equal(eval_projective(f, 2)[:9], eval_affine(f0, 2))


def test_homogenize_goldens():
    gf = GF(3)
    assert str(homogenize(P(gf, "x2^2+x1", 3), 3)) == "x0^2*x1+x0*x2^2"
    assert homogenize(Poly.constant(gf, 3, 2), 3) == Poly(gf, 3, [((3, 0, 0), 2)])
    gf4 = GF(2, 2)
    f = P(gf4, "x1^3+x2^3", 3)
    assert homogenize(f, 3) == f  # degree-d terms gain nothing


def test_homogenize_inner_block():
    # j picks which variable leads: with j = 1 the lead is x1
    gf = GF(3)
    f = Poly(gf, 3, [((0, 0, 1), 1)])
    assert homogenize(f, 2, 1) == Poly(gf, 3, [((0, 1, 1), 1)])


def test_homogenize_rejects_overweight_terms():
    gf = GF(3)
    with pytest.raises(ValueError):
        homogenize(P(gf, "x1^3", 3), 2)


def test_homogenize_dehomogenize_round_trip():
    gf = GF(3)
    rng = np.random.default_rng(3)
    exps = [e for e in itertools.product(range(4), repeat=2) if sum(e) <= 3]
    for _ in range(20):
        take = rng.choice(len(exps), size=3, replace=False)
        g = Poly(gf, 3, [((0,) + exps[i], int(rng.integers(1, 3))) for i in take])
        f = homogenize(g, 3)
        assert f.is_homogeneous and (f.is_zero() or f.degree == 3)
        if not (g.is_homogeneous and g.degree == 3):
            # degree-d input gains no x0, so dehomogenize strips x1 instead
            assert dehomogenize(f) == g


# --- degree lifting of tail forms ---

def test_lift_goldens():
    gf = GF(3)
    f = P(gf, "2*x1+x2", 3)
    assert str(lift_to_degree(f, 3)) == "2*x1^3+x2^3"
    assert lift_to_degree(f, 1) == f
    gf4 = GF(2, 2)
    g = Poly(gf4, 3, [((0, 0, 1), 1)])
    lifted = lift_to_degree(g, 4)
    assert lifted == Poly(gf4, 3, [((0, 0, 4), 1)])
    assert np.array_equal(eval_projective(g, 1), eval_projective(lifted, 1))


def test_lift_preserves_projective_evaluation():
    gf = GF(3)
    rng = np.random.default_rng(4)
    for d0, d in ((1, 3), (2, 4)):
        basis = [e for e in itertools.product(range(d0 + 1), repeat=2)
                 if sum(e) == d0]
        for _ in range(10):
            terms = [((0,) + e, int(rng.integers(0, 3))) for e in basis]
            f = Poly(gf, 3, terms)
            if f.is_zero():
                continue
            lifted = lift_to_degree(f, d)
            assert lifted.degree == d
            assert np.array_equal(eval_projective(f, 1), eval_projective(lifted, 1))


def test_lift_requires_congruent_degree():
    gf = GF(3)
    with pytest.raises(ValueError):
        lift_to_degree(P(gf, "x1", 3), 2)  # 2 - 1 not a multiple of q - 1


# --- bad/good decomposition ---

def test_split_golden():
    gf = GF(3)
    f0 = P(gf, "x1^2*x2+x2^2+x2", 3)
    parts = split_bad_good(f0, 3)
    assert str(parts.bad) == "x2"
    assert str(parts.good_top) == "x1^2*x2"
    assert str(parts.good_low) == "x2^2"
    assert parts.bad + parts.good_top + parts.good_low == f0


def test_split_low_degree_has_no_bad_part():
    gf = GF(5)
    for text in ("x1^2+x2", "x1*x2+1", "x2^3"):
        parts = split_bad_good(P(gf, text, 3), 4)  # d <= q - 1
        assert parts.bad.is_zero()


def test_split_zero():
    gf = GF(3)
    parts = split_bad_good(Poly.zero(gf, 3), 3)
    assert parts.bad.is_zero() and parts.good_top.is_zero() and parts.good_low.is_zero()


def test_split_bad_criterion_exhaustive():
    # a term is ambiguous exactly when 0 < deg < d and deg = d mod (q-1)
    gf = GF(2, 2)
    d = 5
    for e1 in range(4):
        for e2 in range(4):
            t = e1 + e2
            if t > d:
                continue
            f = Poly(gf, 3, [((0, e1, e2), 1)])
            parts = split_bad_good(f, d)
            if 0 < t < d and (d - t) % 3 == 0:
                assert parts.bad == f
            elif t == d:
                assert parts.good_top == f
            else:
                assert parts.good_low == f


# --- embedding into a larger ring ---

def test_embed_poly():
    gf = GF(3)
    f = P(gf, "x0^2+x1", 2)
    g = embed_poly(f)
    assert g.nvars == 3
    assert str(g) == "x1^2+x2"
    assert embed_poly(f, 2).nvars == 4


# --- shared exponent tuples ---

def _key(f, exps):
    # the tuple object f stores for the monomial exps
    return next(e for e in f.terms if e == exps)


def test_equal_monomials_share_one_tuple():
    gf = GF(3)
    parsed = P(gf, "x0^2+2*x1*x2", 3)
    homog = homogenize(P(gf, "x1*x2+x2", 3), 2)
    embedded = embed_poly(P(gf, "x0*x1+x1", 2))
    built = Poly(gf, 3, {tuple([0, 1, 1]): 2, (2, 0, 0): 1})
    shared = _key(parsed, (0, 1, 1))
    assert _key(homog, (0, 1, 1)) is shared
    assert _key(embedded, (0, 1, 1)) is shared
    assert _key(built, (0, 1, 1)) is shared
    assert parsed == built and hash(parsed) == hash(built)
    assert str(parsed) == str(built) == "x0^2+2*x1*x2"
    assert str(homog) == "x0*x2+x1*x2" and str(embedded) == "x1*x2+x2"


def test_shared_tuples_keep_huge_exponents():
    gf = GF(3)
    f = P(gf, "x1+2*x2", 3)
    big = 1 + 2 ** 64  # lift by 2^64, a multiple of q - 1
    lifted = lift_to_degree(f, big)
    assert str(lifted) == f"x1^{big}+2*x2^{big}"
    assert _key(lifted, (0, big, 0)) is _key(Poly.monomial(gf, (0, big, 0)), (0, big, 0))
    assert lifted == Poly(gf, 3, [((0, big, 0), 1), ((0, 0, big), 2)])
    assert np.array_equal(eval_projective(lifted, 1), eval_projective(f, 1))


@pytest.mark.parametrize("q", [5, 128, 251, 257, 65521])
def test_poly_over_basis_vector_matches_public_poly(q):
    # the decoders build their witness and trace Polys from a coefficient
    # vector over a basis, skipping the constructor's per-term checks; the
    # result is the public Poly on either side of q = 256
    gf = GF.from_order(q)
    mons = projective_basis(gf, 2, 3)
    vec = np.random.default_rng(q).integers(0, q, size=len(mons))
    vec[[0, -1]] = 0, q - 1
    public = Poly(gf, 3, zip(mons, vec.tolist()))
    packed = Poly._of_vector(gf, 3, mons, vec.astype(np.int32))
    assert packed == public and hash(packed) == hash(public)
    assert list(packed.terms.items()) == list(public.terms.items())
    assert all(a is b for a, b in zip(packed.terms, public.terms))
    assert packed.terms is packed.terms
    assert str(packed) == str(public)


# --- monomial bases ---

def _affine_count(q, m, d):
    # number of m-tuples with entries <= q-1 summing to <= d
    return sum(1 for e in itertools.product(range(q), repeat=m) if sum(e) <= d)


def _projective_count(q, m, d):
    # degree-d monomials grouped by leading variable: lead exponent >= 1 and
    # unbounded, trailing exponents <= q-1
    total = 0
    for lead in range(m + 1):
        tail_vars = m - lead
        total += sum(1 for e in itertools.product(range(q), repeat=tail_vars)
                     if sum(e) <= d - 1)
    return total


def test_affine_basis_sizes():
    for gf in (GF(2), GF(3), GF(2, 2)):
        for m in (1, 2):
            for d in range(0, m * (gf.q - 1) + 1):
                basis = affine_basis(gf, m, d)
                assert len(basis) == _affine_count(gf.q, m, d)
                assert len(set(basis)) == len(basis)
                for e in basis:
                    assert e[0] == 0 and sum(e) <= d and max(e[1:]) <= gf.q - 1


def test_projective_basis_goldens():
    gf = GF(2, 2)
    assert len(projective_basis(gf, 2, 3)) == 10
    for q in (3, 4, 5):
        gfq = GF.from_order(q)
        for d in range(1, q):
            assert len(projective_basis(gfq, 1, d)) == d + 1
    gf3 = GF(3)
    assert set(projective_basis(gf3, 2, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_projective_basis_block_structure():
    gf = GF(3)
    for d in (1, 2, 3, 4):
        basis = projective_basis(gf, 2, d)
        assert len(set(basis)) == len(basis)
        leads = [min(i for i, e in enumerate(exp) if e) for exp in basis]
        assert leads == sorted(leads)  # grouped by leading variable
        assert len(basis) == _projective_count(3, 2, d)
        for exp in basis:
            lead = min(i for i, e in enumerate(exp) if e)
            assert sum(exp) == d and exp[lead] >= 1
            assert all(e <= gf.q - 1 for e in exp[lead + 1:])


def test_projective_basis_evaluations_independent():
    # basis evaluations must be linearly independent rows
    from prmcodes.linalg import rank
    gf = GF(3)
    for d in (1, 2, 3, 4):
        basis = projective_basis(gf, 2, d)
        rows = [eval_projective(Poly(gf, 3, [(e, 1)]), 2) for e in basis]
        assert rank(gf, gf.asarray(np.array(rows))) == len(basis)
