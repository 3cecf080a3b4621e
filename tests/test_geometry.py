"""Point orderings: frozen goldens for GF(4) and structural properties that
pin the recursion (chart block first, then the smaller projective space)."""

import itertools

import numpy as np
import pytest

from prmcodes.codes import PRM, RM, _eval_matrix
from prmcodes.geometry import (affine_array, affine_points,
                               num_projective_points, projective_array,
                               projective_points)
from prmcodes.gf import DTYPE, GF

# the 21 points of the projective plane over GF(4), a encoded as 2
P2_GF4 = [
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 0), (1, 0, 1),
    (1, 2, 2), (1, 2, 3), (1, 2, 1), (1, 2, 0), (1, 0, 2),
    (1, 3, 3), (1, 3, 1), (1, 3, 2), (1, 3, 0), (1, 0, 3),
    (1, 0, 0),
    (0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 0), (0, 0, 1),
]


# --- goldens ---

def test_p2_gf4_golden():
    assert list(projective_points(GF(2, 2), 2)) == P2_GF4


def test_p1_gf4_golden():
    assert list(projective_points(GF(2, 2), 1)) == [
        (1, 1), (1, 2), (1, 3), (1, 0), (0, 1)]


def test_p0_is_one():
    for gf in (GF(2), GF(3), GF(2, 2)):
        assert list(projective_points(gf, 0)) == [(1,)]


def test_affine_gf4_plane_prefix():
    # first q + 1 points of the ordered plane are the P^1 representatives,
    # then come the xi-scaled copies
    pts = affine_points(GF(2, 2), 2)
    assert list(pts[:10]) == [
        (1, 1), (1, 2), (1, 3), (1, 0), (0, 1),
        (2, 2), (2, 3), (2, 1), (2, 0), (0, 2)]
    assert pts[-1] == (0, 0)


def test_affine_gf2_line():
    assert list(affine_points(GF(2), 1)) == [(1,), (0,)]


def test_affine_gf3_plane():
    pts = affine_points(GF(3), 2)
    assert len(pts) == 9
    assert pts[-1] == (0, 0)
    assert len(set(pts)) == 9


# --- structural properties ---

@pytest.mark.parametrize("gf", [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_sets_and_counts(gf, m):
    q = gf.q
    if q ** m > 1000:
        pytest.skip("set comparison too large")
    aff = affine_points(gf, m)
    assert len(aff) == q ** m
    assert set(aff) == set(itertools.product(range(q), repeat=m))
    proj = projective_points(gf, m)
    assert len(proj) == num_projective_points(q, m) == (q ** (m + 1) - 1) // (q - 1)
    assert len(set(proj)) == len(proj)
    for pt in proj:
        nz = [v for v in pt if v]
        assert nz and pt[pt.index(nz[0])] == 1 and nz[0] == 1  # leftmost nonzero is 1


@pytest.mark.parametrize("gf", [GF(3), GF(2, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_recursive_block_structure(gf, m):
    q = gf.q
    proj = list(projective_points(gf, m))
    aff = list(affine_points(gf, m))
    assert proj[:q ** m] == [(1,) + a for a in aff]
    assert proj[q ** m:] == [(0,) + p for p in projective_points(gf, m - 1)]
    # affine ordering is the xi-power fan over the previous projective space
    prev = list(projective_points(gf, m - 1))
    fan = []
    for s in range(q - 1):
        scale = gf.pow(gf.xi, s)
        fan += [tuple(gf.mul(scale, v) for v in p) for p in prev]
    assert aff == fan + [(0,) * m]


def reference_points(gf, m):
    """(P^m, F_q^m) as tuples of tuples, built as the module docstring states:
    F_q^m is the xi^s-scaled copies of P^(m-1), one scalar field product per
    coordinate, then the origin; P^m is {1} x F_q^m, then {0} x P^(m-1)."""
    if m == 0:
        return ((1,),), ((),)
    prev = reference_points(gf, m - 1)[0]
    aff = tuple(tuple(gf.mul(int(gf.antilog_table[s]), v) for v in p)
                for s in range(gf.q - 1) for p in prev) + ((0,) * m,)
    return tuple((1,) + a for a in aff) + tuple((0,) + p for p in prev), aff


def test_arrays_match_tuples():
    # the cached arrays and their tuple views both equal the reference, over
    # prime fields, GF(2^e) and odd-p extension fields, from m = 0
    for gf in (GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2), GF(3, 3),
               GF(5, 2)):
        m = 0
        while gf.q ** m <= 3000:
            proj, aff = reference_points(gf, m)
            for arr, view, ref in ((projective_array(gf, m), projective_points(gf, m), proj),
                                   (affine_array(gf, m), affine_points(gf, m), aff)):
                assert arr.dtype == DTYPE and arr.shape == (len(ref), len(ref[0]))
                assert not arr.flags.writeable
                assert arr.tolist() == [list(p) for p in ref]
                assert view == ref
                assert all(type(v) is int for p in view for v in p)
            m += 1
    pa = projective_array(GF(3), 2)
    assert pa.shape == (13, 3)
    with pytest.raises(ValueError):
        pa[0, 0] = 2  # cached arrays are frozen


def test_eval_matrix_builds_no_point_tuples(monkeypatch):
    # a fresh evaluation matrix reads the point arrays alone: the tuple views
    # are never built on a library path
    def built(*args):
        raise AssertionError("point tuples built")

    monkeypatch.setattr("prmcodes.geometry.projective_points", built)
    monkeypatch.setattr("prmcodes.geometry.affine_points", built)
    projective_array.cache_clear()
    affine_array.cache_clear()
    for family, gf, m, d in ((PRM, GF(3), 2, 2), (RM, GF(2, 2), 2, 3)):
        mons, g = _eval_matrix.__wrapped__(gf, family, m, d)
        cached = _eval_matrix(gf, family, m, d)
        assert mons == cached[0] and np.array_equal(g, cached[1])
