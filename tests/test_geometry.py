"""Point orderings: frozen goldens for GF(4) and structural properties that
pin the recursion (chart block first, then the smaller projective space)."""

import itertools

import pytest

from prmcodes.geometry import (affine_array, affine_points,
                               num_projective_points, projective_array,
                               projective_points)
from prmcodes.gf import GF

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


def test_arrays_match_tuples():
    gf = GF(3)
    pa = projective_array(gf, 2)
    assert pa.shape == (13, 3)
    assert [tuple(int(v) for v in row) for row in pa] == list(projective_points(gf, 2))
    aa = affine_array(gf, 2)
    assert aa.shape == (9, 2)
    assert [tuple(int(v) for v in row) for row in aa] == list(affine_points(gf, 2))
    with pytest.raises(ValueError):
        pa[0, 0] = 2  # cached arrays are frozen
