"""Whole-array GF kernels against scalar references written here: the
vector-matrix product against a row loop of scalar field operations, also
at the sizes and on the strided views the line decoder passes, and in row
blocks on large prime fields against an int64 product, polynomial
evaluation over point blocks against Poly.evaluate at every point, and the
partial Euclid of Gao's decoder against a schoolbook product and remainder.
Property tests over prime fields, GF(2^e) and odd-characteristic extension
fields."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prmcodes.decoders import _degree, _partial_euclid
from prmcodes.geometry import affine_points, projective_points
from prmcodes.gf import GF
from prmcodes.linalg import vec_mat
from prmcodes.poly import Poly, eval_affine, eval_projective, lift_to_degree

BIG_P = 65521
ORDERS = (2, 3, BIG_P, 4, 8, 9, 25, 27, 128)
FIELDS = {q: GF.from_order(q) for q in ORDERS}


def vec_mat_reference(gf, vec, mat):
    out = [0] * mat.shape[1]
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            out[j] = gf.add(out[j], gf.mul(int(vec[i]), int(mat[i, j])))
    return out


@st.composite
def product_inputs(draw):
    gf = FIELDS[draw(st.sampled_from(ORDERS))]
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 6))
    elements = st.integers(0, gf.q - 1)
    vec = draw(arrays(np.int32, rows, elements=elements))
    mat = draw(arrays(np.int32, (rows, cols), elements=elements))
    return gf, vec, mat


def check_vec_mat(gf, vec, mat):
    out = vec_mat(gf, vec, mat)
    assert out.shape == (mat.shape[1],)
    assert out.tolist() == vec_mat_reference(gf, vec, mat)
    assert not vec_mat(gf, gf.zeros(len(vec)), mat).any()


@settings(max_examples=150, deadline=None)
@given(product_inputs())
@example((FIELDS[4], np.zeros(0, np.int32), np.zeros((0, 3), np.int32)))
@example((FIELDS[BIG_P], np.zeros(0, np.int32), np.zeros((0, 2), np.int32)))
def test_vec_mat_matches_row_loop(inputs):
    check_vec_mat(*inputs)


VIEW_ORDERS = (4, 8, 9, 27, 128)


@st.composite
def strided_products(draw):
    # 64-129 rows, the sizes of the line decoder's products up to GF(128),
    # and the views it passes: the leading block of the evaluation matrix
    # that _interpolate_line reads, and the row slices and column subsets
    # of _rs_affine; also a reversed, transposed view.  The entries come
    # from a drawn seed, as arrays this large overrun hypothesis's buffer
    gf = FIELDS[draw(st.sampled_from(VIEW_ORDERS))]
    rows = draw(st.integers(64, 129))
    cols = draw(st.integers(1, 12))
    spare = draw(st.integers(0, 6))
    view = draw(st.sampled_from(["leading_block", "reversed_transpose", "row_slice",
                                 "column_subset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vec = rng.integers(0, gf.q, size=rows, dtype=np.int32)
    if view == "leading_block":  # x[:-1, :-1]
        mat = rng.integers(0, gf.q, size=(rows + 1, cols + 1), dtype=np.int32)[:-1, :-1]
    elif view == "reversed_transpose":  # x[::-1].T
        mat = rng.integers(0, gf.q, size=(cols, rows), dtype=np.int32)[::-1].T
    elif view == "row_slice":  # x[:k]
        mat = rng.integers(0, gf.q, size=(rows + spare, cols), dtype=np.int32)[:rows]
    else:  # x[:k, roots]
        x = rng.integers(0, gf.q, size=(rows + spare, cols + spare), dtype=np.int32)
        roots = sorted(draw(st.sets(st.integers(0, cols + spare - 1),
                                    min_size=1, max_size=cols)))
        mat = x[:rows, roots]
    return gf, vec, mat


@settings(max_examples=40, deadline=None)
@given(strided_products())
def test_vec_mat_strided_views_at_line_sizes(inputs):
    gf, vec, mat = inputs
    check_vec_mat(gf, vec, mat)
    check_vec_mat(gf, vec[:0], mat[:0])  # the empty vector


@settings(max_examples=10, deadline=None)
@given(st.integers(300, 360), st.integers(1, 4), st.data())
def test_vec_mat_prime_near_top(rows, cols, data):
    # entries near p-1 make every product and partial sum as large as it gets
    gf = FIELDS[BIG_P]
    elements = st.integers(BIG_P - 4, BIG_P - 1)
    vec = data.draw(arrays(np.int32, rows, elements=elements))
    mat = data.draw(arrays(np.int32, (rows, cols), elements=elements))
    check_vec_mat(gf, vec, mat)
    top = np.full(rows, BIG_P - 1, dtype=np.int32)
    assert vec_mat(gf, top, np.tile(top[:, None], (1, cols))).tolist() == [rows % BIG_P] * cols


@pytest.mark.parametrize("rows", [2, 3])
def test_vec_mat_prime_int32_threshold(rows):
    # (p-1)^2 * rows crosses 2^31 between 2 and 3 rows for p = 32749, so the
    # product runs on int32 at 2 rows and on int64 at 3; all entries p-1 make
    # the sum as large as it gets on either side
    p = 32749
    assert (p - 1) ** 2 * 2 < 2 ** 31 < (p - 1) ** 2 * 3
    gf = GF(p)
    vec = np.full(rows, p - 1, dtype=np.int32)
    mat = np.full((rows, 3), p - 1, dtype=np.int32)
    out = vec_mat(gf, vec, mat)
    assert out.dtype == np.int32
    assert out.tolist() == vec_mat_reference(gf, vec, mat) == [rows % p] * 3


@pytest.mark.parametrize("p, rows, cols", [(2053, 1500, 7), (2053, 511, 3),
                                           (65521, 1200, 2048), (65521, 5, 70000)])
def test_vec_mat_prime_row_blocks(p, rows, cols):
    # past the int32 bound vec_mat adds up row blocks: int32 blocks of at
    # most 510 rows at p = 2053, int64 blocks of at most 2^18 entries at
    # p = 65521, where one product passes int32.  Against an int64 product,
    # on random entries and on entries p - 1, where every sum is largest.
    # Past its outputs of cols entries, no call holds half the matrix
    gf = GF(p)
    rng = np.random.default_rng(p + rows)
    for top in (False, True):
        if top:
            vec = np.full(rows, p - 1, dtype=np.int32)
            mat = np.full((rows, cols), p - 1, dtype=np.int32)
        else:
            vec = rng.integers(0, p, size=rows, dtype=np.int32)
            mat = rng.integers(0, p, size=(rows, cols), dtype=np.int32)
        tracemalloc.start()
        out = vec_mat(gf, vec, mat)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert out.dtype == np.int32
        assert out.tolist() == (vec.astype(np.int64) @ mat.astype(np.int64) % p).tolist()
        assert peak < mat.nbytes // 2 + 64 * cols


def chart_size(q):
    # largest number of chart variables whose point set stays small enough
    # for the scalar reference; GF(65521) gets its line
    j = 1
    while j < 3 and q ** (j + 1) <= 1000:
        j += 1
    return j


@st.composite
def affine_polys(draw, gf):
    j = draw(st.integers(1, chart_size(gf.q)))
    lead = draw(st.integers(0, 1))  # unused leading variables shift the columns
    # exponents past q, and past int64, reduce by x^q = x on the points
    exps = st.tuples(*[st.integers(0, 2 * gf.q) | st.integers(2 ** 63, 2 ** 70)] * j)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, gf.q - 1)), max_size=4))
    if draw(st.booleans()):
        terms.append(((0,) * j, draw(st.integers(1, gf.q - 1))))
    return Poly(gf, lead + j, [((0,) * lead + e, c) for e, c in terms]), j


@st.composite
def projective_forms(draw, gf):
    j = draw(st.integers(1, chart_size(gf.q)))
    lead = draw(st.integers(0, 1))
    # the leading exponent pads every term to the degree of the largest
    exps = st.lists(st.integers(0, gf.q + 1), min_size=j, max_size=j)
    terms = draw(st.lists(st.tuples(exps, st.integers(1, gf.q - 1)), max_size=4))
    deg = max((sum(e) for e, _ in terms), default=0)
    f = Poly(gf, lead + j + 1,
             [((0,) * lead + (deg - sum(e),) + tuple(e), c) for e, c in terms])
    if deg and draw(st.booleans()):
        f = lift_to_degree(f, deg + draw(st.integers(1, 2)) * (gf.q - 1))
    return f, j


def evaluate_all(f, points):
    pad = (0,) * (f.nvars - len(points[0]))
    return [f.evaluate(pad + pt) for pt in points]


@pytest.mark.parametrize("q", ORDERS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_eval_affine_matches_pointwise(q, data):
    f, j = data.draw(affine_polys(FIELDS[q]))
    assert eval_affine(f, j).tolist() == evaluate_all(f, affine_points(f.gf, j))


@pytest.mark.parametrize("q", ORDERS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_eval_projective_matches_pointwise(q, data):
    f, j = data.draw(projective_forms(FIELDS[q]))
    assert eval_projective(f, j).tolist() == evaluate_all(f, projective_points(f.gf, j))


def test_eval_zero_and_constant():
    for gf in FIELDS.values():
        top = gf.q - 1
        assert not eval_affine(Poly.zero(gf, 2), 1).any()
        assert not eval_projective(Poly.zero(gf, 2), 1).any()
        assert eval_affine(Poly.constant(gf, 2, top), 1).tolist() == [top] * gf.q
        assert eval_projective(Poly.constant(gf, 2, top), 1).tolist() == [top] * (gf.q + 1)


def poly_mul(gf, a, b):
    # schoolbook product of coefficient lists, lowest degree first
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return out


def poly_rem(gf, a, m):
    # remainder of a by m, whose last coefficient is nonzero
    a = list(a)
    inv = gf.inv(m[-1])
    for top in range(len(a) - 1, len(m) - 2, -1):
        c = gf.mul(a[top], inv)
        for j, y in enumerate(m):
            a[top - len(m) + 1 + j] = gf.sub(a[top - len(m) + 1 + j], gf.mul(c, y))
    return a[:len(m) - 1]


@pytest.mark.parametrize("q", (5, 8, 9, 128, 2053, BIG_P))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_partial_euclid_remainder_and_cofactor(q, data):
    # for a of degree n-1 and b of lower degree, the g and v that
    # _partial_euclid returns satisfy 2 deg g < stop and g = v b (mod a)
    gf = GF.from_order(q)
    n = data.draw(st.integers(2, 48))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, q, size=n, dtype=np.int32)
    a[-1] = rng.integers(1, q)
    b = rng.integers(0, q, size=data.draw(st.integers(0, n - 1)), dtype=np.int32)
    if data.draw(st.booleans()):
        b[data.draw(st.integers(0, len(b))):] = 0  # zero leading terms, all of b at times
    # often a stop that the degree of b reaches, so that Euclid steps run
    stop = data.draw(st.integers(1, max(2 * _degree(b), 1)) | st.integers(1, 2 * n))
    g, v = _partial_euclid(gf, a, b, stop)
    assert 2 * _degree(g) < stop
    assert len(v) == n
    lhs = poly_rem(gf, poly_mul(gf, v.tolist(), b.tolist() or [0]), a.tolist())
    rhs = (g.tolist() + [0] * n)[:n - 1]
    assert lhs == rhs
