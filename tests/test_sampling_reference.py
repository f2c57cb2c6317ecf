"""The bilinear sampler, its fused aggregation and its adjoint against the
slow paths they replaced.

`reference_sample` and `reference_sample_backward` are the previous
implementations: a D x N x K accumulation over `f[:, cy, cx]` and one
3-index `np.add.at` per corner. The forward read must reproduce
`reference_sample` bit for bit. The adjoint forms its sums with BLAS
products over query tiles, so it must match `reference_sample_backward`
to float rounding: within 1e-12 of the terms' magnitude in float64. It
takes its upstream gradient as the factors (weights N x K, vectors
D x N) of an outer product; the reference takes the product itself. A
sampling plan built once and shared by several maps must give what
each call gives without it. The fused read `bilinear_aggregate` must
match `sparse_aggregate` of the sampled values to float rounding in the
same sense, and the adjoint's weights gradient the einsum of the upstream
vectors with the samples.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snlblock import sampling, sparse
from snlblock.sampling import (bilinear_aggregate, bilinear_sample, bilinear_sample_backward,
                               sampling_plan)
from snlblock.sparse import (GridSpec, Shape2D, SnlParams, base_grid, snl_backward,
                             snl_forward, sparse_aggregate)
from snlblock.tensor import MultiplyCounter


def _reference_corners(f, coords):
    h, w = f.shape[1], f.shape[2]
    tx = coords[..., 0]
    ty = coords[..., 1]
    x0 = np.floor(tx)
    y0 = np.floor(ty)
    u = tx - x0
    v = ty - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    one = np.ones_like(u)
    corners = (
        (x0,     y0,     (1 - u) * (1 - v), -(1 - v), -(1 - u)),
        (x0 + 1, y0,     u * (1 - v),        (1 - v), -u),
        (x0,     y0 + 1, (1 - u) * v,       -v,        (1 - u)),
        (x0 + 1, y0 + 1, u * v,              v,        u),
    )
    for cx, cy, wgt, dwdx, dwdy in corners:
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        yield (np.clip(cx, 0, w - 1), np.clip(cy, 0, h - 1), valid,
               wgt, dwdx * one, dwdy * one)


def reference_sample(f, coords):
    d = f.shape[0]
    n, k, _ = coords.shape
    out = np.zeros((d, n, k), dtype=f.dtype)
    for cx, cy, valid, wgt, _, _ in _reference_corners(f, coords):
        out += (wgt * valid) * f[:, cy, cx]
    return out.transpose(1, 0, 2)


def _product(weights, vectors):
    """The N x D x K upstream gradient whose factors are weights and vectors."""
    return np.einsum("ik,ci->ick", weights, vectors)


def reference_sample_backward(f, coords, grad_out):
    d = f.shape[0]
    go = grad_out.transpose(1, 0, 2)
    grad_f = np.zeros_like(f)
    grad_coords = np.zeros_like(coords)
    didx = np.arange(d)[:, None, None]
    for cx, cy, valid, wgt, dwdx, dwdy in _reference_corners(f, coords):
        masked = go * valid
        np.add.at(grad_f, (didx, cy[None], cx[None]), wgt * masked)
        fval = f[:, cy, cx] * valid
        grad_coords[..., 0] += dwdx * (go * fval).sum(axis=0)
        grad_coords[..., 1] += dwdy * (go * fval).sum(axis=0)
    return grad_f, grad_coords


FLOATS = st.sampled_from([np.float32, np.float64])


def _coordinates(rng, n, k, h, w, mode):
    """N x K x 2 sample points; mode picks fractional points in and
    around the image, exact integers, or points wholly outside it."""
    extent = np.array([w, h], dtype=np.float64)
    if mode == "fractional":
        return rng.uniform(-1.5, 1.0, (n, k, 2)) + rng.uniform(0, 1, (n, k, 2)) * extent
    if mode == "integer":
        return np.floor(rng.uniform(-1, 1, (n, k, 2)) + rng.uniform(0, 1, (n, k, 2)) * extent)
    if mode == "outside":
        side = rng.choice([-1.0, 1.0], (n, k, 2))
        return np.where(side < 0, -1.0 - rng.uniform(0.01, 3, (n, k, 2)),
                        extent + rng.uniform(0.0, 3, (n, k, 2)))
    # mixed: every kind in one call, several samples sharing pixels
    parts = [_coordinates(rng, n, k, h, w, m) for m in ("fractional", "integer", "outside")]
    pick = rng.integers(0, 3, (n, k, 1))
    return np.choose(pick, parts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 6), h=st.integers(1, 7), w=st.integers(1, 7),
       n=st.integers(1, 9), k=st.integers(1, 7),
       f_dtype=FLOATS, coord_dtype=FLOATS, grad_dtype=FLOATS,
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_fast_path_matches_reference_bit_for_bit(d, h, w, n, k, f_dtype, coord_dtype,
                                                 grad_dtype, mode, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((d, h, w)).astype(f_dtype)
    coords = _coordinates(rng, n, k, h, w, mode).astype(coord_dtype)
    weights = rng.standard_normal((n, k)).astype(grad_dtype)
    vectors = rng.standard_normal((d, n)).astype(grad_dtype)

    out = bilinear_sample(f, coords)
    ref = reference_sample(f, coords)
    assert out.dtype == ref.dtype and out.flags.c_contiguous
    assert np.array_equal(out, ref)

    grad_f, grad_coords, grad_weights = bilinear_sample_backward(f, coords, weights, vectors)
    ref_f, ref_coords = reference_sample_backward(f, coords, _product(weights, vectors))
    assert grad_f.dtype == ref_f.dtype and grad_coords.dtype == ref_coords.dtype
    assert grad_weights.dtype == weights.dtype and grad_weights.shape == weights.shape


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(h=st.integers(1, 7), w=st.integers(1, 7), n=st.integers(1, 9), k=st.integers(1, 7),
       coord_dtype=FLOATS, mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_plan_matches_reference_corners_byte_for_byte(h, w, n, k, coord_dtype, mode, seed):
    # pixels, masked weights and masked weight derivatives of every corner,
    # signs of zeros included
    coords = _coordinates(np.random.default_rng(seed), n, k, h, w, mode).astype(coord_dtype)
    plan = sampling_plan(coords, h, w)
    for c, (cx, cy, valid, wgt, dwdx, dwdy) in enumerate(
            _reference_corners(np.empty((1, h, w)), coords)):
        dy, dx = divmod(c, 2)
        assert np.array_equal(plan.cell[dx, 0], cx) and np.array_equal(plan.cell[dy, 1], cy)
        for got, ref in ((plan.weight[c], wgt * valid), (plan.weight_grad[0, c], dwdx * valid),
                         (plan.weight_grad[1, c], dwdy * valid)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_paper_channel_count_matches_reference():
    # D = 64 as at the paper's operating point
    rng = np.random.default_rng(1)
    f = rng.standard_normal((64, 9, 9)).astype(np.float32)
    coords = _coordinates(rng, 60, 9, 9, 9, "mixed").astype(np.float32)
    assert np.array_equal(bilinear_sample(f, coords), reference_sample(f, coords))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d1=st.integers(1, 6), d2=st.integers(1, 6), h=st.integers(1, 7), w=st.integers(1, 7),
       n=st.integers(1, 9), k=st.integers(1, 7), f_dtype=FLOATS, coord_dtype=FLOATS,
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_shared_plan_matches_reference_and_unplanned_calls(d1, d2, h, w, n, k, f_dtype,
                                                          coord_dtype, mode, seed):
    # one plan serves two maps of different channel counts, the way the
    # key and value reads of snl_forward share theirs
    rng = np.random.default_rng(seed)
    coords = _coordinates(rng, n, k, h, w, mode).astype(coord_dtype)
    plan = sampling_plan(coords, h, w)
    for d in (d1, d2):
        f = rng.standard_normal((d, h, w)).astype(f_dtype)
        weights = rng.standard_normal((n, k)).astype(f_dtype)
        vectors = rng.standard_normal((d, n)).astype(f_dtype)
        out = bilinear_sample(f, coords, plan)
        assert np.array_equal(out, reference_sample(f, coords))
        assert np.array_equal(out, bilinear_sample(f, coords))
        grads = bilinear_sample_backward(f, coords, weights, vectors, plan)
        unplanned = bilinear_sample_backward(f, coords, weights, vectors)
        reference = reference_sample_backward(f, coords, _product(weights, vectors))
        for got, ref, alone in zip(grads, reference, unplanned):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, alone)
        assert np.array_equal(grads[2], unplanned[2])
        aggregate = bilinear_aggregate(f, coords, weights, plan)
        assert np.array_equal(aggregate, bilinear_aggregate(f, coords, weights))


def _magnitudes(f, coords, weights, vectors):
    """Bounds on the summed magnitude of the terms of each output
    element: the reference on absolute values for grad_f, and four
    corners times |weight| * |vectors[:, n]| . max|f| for grad_coords
    (each |dw/dt| is at most 1)."""
    scale_f, _ = reference_sample_backward(np.abs(f), coords,
                                           _product(np.abs(weights), np.abs(vectors)))
    per_query = np.abs(vectors).sum(axis=0) * np.abs(f).max(initial=0.0)
    scale_coords = 4 * np.abs(weights) * per_query[:, None]
    return scale_f, np.repeat(scale_coords[..., None], 2, axis=2)


def _assert_close(got, ref, scale, rtol):
    assert got.shape == ref.shape
    err = np.abs(got.astype(np.float64) - ref)
    assert (err <= rtol * scale + 1e-300).all(), float((err / (scale + 1e-300)).max())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 5), h=st.integers(1, 19), w=st.integers(1, 19),
       queries=st.one_of(st.just("pixels"), st.integers(1, 40)), k=st.integers(1, 7),
       f_dtype=FLOATS, coord_dtype=FLOATS, weight_dtype=FLOATS, vector_dtype=FLOATS,
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       chunk_elements=st.sampled_from([1, 300, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_adjoint_matches_float64_reference(d, h, w, queries, k, f_dtype, coord_dtype,
                                           weight_dtype, vector_dtype, mode,
                                           chunk_elements, seed):
    # maps smaller than one tile, sides that are not multiples of 8 and
    # H or W = 1; N = H * W (query n is pixel n, so the queries are
    # tiled on the map) or any other N (tiled as a column). Small
    # chunks give every band of tiles its own buffer.
    n = h * w if queries == "pixels" else queries
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((d, h, w)).astype(f_dtype)
    coords = _coordinates(rng, n, k, h, w, mode).astype(coord_dtype)
    weights = rng.standard_normal((n, k)).astype(weight_dtype)
    vectors = rng.standard_normal((d, n)).astype(vector_dtype)
    with mock.patch.object(sampling, "_BLOCK_ELEMENTS", chunk_elements):
        grad_f, grad_coords, grad_weights = bilinear_sample_backward(f, coords, weights,
                                                                     vectors)
    assert grad_f.dtype == f.dtype and grad_coords.dtype == coords.dtype
    assert grad_weights.dtype == weights.dtype

    # the reference in float64 on the same values; a float32 input
    # rounds the products to float32
    f64, c64, w64, v64 = (a.astype(np.float64) for a in (f, coords, weights, vectors))
    ref_f, ref_coords = reference_sample_backward(f64, c64, _product(w64, v64))
    scale_f, scale_coords = _magnitudes(f64, c64, w64, v64)
    all64 = {f_dtype, coord_dtype, weight_dtype, vector_dtype} == {np.float64}
    rtol = 1e-12 if all64 else 1e-5
    _assert_close(grad_f, ref_f, scale_f, rtol)
    _assert_close(grad_coords, ref_coords, scale_coords, rtol)
    # the weights' gradient: the upstream vectors dotted with the samples
    ref_weights = np.einsum("ci,ick->ik", v64, bilinear_sample(f64, c64))
    scale_weights = np.einsum("ci,ick->ik", np.abs(v64), bilinear_sample(np.abs(f64), c64))
    _assert_close(grad_weights, ref_weights, scale_weights, rtol)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 5), h=st.integers(1, 19), w=st.integers(1, 19),
       queries=st.one_of(st.just("pixels"), st.integers(1, 40)), k=st.integers(1, 7),
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       chunk_elements=st.sampled_from([1, 300, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_fused_read_matches_sampled_aggregate(d, h, w, queries, k, mode, chunk_elements,
                                              seed):
    # the same shapes and modes as the adjoint test above, in float64
    n = h * w if queries == "pixels" else queries
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((d, h, w))
    coords = _coordinates(rng, n, k, h, w, mode)
    weights = rng.standard_normal((n, k))
    with mock.patch.object(sampling, "_BLOCK_ELEMENTS", chunk_elements), \
            MultiplyCounter() as counter:
        y = bilinear_aggregate(f, coords, weights)
    assert counter.count == n * k * d
    assert y.shape == (d, n) and y.dtype == np.float64 and y.flags.c_contiguous
    ref = sparse_aggregate(bilinear_sample(f, coords), weights)
    scale = sparse_aggregate(bilinear_sample(np.abs(f), coords), np.abs(weights))
    _assert_close(y, ref, scale, 1e-12)


@pytest.mark.parametrize("f_dtype, weight_dtype, coord_dtype", [
    (np.float32, np.float32, np.float32), (np.float32, np.float32, np.float64),
    (np.float32, np.float64, np.float32), (np.float64, np.float32, np.float32)])
def test_fused_read_dtype(f_dtype, weight_dtype, coord_dtype):
    # the dtype sparse_aggregate gives: that of f and the weights
    rng = np.random.default_rng(8)
    f = rng.standard_normal((3, 6, 5)).astype(f_dtype)
    coords = _coordinates(rng, 30, 4, 6, 5, "mixed").astype(coord_dtype)
    weights = rng.standard_normal((30, 4)).astype(weight_dtype)
    y = bilinear_aggregate(f, coords, weights)
    ref = sparse_aggregate(bilinear_sample(f, coords), weights)
    assert y.dtype == ref.dtype
    np.testing.assert_allclose(y, ref, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("mode", ["fractional", "integer", "outside", "mixed"])
@pytest.mark.parametrize("h, w, n", [(21, 19, 21 * 19), (9, 16, 50)])
def test_adjoint_identity(mode, h, w, n):
    # <S f, G> = <f, S^T G> for the linear read S at fixed coordinates
    rng = np.random.default_rng(3)
    d, k = 3, 9
    f = rng.standard_normal((d, h, w))
    coords = _coordinates(rng, n, k, h, w, mode)
    weights = rng.standard_normal((n, k))
    vectors = rng.standard_normal((d, n))
    lhs = np.einsum("ick,ick->", bilinear_sample(f, coords), _product(weights, vectors))
    grad_f, _, _ = bilinear_sample_backward(f, coords, weights, vectors)
    rhs = np.vdot(f, grad_f)
    scale = np.einsum("ick,ick->", np.abs(bilinear_sample(np.abs(f), coords)),
                      np.abs(_product(weights, vectors)))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_far_samples_widen_every_box_within_one_map_of_scratch():
    # every query reads its 3x3 window plus one sample in an image
    # corner: the top-left one or the opposite one, alternating in a
    # checkerboard, so every tile's box is the whole image
    h = w = 32
    n, d = h * w, 4
    rng = np.random.default_rng(4)
    qy, qx = np.divmod(np.arange(n), w)
    far = np.where((qx + qy)[:, None] % 2 == 0, [w - 1.25, h - 1.25], [0.25, 0.25])
    coords = np.concatenate([base_grid(Shape2D(h, w), GridSpec(3, 3)), far[:, None, :]],
                            axis=1)
    f = rng.standard_normal((d, h, w))
    weights = rng.standard_normal((n, coords.shape[1]))
    vectors = rng.standard_normal((d, n))
    boxes = [(ys.stop - ys.start, xs.stop - xs.start)
             for _, _, tiles in sampling_plan(coords, h, w).tiles.chunks
             for *_, ys, xs in tiles]
    assert boxes == [(h, w)] * 16

    # scratch, plan and layout included, within one N x HW array
    tracemalloc.start()
    try:
        grad_f, grad_coords, grad_weights = bilinear_sample_backward(f, coords, weights,
                                                                     vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * h * w * f.itemsize, peak

    ref_f, ref_coords = reference_sample_backward(f, coords, _product(weights, vectors))
    scale_f, scale_coords = _magnitudes(f, coords, weights, vectors)
    _assert_close(grad_f, ref_f, scale_f, 1e-12)
    _assert_close(grad_coords, ref_coords, scale_coords, 1e-12)
    _assert_close(grad_weights, np.einsum("ci,ick->ik", vectors, bilinear_sample(f, coords)),
                  np.einsum("ci,ick->ik", np.abs(vectors), bilinear_sample(np.abs(f), coords)),
                  1e-12)


def test_float32_paper_point_against_float64():
    # the adjoints of one SNL forward at N=2401, K=81, C=64, against the
    # same call in float64 (which the test above ties to the reference
    # at 1e-12); the bounds are twice the float32 deviation of the
    # scatter-based adjoint this one replaced (7.3e-7 and 1.5e-7 of the
    # largest entry)
    rng = np.random.default_rng(0)
    c, side, g = 64, 49, GridSpec(9, 9)
    p = SnlParams.random(rng, c, g.k, dtype=np.float32, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((c, side, side)).astype(np.float32)
    _, acts = snl_forward(x, p, g)
    vectors = rng.standard_normal((c, side * side)).astype(np.float32)
    coords64 = acts.coords.astype(np.float64)
    for f, v in ((acts.v_map, vectors), (acts.k_map, vectors[:c // 2])):
        got = bilinear_sample_backward(f, acts.coords, acts.affinity, v, acts.plan)
        ref = bilinear_sample_backward(f.astype(np.float64), coords64,
                                       acts.affinity.astype(np.float64), v.astype(np.float64))
        for a, b, bound in zip(got, ref, (2 * 7.3e-7, 2 * 1.5e-7)):
            assert a.dtype == np.float32
            assert np.abs(a - b).max() <= bound * np.abs(b).max()


def test_one_plan_per_forward_and_backward(monkeypatch):
    built, laid_out = [], []

    def counting_plan(*args):
        built.append(args)
        return sampling_plan(*args)

    def counting_layout(plan):
        laid_out.append(plan)
        return tile_layout(plan)

    tile_layout = sampling._tile_layout
    monkeypatch.setattr(sparse, "sampling_plan", counting_plan)
    monkeypatch.setattr(sampling, "_tile_layout", counting_layout)
    rng = np.random.default_rng(2)
    p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((4, 5, 6))
    z, acts = snl_forward(x, p, GridSpec(3, 3))
    assert len(built) == 1
    assert laid_out == [acts.plan]   # built by the forward's value read
    snl_backward(acts, p, x, np.ones_like(z))
    assert len(built) == 1
    assert laid_out == [acts.plan]   # and shared by both adjoints


def _forward_peak(c):
    """tracemalloc peak of one snl_forward at 24 x 24, K = 49, float32."""
    rng = np.random.default_rng(17)
    p = SnlParams.random(rng, c, 49, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((c, 24, 24)).astype(np.float32)
    snl_forward(x, p, GridSpec(7, 7))   # warm the shared base grid
    tracemalloc.start()
    try:
        snl_forward(x, p, GridSpec(7, 7))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_peak_grows_by_less_than_the_value_samples():
    # the value read is fused into the aggregation, so the forward never
    # forms the N x C x K value samples: going from C = 16 to C = 32 adds
    # 8 key channels to each of the N x K samples it keeps (and 16 value
    # channels to the maps), less than the 16 value channels per sample
    # that N x C x K value samples would add. The peak itself is not
    # compared with one N x C x K array: the key samples kept for the
    # backward pass are half of one, and the sampling plan and tile
    # layout take about as much again.
    n, k = 24 * 24, 49
    grown = _forward_peak(32) - _forward_peak(16)
    assert grown < n * 16 * k * np.dtype(np.float32).itemsize, grown
