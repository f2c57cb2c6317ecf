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
vectors with the samples. So must the contracted read (`bilinear_sample`
with vectors, the key read) and the adjoint's query gradient.
"""
import dataclasses
import inspect
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from snlblock import sampling, sparse
from snlblock.dense import (fuse_residual, fuse_residual_backward, projections_backward,
                            softmax_rows_backward)
from snlblock.sampling import (bilinear_aggregate, bilinear_sample, bilinear_sample_backward,
                               query_chunks, sampling_plan)
from snlblock.sparse import (GridSpec, Shape2D, SnlActivations, SnlParams, apply_offsets,
                             base_grid, snl_backward, snl_forward, sparse_aggregate)
from snlblock.tensor import MultiplyCounter, conv1x1, softmax_rows


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
    # masked weights and masked weight derivatives of every corner, signs
    # of zeros included; each corner's buffer position is its clipped
    # pixel in its query's row of its tile's (queries x box) matrix
    coords = _coordinates(np.random.default_rng(seed), n, k, h, w, mode).astype(coord_dtype)
    plan = sampling_plan(coords, h, w)
    assert plan.grid == ((h, w) if n == h * w else (n, 1))
    cols = plan.grid[1]
    expected = np.full(plan.positions.shape, -1, dtype=np.int64)
    corners = list(_reference_corners(np.empty((1, h, w)), coords))
    for queries, size, tiles in plan.runs:
        for start, stop, rows, tile_cols, ys, xs in tiles:
            qy, qx = np.meshgrid(np.arange(plan.grid[0])[rows], np.arange(cols)[tile_cols],
                                 indexing="ij")
            query = queries.start + (qy * cols + qx).reshape(-1)
            place = np.arange(query.size)
            box_w, box_area = xs.stop - xs.start, (ys.stop - ys.start) * (xs.stop - xs.start)
            assert stop - start == query.size * box_area and stop <= size
            for c, (cx, cy, *_) in enumerate(corners):
                expected[c, query] = (start + place[:, None] * box_area
                                      + (cy[query] - ys.start) * box_w + cx[query] - xs.start)
                assert (ys.start <= cy[query]).all() and (cy[query] < ys.stop).all()
                assert (xs.start <= cx[query]).all() and (cx[query] < xs.stop).all()
    assert np.array_equal(plan.positions, expected)
    for c, (cx, cy, valid, wgt, dwdx, dwdy) in enumerate(corners):
        for got, ref in ((plan.weight[c], wgt * valid), (plan.weight_grad[0, c], dwdx * valid),
                         (plan.weight_grad[1, c], dwdy * valid)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    # without derivatives, the same reads
    reads = sampling_plan(coords, h, w, derivatives=False)
    assert reads.weight_grad is None and reads.runs == plan.runs
    assert np.array_equal(reads.positions, plan.positions)
    assert reads.weight.tobytes() == plan.weight.tobytes()


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
        logits = bilinear_sample(f, coords, plan, vectors)
        assert np.array_equal(logits, bilinear_sample(f, coords, vectors=vectors))


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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 5), h=st.integers(1, 19), w=st.integers(1, 19),
       queries=st.one_of(st.just("pixels"), st.integers(1, 40)), k=st.integers(1, 7),
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       chunk_elements=st.sampled_from([1, 300, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_contracted_read_matches_sampled_einsum(d, h, w, queries, k, mode, chunk_elements,
                                                seed):
    # the key read's logits, and the query gradient its adjoint gives with
    # aggregate, against the einsums of the samples; the shapes and modes
    # of the fused read test above, in float64
    n = h * w if queries == "pixels" else queries
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((d, h, w))
    coords = _coordinates(rng, n, k, h, w, mode)
    vectors = rng.standard_normal((d, n))
    grad_logits = rng.standard_normal((n, k))
    with mock.patch.object(sampling, "_BLOCK_ELEMENTS", chunk_elements):
        with MultiplyCounter() as counter:
            logits = bilinear_sample(f, coords, vectors=vectors)
        *grads, grad_q = bilinear_sample_backward(f, coords, grad_logits, vectors,
                                                  aggregate=True)
        assert len(grads) == 2   # the logits' own gradient is not formed
        alone = bilinear_sample_backward(f, coords, grad_logits, vectors)
    assert counter.count == n * k * d
    assert logits.shape == (n, k) and logits.dtype == np.float64
    samples, magnitudes = bilinear_sample(f, coords), bilinear_sample(np.abs(f), coords)
    _assert_close(logits, np.einsum("ci,ick->ik", vectors, samples),
                  np.einsum("ci,ick->ik", np.abs(vectors), magnitudes), 1e-12)
    assert grad_q.shape == (d, n) and grad_q.dtype == np.float64 and grad_q.flags.c_contiguous
    _assert_close(grad_q, np.einsum("ik,ick->ci", grad_logits, samples),
                  np.einsum("ik,ick->ci", np.abs(grad_logits), magnitudes), 1e-12)
    # the query gradient leaves the map and coordinate gradients as they
    # are without it
    assert all(np.array_equal(a, b) for a, b in zip(grads, alone[:2], strict=True))


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
    # the contracted read: that of f and the vectors
    vectors = rng.standard_normal((3, 30)).astype(weight_dtype)
    logits = bilinear_sample(f, coords, vectors=vectors)
    ref = np.einsum("ci,ick->ik", vectors, bilinear_sample(f, coords))
    assert logits.dtype == ref.dtype
    np.testing.assert_allclose(logits, ref, rtol=1e-5, atol=1e-5)


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
             for _, _, tiles in sampling_plan(coords, h, w).runs
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
    # the adjoints and the contracted key read of one SNL forward at
    # N=2401, K=81, C=64, against the same calls in float64 (which the
    # tests above tie to the reference at 1e-12); the bounds are twice the
    # float32 deviation of what each replaced, relative to the largest
    # entry: 7.3e-7 and 1.5e-7 for the scatter-based adjoint, 2.4e-7 for
    # the einsum of q with the key samples
    rng = np.random.default_rng(0)
    c, side, g = 64, 49, GridSpec(9, 9)
    p = SnlParams.random(rng, c, g.k, dtype=np.float32, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((c, side, side)).astype(np.float32)
    _, acts = snl_forward(x, p, g)
    vectors = rng.standard_normal((c, side * side)).astype(np.float32)
    coords64 = acts.coords.astype(np.float64)
    for f, v in ((acts.v_map, vectors), (acts.k_map, vectors[:c // 2])):
        got = bilinear_sample_backward(f, acts.coords, acts.affinity, v)
        ref = bilinear_sample_backward(f.astype(np.float64), coords64,
                                       acts.affinity.astype(np.float64), v.astype(np.float64))
        for a, b, bound in zip(got, ref, (2 * 7.3e-7, 2 * 1.5e-7)):
            assert a.dtype == np.float32
            assert np.abs(a - b).max() <= bound * np.abs(b).max()
    q = vectors[:c // 2]
    logits = bilinear_sample(acts.k_map, acts.coords, vectors=q)
    ref = bilinear_sample(acts.k_map.astype(np.float64), coords64, vectors=q.astype(np.float64))
    assert logits.dtype == np.float32
    assert np.abs(logits - ref).max() <= 2 * 2.4e-7 * np.abs(ref).max()


def test_one_plan_per_chunk_shared_by_both_reads_and_both_adjoints(monkeypatch):
    # chunks of one band of 8 query rows (720 samples each, above the
    # budget of 300): the forward builds each chunk's plan once, for its
    # key and value read, and the backward builds it once again, for both
    # adjoints; the activations keep none of them
    monkeypatch.setattr(sampling, "_BLOCK_ELEMENTS", 300)
    built, used = [], []

    def counting_plan(*args, **kwargs):
        built.append(sampling_plan(*args, **kwargs))
        return built[-1]

    def recording(name):
        read = getattr(sparse, name)
        signature = inspect.signature(read)

        def call(*args, **kwargs):
            used.append((name, signature.bind(*args, **kwargs).arguments["plan"]))
            return read(*args, **kwargs)
        return call

    monkeypatch.setattr(sparse, "sampling_plan", counting_plan)
    for name in ("bilinear_sample", "bilinear_aggregate", "bilinear_sample_backward"):
        monkeypatch.setattr(sparse, name, recording(name))
    rng = np.random.default_rng(2)
    p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((4, 12, 10))
    chunks = query_chunks(120, 9, 12, 10)
    assert [grid for _, grid in chunks] == [(8, 10), (4, 10)]

    z, acts = snl_forward(x, p, GridSpec(3, 3))
    assert len(built) == 2 and all(plan.weight_grad is None for plan in built)
    assert [name for name, _ in used] == ["bilinear_sample", "bilinear_aggregate"] * 2
    assert all(a is b for (_, a), b in zip(used, [q for q in built for _ in range(2)]))
    assert "plan" not in {f.name for f in dataclasses.fields(SnlActivations)}

    del used[:], built[:]
    snl_backward(acts, p, x, np.ones_like(z))
    assert len(built) == 2 and all(plan.weight_grad is not None for plan in built)
    assert [name for name, _ in used] == ["bilinear_sample_backward"] * 4
    assert all(a is b for (_, a), b in zip(used, [q for q in built for _ in range(2)]))


def test_small_map_is_one_chunk_and_paper_map_one_band_per_chunk():
    # the trainer's 32 x 32 map with a 3 x 3 window (9,216 samples) fits
    # the budget whole; at the paper's point a band of 8 x 49 queries
    # has 31,752 samples, so each band is its own chunk
    assert query_chunks(32 * 32, 9, 32, 32) == [(slice(0, 1024), (32, 32))]
    paper = query_chunks(49 * 49, 81, 49, 49)
    assert [grid for _, grid in paper] == [(8, 49)] * 6 + [(1, 49)]
    assert paper[-1][0] == slice(48 * 49, 49 * 49)


def test_activations_keep_no_corner_bookkeeping():
    # per sample, the activations keep the coordinates and the affinity
    # only: no positions, weights or weight derivatives of the corners
    rng = np.random.default_rng(5)
    c, h, w, g = 8, 32, 32, GridSpec(3, 3)
    p = SnlParams.random(rng, c, g.k, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((c, h, w)).astype(np.float32)
    _, acts = snl_forward(x, p, g)
    fields = {f.name: getattr(acts, f.name) for f in dataclasses.fields(SnlActivations)}
    assert set(fields) == {"q", "k_map", "v_map", "offsets", "coords", "affinity", "y",
                           "x_shape"}
    n, k = h * w, g.k
    kept = sum(a.nbytes for a in fields.values() if isinstance(a, np.ndarray))
    assert kept == x.itemsize * (c // 2 * n * 2 + c * n * 2 + 2 * k * n + n * k * 2 + n * k)


def _whole_map_block(x, p, g, grad_z):
    """z, the affinity, grad_x and the parameter gradients of the sparse
    block the way snl_forward and snl_backward formed them before they
    worked a chunk of query bands at a time: the standalone reads and
    adjoints composed over one whole-map sampling plan."""
    c, h, w = x.shape
    n = h * w
    xf = x.reshape(c, n)
    q = conv1x1(xf, p.w_theta, p.b_theta)
    k_map = conv1x1(xf, p.w_phi, p.b_phi).reshape(c // 2, h, w)
    v_map = conv1x1(xf, p.w_g, p.b_g).reshape(c, h, w)
    offsets = conv1x1(xf, p.w_offset, p.b_offset)
    coords = apply_offsets(base_grid(Shape2D(h, w), g, dtype=x.dtype), offsets)
    plan = sampling_plan(coords, h, w)
    s = softmax_rows(bilinear_sample(k_map, coords, plan, vectors=q))
    y = bilinear_aggregate(v_map, coords, s, plan)
    z = fuse_residual(y, p.w_gamma, xf, p.b_gamma).reshape(c, h, w)

    grad_y, grad_xf, grads = fuse_residual_backward(p, y, grad_z.reshape(c, n))
    grad_vmap, grad_coords, grad_s = bilinear_sample_backward(v_map, coords, s, grad_y, plan)
    grad_logits = softmax_rows_backward(s, grad_s)
    grad_kmap, grad_coords_k, grad_q = bilinear_sample_backward(
        k_map, coords, grad_logits, q, plan, aggregate=True)
    grad_coords += grad_coords_k
    grad_p = np.empty_like(offsets)
    grad_p[0::2, :] = grad_coords[:, :, 0].T
    grad_p[1::2, :] = grad_coords[:, :, 1].T
    grads["w_offset"] = grad_p @ xf.T
    grads["b_offset"] = grad_p.sum(axis=1)
    grad_xf += p.w_offset.T @ grad_p
    projections_backward(p, xf, grad_q, grad_kmap.reshape(c // 2, n), grad_vmap.reshape(c, n),
                         grad_xf, grads)
    return z, s, grad_xf.reshape(c, h, w), grads


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(h=st.integers(1, 19), w=st.integers(1, 19), kh=st.integers(1, 5), kw=st.integers(1, 5),
       c=st.sampled_from([2, 4, 6, 8]), dtype=FLOATS,
       chunk_elements=st.sampled_from([1, 300, 1 << 16]), seed=st.integers(0, 2**32 - 1))
def test_chunked_block_matches_whole_map_plan_byte_for_byte(h, w, kh, kw, c, dtype,
                                                            chunk_elements, seed):
    # maps of under one tile to several bands, H % 8 != 0; offsets put a
    # slot's samples on integer coordinates (a zero offset-head row and an
    # integer bias, up to a map's extent away) or on fractional ones, in
    # and far outside the map
    g = GridSpec(kh, kw)
    assume(g.k <= h * w)
    rng = np.random.default_rng(seed)
    p = SnlParams.random(rng, c, g.k, dtype=dtype, scale=0.5, zero_gamma=False,
                         zero_offset=False)
    integer = np.repeat(rng.random(g.k) < 0.5, 2)
    reach = max(h, w) + 3
    p.w_offset[integer] = 0
    p.b_offset[:] = np.where(integer, rng.integers(-reach, reach + 1, 2 * g.k),
                             rng.uniform(-reach, reach, 2 * g.k))
    x = rng.standard_normal((c, h, w)).astype(dtype)
    grad_z = rng.standard_normal((c, h, w)).astype(dtype)

    with mock.patch.object(sampling, "_BLOCK_ELEMENTS", chunk_elements):
        z, acts = snl_forward(x, p, g)
        grad_x, grads = snl_backward(acts, p, x, grad_z)
    ref_z, ref_s, ref_grad_x, ref_grads = _whole_map_block(x, p, g, grad_z)
    assert grads.keys() == ref_grads.keys()
    for got, ref in ((z, ref_z), (acts.affinity, ref_s), (grad_x, ref_grad_x),
                     *((grads[name], ref_grads[name]) for name in ref_grads)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


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
    # 16 value channels to the maps, far less than the 16 value channels
    # per sample that N x C x K value samples would add
    n, k = 24 * 24, 49
    grown = _forward_peak(32) - _forward_peak(16)
    assert grown < n * 16 * k * np.dtype(np.float32).itemsize, grown


def test_forward_peak_below_one_key_sample_array():
    # the key read is fused with the logits as well, so at C = 128 the
    # whole forward's peak (plan, layout and maps included) stays below
    # the N x C/2 x K key samples alone (7.2 MB)
    n, c, k = 24 * 24, 128, 49
    peak = _forward_peak(c)
    assert peak < n * (c // 2) * k * np.dtype(np.float32).itemsize, peak
