"""The layout-aligned bilinear sampler against the slow path it replaced.

`reference_sample` and `reference_sample_backward` are the previous
implementations: a D x N x K accumulation over `f[:, cy, cx]` and one
3-index `np.add.at` per corner. The fast path must reproduce them bit
for bit, including the order in which `np.add.at` accumulates into a
pixel that several samples share. The fast adjoint takes its upstream
gradient as the factors (weights N x K, vectors D x N) of an outer
product; the reference takes the product itself. A sampling plan built
once and shared by several maps must give what each call gives without
it.
"""
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snlblock import sparse
from snlblock.sparse import (GridSpec, SnlParams, bilinear_sample,
                             bilinear_sample_backward, sampling_plan,
                             snl_backward, snl_forward)


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

    grad_f, grad_coords = bilinear_sample_backward(f, coords, weights, vectors)
    ref_f, ref_coords = reference_sample_backward(f, coords, _product(weights, vectors))
    assert grad_f.dtype == ref_f.dtype and grad_coords.dtype == ref_coords.dtype
    assert np.array_equal(grad_f, ref_f)
    assert np.array_equal(grad_coords, ref_coords)


def test_shared_pixels_accumulate_in_reference_order():
    # every sample lands in the same cell, so each pixel of grad_f sums
    # 4 * N * K float32 terms whose order decides the low bits
    rng = np.random.default_rng(0)
    f = rng.standard_normal((3, 2, 2)).astype(np.float32)
    coords = (0.5 + 0.01 * rng.standard_normal((40, 9, 2))).astype(np.float32)
    weights = (rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-2, 3, (40, 9))
               ).astype(np.float32)
    vectors = (rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-1, 2, (3, 40))
               ).astype(np.float32)
    grad_f, grad_coords = bilinear_sample_backward(f, coords, weights, vectors)
    ref_f, ref_coords = reference_sample_backward(f, coords, _product(weights, vectors))
    assert np.array_equal(grad_f, ref_f)
    assert np.array_equal(grad_coords, ref_coords)


def test_paper_channel_count_matches_reference():
    # D = 64 as at the paper's operating point, where the sum over
    # channels in the coordinate gradient is long enough for a
    # reordered reduction to change its low bits
    rng = np.random.default_rng(1)
    f = rng.standard_normal((64, 9, 9)).astype(np.float32)
    coords = _coordinates(rng, 60, 9, 9, 9, "mixed").astype(np.float32)
    weights = rng.standard_normal((60, 9)).astype(np.float32)
    vectors = rng.standard_normal((64, 60)).astype(np.float32)
    assert np.array_equal(bilinear_sample(f, coords), reference_sample(f, coords))
    grad_f, grad_coords = bilinear_sample_backward(f, coords, weights, vectors)
    ref_f, ref_coords = reference_sample_backward(f, coords, _product(weights, vectors))
    assert np.array_equal(grad_f, ref_f)
    assert np.array_equal(grad_coords, ref_coords)


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
            assert np.array_equal(got, ref) and np.array_equal(got, alone)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(d=st.integers(1, 6), h=st.integers(1, 7), w=st.integers(1, 7),
       n=st.integers(1, 9), k=st.integers(1, 7), f_dtype=FLOATS, coord_dtype=FLOATS,
       weight_dtype=FLOATS, vector_dtype=FLOATS,
       mode=st.sampled_from(["fractional", "integer", "outside", "mixed"]),
       shared_plan=st.booleans(), block_elements=st.sampled_from([1, 20, 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_factored_grad_matches_product_and_reference(d, h, w, n, k, f_dtype, coord_dtype,
                                                     weight_dtype, vector_dtype, mode,
                                                     shared_plan, block_elements, seed):
    # small block sizes split the queries into several blocks, as at
    # the paper's operating point
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((d, h, w)).astype(f_dtype)
    coords = _coordinates(rng, n, k, h, w, mode).astype(coord_dtype)
    weights = rng.standard_normal((n, k)).astype(weight_dtype)
    vectors = rng.standard_normal((d, n)).astype(vector_dtype)
    plan = sampling_plan(coords, h, w) if shared_plan else None
    with mock.patch.object(sparse, "_BLOCK_ELEMENTS", block_elements):
        factored = bilinear_sample_backward(f, coords, weights, vectors, plan)
    for got, ref in zip(factored,
                        reference_sample_backward(f, coords, _product(weights, vectors))):
        assert _same_bytes(got, ref)


def test_one_plan_per_forward_and_backward(monkeypatch):
    built = []

    def counting_plan(*args):
        built.append(args)
        return sampling_plan(*args)

    monkeypatch.setattr(sparse, "sampling_plan", counting_plan)
    rng = np.random.default_rng(2)
    p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((4, 5, 6))
    z, acts = snl_forward(x, p, GridSpec(3, 3))
    snl_backward(acts, p, x, np.ones_like(z))
    assert len(built) == 1
