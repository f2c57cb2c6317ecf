import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilinear_reference import reference_sample
from snlblock.dense import NlParams, nl_forward
from snlblock.sparse import (GridSpec, SnlParams, apply_offsets,
                             base_grid, bilinear_aggregate, bilinear_sample,
                             bilinear_sample_backward, full_coverage_grid,
                             offset_head, sampling_plan, snl_backward,
                             snl_forward, sparse_affinity, sparse_aggregate)
from snlblock.tensor import (ConfigError, ConsistencyError, DimensionError,
                             MultiplyCounter, NumericError, conv1x1)


class TestBaseGrid:
    def test_centered_3x3_window(self):
        grid = base_grid(8, 8, GridSpec(3, 3))
        i = 5 * 8 + 5  # query (5, 5)
        assert sorted(set(grid[i, :, 0])) == [4.0, 5.0, 6.0]
        assert sorted(set(grid[i, :, 1])) == [4.0, 5.0, 6.0]
        assert grid.shape == (64, 9, 2)

    def test_degenerate_1x1_window(self):
        grid = base_grid(3, 4, GridSpec(1, 1))
        for y in range(3):
            for x in range(4):
                assert tuple(grid[y * 4 + x, 0]) == (x, y)

    def test_operating_point_9x9(self):
        grid = base_grid(49, 49, GridSpec(9, 9))
        assert grid.shape == (2401, 81, 2)

    def test_even_window_fractional_centers(self):
        grid = base_grid(6, 6, GridSpec(2, 2))
        i = 3 * 6 + 3
        assert sorted(set(grid[i, :, 0])) == [2.5, 3.5]

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ConfigError):
            base_grid(2, 2, GridSpec(3, 3))

    def test_cached_read_only(self):
        first = base_grid(7, 5, GridSpec(3, 3), dtype=np.float32)
        assert base_grid(7, 5, GridSpec(3, 3), dtype=np.float32) is first
        assert base_grid(7, 5, GridSpec(3, 3), dtype=np.dtype("float32")) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0
        assert base_grid(7, 5, GridSpec(3, 3), dtype=np.float64) is not first

    @pytest.mark.parametrize("h, w", [(0, 3), (3, 0), (-1, 3), (3, -2)])
    def test_degenerate_extent_is_config_error(self, h, w):
        message = f"degenerate shape {h}x{w}$"
        with pytest.raises(ConfigError, match=message):
            base_grid(h, w, GridSpec(1, 1))
        with pytest.raises(ConfigError, match=message):
            full_coverage_grid(h, w)
        if min(h, w) == 0:  # an array cannot have a negative extent
            p = SnlParams.random(np.random.default_rng(0), 4, 1)
            with pytest.raises(ConfigError, match=message):
                snl_forward(np.zeros((4, h, w), dtype=np.float32), p, GridSpec(1, 1))

    def test_snl_forward_unchanged_by_cache(self):
        # the shared grid gives the same bits as a private writable copy
        rng = np.random.default_rng(17)
        p = SnlParams.random(rng, 4, 9, dtype=np.float32, zero_gamma=False,
                             zero_offset=False)
        x = rng.standard_normal((4, 6, 7)).astype(np.float32)
        g = GridSpec(3, 3)
        private = np.array(base_grid(6, 7, g, dtype=np.float32))
        assert private.flags.writeable
        z_own, acts_own = snl_forward(x, p, base=private)
        for _ in range(2):
            z, acts = snl_forward(x, p, g)
            assert np.array_equal(z, z_own)
            assert np.array_equal(acts.coords, acts_own.coords)
            assert acts.coords.flags.writeable


class TestOffsetHead:
    def test_zero_everything_gives_regular_grid(self):
        x = np.random.default_rng(0).standard_normal((4, 10))
        out = offset_head(x, np.zeros((18, 4)), np.zeros(18))
        assert not out.any()

    def test_constant_bias_shifts_right(self):
        x = np.random.default_rng(1).standard_normal((4, 10))
        bias = np.tile([1.0, 0.0], 9)
        p = offset_head(x, np.zeros((18, 4)), bias)
        base = base_grid(2, 5, GridSpec(3, 3))
        coords = apply_offsets(base, p)
        np.testing.assert_allclose(coords[..., 0], base[..., 0] + 1.0)
        np.testing.assert_allclose(coords[..., 1], base[..., 1])

    def test_equals_conv1x1(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 10))
        w = rng.standard_normal((18, 4))
        b = rng.standard_normal(18)
        assert np.array_equal(offset_head(x, w, b), conv1x1(x, w, b))

    def test_odd_channel_count_rejected(self):
        with pytest.raises(DimensionError):
            offset_head(np.zeros((4, 10)), np.zeros((17, 4)), np.zeros(17))


class TestApplyOffsets:
    def test_zero_offsets_bit_exact(self):
        base = base_grid(4, 4, GridSpec(3, 3))
        coords = apply_offsets(base, np.zeros((18, 16)))
        assert np.array_equal(coords, base)

    def test_direct_addition(self):
        base = np.array([[[4.0, 4.0]]])
        p = np.array([[0.5], [-0.25]])
        coords = apply_offsets(base, p)
        np.testing.assert_allclose(coords, [[[4.5, 3.75]]])

    def test_elementwise_add_oracle(self):
        rng = np.random.default_rng(3)
        base = base_grid(3, 3, GridSpec(2, 2))
        p = rng.standard_normal((8, 9))
        coords = apply_offsets(base, p)
        for i in range(9):
            for k in range(4):
                assert coords[i, k, 0] == base[i, k, 0] + p[2 * k, i]
                assert coords[i, k, 1] == base[i, k, 1] + p[2 * k + 1, i]


def _read(f, coords):
    """f (D x H x W) read at coords (N x 1 x 2) -> D x N: the value read
    with K = 1 and unit weights."""
    plan = sampling_plan(coords, f.shape[1], f.shape[2], derivatives=False)
    return bilinear_aggregate(f, coords, np.ones(coords.shape[:2], dtype=f.dtype), plan)


class TestBilinearSample:
    def test_integer_coords_exact(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((3, 5, 7))
        coords = np.array([[[2.0, 3.0]], [[6.0, 4.0]], [[0.0, 0.0]]])
        out = _read(f, coords)
        assert np.array_equal(out[:, 0], f[:, 3, 2])
        assert np.array_equal(out[:, 1], f[:, 4, 6])
        assert np.array_equal(out[:, 2], f[:, 0, 0])

    def test_midpoint_is_four_pixel_average(self):
        f = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        out = _read(f, np.array([[[0.5, 0.5]]]))
        assert out[0, 0] == 1.5

    def test_fully_out_of_bounds_is_zero(self):
        f = np.ones((2, 3, 3))
        out = _read(f, np.array([[[-1.0, -1.0]]]))
        assert not out.any()

    def test_partial_out_of_bounds(self):
        f = np.ones((1, 3, 3))
        # halfway off the left edge: only two in-bounds corners, each 0.25
        out = _read(f, np.array([[[-0.5, 0.5]]]))
        np.testing.assert_allclose(out[0, 0], 0.5)

    def test_nan_coordinate_rejected(self):
        with pytest.raises(NumericError):
            sampling_plan(np.array([[[np.nan, 0.0]]]), 3, 3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_coordinate_rejected(self, bad):
        with pytest.raises(NumericError):
            sampling_plan(np.array([[[0.5, bad]]]), 3, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("point", [(1e19, 0.5), (-1e30, 0.5), (0.5, 1e19),
                                       (0.5, -1e30), (-1e30, 1e19)])
    def test_far_outside_coordinate_reads_zero(self, point, dtype):
        # far beyond the int64 range: the corner cast must neither warn
        # nor wrap around into the image
        f = np.ones((2, 3, 3), dtype=dtype)
        coords = np.array([[point], [(1.0, 1.0)]], dtype=dtype)
        out = _read(f, coords)
        assert not out[:, 0].any() and np.array_equal(out[:, 1], [1.0, 1.0])
        # upstream gradient 1 on every channel of the far sample, 0 on the other
        weights = np.array([[1.0], [0.0]], dtype=dtype)
        gf = np.zeros_like(f)
        gc, gw = bilinear_sample_backward(f, coords, weights, np.ones((2, 2), dtype=dtype),
                                          sampling_plan(coords, 3, 3), gf)
        assert not gf.any() and not gc.any()
        assert np.array_equal(gw, [[0.0], [2.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value, point", [(1e30, (1.5, 1.5)), (np.inf, (1.0, 1.0))])
    def test_non_finite_logits_raise_without_warning(self, value, point):
        # float32 products that overflow, and an inf pixel under a corner
        # of zero weight (inf * 0): one NumericError, which the trainer
        # reports as divergence, and no RuntimeWarning
        f = np.ones((2, 3, 3), dtype=np.float32)
        f[:, 1, 2] = value
        coords = np.array([[point]], dtype=np.float32)
        vectors = np.full((2, 1), 1e30 if np.isfinite(value) else 1.0, dtype=np.float32)
        plan = sampling_plan(coords, 3, 3, derivatives=False)
        with pytest.raises(NumericError):
            bilinear_sample(f, coords, plan, vectors)

    @pytest.mark.parametrize("vectors", [(3, 2), (2, 2), (1, 3)])
    def test_contracted_read_rejects_wrong_vector_shape(self, vectors):
        # D x N vectors; (1, 3) would broadcast
        coords = np.full((3, 2, 2), 1.5)
        plan = sampling_plan(coords, 4, 4, derivatives=False)
        with pytest.raises(DimensionError):
            bilinear_sample(np.ones((2, 4, 4)), coords, plan, np.ones(vectors))

    @pytest.mark.parametrize("n,k,h,w", [(3, 5, 4, 4), (2, 2, 4, 4), (3, 2, 5, 4), (3, 2, 4, 3)])
    def test_plan_for_other_shape_rejected(self, n, k, h, w):
        f = np.ones((2, 4, 4))
        coords = np.full((3, 2, 2), 1.5)
        plan = sampling_plan(np.full((n, k, 2), 1.5), h, w)
        with pytest.raises(DimensionError):
            bilinear_sample(f, coords, plan, np.ones((2, 3)))
        with pytest.raises(DimensionError):
            bilinear_aggregate(f, coords, np.ones((3, 2)), plan)
        with pytest.raises(DimensionError):
            bilinear_sample_backward(f, coords, np.ones((3, 2)), np.ones((2, 3)), plan,
                                     np.zeros_like(f))

    def test_backward_rejects_a_plan_without_derivatives(self):
        # a forward pass's plan serves the reads only; the adjoint needs the
        # weights' derivatives, and gradients without them would be wrong
        f = np.ones((2, 4, 4))
        coords = np.full((3, 2, 2), 1.5)
        plan = sampling_plan(coords, 4, 4, derivatives=False)
        assert bilinear_sample(f, coords, plan, vectors=np.ones((2, 3))).shape == (3, 2)
        with pytest.raises(ConsistencyError):
            bilinear_sample_backward(f, coords, np.ones((3, 2)), np.ones((2, 3)), plan,
                                     np.zeros_like(f))

    def test_plan_from_other_coordinates_rejected(self):
        # same shape and extent, so only the array itself tells the plan
        # apart: each read would otherwise sample at the plan's points
        f = np.ones((2, 6, 6))
        coords = np.full((3, 2, 2), 1.5)
        plan = sampling_plan(np.full((3, 2, 2), 4.5), 6, 6)
        with pytest.raises(ConsistencyError, match="other coordinates"):
            bilinear_sample(f, coords, plan, np.ones((2, 3)))
        with pytest.raises(ConsistencyError, match="other coordinates"):
            bilinear_aggregate(f, coords, np.ones((3, 2)), plan)
        with pytest.raises(ConsistencyError, match="other coordinates"):
            bilinear_sample_backward(f, coords, np.ones((3, 2)), np.ones((2, 3)), plan,
                                     np.zeros_like(f))
        # an equal copy is another array too
        with pytest.raises(ConsistencyError):
            bilinear_sample(f, coords.copy(), sampling_plan(coords, 6, 6), np.ones((2, 3)))

    @pytest.mark.parametrize("weights, vectors", [((3, 2), (3, 2)), ((2, 3), (2, 3)),
                                                  ((3, 2), (1, 3)), ((3, 1), (2, 3))])
    def test_backward_rejects_wrong_factor_shapes(self, weights, vectors):
        # N x K weights and D x N vectors; (3, 1) and (1, 3) would broadcast
        f = np.ones((2, 4, 4))
        coords = np.full((3, 2, 2), 1.5)
        with pytest.raises(DimensionError):
            bilinear_sample_backward(f, coords, np.ones(weights), np.ones(vectors),
                                     sampling_plan(coords, 4, 4), np.zeros_like(f))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((2, 4, 4))
        coords = rng.uniform(0.3, 2.7, size=(3, 2, 2))
        weights = rng.standard_normal((3, 2))
        vectors = rng.standard_normal((2, 3))
        grad_out = np.einsum("ik,ci->ick", weights, vectors)
        gf = np.zeros_like(f)
        gc, gw = bilinear_sample_backward(f, coords, weights, vectors,
                                          sampling_plan(coords, 4, 4), gf)
        eps = 1e-6

        def loss(f_, coords_):
            return float((reference_sample(f_, coords_) * grad_out).sum())

        for idx in np.ndindex(f.shape):
            fp = f.copy(); fp[idx] += eps
            fm = f.copy(); fm[idx] -= eps
            np.testing.assert_allclose(gf[idx], (loss(fp, coords) - loss(fm, coords)) / (2 * eps),
                                       atol=1e-7)
        for idx in np.ndindex(coords.shape):
            cp = coords.copy(); cp[idx] += eps
            cm = coords.copy(); cm[idx] -= eps
            np.testing.assert_allclose(gc[idx], (loss(f, cp) - loss(f, cm)) / (2 * eps),
                                       atol=1e-6)
        # the loss is linear in the weights
        np.testing.assert_allclose(
            gw, np.einsum("ick,ci->ik", reference_sample(f, coords), vectors), atol=1e-12)


class TestSparseAffinity:
    def test_equal_keys_uniform(self):
        rng = np.random.default_rng(6)
        q = rng.standard_normal((3, 5))
        sampled = np.tile(rng.standard_normal((1, 3, 1)), (5, 1, 4))
        s = sparse_affinity(q, sampled)
        np.testing.assert_allclose(s, 0.25, atol=1e-12)

    def test_scalar_softmax_oracle(self):
        # one query, dot products (1, 0)
        q = np.array([[1.0]])
        sampled = np.array([[[1.0, 0.0]]])
        s = sparse_affinity(q, sampled)
        p = np.e / (np.e + 1)
        np.testing.assert_allclose(s, [[p, 1 - p]], atol=1e-4)

    def test_operating_point_row_length(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((2, 50)).astype(np.float32)
        sampled = rng.standard_normal((50, 2, 81)).astype(np.float32)
        s = sparse_affinity(q, sampled)
        assert s.shape == (50, 81)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sparse_affinity(np.zeros((3, 5)), np.zeros((5, 2, 4)))


class TestSparseAggregate:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 60), c=st.integers(1, 70), k=st.integers(1, 90),
           s_dtype=st.sampled_from([np.float32, np.float64]),
           v_dtype=st.sampled_from([np.float32, np.float64]),
           strided=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_same_bytes_as_an_einsum_into_c_order(self, n, c, k, s_dtype, v_dtype,
                                                  strided, seed):
        # the aggregate (and grad_q in snl_backward) sums into an N x C
        # array and copies its transpose; y's bits, and through y's
        # memory order the w_gamma gradient's, must not change
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((n, k)).astype(s_dtype)
        v = rng.standard_normal((n, c, 2 * k if strided else k)).astype(v_dtype)
        v = v[:, :, ::2] if strided else v
        y = sparse_aggregate(v, s)
        expected = np.einsum("ik,ick->ci", s, v, order="C")
        assert y.flags.c_contiguous and y.dtype == expected.dtype
        assert y.tobytes() == expected.tobytes()


class TestSnlParams:
    def test_is_dense_params_plus_offset_head(self):
        p = SnlParams.random(np.random.default_rng(0), 4, 9)
        assert isinstance(p, NlParams)
        assert list(p.param_groups()) == [
            "w_theta", "w_phi", "w_g", "w_gamma", "w_offset",
            "b_theta", "b_phi", "b_g", "b_gamma", "b_offset"]

    def test_random_draw_order(self):
        # gamma, then the offset head, then the projections: a seed gives
        # the weights it gave before SnlParams derived from NlParams
        p = SnlParams.random(np.random.default_rng(3), 4, 9, dtype=np.float64,
                             scale=1.0, zero_gamma=False, zero_offset=False)
        rng = np.random.default_rng(3)
        for name, shape in (("w_gamma", (4, 4)), ("w_offset", (18, 4)),
                            ("w_theta", (2, 4)), ("w_phi", (2, 4)), ("w_g", (4, 4))):
            assert np.array_equal(getattr(p, name), rng.standard_normal(shape)), name

    def test_offset_head_channels_checked(self):
        d = vars(NlParams.random(np.random.default_rng(0), 4))
        with pytest.raises(DimensionError):
            SnlParams(**d, w_offset=np.zeros((18, 6)), b_offset=np.zeros(18))
        with pytest.raises(DimensionError):
            SnlParams(**d, w_offset=np.zeros((17, 4)), b_offset=np.zeros(17))
        with pytest.raises(ConfigError):
            SnlParams(**{**d, "w_g": np.full((4, 4), np.inf)}, w_offset=np.zeros((18, 4)),
                      b_offset=np.zeros(18))

    @pytest.mark.parametrize("name", ["b_theta", "b_phi", "b_g", "b_gamma", "b_offset"])
    def test_mis_shaped_bias_rejected(self, name):
        d = vars(SnlParams.random(np.random.default_rng(0), 4, 9))
        for shape in ((d[name].size + 1,), (d[name].size, 1)):
            with pytest.raises(DimensionError, match=name):
                SnlParams(**{**d, name: np.zeros(shape)})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["w_theta", "w_phi", "w_g", "w_gamma", "w_offset",
                                      "b_theta", "b_phi", "b_g", "b_gamma", "b_offset"])
    def test_non_finite_array_rejected(self, name, value):
        d = vars(SnlParams.random(np.random.default_rng(0), 4, 9))
        arr = d[name].copy()
        arr.flat[-1] = value
        with pytest.raises(ConfigError, match=name):
            SnlParams(**{**d, name: arr})


class TestSnlForward:
    def test_zero_gamma_is_identity(self):
        rng = np.random.default_rng(11)
        p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=True,
                             zero_offset=False)
        x = rng.standard_normal((4, 6, 6))
        z, _ = snl_forward(x, p, GridSpec(3, 3))
        assert np.array_equal(z, x)

    def test_zero_offsets_keep_base_grid_bit_exact(self):
        rng = np.random.default_rng(12)
        p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_offset=True)
        x = rng.standard_normal((4, 6, 6))
        _, acts = snl_forward(x, p, GridSpec(3, 3))
        base = base_grid(6, 6, GridSpec(3, 3))
        assert np.array_equal(acts.coords, base)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    def test_dense_equivalence(self, dtype, tol):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c, h, w = 4, 5, 5
            n = h * w
            sp = SnlParams.random(rng, c, n, dtype=dtype, zero_gamma=False,
                                  zero_offset=True)
            x = rng.standard_normal((c, h, w)).astype(dtype)
            z_sparse, _ = snl_forward(x, sp, base=full_coverage_grid(h, w, dtype=dtype))
            z_dense, _ = nl_forward(x.reshape(c, n), sp)
            assert np.abs(z_sparse.reshape(c, n) - z_dense).max() < tol

    def test_paper_operating_point_shapes(self):
        rng = np.random.default_rng(13)
        p = SnlParams.random(rng, 4, 81, dtype=np.float32, zero_offset=False)
        x = rng.standard_normal((4, 49, 49)).astype(np.float32)
        z, acts = snl_forward(x, p, GridSpec(9, 9))
        assert z.shape == (4, 49, 49)
        assert acts.affinity.shape == (2401, 81)
        np.testing.assert_allclose(acts.affinity.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # the coordinates are checked before the sampling plan casts
        # them to integers
        rng = np.random.default_rng(16)
        p = SnlParams.random(rng, 4, 9, dtype=np.float32, zero_gamma=False,
                             zero_offset=False)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        x[1, 2, 3] = bad
        with pytest.raises(NumericError):
            snl_forward(x, p, GridSpec(3, 3))

    def test_multiply_counts(self):
        rng = np.random.default_rng(14)
        c, h, w, k = 4, 6, 6, 9
        n = h * w
        p = SnlParams.random(rng, c, k, dtype=np.float64, zero_offset=False)
        x = rng.standard_normal((c, h, w))
        with MultiplyCounter() as mc:
            snl_forward(x, p, GridSpec(3, 3))
        assert mc.count == n * k * (c // 2) + n * k * c


class TestSnlBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(15)
        p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=False,
                             zero_offset=False)
        x = rng.standard_normal((4, 5, 5))
        z, acts = snl_forward(x, p, GridSpec(3, 3))
        gx, grads = snl_backward(acts, p, x, np.zeros_like(z))
        assert not gx.any()
        assert all(not g.any() for g in grads.values())

    def test_activations_of_another_input_rejected(self):
        # x and grad_z agree with each other, not with the activations
        rng = np.random.default_rng(15)
        p = SnlParams.random(rng, 4, 9, dtype=np.float64, zero_gamma=False,
                             zero_offset=False)
        _, acts = snl_forward(rng.standard_normal((4, 5, 5)), p, GridSpec(3, 3))
        x = rng.standard_normal((4, 5, 6))
        with pytest.raises(ConsistencyError):
            snl_backward(acts, p, x, np.zeros_like(x))

    def test_frozen_offsets_gradcheck(self):
        # zero offset head: remaining parameter gradients match finite
        # differences at the dense threshold
        from snlblock.gradcheck import central_diff, relative_errors
        rng = np.random.default_rng(16)
        g = GridSpec(3, 3)
        p = SnlParams.random(rng, 4, 9, dtype=np.float64, scale=0.4,
                             zero_gamma=False, zero_offset=True)
        x = rng.standard_normal((4, 5, 5))

        def loss(x_):
            z, _ = snl_forward(x_, p, g)
            return 0.5 * float((z * z).sum())

        z, acts = snl_forward(x, p, g)
        gx, _ = snl_backward(acts, p, x, z)
        numeric = central_diff(loss, x, 1e-5)
        assert relative_errors(gx, numeric, 0.0).max() < 1e-6

    def test_peak_below_one_sample_array(self):
        # the samples' upstream gradients reach the sampler as factors, so
        # no N x C x K array, the size of the value samples, is allocated
        rng = np.random.default_rng(17)
        p = SnlParams.random(rng, 32, 49, zero_gamma=False, zero_offset=False)
        x = rng.standard_normal((32, 24, 24)).astype(np.float32)
        z, acts = snl_forward(x, p, GridSpec(7, 7))
        tracemalloc.start()
        try:
            snl_backward(acts, p, x, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, c, k = 24 * 24, 32, 49
        assert peak < n * c * k * x.itemsize

    def test_full_gradcheck_kink_avoided(self):
        from snlblock.gradcheck import check_block
        reports = check_block("snl", seed=0)
        assert all(r.passed for r in reports), [r.line() for r in reports]


def test_only_the_dense_core_calls_tensor_matmul(monkeypatch):
    # perfbench's tensor.matmul.* rows (calls, multiplies, self time) read
    # as the dense core's products, so no other code may call matmul
    import snlblock.dense
    import snlblock.tensor
    calls = []
    checked = snlblock.tensor.matmul

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return checked(a, b)

    monkeypatch.setattr(snlblock.dense, "matmul", counted)
    rng = np.random.default_rng(18)
    p = SnlParams.random(rng, 4, 9, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((4, 5, 5)).astype(np.float32)
    with monkeypatch.context() as m:
        m.setattr(snlblock.tensor, "matmul", counted)
        snl_forward(x, p, GridSpec(3, 3))
        assert calls == []
        nl_forward(x.reshape(4, 25), p)
    n = 25
    assert calls == [((n, 2), (2, n)), ((4, n), (n, n))]


def test_matmul_calls_of_a_map_of_several_row_blocks(monkeypatch):
    # past one row block the dense core calls matmul once per block of
    # logits and once for the aggregate; the products still multiply out
    # to the core's N^2 C/2 + N^2 C
    import snlblock.dense
    calls = []
    checked = snlblock.dense.matmul

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return checked(a, b)

    monkeypatch.setattr(snlblock.dense, "matmul", counted)
    rng = np.random.default_rng(19)
    c, side = 4, 23
    n = side * side
    p = SnlParams.random(rng, c, 9, zero_gamma=False, zero_offset=False)
    x = rng.standard_normal((c, side, side)).astype(np.float32)
    snl_forward(x, p, GridSpec(3, 3))
    assert calls == []
    nl_forward(x.reshape(c, n), p)
    blocks = snlblock.dense._query_blocks(n, n)
    assert len(blocks) >= 2
    assert calls == [*(((r.stop - r.start, c // 2), (c // 2, n)) for r in blocks),
                     ((c, n), (n, n))]
    assert sum(a[0] * a[1] * b[1] for a, b in calls) == n * n * (c // 2) + n * n * c
