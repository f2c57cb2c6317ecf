import tracemalloc

import numpy as np
import pytest

from snlblock.dense import (NlParams, dense_affinity, dense_aggregate,
                            fuse_residual, nl_backward, nl_forward,
                            softmax_rows_backward)
from snlblock.tensor import (ConfigError, ConsistencyError, DimensionError, NumericError,
                             softmax_rows)
from test_tensor import triple_loop_matmul


def make_params(rng, c, dtype=np.float64, **kw):
    return NlParams.random(rng, c, dtype=dtype, **kw)


class TestDenseAffinity:
    def test_equal_columns_give_uniform_rows(self):
        q = np.ones((3, 5))
        a = dense_affinity(q, q)
        np.testing.assert_allclose(a, 1.0 / 5, rtol=1e-12)

    def test_identity_embeddings(self):
        eye = np.eye(2)
        a = dense_affinity(eye, eye)
        # dot products per row are {1, 0}
        p = np.e / (np.e + 1)
        np.testing.assert_allclose(a, [[p, 1 - p], [1 - p, p]], atol=1e-4)

    def test_49x49_feature_map_gives_2401_square(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 49 * 49)).astype(np.float32)
        k = rng.standard_normal((2, 49 * 49)).astype(np.float32)
        a = dense_affinity(q, k)
        assert a.shape == (2401, 2401)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dense_affinity(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_rows_stochastic_double(self):
        rng = np.random.default_rng(1)
        a = dense_affinity(rng.standard_normal((4, 30)), rng.standard_normal((4, 30)))
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


class TestDenseAggregate:
    def test_identity_affinity(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 6))
        assert np.allclose(dense_aggregate(v, np.eye(6)), v)

    def test_uniform_affinity_means(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((3, 6))
        a = np.full((6, 6), 1.0 / 6)
        out = dense_aggregate(v, a)
        np.testing.assert_allclose(out, np.tile(v.mean(axis=1, keepdims=True), 6),
                                   atol=1e-12)

    def test_loop_oracle(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((3, 6)).astype(np.float32)
        a = softmax_rows(rng.standard_normal((6, 6)).astype(np.float32))
        out = dense_aggregate(v, a)
        for i in range(6):
            expected = sum(a[i, j] * v[:, j] for j in range(6))
            np.testing.assert_allclose(out[:, i], expected, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dense_aggregate(np.zeros((3, 5)), np.zeros((6, 6)))


def test_float32_dense_core_within_rounding_of_float64_triple_loop():
    # float32 BLAS against the float64 triple loop on the same values. Per
    # query i, with L_i the largest entry of row i of |q|^T |k|: the logits
    # and the max shift are off by at most (C/2 + 2) L_i eps, which moves
    # each affinity relatively by twice that; softmax's exp, sum and divide
    # add (N + 3) eps and the length-N aggregation N eps more. The
    # tolerance is that sum, plus 3 eps of slack, times |v| a^T.
    rng = np.random.default_rng(8)
    n, c = 49, 8
    q, k = (rng.standard_normal((c // 2, n)).astype(np.float32) for _ in range(2))
    v = rng.standard_normal((c, n)).astype(np.float32)
    out = dense_aggregate(v, dense_affinity(q, k))
    assert out.dtype == np.float32
    q64, k64, v64 = (t.astype(np.float64) for t in (q, k, v))
    a64 = softmax_rows(triple_loop_matmul(q64.T, k64))
    expected = triple_loop_matmul(v64, a64.T)
    big_logit = (np.abs(q64).T @ np.abs(k64)).max(axis=1)
    tol = ((np.abs(v64) @ a64.T) * (2 * (c // 2 + 2) * big_logit + 2 * n + 6)
           * np.finfo(np.float32).eps)
    assert (np.abs(out - expected) <= tol).all(), np.abs(out - expected).max()


class TestFuseResidual:
    def test_zero_gamma_returns_x(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        assert np.array_equal(fuse_residual(y, np.zeros((4, 4)), x, np.zeros(4)), x)

    def test_identity_gamma_zero_y(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 6))
        assert np.array_equal(fuse_residual(np.zeros_like(x), np.eye(4), x, np.zeros(4)), x)

    def test_integer_values_match_matmul_plus_add_exactly(self):
        # small integers: every partial sum is exact, so any summation
        # order gives the triple loop's bits
        rng = np.random.default_rng(7)
        for dtype in (np.float32, np.float64):
            x = rng.integers(-8, 9, (4, 6)).astype(dtype)
            y = rng.integers(-8, 9, (4, 6)).astype(dtype)
            w = rng.integers(-8, 9, (4, 4)).astype(dtype)
            assert np.array_equal(fuse_residual(y, w, x, np.zeros(4, dtype)),
                                  triple_loop_matmul(w, y) + x)

    def test_reruns_are_byte_identical(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 2401)).astype(np.float32)
        y = rng.standard_normal((64, 2401)).astype(np.float32)
        w = rng.standard_normal((64, 64)).astype(np.float32)
        b = np.zeros(64, dtype=np.float32)
        first = fuse_residual(y, w, x, b)
        assert fuse_residual(y, w, x, b).tobytes() == first.tobytes()
        assert fuse_residual(y.copy(), w.copy(), x.copy(), b.copy()).tobytes() == first.tobytes()

    def test_float32_within_rounding_of_float64_reference(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        y = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((4, 4)).astype(np.float32)
        z = fuse_residual(y, w, x, np.zeros(4, np.float32))
        assert z.dtype == np.float32
        x64, y64, w64 = x.astype(np.float64), y.astype(np.float64), w.astype(np.float64)
        # bound on a length-C dot product plus one add, (C + 1) * eps *
        # (|w| @ |y| + |x|), doubled for the reference's own rounding
        tol = 2 * (4 + 1) * np.finfo(np.float32).eps * (np.abs(w64) @ np.abs(y64) + np.abs(x64))
        assert (np.abs(z - (w64 @ y64 + x64)) <= tol).all()


class TestSoftmaxRowsBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2401, 81), (300, 300), (7, 3)])
    def test_in_place_form_matches_three_array_form(self, shape, dtype):
        rng = np.random.default_rng(11)
        a = softmax_rows(rng.standard_normal(shape).astype(dtype))
        grad_a = rng.standard_normal(shape).astype(dtype)
        inner = (grad_a * a).sum(axis=1, keepdims=True)
        expected = a * (grad_a - inner)
        out = softmax_rows_backward(a, grad_a)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_holds_one_array_of_the_input_size(self):
        rng = np.random.default_rng(12)
        a = softmax_rows(rng.standard_normal((400, 400)))
        grad_a = rng.standard_normal((400, 400))
        tracemalloc.start()
        try:
            softmax_rows_backward(a, grad_a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.nbytes, peak


class TestNlParams:
    @pytest.mark.parametrize("name", ["b_theta", "b_phi", "b_g", "b_gamma"])
    def test_mis_shaped_bias_rejected(self, name):
        d = vars(make_params(np.random.default_rng(0), 4))
        for shape in ((d[name].size + 1,), (d[name].size, 1)):
            with pytest.raises(DimensionError, match=name):
                NlParams(**{**d, name: np.zeros(shape)})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["w_theta", "w_phi", "w_g", "w_gamma",
                                      "b_theta", "b_phi", "b_g", "b_gamma"])
    def test_non_finite_array_rejected(self, name, value):
        d = vars(make_params(np.random.default_rng(0), 4))
        arr = d[name].copy()
        arr.flat[-1] = value
        with pytest.raises(ConfigError, match=name):
            NlParams(**{**d, name: arr})


class TestNlForward:
    def test_zero_gamma_is_identity(self):
        rng = np.random.default_rng(8)
        p = make_params(rng, 4, zero_gamma=True)
        x = rng.standard_normal((4, 9))
        z, _ = nl_forward(x, p)
        assert np.array_equal(z, x)

    def test_all_zero_weights_give_uniform_affinity(self):
        c, n = 4, 9
        zeros = lambda *s: np.zeros(s)
        p = NlParams(zeros(2, 4), zeros(2, 4), zeros(4, 4), zeros(4, 4),
                     zeros(2), zeros(2), zeros(4), zeros(4))
        x = np.random.default_rng(9).standard_normal((c, n))
        z, acts = nl_forward(x, p)
        np.testing.assert_allclose(acts.affinity, 1.0 / n)
        assert np.array_equal(z, x)

    def test_odd_channels_rejected(self):
        with pytest.raises((ConfigError, DimensionError)):
            NlParams(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                     np.zeros(1), np.zeros(1), np.zeros(3), np.zeros(3))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        p = make_params(rng, 4, zero_gamma=False)
        x = rng.standard_normal((4, 12))
        perm = rng.permutation(12)
        z, _ = nl_forward(x, p)
        z_perm, _ = nl_forward(x[:, perm], p)
        np.testing.assert_allclose(z_perm, z[:, perm], atol=1e-12)

    def test_finite_random_double(self):
        rng = np.random.default_rng(11)
        p = make_params(rng, 4, zero_gamma=False)
        x = rng.standard_normal((4, 16))
        z, acts = nl_forward(x, p)
        assert np.isfinite(z).all()
        np.testing.assert_allclose(acts.affinity.sum(axis=1), 1.0, atol=1e-12)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e20, 1e21])
    def test_overflowing_logits_raise(self, scale):
        # at 1e20 the float32 logits overflow to inf without a NaN, which
        # softmax_rows used to turn into a non-finite z without raising
        rng = np.random.default_rng(0)
        p = NlParams.random(rng, 4, dtype=np.float32, zero_gamma=False)
        x = rng.standard_normal((4, 9)).astype(np.float32)
        with pytest.raises(NumericError):
            nl_forward(x * np.float32(scale), p)


class TestNlBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(12)
        p = make_params(rng, 4, zero_gamma=False)
        x = rng.standard_normal((4, 9))
        z, acts = nl_forward(x, p)
        gx, grads = nl_backward(acts, p, x, np.zeros_like(z))
        assert not gx.any()
        assert all(not g.any() for g in grads.values())

    def test_zero_gamma_passes_grad_through_residual(self):
        rng = np.random.default_rng(13)
        p = make_params(rng, 4, zero_gamma=True)
        x = rng.standard_normal((4, 9))
        z, acts = nl_forward(x, p)
        grad_z = rng.standard_normal(z.shape)
        gx, grads = nl_backward(acts, p, x, grad_z)
        # only the identity path and the fusion weight carry signal
        assert np.array_equal(gx, grad_z)
        assert grads["w_gamma"].any()
        assert not grads["w_theta"].any()

    def test_inconsistent_shapes_rejected(self):
        rng = np.random.default_rng(14)
        p = make_params(rng, 4)
        x = rng.standard_normal((4, 9))
        z, acts = nl_forward(x, p)
        with pytest.raises(ConsistencyError):
            nl_backward(acts, p, x, np.zeros((4, 5)))

    def test_activations_of_another_input_rejected(self):
        # x and grad_z agree with each other, not with the activations
        rng = np.random.default_rng(14)
        p = make_params(rng, 4)
        _, acts = nl_forward(rng.standard_normal((4, 9)), p)
        x = rng.standard_normal((4, 16))
        with pytest.raises(ConsistencyError):
            nl_backward(acts, p, x, np.zeros_like(x))

    def test_matches_finite_differences(self):
        # C=4, N=9, double: max relative error < 1e-6
        from snlblock.gradcheck import check_block
        reports = check_block("dense-nl", seed=0, dims={"c": 4, "n": 9})
        assert all(r.passed for r in reports), [r.line() for r in reports]
