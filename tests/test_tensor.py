import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snlblock.tensor import (DimensionError, MultiplyCounter, NumericError,
                             conv1x1, matmul, tally_multiplies,
                             softmax_rows)


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for m in range(a.shape[0]):
        for q in range(b.shape[1]):
            acc = out.dtype.type(0)
            for p in range(a.shape[1]):
                acc += a[m, p] * b[p, q]
            out[m, q] = acc
    return out


def assert_within_dot_rounding(out, expected, w, x, b):
    """out may differ from expected by the standard bound on a length-Cin
    dot product plus one bias add, (Cin + 1) * eps * (|w| @ |x| + |b|), in
    out's precision; doubled, since expected carries its own rounding."""
    scale = np.abs(w) @ np.abs(x) + np.abs(b)[:, None]
    tol = 2 * (w.shape[1] + 1) * np.finfo(out.dtype).eps * scale
    assert (np.abs(out - expected) <= tol).all(), np.abs(out - expected).max()


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(matmul(eye, eye), eye)

    def test_row_sums(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b), [[3.0], [7.0]])

    def test_matches_triple_loop_within_dot_rounding(self):
        # BLAS sums in its own order; the float64 triple loop is the reference
        rng = np.random.default_rng(0)
        for dtype in (np.float32, np.float64):
            a = rng.standard_normal((5, 7)).astype(dtype)
            b = rng.standard_normal((7, 3)).astype(dtype)
            out = matmul(a, b)
            assert out.dtype == dtype
            a64, b64 = a.astype(np.float64), b.astype(np.float64)
            assert_within_dot_rounding(out, triple_loop_matmul(a64, b64), a64, b64,
                                       np.zeros(5))

    def test_small_integers_match_triple_loop_exactly(self):
        # every partial sum is exact, so any summation order gives the same bits
        rng = np.random.default_rng(0)
        for dtype in (np.float32, np.float64):
            a = rng.integers(-8, 9, (5, 7)).astype(dtype)
            b = rng.integers(-8, 9, (7, 3)).astype(dtype)
            assert np.array_equal(matmul(a, b), triple_loop_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity_single(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.standard_normal((3, 4)).astype(np.float32)
            b = rng.standard_normal((4, 5)).astype(np.float32)
            c = rng.standard_normal((5, 2)).astype(np.float32)
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, atol=1e-5)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        assert np.array_equal(matmul(a, b), matmul(a, b))


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_scalar_oracle(self):
        out = softmax_rows(np.array([[1.0, 0.0]]))
        e = np.e
        np.testing.assert_allclose(out, [[e / (e + 1), 1 / (e + 1)]], rtol=1e-12)

    def test_shift_invariance_large_logits(self):
        big = softmax_rows(np.array([[1000.0, 999.0]]))
        small = softmax_rows(np.array([[1.0, 0.0]]))
        assert np.isfinite(big).all()
        np.testing.assert_allclose(big, small, rtol=1e-12)

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax_rows(np.array([[np.nan, 0.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinity_rejected(self, bad):
        # an infinite logit used to give a NaN row and only a warning
        with pytest.raises(NumericError):
            softmax_rows(np.array([[0.5, 0.25], [bad, 1.0]]))

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_rows_sum_to_one(self, dtype, tol):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((1000, 8)).astype(dtype)
        rows[::3] *= 1e3  # magnitude-1e3 entries included
        sums = softmax_rows(rows).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=tol)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((100, 6))
        out = softmax_rows(rows)
        assert np.array_equal(out.argmax(axis=1), rows.argmax(axis=1))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2401, 81), (300, 300), (7, 3), (1, 1)])
    def test_in_place_form_matches_three_array_form(self, shape, dtype):
        rng = np.random.default_rng(6)
        m = (4 * rng.standard_normal(shape)).astype(dtype)
        shifted = m - m.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=1, keepdims=True)
        out = softmax_rows(m)
        assert out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_holds_one_array_of_the_input_size(self):
        m = np.random.default_rng(7).standard_normal((400, 400))
        tracemalloc.start()
        try:
            softmax_rows(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * m.nbytes, peak


class TestConv1x1:
    def test_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(conv1x1(x, np.eye(2), np.zeros(2)), x)

    def test_column_sums(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = conv1x1(x, np.array([[1.0, 1.0]]), np.zeros(1))
        assert np.array_equal(out, [[4.0, 6.0]])

    def test_integer_values_match_matmul_exactly(self):
        # small integers: every partial sum is exact, so any summation
        # order gives the triple loop's bits
        rng = np.random.default_rng(5)
        for dtype in (np.float32, np.float64):
            x = rng.integers(-8, 9, (3, 7)).astype(dtype)
            w = rng.integers(-8, 9, (4, 3)).astype(dtype)
            b = rng.integers(-8, 9, 4).astype(dtype)
            assert np.array_equal(conv1x1(x, w, b), triple_loop_matmul(w, x) + b[:, None])

    def test_reruns_are_byte_identical(self):
        # the offset head's shape at the paper's point (2K = 162 rows)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((64, 2401)).astype(np.float32)
        w = rng.standard_normal((162, 64)).astype(np.float32)
        b = rng.standard_normal(162).astype(np.float32)
        first = conv1x1(x, w, b)
        assert conv1x1(x, w, b).tobytes() == first.tobytes()
        assert conv1x1(x.copy(), w.copy(), b.copy()).tobytes() == first.tobytes()

    def test_float32_within_rounding_of_float64_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 7)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = conv1x1(x, w, b)
        assert out.dtype == np.float32
        x64, w64, b64 = x.astype(np.float64), w.astype(np.float64), b.astype(np.float64)
        expected = triple_loop_matmul(w64, x64) + b64[:, None]
        assert_within_dot_rounding(out, expected, w64, x64, b64)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv1x1(np.zeros((3, 4)), np.zeros((2, 2)), np.zeros(2))


def _draw(rng, shape, dtype, transposed):
    """A standard-normal array of `shape`; a transposed (non-contiguous)
    view of a (cols x rows) array when `transposed`."""
    if transposed:
        return rng.standard_normal(shape[::-1]).astype(dtype).T
    return rng.standard_normal(shape).astype(dtype)


@settings(max_examples=80, deadline=None)
@given(cout=st.integers(1, 9), cin=st.integers(1, 9), n=st.integers(1, 40),
       w_dtype=st.sampled_from([np.float32, np.float64]),
       x_dtype=st.sampled_from([np.float32, np.float64]),
       w_transposed=st.booleans(), x_transposed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_conv1x1_matches_float64_reference(cout, cin, n, w_dtype, x_dtype, w_transposed,
                                           x_transposed, seed):
    rng = np.random.default_rng(seed)
    w = _draw(rng, (cout, cin), w_dtype, w_transposed)
    x = _draw(rng, (cin, n), x_dtype, x_transposed)
    b = rng.standard_normal(cout).astype(w_dtype)
    out = conv1x1(x, w, b)
    assert out.dtype == np.result_type(w, x)
    assert out.shape == (cout, n)
    w64, x64, b64 = w.astype(np.float64), x.astype(np.float64), b.astype(np.float64)
    assert_within_dot_rounding(out, w64 @ x64 + b64[:, None], w64, x64, b64)


def test_multiply_counters_nest():
    with MultiplyCounter() as outer:
        tally_multiplies(16)
        with MultiplyCounter() as inner:
            tally_multiplies(16)
        tally_multiplies(16)
    tally_multiplies(16)  # no counter open
    assert (outer.count, inner.count) == (48, 16)
