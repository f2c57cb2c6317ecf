"""Dense tensor primitives shared by every block in this package.

Conventions used throughout:
  - feature maps are channel-major: C x H x W, flattened spatially to
    C x N with index i = y * W + x (row-major, last dim fastest)
  - single precision (float32) is the default compute mode; gradient
    checking runs in double
  - only the dense attention core (`matmul`) sums in ascending index
    order, so a triple-loop oracle matches it exactly; the 1x1
    projections and the residual fusion (`conv1x1`) run on BLAS, whose
    reruns are bit-identical but whose summation order is not fixed
"""
from __future__ import annotations

import numpy as np

SINGLE = np.float32
DOUBLE = np.float64


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class NumericError(ValueError):
    """Non-finite values where finite ones are required."""


class ConfigError(ValueError):
    """A structural precondition (e.g. even channel count) is violated."""


class ConsistencyError(ValueError):
    """Backward pass received activations that do not match its inputs."""


class MultiplyCounter:
    """Counts the multiplies performed by the attention cores.

    Only the affinity and aggregation products are tallied; projections
    and residual fusion are excluded so the count isolates the part of
    the cost that differs between the dense and sparse blocks.

    Counters nest: every counter still open receives each tally.

    Usage::

        with MultiplyCounter() as mc:
            dense_affinity(q, k)
        print(mc.count)
    """

    _active: "list[MultiplyCounter]" = []

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self) -> "MultiplyCounter":
        self.count = 0
        MultiplyCounter._active.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        MultiplyCounter._active.remove(self)
        return False


def tally_multiplies(n: int) -> None:
    """Record n core multiplies on every open counter."""
    for counter in MultiplyCounter._active:
        counter.count += n


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with deterministic ascending-k accumulation.

    c[m][q] = sum_p a[m][p] * b[p][q], summed in ascending p order, so
    two calls on identical inputs are bit-identical and a triple-loop
    oracle matches exactly.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    # contiguous copies keep the per-p row reads cache-friendly when a
    # transpose view is passed in; values are unaffected
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for p in range(a.shape[1]):
        out += a[:, p, None] * b[None, p, :]
    return out


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by per-row max subtraction."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionError(f"softmax_rows expects a rank-2 input, got {m.shape}")
    # an infinite logit would make its row NaN
    if not np.isfinite(m).all():
        raise NumericError("softmax_rows input is not finite")
    # formed in place: one array of m's size besides m
    e = m - m.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def conv1x1(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution over flattened space: w @ x plus bias.

    x is Cin x N, w is Cout x Cin, bias is length Cout. The product runs
    on BLAS: reruns are bit-identical, but the order of the sums is
    BLAS's, so it matches `matmul` only within float rounding.
    """
    x = np.asarray(x)
    w = np.asarray(w)
    bias = np.asarray(bias)
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"conv1x1 expects rank-2 operands, got w {w.shape}, x {x.shape}")
    if w.shape[1] != x.shape[0]:
        raise DimensionError(f"conv1x1 channel mismatch: w {w.shape}, x {x.shape}")
    if bias.shape != (w.shape[0],):
        raise DimensionError(f"conv1x1 bias shape {bias.shape} does not match Cout={w.shape[0]}")
    return w @ x + bias[:, None]
