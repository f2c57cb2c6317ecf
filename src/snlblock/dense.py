"""Dense non-local block: the reference attention every sparse result is
checked against.

Forward: q/k/v projections, dense N x N row-stochastic affinity, value
aggregation, 1x1 fusion plus residual. Backward is the hand-derived
adjoint of that chain (softmax Jacobian included).

The affinity stored for the backward pass is the one N x N array either
pass keeps: the logits, their softmax adjoint and the affinity's
gradient are formed one block of query rows at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    conv1x1,
    matmul,
    softmax_rows,
    tally_multiplies,
)

# A row block has as many query rows as fit in _BLOCK_ELEMENTS entries
# (at least one), so its temporaries stay small beside the affinity.
_BLOCK_ELEMENTS = 1 << 18


def _query_blocks(n_queries: int, n_keys: int) -> list[slice]:
    """The row blocks of an n_queries x n_keys array, each with at most
    _BLOCK_ELEMENTS entries and at least one row."""
    rows = max(1, _BLOCK_ELEMENTS // max(n_keys, 1))
    return [slice(r, min(r + rows, n_queries)) for r in range(0, n_queries, rows)]


def check_channels(c: int) -> None:
    """Both blocks need an even channel count C >= 2 (C/2 for q and k)."""
    if c < 2 or c % 2 != 0:
        raise ConfigError(f"channel count must be even and >= 2, got {c}")


@dataclass
class NlParams:
    """Projection weights and biases of the dense block.

    Query/key project to C/2 channels, value and fusion keep C. Every
    array is required; a mis-shaped one raises DimensionError and a
    non-finite one ConfigError, here rather than in a forward pass.
    """

    w_theta: np.ndarray  # C/2 x C
    w_phi: np.ndarray    # C/2 x C
    w_g: np.ndarray      # C   x C
    w_gamma: np.ndarray  # C   x C
    b_theta: np.ndarray  # C/2
    b_phi: np.ndarray    # C/2
    b_g: np.ndarray      # C
    b_gamma: np.ndarray  # C

    def __post_init__(self):
        check_channels(self.channels)
        for name, shape in self._shapes().items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise DimensionError(f"{name} must be {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"non-finite {name}")

    @property
    def channels(self) -> int:
        return self.w_g.shape[0]

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape each array must have, by field name."""
        c = self.channels
        return {"w_theta": (c // 2, c), "w_phi": (c // 2, c), "w_g": (c, c), "w_gamma": (c, c),
                "b_theta": (c // 2,), "b_phi": (c // 2,), "b_g": (c,), "b_gamma": (c,)}

    @classmethod
    def random(cls, rng: np.random.Generator, c: int, dtype=np.float32,
               scale: float = 0.1, zero_gamma: bool = False) -> "NlParams":
        """Random weights and zero biases; gamma can be zeroed so the
        block starts as identity."""
        check_channels(c)
        def w(rows, cols):
            return (scale * rng.standard_normal((rows, cols))).astype(dtype)
        gamma = np.zeros((c, c), dtype=dtype) if zero_gamma else w(c, c)
        return cls(w(c // 2, c), w(c // 2, c), w(c, c), gamma,
                   *(np.zeros(n, dtype=dtype) for n in (c // 2, c // 2, c, c)))

    def param_groups(self) -> dict[str, np.ndarray]:
        """Every weight, then every bias, in field order."""
        ordered = sorted(fields(self), key=lambda f: f.name.startswith("b_"))
        return {f.name: getattr(self, f.name) for f in ordered}


@dataclass
class NlActivations:
    """Everything the backward pass needs from the forward pass."""

    q: np.ndarray          # C/2 x N
    k: np.ndarray          # C/2 x N
    v: np.ndarray          # C x N
    affinity: np.ndarray   # N x N, row-stochastic
    y: np.ndarray          # C x N


def dense_affinity(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-stochastic N x N similarity between query and key columns.

    The logits are not scaled by sqrt(C/2): the block is defined unscaled.
    They are formed one block of query rows at a time (`_query_blocks`),
    each block by one `matmul` and turned into its affinity rows by
    `softmax_rows`, so the result is the one N x N array allocated once
    N spans several blocks. BLAS picks its kernel by the operands' sizes,
    so there a block's logits may round unlike the same rows of
    matmul(q.T, k), within the length-C/2 dot-product bound. The call
    tallies its N_q * N_k * C/2 multiplies once.
    """
    if q.ndim != 2 or k.ndim != 2 or q.shape[0] != k.shape[0]:
        raise DimensionError(f"query/key must be C/2 x N alike: {q.shape} vs {k.shape}")
    tally_multiplies(q.shape[1] * k.shape[1] * q.shape[0])
    a = np.empty((q.shape[1], k.shape[1]), dtype=np.result_type(q, k))
    for rows in _query_blocks(*a.shape):
        a[rows] = softmax_rows(matmul(q[:, rows].T, k))
    return a


def dense_aggregate(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Y = v @ A^T: column i is the affinity-weighted sum of value columns."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"affinity must be square, got {a.shape}")
    if v.shape[1] != a.shape[0]:
        raise DimensionError(f"value/affinity mismatch: {v.shape} vs {a.shape}")
    tally_multiplies(v.shape[0] * a.shape[0] * a.shape[1])
    return matmul(v, a.T)


def fuse_residual(y: np.ndarray, w_gamma: np.ndarray, x: np.ndarray,
                  b_gamma: np.ndarray) -> np.ndarray:
    """Z = gamma(Y) + X."""
    if y.shape != x.shape:
        raise DimensionError(f"fuse_residual shapes differ: {y.shape} vs {x.shape}")
    return conv1x1(y, w_gamma, b_gamma) + x


def nl_forward(x: np.ndarray, p: NlParams) -> tuple[np.ndarray, NlActivations]:
    """Full dense block on a flattened C x N feature map."""
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"expected C x N input with N >= 1, got {x.shape}")
    if x.shape[0] != p.channels:
        raise DimensionError(f"input channels {x.shape[0]} != params channels {p.channels}")
    q = conv1x1(x, p.w_theta, p.b_theta)
    k = conv1x1(x, p.w_phi, p.b_phi)
    v = conv1x1(x, p.w_g, p.b_g)
    a = dense_affinity(q, k)
    y = dense_aggregate(v, a)
    z = fuse_residual(y, p.w_gamma, x, p.b_gamma)
    return z, NlActivations(q=q, k=k, v=v, affinity=a, y=y)


def softmax_rows_backward(a: np.ndarray, grad_a: np.ndarray) -> np.ndarray:
    """Adjoint of softmax_rows given its output a.

    Per row: g_logit = a * (grad - sum(grad * a)), which is the softmax
    Jacobian a_j (delta_jt - a_t) applied to grad.
    """
    inner = (grad_a * a).sum(axis=1, keepdims=True)
    # formed in place, so one array of a's size besides a and grad_a is
    # alive at a time without relying on numpy eliding the temporary
    g = grad_a - inner
    g *= a
    return g


def fuse_residual_backward(p: NlParams, y: np.ndarray, grad_z: np.ndarray,
                           ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Adjoint of fuse_residual, z = w_gamma @ y + b_gamma + x.

    Returns (grad_y, grad_x, grads); grad_x holds the residual route
    only, and grads the w_gamma/b_gamma entries.
    """
    grads = {"w_gamma": grad_z @ y.T, "b_gamma": grad_z.sum(axis=1)}
    return p.w_gamma.T @ grad_z, grad_z.copy(), grads


def projections_backward(p: NlParams, x: np.ndarray, grad_outs: dict[str, np.ndarray],
                         grad_x: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Adjoint of 1x1 projections of x (C x N), w_<name> @ x + b_<name>,
    given each output's gradient by name ("theta", "phi", ...).

    In the order given, stores the weight and bias gradients in grads and
    accumulates the input gradient into grad_x in place.
    """
    for name, g in grad_outs.items():
        grads[f"w_{name}"] = g @ x.T
        grads[f"b_{name}"] = g.sum(axis=1)
        grad_x += getattr(p, f"w_{name}").T @ g


def nl_backward(acts: NlActivations, p: NlParams, x: np.ndarray,
                grad_z: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the dense block.

    Returns (grad_x, grads) where grads is keyed like param_groups().
    """
    # the value projection has x's shape
    if grad_z.shape != x.shape or acts.v.shape != x.shape:
        raise ConsistencyError(
            f"backward shapes inconsistent: x {x.shape}, grad {grad_z.shape}, "
            f"acts {acts.v.shape}")
    grad_y, grad_x, grads = fuse_residual_backward(p, acts.y, grad_z)

    # aggregation: y = v @ a.T
    grad_v = grad_y @ acts.affinity

    # affinity: a = softmax_rows(q.T @ k). The affinity's gradient and the
    # logits' are formed a block of query rows at a time, so the stored
    # affinity is the one N x N array alive; a block gives its columns of
    # grad_q whole and a partial sum of grad_k
    a = acts.affinity
    dtype = np.result_type(grad_y, a, acts.q, acts.k, acts.v)
    grad_q = np.empty(acts.q.shape, dtype)
    grad_k = np.zeros(acts.k.shape, dtype)
    for rows in _query_blocks(*a.shape):
        grad_logits = softmax_rows_backward(a[rows], grad_y[:, rows].T @ acts.v)
        grad_q[:, rows] = acts.k @ grad_logits.T
        grad_k += acts.q[:, rows] @ grad_logits

    projections_backward(p, x, {"theta": grad_q, "phi": grad_k, "g": grad_v}, grad_x, grads)
    return grad_x, grads
