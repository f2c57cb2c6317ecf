"""Finite-difference oracle for the hand-written backward passes.

Everything runs in double precision. The scalar loss is 0.5 * sum(z^2),
so the upstream gradient is simply z itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .tensor import DOUBLE, ConfigError, DimensionError, NumericError
from .dense import NlParams, nl_forward, nl_backward
from .sparse import GridSpec, SnlParams, base_grid, snl_forward, snl_backward

DENSE_THRESHOLD = 1e-6
# looser: the coordinate path compounds interpolation curvature
SNL_THRESHOLD = 1e-5

# the sizes check_block runs at unless dims names others: dense-nl reads
# c and n, snl reads c, h, w, kh and kw
SIZES = {"c": 4, "n": 9, "h": 5, "w": 5, "kh": 3, "kw": 3}

REL_FLOOR = 1e-12
# below this magnitude both gradients are indistinguishable from
# central-difference roundoff (machine_eps * loss / eps), so relative
# comparison is meaningless; the dense key bias hits this exactly since
# softmax shift-invariance makes its true gradient zero
NOISE_FLOOR = 1e-8


@dataclass
class GradReport:
    param_group: str
    max_rel_error: float
    max_abs_error: float
    passed: bool
    roundoff: float  # differences up to this bound count as 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.param_group:12s} maxRelError={self.max_rel_error:.3e} "
                f"maxAbsError={self.max_abs_error:.3e} roundoff={self.roundoff:.3e} {status}")


def _check_step(eps: float) -> None:
    if not 0 < eps < np.inf:
        raise ConfigError(f"eps must be finite and positive, got {eps}")


def central_diff(f, x: np.ndarray, eps: float) -> np.ndarray:
    """g[i] = (f(x + eps e_i) - f(x - eps e_i)) / (2 eps), per flat index."""
    _check_step(eps)
    x = np.asarray(x, dtype=DOUBLE)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite loss at perturbed index {i}")
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray,
                    roundoff: float) -> np.ndarray:
    """Per-entry relative error of two gradients.

    An entry counts as 0 when both gradients are below NOISE_FLOOR, or
    when they differ by no more than `roundoff`, the central-difference
    roundoff bound machine_eps * |loss| / eps: a smaller difference says
    nothing about the analytic gradient, however small the entry is.
    """
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return np.where((denom < NOISE_FLOOR) | (diff <= roundoff), 0.0, diff / denom)


def _compare(name: str, analytic: np.ndarray, numeric: np.ndarray,
             threshold: float, roundoff: float) -> GradReport:
    if not np.isfinite(analytic).all():
        return GradReport(name, float("inf"), float("inf"), False, roundoff)
    max_rel = float(relative_errors(analytic, numeric, roundoff).max())
    max_abs = float(np.max(np.abs(analytic - numeric)))
    return GradReport(name, max_rel, max_abs, max_rel < threshold, roundoff)


def block_setup(block_kind: str, seed: int = 0, dims: dict | None = None) -> tuple:
    """(params, x, forward, backward) of the block check_block
    differentiates, drawn from `seed`, for block_kind "dense-nl" or
    "snl". Sizes the block rejects raise here, before any forward runs.
    """
    rng = np.random.default_rng(seed)
    dims = {**SIZES, **(dims or {})}
    c = dims["c"]
    if block_kind == "dense-nl":
        n = dims["n"]
        if n < 1:
            raise DimensionError(f"expected C x N input with N >= 1, got N={n}")
        params = NlParams.random(rng, c, dtype=DOUBLE, scale=0.4, zero_gamma=False)
        x = rng.standard_normal((c, n)).astype(DOUBLE)
        return params, x, nl_forward, nl_backward
    if block_kind == "snl":
        h, w = dims["h"], dims["w"]
        g = GridSpec(dims["kh"], dims["kw"])
        base = base_grid(h, w, g, dtype=DOUBLE)
        params = SnlParams.random(rng, c, g.k, dtype=DOUBLE, scale=0.4,
                                  zero_gamma=False, zero_offset=False)
        # keep the offset head small and bias the coordinates +0.25 off
        # integers: the bilinear read has derivative kinks exactly on
        # the integer lattice
        params.w_offset *= 0.1
        params.b_offset += 0.25 + 0.05 * rng.standard_normal(params.b_offset.shape)
        x = rng.standard_normal((c, h, w)).astype(DOUBLE)
        return params, x, partial(snl_forward, base=base), snl_backward
    raise ConfigError(f"unknown block kind {block_kind!r}")


def check_block(block_kind: str, seed: int = 0, dims: dict | None = None,
                eps: float = 1e-5, threshold: float | None = None) -> list[GradReport]:
    """Validate one block's analytic gradients against central differences.

    block_kind is "dense-nl" or "snl". Returns one GradReport per
    parameter group plus one for the input. A step that is not finite
    and positive raises ConfigError before the block runs. A step so
    small that the roundoff bound reaches the largest analytic gradient
    entry raises it too: every entry would pass, whatever the gradients.
    """
    _check_step(eps)
    params, x, forward, backward = block_setup(block_kind, seed, dims)
    if threshold is None:
        threshold = SNL_THRESHOLD if block_kind == "snl" else DENSE_THRESHOLD
    z, acts = forward(x, params)
    grad_x, grads = backward(acts, params, x, z)
    roundoff = np.finfo(DOUBLE).eps * 0.5 * float((z * z).sum()) / eps
    analytic = {"x": grad_x, **grads}
    largest = max(float(np.abs(g).max()) for g in analytic.values())
    if roundoff >= largest:
        raise ConfigError(f"step {eps:g} makes the roundoff bound {roundoff:.3e} no smaller "
                          f"than the largest gradient entry {largest:.3e}")

    def loss(_perturbed):
        z, _ = forward(x, params)
        return 0.5 * float((z * z).sum())

    # x and every group are C-contiguous float64 arrays by construction,
    # so central_diff perturbs (and restores) the very array the
    # forward reads
    return [_compare(name, analytic[name], central_diff(loss, arr, eps), threshold, roundoff)
            for name, arr in {"x": x, **params.param_groups()}.items()]
