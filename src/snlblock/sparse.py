"""Sparse non-local block: per-query sampling of K key/value locations.

Each query gets a K-point window centred on itself; a fourth 1x1
projection predicts per-slot 2D offsets which shift the window to
learned (fractional) coordinates. Keys and values are read there with
bilinear interpolation, so gradients flow into the offsets through the
interpolation weights. The key read gives the logits q . k and the value
read the aggregation directly, so no samples of either map are stored.
Both reads run a chunk of query bands at a time on the chunk's sampling
plan, which the forward pass builds and drops and the backward pass
builds again, so no corner bookkeeping is stored either.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    conv1x1,
    softmax_rows,
    tally_multiplies,
)
from .dense import (NlParams, check_channels, fuse_residual, fuse_residual_backward,
                    projections_backward, softmax_rows_backward)
from .sampling import (bilinear_aggregate, bilinear_sample, bilinear_sample_backward,
                       query_chunks, sampling_plan)


@dataclass(frozen=True)
class Shape2D:
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ConfigError(f"degenerate shape {self.height}x{self.width}")

    @property
    def n(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class GridSpec:
    """kh x kw sampling window; K = kh * kw points per query."""

    kh: int
    kw: int

    def __post_init__(self):
        if self.kh < 1 or self.kw < 1:
            raise ConfigError(f"window extents must be >= 1, got {self.kh}x{self.kw}")

    @property
    def k(self) -> int:
        return self.kh * self.kw


@dataclass
class SnlParams(NlParams):
    """The dense block's parameters plus the offset head, checked alike."""

    w_offset: np.ndarray  # 2K x C
    b_offset: np.ndarray  # 2K

    @property
    def k(self) -> int:
        return self.w_offset.shape[0] // 2

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        return {**super()._shapes(), "w_offset": (2 * self.k, self.channels),
                "b_offset": (2 * self.k,)}

    @classmethod
    def random(cls, rng: np.random.Generator, c: int, k: int, dtype=np.float32,
               scale: float = 0.1, zero_gamma: bool = True,
               zero_offset: bool = True) -> "SnlParams":
        """Random projections; gamma and the offset head default to zero so
        the block starts as identity sampling on the regular grid.

        Gamma and the offset head are drawn before the projections, so a
        seed keeps giving the weights it gave when the two blocks had
        separate parameter types.
        """
        check_channels(c)
        def w(rows, cols, zero):
            if zero:
                return np.zeros((rows, cols), dtype=dtype)
            return (scale * rng.standard_normal((rows, cols))).astype(dtype)
        w_gamma = w(c, c, zero_gamma)
        w_offset = w(2 * k, c, zero_offset)
        dense = NlParams.random(rng, c, dtype=dtype, scale=scale, zero_gamma=True)
        dense.w_gamma = w_gamma
        return cls(**vars(dense), w_offset=w_offset, b_offset=np.zeros(2 * k, dtype=dtype))


@dataclass
class SnlActivations:
    """What snl_backward needs from snl_forward.

    No samples of either map are kept: the forward reads the keys fused
    with the logits and the values fused with the aggregation, and the
    backward takes the affinity's gradient from the value read's adjoint
    and the query gradient from the key read's. Nor is any corner
    bookkeeping kept: the backward builds each chunk's sampling plan
    again, so what is kept per sample is its coordinates and affinity.
    """

    q: np.ndarray           # C/2 x N
    k_map: np.ndarray       # C/2 x H x W (pre-sampling key map)
    v_map: np.ndarray       # C x H x W
    offsets: np.ndarray     # 2K x N, (dx, dy) interleaved per slot
    coords: np.ndarray      # N x K x 2, (t_x, t_y) in pixel units
    affinity: np.ndarray    # N x K, row-stochastic
    y: np.ndarray           # C x N
    x_shape: tuple


def base_grid(shape: Shape2D, g: GridSpec, dtype=np.float64) -> np.ndarray:
    """Regular kh x kw window centred on each query pixel.

    Returns N x K x 2 (x, y) coordinates; slot index is row-major over
    (r, c). Even windows get fractional centres so the window stays
    symmetric about the query. The grid is built once per (shape, g,
    dtype) and shared, so it is read-only; copy it to modify it.
    """
    if g.k > shape.n:
        raise ConfigError(f"K={g.k} exceeds N={shape.n}")
    return _cached_base_grid(shape, g, np.dtype(dtype))


@functools.lru_cache(maxsize=16)
def _cached_base_grid(shape: Shape2D, g: GridSpec, dtype: np.dtype) -> np.ndarray:
    h, w = shape.height, shape.width
    qx = np.tile(np.arange(w, dtype=dtype), h)            # N, x of query i
    qy = np.repeat(np.arange(h, dtype=dtype), w)          # N, y of query i
    ox = np.arange(g.kw, dtype=dtype) - (g.kw - 1) / 2
    oy = np.arange(g.kh, dtype=dtype) - (g.kh - 1) / 2
    grid = np.empty((shape.n, g.k, 2), dtype=dtype)
    grid[:, :, 0] = qx[:, None] + np.tile(ox, g.kh)[None, :]
    grid[:, :, 1] = qy[:, None] + np.repeat(oy, g.kw)[None, :]
    grid.flags.writeable = False
    return grid


def full_coverage_grid(shape: Shape2D, dtype=np.float64) -> np.ndarray:
    """K = N grid where slot k of every query is pixel k exactly.

    With zero offsets this makes the sparse block coincide with the
    dense one (integer coordinates keep the bilinear read exact).
    """
    n = shape.n
    grid = np.empty((n, n, 2), dtype=dtype)
    grid[:, :, 0] = np.tile(np.arange(shape.width, dtype=dtype), shape.height)[None, :]
    grid[:, :, 1] = np.repeat(np.arange(shape.height, dtype=dtype), shape.width)[None, :]
    return grid


def offset_head(x: np.ndarray, w_offset: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1x1 convolution with a bias of length 2K, producing 2K offset
    channels: slot k reads channels (2k, 2k+1) as (dx, dy), in pixel units.
    """
    if w_offset.shape[0] % 2 != 0:
        raise DimensionError(f"offset head needs an even channel count, got {w_offset.shape}")
    return conv1x1(x, w_offset, bias)


def apply_offsets(base: np.ndarray, p: np.ndarray) -> np.ndarray:
    """t = base + offset, elementwise: coords[i,k] = base[i,k] + (p[2k,i], p[2k+1,i]).

    With (dx, dy) interleaved, p.T is the N x 2K view of the N x K x 2
    offsets; the sum keeps base's dtype.
    """
    n, k, _ = base.shape
    if p.shape != (2 * k, n):
        raise DimensionError(f"offsets {p.shape} do not match base grid {base.shape}")
    return np.add(base, p.T.reshape(n, k, 2), out=np.empty_like(base))


def snl_core(q: np.ndarray, k_map: np.ndarray, v_map: np.ndarray,
             coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block's attention core on q (C/2 x N), maps (D x H x W) and
    coords (N x K x 2): the N x K affinity, softmax_rows(q . k_map read at
    coords), and y (D x N), the v_map reads summed with it. Per chunk of
    `query_chunks`, one `sampling_plan` without derivatives serves the key
    read, the row softmax and the value read; no samples are formed."""
    _, h, w = k_map.shape
    n, k, _ = coords.shape
    s = None
    for queries, grid in query_chunks(n, k, h, w):
        at = coords[queries]
        plan = sampling_plan(at, h, w, grid, derivatives=False)
        if s is None:
            # made after the first plan, these sit above it on the heap,
            # so the memory the plans free below them is reused by the
            # next pass rather than trimmed off the heap and faulted in
            s = np.empty((n, k), dtype=np.result_type(k_map, q))
            y = np.empty((v_map.shape[0], n), dtype=np.result_type(v_map, s))
        s[queries] = softmax_rows(bilinear_sample(k_map, at, plan, q[:, queries]))
        y[:, queries] = bilinear_aggregate(v_map, at, s[queries], plan)
    return s, y


def sparse_affinity(q: np.ndarray, sampled_k: np.ndarray) -> np.ndarray:
    """Einsum reference for the affinity of `snl_core`, on given key
    samples (N x C/2 x K): softmax_rows(q . k). Only the tests call it."""
    n, ck, k = sampled_k.shape
    if q.shape != (ck, n):
        raise DimensionError(f"query {q.shape} does not match samples {sampled_k.shape}")
    logits = np.einsum("ci,ick->ik", q, sampled_k)
    tally_multiplies(n * k * ck)
    return softmax_rows(logits)


def sparse_aggregate(sampled_v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Einsum reference for the value read of `snl_core`, on given samples
    (N x C x K): y[:, i] = sum_k s[i,k] * sampled_v[i, :, k], C x N. Only
    the tests call it."""
    n, c, k = sampled_v.shape
    if s.shape != (n, k):
        raise DimensionError(f"affinity {s.shape} does not match samples {sampled_v.shape}")
    tally_multiplies(n * k * c)
    out = np.empty((c, n), dtype=np.result_type(s, sampled_v))
    np.einsum("ik,ick->ic", s, sampled_v, out=out.T)
    return out


def snl_forward(x: np.ndarray, p: SnlParams, g: GridSpec | None = None,
                base: np.ndarray | None = None,
                ) -> tuple[np.ndarray, SnlActivations]:
    """Full sparse block on a C x H x W feature map.

    The sampling window comes from `g` (regular centred grid) or, for
    oracle configurations, an explicit `base` grid of shape N x K x 2.
    Between the projections and the residual fusion, `snl_core` gives
    the affinity and the aggregation.
    """
    if x.ndim != 3:
        raise DimensionError(f"expected C x H x W input, got {x.shape}")
    c, h, w = x.shape
    if c != p.channels:
        raise DimensionError(f"input channels {c} != params channels {p.channels}")
    shape = Shape2D(h, w)
    n = shape.n
    if base is None:
        if g is None:
            raise ConfigError("either a GridSpec or an explicit base grid is required")
        if g.k != p.k:
            raise ConfigError(f"grid K={g.k} but offset head K={p.k}")
        base = base_grid(shape, g, dtype=x.dtype)
    if base.shape != (n, p.k, 2):
        raise DimensionError(f"base grid {base.shape} does not match N={n}, K={p.k}")
    if p.k > n:
        raise ConfigError(f"K={p.k} exceeds N={n}")

    xf = x.reshape(c, n)
    q = conv1x1(xf, p.w_theta, p.b_theta)
    k_map = conv1x1(xf, p.w_phi, p.b_phi).reshape(c // 2, h, w)
    v_map = conv1x1(xf, p.w_g, p.b_g).reshape(c, h, w)
    offsets = offset_head(xf, p.w_offset, p.b_offset)
    coords = apply_offsets(base, offsets)
    s, y = snl_core(q, k_map, v_map, coords)
    zf = fuse_residual(y, p.w_gamma, xf, p.b_gamma)
    acts = SnlActivations(q=q, k_map=k_map, v_map=v_map, offsets=offsets, coords=coords,
                          affinity=s, y=y, x_shape=x.shape)
    return zf.reshape(c, h, w), acts


def snl_backward(acts: SnlActivations, p: SnlParams, x: np.ndarray,
                 grad_z: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the sparse block.

    Signal reaches the input through four routes: the residual, the
    query/key/value projections, and the coordinate path (bilinear
    weight derivatives -> offsets -> offset head). Per chunk of
    `query_chunks`, one `sampling_plan` serves the value read's adjoint,
    the softmax adjoint and the key read's adjoint.
    """
    if grad_z.shape != x.shape or acts.x_shape != x.shape:
        raise ConsistencyError(
            f"backward shapes inconsistent: x {x.shape}, grad {grad_z.shape}, "
            f"acts {acts.x_shape}")
    c, h, w = x.shape
    n = h * w
    xf = x.reshape(c, n)
    grad_y, grad_xf, grads = fuse_residual_backward(p, acts.y, grad_z.reshape(c, n))

    # bilinear reads (key and value share coordinates, so their
    # coordinate gradients add). The samples' gradients are the outer
    # products s[i,k] * grad_y[:, i] and grad_logits[i,k] * q[:, i];
    # they go in as their factors, so no N x C x K array is stored. The
    # value read's adjoint also gives the affinity's gradient,
    # grad_s[i,k] = grad_y[:, i] . (v_map read at coords[i, k]), and the
    # key read's the query gradient,
    # grad_q[:, i] = sum_k grad_logits[i,k] * (k_map read at coords[i, k]).
    # Both run a chunk of query bands at a time, on the chunk's plan built
    # again, and add their map gradients in tile order into one array each.
    coords, s, q = acts.coords, acts.affinity, acts.q
    grad_vmap = None
    for queries, grid in query_chunks(n, s.shape[1], h, w):
        at = coords[queries]
        plan = sampling_plan(at, h, w, grid)
        if grad_vmap is None:
            # made after the first plan, as in snl_forward
            grad_vmap = np.zeros(acts.v_map.shape, np.result_type(acts.v_map, s, grad_y, coords))
            grad_kmap = np.zeros(acts.k_map.shape, np.result_type(acts.k_map, s, q, coords))
            grad_coords = np.empty_like(coords)
            grad_q = np.empty(q.shape, np.result_type(acts.k_map, s))
        grad_at, grad_s = bilinear_sample_backward(
            acts.v_map, at, s[queries], grad_y[:, queries], plan, grad_vmap)
        grad_logits = softmax_rows_backward(s[queries], grad_s)
        grad_at_k, grad_q[:, queries] = bilinear_sample_backward(
            acts.k_map, at, grad_logits, q[:, queries], plan, grad_kmap, aggregate=True)
        np.add(grad_at, grad_at_k, out=grad_coords[queries])

    # offsets: coords = base + interleaved offsets, the adjoint of apply_offsets' reshape
    grad_p = np.ascontiguousarray(grad_coords.reshape(n, -1).T, dtype=acts.offsets.dtype)
    grads["w_offset"] = grad_p @ xf.T
    grads["b_offset"] = grad_p.sum(axis=1)
    grad_xf += p.w_offset.T @ grad_p

    projections_backward(p, xf, grad_q,
                         grad_kmap.astype(acts.k_map.dtype, copy=False).reshape(c // 2, n),
                         grad_vmap.astype(acts.v_map.dtype, copy=False).reshape(c, n),
                         grad_xf, grads)
    return grad_xf.reshape(c, h, w), grads
