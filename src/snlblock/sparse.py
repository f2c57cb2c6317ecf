"""Sparse non-local block: per-query sampling of K key/value locations.

Each query gets a K-point window centred on itself; a fourth 1x1
projection predicts per-slot 2D offsets which shift the window to
learned (fractional) coordinates. Keys and values are read there with
bilinear interpolation, so gradients flow into the offsets through the
interpolation weights.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    NumericError,
    conv1x1,
    softmax_rows,
    tally_multiplies,
)
from .dense import (NlParams, fuse_residual, fuse_residual_backward,
                    projections_backward, softmax_rows_backward)


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
    """The dense block's parameters plus the offset head."""

    w_offset: np.ndarray = field(kw_only=True)  # 2K x C
    b_offset: np.ndarray | None = field(default=None, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.w_offset.ndim != 2 or self.w_offset.shape[0] % 2 != 0:
            raise DimensionError(f"offset head needs 2K rows, got {self.w_offset.shape}")
        if self.w_offset.shape[1] != self.channels:
            raise DimensionError(f"offset head channel mismatch: {self.w_offset.shape}")

    @property
    def k(self) -> int:
        return self.w_offset.shape[0] // 2

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
    q: np.ndarray           # C/2 x N
    k_map: np.ndarray       # C/2 x H x W (pre-sampling key map)
    v_map: np.ndarray       # C x H x W
    sampled_k: np.ndarray   # N x C/2 x K
    sampled_v: np.ndarray   # N x C x K
    offsets: np.ndarray     # 2K x N, (dx, dy) interleaved per slot
    coords: np.ndarray      # N x K x 2, (t_x, t_y) in pixel units
    plan: SamplingPlan      # the corner bookkeeping of coords, for all reads
    affinity: np.ndarray    # N x K, row-stochastic
    y: np.ndarray           # C x N
    x_shape: tuple = field(default=())


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


def offset_head(x: np.ndarray, w_offset: np.ndarray,
                bias: np.ndarray | None = None) -> np.ndarray:
    """1x1 convolution producing 2K offset channels.

    Slot k reads channels (2k, 2k+1) as (dx, dy), in pixel units.
    """
    if w_offset.shape[0] % 2 != 0:
        raise DimensionError(f"offset head needs an even channel count, got {w_offset.shape}")
    return conv1x1(x, w_offset, bias)


def apply_offsets(base: np.ndarray, p: np.ndarray) -> np.ndarray:
    """t = base + offset, elementwise: coords[i,k] = base[i,k] + (p[2k,i], p[2k+1,i])."""
    n, k, _ = base.shape
    if p.shape != (2 * k, n):
        raise DimensionError(f"offsets {p.shape} do not match base grid {base.shape}")
    coords = base.copy()
    coords[:, :, 0] += p[0::2, :].T
    coords[:, :, 1] += p[1::2, :].T
    return coords


@dataclass(frozen=True)
class SamplingPlan:
    """Where N x K bilinear samples read an H x W map, and with what weights.

    It depends on the coordinates and the map's extent only, so one plan
    serves maps of any channel count: `snl_forward` builds it once, keeps
    it in `SnlActivations`, and the key read, the value read and both
    backward passes share it. `corners` holds the four corners of the
    cell containing each coordinate, each an (idx, wv, dwdx, dwdy) tuple
    of N x K arrays: the flat pixel index y * W + x, clipped into the
    image; the bilinear weight; and the weight's derivatives along t_x
    and t_y. The last three are multiplied by the corner's in-image
    mask, so a corner outside the image reads a clipped pixel and
    weighs it by zero (zero padding).
    """

    n: int
    k: int
    height: int
    width: int
    corners: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def sampling_plan(coords: np.ndarray, h: int, w: int) -> SamplingPlan:
    """The SamplingPlan of coords (N x K x 2, (t_x, t_y)) on an h x w map.

    Non-finite coordinates raise NumericError before any integer cast.
    """
    if coords.ndim != 3 or coords.shape[2] != 2:
        raise DimensionError(f"coordinates must be N x K x 2, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise NumericError("non-finite sampling coordinates")
    # beyond [-2, W + 1] x [-2, H + 1] every corner is outside the image
    # and masked, so clamping there changes no read or gradient; it keeps
    # the int64 cast (and x0 + 1) in range
    tx = np.minimum(np.maximum(coords[..., 0], -2), w + 1)
    ty = np.minimum(np.maximum(coords[..., 1], -2), h + 1)
    x0 = np.floor(tx)
    y0 = np.floor(ty)
    u = tx - x0
    v = ty - y0
    iu = 1 - u
    iv = 1 - v
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    # (clipped index, in-image mask) for the left/right columns and the
    # top/bottom rows of the cell; rows are pre-multiplied by W
    xs = [(np.minimum(np.maximum(x, 0), w - 1), (x >= 0) & (x < w)) for x in (x0, x0 + 1)]
    ys = [(np.minimum(np.maximum(y, 0), h - 1) * w, (y >= 0) & (y < h)) for y in (y0, y0 + 1)]
    # weight fx * fy; derivatives sx * fy and sy * fx, masked as they are formed
    corners = []
    for (cx, in_x), (row, in_y), fx, fy, sx, sy in (
            (xs[0], ys[0], iu, iv, -1, -1),
            (xs[1], ys[0], u,  iv,  1, -1),
            (xs[0], ys[1], iu, v,  -1,  1),
            (xs[1], ys[1], u,  v,   1,  1)):
        valid = in_x & in_y
        corners.append((row + cx, fx * fy * valid, sx * fy * valid, sy * fx * valid))
    n, k, _ = coords.shape
    return SamplingPlan(n, k, h, w, tuple(corners))


def _plan_for(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan | None) -> SamplingPlan:
    """plan, checked against f (D x H x W) and coords (N x K x 2); a new
    plan when it is None."""
    if f.ndim != 3 or coords.ndim != 3 or coords.shape[2] != 2:
        raise DimensionError(f"bilinear_sample shapes: f {f.shape}, coords {coords.shape}")
    n, k, _ = coords.shape
    h, w = f.shape[1], f.shape[2]
    if plan is None:
        return sampling_plan(coords, h, w)
    if (plan.n, plan.k, plan.height, plan.width) != (n, k, h, w):
        raise DimensionError(
            f"sampling plan for N x K = {plan.n} x {plan.k} on {plan.height} x {plan.width} "
            f"does not fit coords {coords.shape} on f {f.shape}")
    return plan


def _multiply_into(buf: np.ndarray, other: np.ndarray) -> np.ndarray:
    """buf * other, written into buf unless the product needs a wider dtype."""
    if np.result_type(buf, other) == buf.dtype:
        return np.multiply(buf, other, out=buf)
    return buf * other


# The samplers work through the queries in blocks of about this many
# elements, so that each block's per-corner temporaries stay in cache.
_BLOCK_ELEMENTS = 1 << 16


def _query_blocks(n: int, per_query: int) -> list[slice]:
    step = max(1, _BLOCK_ELEMENTS // max(1, per_query))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def bilinear_sample(f: np.ndarray, coords: np.ndarray,
                    plan: SamplingPlan | None = None) -> np.ndarray:
    """Read f (D x H x W) at fractional coords (N x K x 2) -> N x D x K.

    Four-corner interpolation with zero padding: corners outside the
    image contribute nothing. Integer coordinates reduce to an exact
    pixel read. `plan` is `sampling_plan(coords, H, W)`, built here when
    not given; pass the one plan to every read at the same coordinates.

    Layout contract: the result is a new C-contiguous N x D x K array.
    Corners are gathered as rows of an HW x D copy of f and summed, a
    block of queries at a time, in a K x D buffer per query.
    """
    plan = _plan_for(f, coords, plan)
    d = f.shape[0]
    n, k = plan.n, plan.k
    rows = np.ascontiguousarray(f.reshape(d, -1).T)
    out = np.empty((n, d, k), dtype=f.dtype)
    for blk in _query_blocks(n, d * k):
        acc = np.zeros((blk.stop - blk.start, k, d), dtype=f.dtype)
        for idx, wv, _, _ in plan.corners:
            acc += _multiply_into(np.take(rows, idx[blk], axis=0), wv[blk, :, None])
        out[blk] = acc.transpose(0, 2, 1)
    return out


def bilinear_sample_backward(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                             vectors: np.ndarray, plan: SamplingPlan | None = None,
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of bilinear_sample for the upstream gradient
    grad_out[n, :, k] = weights[n, k] * vectors[:, n].

    weights is N x K and vectors D x N: attention weights times an
    upstream column, the form both reads of snl_backward receive.
    Returns (grad_f: D x H x W, grad_coords: N x K x 2). The coordinate
    gradient differentiates the corner weights; at exact integers the
    floor-cell (right-continuous) subgradient is used. `plan` is the
    forward read's plan, built here when not given.

    grad_out is never formed whole, only one D x block x K slab and one
    N x K channel plane at a time: at N=2401, K=81, D=64 the whole
    array would take 50 MB. Each element is the one product
    weights[n, k] * vectors[c, n], so the slabs and the planes agree.

    The coordinate gradient sums over channels in channel order, on
    D x block x K gathers. grad_f is scattered channel by channel, with
    one 1-D np.add.at per corner, so every pixel receives its
    contributions corner by corner, then in (n, k) order, the order of
    one 3-index np.add.at per corner. Neither order depends on the
    query block size.

    Masks are applied where they cost least: the plan's weights and
    weight derivatives carry them, so an out-of-image corner reads a
    clipped pixel and its terms are zeros whose sign does not matter.
    Sums that start at +0 never become -0, and adding a zero of either
    sign to a sum leaves it unchanged. So for finite inputs the result
    equals, bit for bit, masking every read first.
    """
    plan = _plan_for(f, coords, plan)
    d, h, w = f.shape
    n, k = plan.n, plan.k
    if weights.shape != (n, k) or vectors.shape != (d, n):
        raise DimensionError(f"grad_out factors {weights.shape}, {vectors.shape} must be "
                             f"{(n, k)}, {(d, n)} for N, D, K = {n}, {d}, {k}")
    planes = np.ascontiguousarray(f.reshape(d, h * w))
    grad_planes = np.zeros((d, h * w), dtype=f.dtype)
    grad_coords = np.zeros_like(coords)
    for blk in _query_blocks(n, d * k):
        go = vectors[:, blk, None] * weights[blk]
        for idx, _, dwdx, dwdy in plan.corners:
            dot = _multiply_into(np.take(planes, idx[blk], axis=1), go).sum(axis=0)
            grad_coords[blk, :, 0] += dwdx[blk] * dot
            grad_coords[blk, :, 1] += dwdy[blk] * dot
    scatter = [(idx.reshape(-1), wv) for idx, wv, _, _ in plan.corners]
    for ch in range(d):
        go = weights * vectors[ch, :, None]
        for flat_idx, wv in scatter:
            np.add.at(grad_planes[ch], flat_idx, (go * wv).reshape(-1))
    return grad_planes.reshape(d, h, w), grad_coords


def sparse_affinity(q: np.ndarray, sampled_k: np.ndarray) -> np.ndarray:
    """Row-stochastic N x K similarity between each query and its samples."""
    n, ck, k = sampled_k.shape
    if q.shape != (ck, n):
        raise DimensionError(f"query {q.shape} does not match samples {sampled_k.shape}")
    logits = np.einsum("ci,ick->ik", q, sampled_k)
    tally_multiplies(n * k * ck)
    return softmax_rows(logits)


def sparse_aggregate(sampled_v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Y column i = sum_k s[i,k] * sampled value (i, :, k). Returns C x N."""
    n, c, k = sampled_v.shape
    if s.shape != (n, k):
        raise DimensionError(f"affinity {s.shape} does not match samples {sampled_v.shape}")
    tally_multiplies(n * k * c)
    # C order whatever the samples' layout: the w_gamma gradient's BLAS
    # product, and so its low bits, depends on y's memory order
    return np.einsum("ik,ick->ci", s, sampled_v, order="C")


def snl_forward(x: np.ndarray, p: SnlParams, g: GridSpec | None = None,
                base: np.ndarray | None = None,
                ) -> tuple[np.ndarray, SnlActivations]:
    """Full sparse block on a C x H x W feature map.

    The sampling window comes from `g` (regular centred grid) or, for
    oracle configurations, an explicit `base` grid of shape N x K x 2.
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
    plan = sampling_plan(coords, h, w)
    sampled_k = bilinear_sample(k_map, coords, plan)
    sampled_v = bilinear_sample(v_map, coords, plan)
    s = sparse_affinity(q, sampled_k)
    y = sparse_aggregate(sampled_v, s)
    zf = fuse_residual(y, p.w_gamma, xf, p.b_gamma)
    acts = SnlActivations(q=q, k_map=k_map, v_map=v_map, sampled_k=sampled_k,
                          sampled_v=sampled_v, offsets=offsets, coords=coords,
                          plan=plan, affinity=s, y=y, x_shape=x.shape)
    return zf.reshape(c, h, w), acts


def snl_backward(acts: SnlActivations, p: SnlParams, x: np.ndarray,
                 grad_z: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact reverse-mode gradients of the sparse block.

    Signal reaches the input through four routes: the residual, the
    query/key/value projections, and the coordinate path (bilinear
    weight derivatives -> offsets -> offset head).
    """
    if grad_z.shape != x.shape or acts.x_shape != x.shape:
        raise ConsistencyError(
            f"backward shapes inconsistent: x {x.shape}, grad {grad_z.shape}, "
            f"acts {acts.x_shape}")
    c, h, w = x.shape
    n = h * w
    xf = x.reshape(c, n)
    grad_y, grad_xf, grads = fuse_residual_backward(p, acts.y, grad_z.reshape(c, n))

    # aggregation: y[:, i] = sum_k s[i,k] * sampled_v[i,:,k]
    grad_s = np.einsum("ci,ick->ik", grad_y, acts.sampled_v)

    # affinity
    grad_logits = softmax_rows_backward(acts.affinity, grad_s)
    # C order, as for y: the b_theta sum follows grad_q's memory order
    grad_q = np.einsum("ik,ick->ci", grad_logits, acts.sampled_k, order="C")

    # bilinear reads (key and value share coordinates, so their
    # coordinate gradients add). The samples' gradients are the outer
    # products grad_logits[i,k] * q[:, i] and s[i,k] * grad_y[:, i];
    # they go in as their factors, so no N x C x K array is stored.
    grad_kmap, grad_coords_k = bilinear_sample_backward(
        acts.k_map, acts.coords, grad_logits, acts.q, acts.plan)
    grad_vmap, grad_coords_v = bilinear_sample_backward(
        acts.v_map, acts.coords, acts.affinity, grad_y, acts.plan)
    grad_coords = grad_coords_k + grad_coords_v

    # offsets: coords = base + interleaved offsets
    grad_p = np.empty_like(acts.offsets)
    grad_p[0::2, :] = grad_coords[:, :, 0].T
    grad_p[1::2, :] = grad_coords[:, :, 1].T
    grads["w_offset"] = grad_p @ xf.T
    if p.b_offset is not None:
        grads["b_offset"] = grad_p.sum(axis=1)
    grad_xf += p.w_offset.T @ grad_p

    projections_backward(p, xf, grad_q, grad_kmap.reshape(c // 2, n),
                         grad_vmap.reshape(c, n), grad_xf, grads)
    return grad_xf.reshape(c, h, w), grads
