"""Bilinear sampling of a feature map at fractional coordinates, and its adjoint.

`sampling_plan` turns N x K sample coordinates into a `SamplingPlan`
(per corner of each sample's cell: pixel index, weight and weight
derivatives); `bilinear_sample` reads a D x H x W map with it, and
`bilinear_sample_backward` is that read's adjoint, computed over 8 x 8
query tiles (`TileLayout`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import DimensionError, NumericError


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

    `tiles`, the adjoint's layout, is built on first use, so the forward
    pass never pays for it, and kept for both adjoints.
    """

    n: int
    k: int
    height: int
    width: int
    corners: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]

    @functools.cached_property
    def tiles(self) -> TileLayout:
        return _tile_layout(self)


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


# The adjoint tiles the queries _TILE x _TILE and works through whole
# bands of tiles, as many as fit in _BLOCK_ELEMENTS (at least one).
_TILE = 8


@dataclass(frozen=True)
class TileLayout:
    """A SamplingPlan's read cut into dense tiles, for the adjoint.

    The queries form a grid (the map's H x W when N = H * W, else an
    N x 1 column), cut into 8 x 8 tiles. A tile's box bounds the pixels
    its own samples' corners touch, so a far offset widens only its
    tile. `chunks` holds (queries, buffer length, tiles) per run of
    whole bands (rows of tiles); each tile is (start, stop, query rows,
    query cols, box rows, box cols), locating its (queries x box)
    matrix in the chunk's buffer. `positions[c][n, k]` is where corner
    c of sample (n, k) falls in that buffer; a masked corner falls on
    its clipped pixel, inside the box.
    """

    grid: tuple[int, int]
    chunks: tuple[tuple[slice, int, tuple[tuple[int, int, slice, slice, slice, slice], ...]], ...]
    positions: tuple[np.ndarray, ...]


def _tile_layout(plan: SamplingPlan) -> TileLayout:
    h, w, n, k = plan.height, plan.width, plan.n, plan.k
    qh, qw = (h, w) if n == h * w else (n, 1)
    th, tw = -(-qh // _TILE), -(-qw // _TILE)
    # image row and column of each cell's top-left (corner 0) and
    # bottom-right (corner 3) pixel, clipped into the image
    pixel = np.int32 if h * w < 2**31 else np.int64
    left, right = (plan.corners[c][0].astype(pixel) for c in (0, 3))
    top, bottom = left // w, right // w
    left -= top * w
    right -= bottom * w

    def per_tile(per_sample, reduce):
        # reduce over each tile's queries and their K samples
        per_col = reduce.reduceat(per_sample.reshape(qh, -1), np.arange(0, qw * k, _TILE * k),
                                  axis=1)
        return reduce.reduceat(per_col, np.arange(0, qh, _TILE), axis=0).astype(np.int64)

    y0, x0 = per_tile(top, np.minimum), per_tile(left, np.minimum)
    bh, bw = per_tile(bottom, np.maximum) + 1 - y0, per_tile(right, np.maximum) + 1 - x0
    rows = np.minimum(_TILE, qh - _TILE * np.arange(th))
    cols = np.minimum(_TILE, qw - _TILE * np.arange(tw))
    area = bh * bw
    sizes = rows[:, None] * cols * area
    bands = sizes.sum(axis=1)
    edges = [0]
    for b in range(1, th):
        if bands[edges[-1]:b + 1].sum() > _BLOCK_ELEMENTS:
            edges.append(b)
    edges.append(th)
    # each tile's start in its chunk's buffer
    start = (np.cumsum(sizes) - sizes.reshape(-1)).reshape(th, tw)
    for b0, b1 in zip(edges, edges[1:]):
        start[b0:b1] -= start[b0, 0]
    cells = np.stack([start, start + sizes, y0, y0 + bh, x0, x0 + bw], axis=-1).tolist()
    chunks = tuple(
        (slice(b0 * _TILE * qw, min(b1 * _TILE, qh) * qw), int(bands[b0:b1].sum()),
         tuple((s, e, slice(i * _TILE, (i + 1) * _TILE), slice(j * _TILE, (j + 1) * _TILE),
                slice(ya, yb), slice(xa, xb))
               for i in range(b0, b1) for j, (s, e, ya, yb, xa, xb) in enumerate(cells[i])))
        for b0, b1 in zip(edges, edges[1:]))

    # pixel (y, x) of query n's box sits at base[n] + y * width[n] + x
    tr, tc = np.arange(qh) // _TILE, np.arange(qw) // _TILE
    local = (np.arange(qh) % _TILE)[:, None] * cols[tc] + np.arange(qw) % _TILE
    dtype = np.int32 if max(size for _, size, _ in chunks) + h * w < 2**31 else np.int64
    base = ((start - y0 * bw - x0)[tr][:, tc] + local * area[tr][:, tc]).reshape(n, 1)
    width = bw[tr][:, tc].reshape(n, 1)
    # formed in place where possible, to hold fewer N x K arrays at once
    top, bottom, left, right = (a.astype(dtype, copy=False) for a in (top, bottom, left, right))
    for row in (top, bottom):
        row *= width.astype(dtype)
        row += base.astype(dtype)
    positions = (top + left, top + right)
    left += bottom
    right += bottom
    return TileLayout((qh, qw), chunks, positions + (left, right))


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
    Returns (grad_f: D x H x W in f's dtype, grad_coords: N x K x 2 in
    coords' dtype). The coordinate gradient differentiates the corner
    weights; at exact integers the floor-cell (right-continuous)
    subgradient is used. `plan` is the forward read's plan, built here
    when not given.

    With the weights folded in, the read is a sparse N x HW matrix A.
    Per tile (see `TileLayout`), A_t is formed densely with one np.add.at
    per corner over N x K scalars, then grad_f[:, box] += vectors[:, tile]
    @ A_t, and G_t = vectors[:, tile].T @ f[:, box] overwrites A_t: the
    coordinate gradient weights[n, k] * sum of dw/dt * G[n, corner] is a
    gather of scalars. grad_out is never formed. Scratch beyond the
    layout is one buffer, reused by every chunk (at most 2**16 elements,
    or one band of 8 query rows), and temporaries of a chunk's queries
    x K: below one N x HW array on maps of over 8 rows, even if every
    box is the whole image.

    The result is the adjoint to float rounding, in the widest dtype of
    the inputs: BLAS orders the sums, not a fixed np.add.at order.
    Reruns with the same inputs are bit-identical.
    """
    plan = _plan_for(f, coords, plan)
    d, h, w = f.shape
    n, k = plan.n, plan.k
    if weights.shape != (n, k) or vectors.shape != (d, n):
        raise DimensionError(f"grad_out factors {weights.shape}, {vectors.shape} must be "
                             f"{(n, k)}, {(d, n)} for N, D, K = {n}, {d}, {k}")
    layout = plan.tiles
    dtype = np.result_type(f, weights, vectors, plan.corners[0][1])
    maps = f.astype(dtype, copy=False)
    columns = vectors.astype(dtype, copy=False).reshape(d, *layout.grid)
    grad_f = np.zeros((d, h, w), dtype=dtype)
    grad_coords = np.empty_like(coords)
    scratch = np.empty(max(size for _, size, _ in layout.chunks), dtype=dtype)
    for queries, size, tiles in layout.chunks:
        buf = scratch[:size]
        buf.fill(0)
        wq = weights[queries]
        for (_, wv, _, _), pos in zip(plan.corners, layout.positions):
            np.add.at(buf, pos[queries].reshape(-1), (wq * wv[queries]).reshape(-1))
        for start, stop, rows, cols, ys, xs in tiles:
            vt = columns[:, rows, cols].reshape(d, -1)
            a_t = buf[start:stop].reshape(vt.shape[1], -1)
            box = grad_f[:, ys, xs]
            box += (vt @ a_t).reshape(box.shape)
            np.matmul(vt.T, maps[:, ys, xs].reshape(d, -1), out=a_t)
        gx = gy = 0
        for (_, _, dwdx, dwdy), pos in zip(plan.corners, layout.positions):
            g = np.take(buf, pos[queries])
            gx = gx + dwdx[queries] * g
            gy = gy + dwdy[queries] * g
        np.multiply(wq, gx, out=grad_coords[queries, :, 0])
        np.multiply(wq, gy, out=grad_coords[queries, :, 1])
    return grad_f.astype(f.dtype, copy=False), grad_coords
