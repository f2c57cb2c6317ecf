"""Bilinear sampling of a feature map at fractional coordinates, and its adjoint.

`sampling_plan` turns N x K sample coordinates into a `SamplingPlan`
(per corner of each sample's cell: pixel index, weight and weight
derivatives); `bilinear_sample` gathers N x D x K samples of a map with
it. The block's reads store no samples: the key read (`bilinear_sample`
with `vectors`) is an SDDMM giving the logits, the value read
(`bilinear_aggregate`) an SpMM giving the aggregation, and
`bilinear_sample_backward` is their adjoint; all three work over 8 x 8
query tiles (`TileLayout`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import DimensionError, NumericError, tally_multiplies


# the derivatives of a cell's two interpolation factors, 1 - u and u
_SIGN = np.array([-1, 1], dtype=np.int8).reshape(2, 1, 1, 1)


@dataclass(frozen=True)
class SamplingPlan:
    """Where N x K bilinear samples read an H x W map, and with what weights.

    It depends on the coordinates and the map's extent only, so one plan
    serves maps of any channel count: `snl_forward` builds it once, keeps
    it in `SnlActivations`, and the key read, the value read and both
    backward passes share it.

    Per sample, `cell[side, axis]` (2 x 2 x N x K) is the column (axis
    0) or row (axis 1) of the left/top (side 0) and right/bottom (side
    1) pixels of the cell containing it, clipped into the image;
    `inside` says which of them are in the image, and `factors` holds
    their interpolation factors (1 - u on side 0, u on side 1, for the
    fractional part u along the axis) times `inside`. The cell's corner
    c = 2 * dy + dx reads pixel (cell[dy, 1], cell[dx, 0]) with the
    bilinear weight `weight[c]` (4 x N x K), the product of its two
    factors, so a corner outside the image reads a clipped pixel and
    weighs it by zero (zero padding). `weight_grad` (2 x 4 x N x K)
    holds the weights' derivatives along t_x and t_y, masked the same
    way; only the adjoint needs them, so they are formed on first use.

    `tiles`, the layout of the two fused reads and the adjoint, is also
    formed on first use: in `snl_forward` by its key read, and then kept
    for the value read and both adjoints. A plan that only gathers
    samples (`bilinear_sample` without `vectors`) never builds it.
    """

    n: int
    k: int
    height: int
    width: int
    cell: np.ndarray
    inside: np.ndarray
    factors: np.ndarray
    weight: np.ndarray

    @functools.cached_property
    def weight_grad(self) -> np.ndarray:
        # per side and axis, the factor's derivative times its mask; a
        # masked derivative is a zero with the derivative's sign, as the
        # (sign * factor) * mask of the per-corner form gives
        signed = np.multiply(_SIGN, self.inside, dtype=self.factors.dtype)
        grad = np.empty((2, 2, 2, self.n, self.k), dtype=self.factors.dtype)
        np.multiply(signed[None, :, 0], self.factors[:, None, 1], out=grad[0])   # sx * fy
        np.multiply(signed[:, None, 1], self.factors[None, :, 0], out=grad[1])   # sy * fx
        return grad.reshape(2, 4, self.n, self.k)

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
    n, k, _ = coords.shape
    # (t_x, t_y) as 2 x N x K. Beyond [-2, max(W, H) + 1] every corner is
    # outside the image and masked, so clamping there changes no read or
    # gradient; it keeps the integer cast (and x0 + 1) in range
    t = np.maximum(coords.transpose(2, 0, 1), -2, order="C")
    np.minimum(t, max(h, w) + 1, out=t)
    floor = np.floor(t)
    # [side, axis] arrays, see SamplingPlan
    ends = np.empty((2, *t.shape), dtype=np.int32 if max(h, w) < 2**30 else np.int64)
    ends[0] = floor
    np.add(ends[0], 1, out=ends[1])
    cell = np.maximum(ends, 0)
    np.minimum(cell, np.array([w - 1, h - 1], dtype=cell.dtype)[:, None, None], out=cell)
    inside = cell == ends
    factors = np.empty((2, *t.shape), dtype=t.dtype)
    np.subtract(t, floor, out=factors[1])
    np.subtract(1, factors[1], out=factors[0])
    factors *= inside
    # weight[dy, dx] = fx[dx] * fy[dy]
    weight = factors[None, :, 0] * factors[:, None, 1]
    return SamplingPlan(n, k, h, w, cell, inside, factors, weight.reshape(4, n, k))


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


# The tiled reads and the adjoint cut the queries _TILE x _TILE and work
# through whole bands of tiles, as many as fit in _BLOCK_ELEMENTS (at least
# one); small chunks keep a call's scratch small and its heap pages reused.
_BLOCK_ELEMENTS = 1 << 14
_TILE = 8


@dataclass(frozen=True)
class TileLayout:
    """A SamplingPlan's read cut into dense tiles, for the contracted
    `bilinear_sample`, `bilinear_aggregate` and `bilinear_sample_backward`.

    The queries form a grid (the map's H x W when N = H * W, else an
    N x 1 column), cut into 8 x 8 tiles. A tile's box bounds the pixels
    its own samples' corners touch, so a far offset widens only its
    tile. `chunks` holds (queries, buffer length, tiles) per run of
    whole bands (rows of tiles); each tile is (start, stop, query rows,
    query cols, box rows, box cols), locating its (queries x box)
    matrix in the chunk's buffer. `positions[c, n, k]` is where corner
    c of sample (n, k) falls in that buffer; a masked corner falls on
    its clipped pixel, inside the box.
    """

    grid: tuple[int, int]
    chunks: tuple[tuple[slice, int, tuple[tuple[int, int, slice, slice, slice, slice], ...]], ...]
    positions: np.ndarray


@functools.lru_cache(maxsize=16)
def _query_tiles(qh: int, qw: int, k: int):
    """For a qh x qw grid of queries with K samples each, cut into tiles:
    the reduceat cuts of a qh x (qw * K) array into tiles, each tile's
    query count (a list of rows of tiles) and, per query, its tile's
    number and its row-major place in the tile. Shared, so read-only."""
    th, tw = -(-qh // _TILE), -(-qw // _TILE)
    cols = np.minimum(_TILE, qw - _TILE * np.arange(tw))
    tr, tc = np.arange(qh) // _TILE, np.arange(qw) // _TILE
    cuts = np.arange(0, qw * k, _TILE * k), np.arange(0, qh, _TILE)
    tile = (tr[:, None] * tw + tc).reshape(-1)
    local = ((np.arange(qh) % _TILE)[:, None] * cols[tc] + np.arange(qw) % _TILE)
    local = local.reshape(-1).astype(np.int32)
    for a in (*cuts, tile, local):
        a.flags.writeable = False
    counts = (np.minimum(_TILE, qh - _TILE * np.arange(th))[:, None] * cols).tolist()
    return cuts, counts, tile, local


def _tile_layout(plan: SamplingPlan) -> TileLayout:
    h, w, n, k = plan.height, plan.width, plan.n, plan.k
    qh, qw = (h, w) if n == h * w else (n, 1)
    (col_cuts, row_cuts), counts, tile, local = _query_tiles(qh, qw, k)
    # per tile, (x, y) of the first and one past the last pixel of its box
    lo, hi = (op.reduceat(op.reduceat(side.reshape(2, qh, -1), col_cuts, axis=2), row_cuts, axis=1)
              for op, side in ((np.minimum, plan.cell[0]), (np.maximum, plan.cell[1])))
    (x0, y0), (x1, y1) = lo.tolist(), (hi + 1).tolist()
    sizes = [[count * (x1[i][j] - x0[i][j]) * (y1[i][j] - y0[i][j])
              for j, count in enumerate(row)] for i, row in enumerate(counts)]
    bands = [sum(row) for row in sizes]
    # per tile: where pixel (0, 0) of its box would sit in the buffer, and
    # the box's area and width
    chunks, per_tile = [], []
    b0 = 0
    while b0 < len(bands):
        b1, total = b0 + 1, bands[b0]
        while b1 < len(bands) and total + bands[b1] <= _BLOCK_ELEMENTS:
            total += bands[b1]
            b1 += 1
        tiles, start = [], 0
        for i in range(b0, b1):
            for j, size in enumerate(sizes[i]):
                tiles.append((start, start + size, slice(i * _TILE, (i + 1) * _TILE),
                              slice(j * _TILE, (j + 1) * _TILE),
                              slice(y0[i][j], y1[i][j]), slice(x0[i][j], x1[i][j])))
                width = x1[i][j] - x0[i][j]
                per_tile.append((start - y0[i][j] * width - x0[i][j],
                                 width * (y1[i][j] - y0[i][j]), width))
                start += size
        chunks.append((slice(b0 * _TILE * qw, min(b1 * _TILE, qh) * qw), total, tuple(tiles)))
        b0 = b1

    # pixel (y, x) of query n's box sits at base[n] + y * width[n] + x
    dtype = np.int32 if max(bands) + h * w < 2**31 else np.int64
    base, area, width = np.array(per_tile, dtype=dtype)[tile].T
    rows = plan.cell[:, 1] * width[:, None] + (base + local * area)[:, None]
    positions = (rows[:, None] + plan.cell[None, :, 0]).reshape(4, n, k)
    return TileLayout((qh, qw), tuple(chunks), positions)


def _chunks(plan: SamplingPlan, dtype, weights: np.ndarray | None = None):
    """The chunks of plan.tiles as (queries, tiles, buf), buf in dtype and
    reused by every chunk. Given weights, buf holds the chunk's tiles of
    the read with them folded in, A[n, pixel] = sum over the corners of
    samples (n, k) on that pixel of weights[n, k] * their bilinear weight."""
    layout = plan.tiles
    scratch = np.empty(max(size for _, size, _ in layout.chunks), dtype=dtype)
    for queries, size, tiles in layout.chunks:
        buf = scratch[:size]
        if weights is not None:
            buf.fill(0)
            np.add.at(buf, layout.positions[:, queries].reshape(-1),
                      (weights[queries] * plan.weight[:, queries]).reshape(-1))
        yield queries, tiles, buf


def bilinear_sample(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan | None = None,
                    vectors: np.ndarray | None = None) -> np.ndarray:
    """Read f (D x H x W) at fractional coords (N x K x 2) -> N x D x K,
    or with vectors (D x N) the N x K logits vectors[:, n] . (f read at
    coords[n, k]).

    Four-corner interpolation with zero padding: corners outside the
    image contribute nothing. Integer coordinates reduce to an exact
    pixel read. `plan` is `sampling_plan(coords, H, W)`, built here when
    not given; pass the one plan to every read at the same coordinates.

    The samples are a new C-contiguous array, summed from zero over the
    corners in order. The logits, the key read of `snl_forward`, form no
    samples: per tile (see `TileLayout`), the SDDMM G_t = vectors[:,
    tile].T @ f[:, box] is one BLAS product, and each logit sums its
    corners' bilinear weights times G there: the einsum of vectors with
    the samples to float rounding, in the dtype of f and vectors,
    bit-identical on reruns. Tallies N * K * D multiplies; a non-finite
    logit raises NumericError.
    """
    plan = _plan_for(f, coords, plan)
    d, _, w = f.shape
    n, k = plan.n, plan.k
    if vectors is None:
        # corner c of sample (n, k) reads flat pixel index[c, n, k] = y * W + x
        index = np.multiply(plan.cell[:, None, 1], w, dtype=np.int64) + plan.cell[None, :, 0]
        out = np.zeros((d, n, k), dtype=f.dtype)
        for weight, pixels in zip(plan.weight, index.reshape(4, n, k)):
            out += weight * f.reshape(d, -1)[:, pixels]
        return np.ascontiguousarray(out.transpose(1, 0, 2))
    if vectors.shape != (d, n):
        raise DimensionError(f"vectors {vectors.shape} must be D x N = {(d, n)}")
    dtype = np.result_type(f, vectors, plan.weight)
    maps = f.astype(dtype, copy=False)
    columns = vectors.astype(dtype, copy=False).reshape(d, *plan.tiles.grid)
    logits = np.empty((n, k), dtype=dtype)
    # overflow, and inf times a masked corner's zero weight, raise below
    with np.errstate(over="ignore", invalid="ignore"):
        for queries, tiles, buf in _chunks(plan, dtype):
            for start, stop, rows, cols, ys, xs in tiles:
                vt = columns[:, rows, cols].reshape(d, -1)
                np.matmul(vt.T, maps[:, ys, xs].reshape(d, -1),
                          out=buf[start:stop].reshape(vt.shape[1], -1))
            g = np.take(buf, plan.tiles.positions[:, queries])
            np.sum(plan.weight[:, queries] * g, axis=0, out=logits[queries])
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in the contracted bilinear read")
    tally_multiplies(n * k * d)
    return logits.astype(np.result_type(f, vectors), copy=False)


def bilinear_aggregate(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                       plan: SamplingPlan | None = None) -> np.ndarray:
    """y[:, n] = sum_k weights[n, k] * (f read at coords[n, k]) -> D x N.

    The fused form of `sparse_aggregate(bilinear_sample(f, coords),
    weights)`, equal to it to float rounding, without the N x D x K
    samples: with the weights folded in, the read is a sparse N x HW
    matrix A, and per tile (see `TileLayout`) y[:, tile] = f[:, box] @
    A_t.T is one BLAS product. The result is a new C-contiguous array in
    the dtype of f and weights; reruns are bit-identical. Tallies the
    N * K * D multiplies of the aggregation. `plan` is as for
    `bilinear_sample`.
    """
    plan = _plan_for(f, coords, plan)
    if weights.shape != (plan.n, plan.k):
        raise DimensionError(f"weights {weights.shape} must be N x K = {(plan.n, plan.k)}")
    d = f.shape[0]
    dtype = np.result_type(f, weights, plan.weight)
    maps = f.astype(dtype, copy=False)
    y = np.empty((d, *plan.tiles.grid), dtype=dtype)
    for _, tiles, buf in _chunks(plan, dtype, weights):
        for start, stop, rows, cols, ys, xs in tiles:
            box = maps[:, ys, xs].reshape(d, -1)
            out = y[:, rows, cols]
            out[...] = (box @ buf[start:stop].reshape(-1, box.shape[1]).T).reshape(out.shape)
    tally_multiplies(plan.n * plan.k * d)
    return y.reshape(d, plan.n).astype(np.result_type(f, weights), copy=False)


def bilinear_sample_backward(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                             vectors: np.ndarray, plan: SamplingPlan | None = None,
                             *, aggregate: bool = False) -> tuple[np.ndarray, ...]:
    """Adjoint of bilinear_sample for the upstream gradient
    grad_out[n, :, k] = weights[n, k] * vectors[:, n].

    weights is N x K and vectors D x N, the form both reads of
    snl_backward receive: it is the adjoint of `bilinear_aggregate` with
    upstream gradient vectors, and of the logits `bilinear_sample(f,
    coords, vectors=vectors)` with upstream gradient weights. Returns
    (grad_f: D x H x W in f's dtype, grad_coords: N x K x 2 in coords'
    dtype, grad_weights: N x K in weights' dtype, those logits), and with
    `aggregate` also bilinear_aggregate(f, coords, weights), D x N: the
    key read's query gradient. The coordinate gradient differentiates
    the corner weights; at exact integers the floor-cell
    (right-continuous) subgradient is used. `plan` is the forward read's
    plan, built here when not given.

    Per tile (see `TileLayout`) of the read A with the weights folded in,
    grad_f[:, box] += vectors[:, tile] @ A_t (and the aggregate is
    f[:, box] @ A_t.T); then the SDDMM G_t = vectors[:, tile].T @
    f[:, box] overwrites A_t, and grad_weights and grad_coords (with
    dw/dt, times weights) are gathers of G at the corners. grad_out is
    never formed. Scratch beyond the layout is one buffer, reused by
    every chunk (at most 2**14 elements, or one band of 8 query rows),
    and temporaries of a chunk's queries x K: below one N x HW array on
    maps of over 8 rows, even if every box is the whole image.

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
    dtype = np.result_type(f, weights, vectors, plan.weight)
    maps = f.astype(dtype, copy=False)
    columns = vectors.astype(dtype, copy=False).reshape(d, *plan.tiles.grid)
    grad_f = np.zeros((d, h, w), dtype=dtype)
    grad_coords = np.empty_like(coords)
    grad_weights = np.empty_like(weights)
    y = np.empty((d, *plan.tiles.grid), dtype=dtype) if aggregate else None
    for queries, tiles, buf in _chunks(plan, dtype, weights):
        for start, stop, rows, cols, ys, xs in tiles:
            vt = columns[:, rows, cols].reshape(d, -1)
            a_t = buf[start:stop].reshape(vt.shape[1], -1)
            box = grad_f[:, ys, xs]
            box += (vt @ a_t).reshape(box.shape)
            f_box = maps[:, ys, xs].reshape(d, -1)
            if aggregate:
                out = y[:, rows, cols]
                out[...] = (f_box @ a_t.T).reshape(out.shape)
            np.matmul(vt.T, f_box, out=a_t)
        g = np.take(buf, plan.tiles.positions[:, queries])
        grad_weights[queries] = (plan.weight[:, queries] * g).sum(axis=0)
        gx, gy = (plan.weight_grad[:, :, queries] * g).sum(axis=1)
        np.multiply(weights[queries], gx, out=grad_coords[queries, :, 0])
        np.multiply(weights[queries], gy, out=grad_coords[queries, :, 1])
    grads = grad_f.astype(f.dtype, copy=False), grad_coords, grad_weights
    if aggregate:
        return *grads, y.reshape(d, n).astype(np.result_type(f, weights), copy=False)
    return grads
