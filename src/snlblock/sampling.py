"""Bilinear sampling of a feature map at fractional coordinates, and its adjoint.

The block's reads store no samples: the key read (`bilinear_sample` with
`vectors`) is an SDDMM giving the logits, the value read
(`bilinear_aggregate`) an SpMM giving the aggregation, and
`bilinear_sample_backward` is their adjoint. All three work over 8 x 8
query tiles, one chunk of whole 8-row bands of queries at a time
(`query_chunks`). `sampling_plan` computes a chunk's corner bookkeeping,
a `SamplingPlan`; `snl_forward` and `snl_backward` build one per chunk
and share it between the two reads or the two adjoints, so none of it
outlives its chunk. Without `vectors`, `bilinear_sample` gathers the
N x D x K samples themselves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import ConsistencyError, DimensionError, NumericError, tally_multiplies


# The reads cut the queries _TILE x _TILE and run a chunk of whole bands
# (rows of tiles) at a time, as many bands as have at most _BLOCK_ELEMENTS
# samples (at least one); within a chunk, they fill a run of bands at a
# time into one buffer, as many as fit _BLOCK_ELEMENTS (at least one).
# Small chunks and runs keep the bookkeeping and scratch small and their
# heap pages reused.
_BLOCK_ELEMENTS = 1 << 14
_TILE = 8


@dataclass(frozen=True)
class SamplingPlan:
    """Where the N x K bilinear samples of a grid of queries read an
    H x W map, laid out for the tiled reads, and with what weights.

    It depends on the coordinates and the map's extent only, so one plan
    serves maps of any channel count: the key and the value read of a
    chunk share one, and so do both adjoints.

    The N queries form the row-major `grid` (rows x cols), cut into
    8 x 8 tiles. A tile's box bounds the pixels its own samples' corners
    touch, so a far offset widens only its tile. `runs` holds (queries,
    buffer length, tiles) per run of whole bands (rows of tiles) that
    share one buffer; each tile is (start, stop, query rows, query cols,
    box rows, box cols), locating its (queries x box) matrix in the
    run's buffer. Corner c = 2 * dy + dx of sample (n, k), of the cell
    containing it, falls at buf[positions[c, n, k]] of its run's buffer
    and has the bilinear weight `weight[c, n, k]`: the product of the
    interpolation factors, 1 - u on the left/top side and u on the
    right/bottom one, for the fractional part u of t_x and of t_y. A
    corner outside the image falls on the pixel it clips to, inside the
    box, and weighs zero (zero padding). `weight_grad` (2 x 4 x N x K)
    holds the weights' derivatives along t_x and t_y, masked the same
    way (a masked derivative is a zero with the derivative's sign); only
    the adjoint needs it, and a plan built without derivatives holds
    None.
    """

    n: int
    k: int
    height: int
    width: int
    grid: tuple[int, int]
    runs: tuple[tuple[slice, int, tuple[tuple[int, int, slice, slice, slice, slice], ...]], ...]
    positions: np.ndarray
    weight: np.ndarray
    weight_grad: np.ndarray | None


def query_chunks(n: int, k: int, h: int, w: int) -> list[tuple[slice, tuple[int, int]]]:
    """The chunks the tiled reads of N x K samples on an h x w map run in.

    The queries form a grid, the map's h x w when N = h * w and else an
    N x 1 column, cut into runs of whole bands of 8 query rows, as many
    bands as have at most _BLOCK_ELEMENTS samples (at least one). Per
    chunk: its queries, a slice of 0..N, and their grid.
    """
    qh, qw = (h, w) if n == h * w else (n, 1)
    rows = _TILE * max(1, _BLOCK_ELEMENTS // (_TILE * qw * k))
    return [(slice(r * qw, min(r + rows, qh) * qw), (min(rows, qh - r), qw))
            for r in range(0, qh, rows)]


def _corners(coords: np.ndarray, h: int, w: int):
    """Per sample of coords (N x K x 2, (t_x, t_y)) on an h x w map, as
    [side, axis] arrays (2 x 2 x N x K): the column (axis 0) or row
    (axis 1) of the left/top (side 0) and right/bottom (side 1) pixels of
    its cell, clipped into the image; 1 where they are in it and 0
    elsewhere, in the coordinates' dtype; and their interpolation factors
    (1 - u on side 0, u on side 1, for the fractional part u along the
    axis) times that mask. Non-finite coordinates raise NumericError
    before any integer cast."""
    if coords.ndim != 3 or coords.shape[2] != 2:
        raise DimensionError(f"coordinates must be N x K x 2, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise NumericError("non-finite sampling coordinates")
    n, k, _ = coords.shape
    t = coords.transpose(2, 0, 1)
    # side 0 of factors holds the floors until 1 - u replaces them. Beyond
    # [-2, max(W, H) + 1] every corner of a cell is outside the image and
    # masked, factors and all, so clamping the floors there changes no
    # read or gradient; it keeps the integer cast (and x0 + 1) in range
    factors = np.empty((2, 2, n, k), dtype=coords.dtype)
    floor = np.floor(t, out=factors[0])
    np.subtract(t, floor, out=factors[1])
    np.clip(floor, -2, max(h, w) + 1, out=floor)
    ends = np.empty((2, 2, n, k), dtype=np.int32 if max(h, w) < 2**30 else np.int64)
    ends[0] = floor
    np.add(ends[0], 1, out=ends[1])
    cell = np.empty_like(ends)
    for axis, last in enumerate((w - 1, h - 1)):
        np.clip(ends[:, axis], 0, last, out=cell[:, axis])
    mask = (cell == ends).astype(factors.dtype)
    np.subtract(1, factors[1], out=factors[0])
    factors *= mask
    return cell, mask, factors


def _bilinear_weights(factors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """weight[dy, dx] = fx[dx] * fy[dy], 2 x 2 x N x K."""
    return np.multiply(factors[None, :, 0], factors[:, None, 1], out=out)


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


def sampling_plan(coords: np.ndarray, h: int, w: int, grid: tuple[int, int] | None = None,
                  derivatives: bool = True) -> SamplingPlan:
    """The SamplingPlan of coords (N x K x 2, (t_x, t_y)) on an h x w map.

    The queries form `grid`, by default the map's when N = h * w and an
    N x 1 column otherwise; `query_chunks` gives each chunk's. Without
    `derivatives` the plan serves the reads only (no `weight_grad`).
    Non-finite coordinates raise NumericError before any integer cast.
    """
    cell, mask, factors = _corners(coords, h, w)
    n, k, _ = coords.shape
    qh, qw = grid if grid is not None else ((h, w) if n == h * w else (n, 1))
    if qh * qw != n:
        raise DimensionError(f"query grid {qh} x {qw} does not hold N = {n} queries")
    # by corner [dy, dx], the weight and, with derivatives, its d/dt_x
    # and d/dt_y, in one array
    weights = np.empty((1 + 2 * derivatives, 2, 2, n, k), dtype=factors.dtype)
    _bilinear_weights(factors, out=weights[0])
    if derivatives:
        # per side and axis, the factor's derivative (-1 on side 0, 1 on
        # side 1) times its mask, so a masked one is -0 or +0; d/dt_x is
        # sx[dx] * fy[dy] and d/dt_y is sy[dy] * fx[dx]
        signed = mask
        np.negative(signed[0], out=signed[0])
        np.multiply(signed[None, :, 0], factors[:, None, 1], out=weights[1])
        np.multiply(signed[:, None, 1], factors[None, :, 0], out=weights[2])
    weights = weights.reshape(-1, 4, n, k)
    del mask, factors

    (col_cuts, row_cuts), counts, tile, local = _query_tiles(qh, qw, k)
    # per tile, (x, y) of the first and one past the last pixel of its box
    lo, hi = (op.reduceat(op.reduceat(side.reshape(2, qh, -1), col_cuts, axis=2), row_cuts, axis=1)
              for op, side in ((np.minimum, cell[0]), (np.maximum, cell[1])))
    (x0, y0), (x1, y1) = lo.tolist(), (hi + 1).tolist()
    sizes = [[count * (x1[i][j] - x0[i][j]) * (y1[i][j] - y0[i][j])
              for j, count in enumerate(row)] for i, row in enumerate(counts)]
    bands = [sum(row) for row in sizes]
    # per tile: where pixel (0, 0) of its box would sit in its run's
    # buffer, and the box's area and width
    runs, per_tile = [], []
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
        runs.append((slice(b0 * _TILE * qw, min(b1 * _TILE, qh) * qw), total, tuple(tiles)))
        b0 = b1

    # pixel (y, x) of query n's box sits at base[n] + y * width[n] + x
    dtype = np.int32 if max(bands) + h * w < 2**31 else np.int64
    base, area, width = np.array(per_tile, dtype=dtype).T
    rows = np.multiply(cell[:, 1].reshape(2, -1), np.repeat(np.take(width, tile), k), dtype=dtype)
    rows += np.repeat(np.take(base, tile) + local * np.take(area, tile), k)
    positions = np.add(rows[:, None], cell[None, :, 0].reshape(1, 2, -1)).reshape(4, n, k)
    return SamplingPlan(n, k, h, w, (qh, qw), tuple(runs), positions, weights[0],
                        weights[1:] if derivatives else None)


def _plans(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan | None, derivatives: bool):
    """(queries, plan) pairs covering coords (N x K x 2) on f (D x H x W):
    the given plan for all queries, checked against them, or else a new
    plan per chunk of `query_chunks`, each built when it is reached."""
    if f.ndim != 3 or coords.ndim != 3 or coords.shape[2] != 2:
        raise DimensionError(f"bilinear_sample shapes: f {f.shape}, coords {coords.shape}")
    n, k, _ = coords.shape
    h, w = f.shape[1], f.shape[2]
    if plan is None:
        return ((queries, sampling_plan(coords[queries], h, w, grid, derivatives))
                for queries, grid in query_chunks(n, k, h, w))
    if (plan.n, plan.k, plan.height, plan.width) != (n, k, h, w):
        raise DimensionError(
            f"sampling plan for N x K = {plan.n} x {plan.k} on {plan.height} x {plan.width} "
            f"does not fit coords {coords.shape} on f {f.shape}")
    if derivatives and plan.weight_grad is None:
        raise ConsistencyError("the adjoint needs a sampling plan built with derivatives")
    return [(slice(None), plan)]


def _runs(plan: SamplingPlan, dtype, weights: np.ndarray | None = None):
    """The runs of plan as (queries, tiles, buf), buf in dtype and reused
    by every run. Given weights (N x K), buf holds the run's tiles of the
    read with them folded in, A[n, pixel] = sum over the corners of
    samples (n, k) on that pixel of weights[n, k] * their bilinear
    weight."""
    scratch = np.empty(max(size for _, size, _ in plan.runs), dtype=dtype)
    for queries, size, tiles in plan.runs:
        buf = scratch[:size]
        if weights is not None:
            buf.fill(0)
            np.add.at(buf, plan.positions[:, queries].reshape(-1),
                      (weights[queries] * plan.weight[:, queries]).reshape(-1))
        yield queries, tiles, buf


def bilinear_sample(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan | None = None,
                    vectors: np.ndarray | None = None) -> np.ndarray:
    """Read f (D x H x W) at fractional coords (N x K x 2) -> N x D x K,
    or with vectors (D x N) the N x K logits vectors[:, n] . (f read at
    coords[n, k]).

    Four-corner interpolation with zero padding: corners outside the
    image contribute nothing. Integer coordinates reduce to an exact
    pixel read. `plan` is `sampling_plan(coords, H, W)` or a chunk's
    plan; without one, the logits are read a chunk at a time, each with
    its own.

    The samples are a new C-contiguous array, summed from zero over the
    corners in order; they are read from the coordinates, so a plan is
    only checked against them. The logits, the key read of
    `snl_forward`, form no samples: per tile (see `SamplingPlan`), the
    SDDMM G_t = vectors[:, tile].T @ f[:, box] is one BLAS product, and
    each logit sums its corners' bilinear weights times G there: the
    einsum of vectors with the samples to float rounding, in the dtype
    of f and vectors, bit-identical on reruns. Tallies N * K * D
    multiplies; a non-finite logit raises NumericError.
    """
    plans = _plans(f, coords, plan, derivatives=False)
    d, h, w = f.shape
    n, k, _ = coords.shape
    if vectors is None:
        cell, _, factors = _corners(coords, h, w)
        # corner c of sample (n, k) reads flat pixel index[c, n, k] = y * W + x
        index = np.multiply(cell[:, None, 1], w, dtype=np.int64) + cell[None, :, 0]
        out = np.zeros((d, n, k), dtype=f.dtype)
        for weight, pixels in zip(_bilinear_weights(factors).reshape(4, n, k),
                                  index.reshape(4, n, k)):
            out += weight * f.reshape(d, -1)[:, pixels]
        return np.ascontiguousarray(out.transpose(1, 0, 2))
    if vectors.shape != (d, n):
        raise DimensionError(f"vectors {vectors.shape} must be D x N = {(d, n)}")
    dtype = np.result_type(f, vectors, coords)
    maps = f.astype(dtype, copy=False)
    logits = np.empty((n, k), dtype=dtype)
    # overflow, and inf times a masked corner's zero weight, raise below
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk, plan in plans:
            columns = vectors[:, chunk].astype(dtype, copy=False).reshape(d, *plan.grid)
            for queries, tiles, buf in _runs(plan, dtype):
                for start, stop, rows, cols, ys, xs in tiles:
                    vt = columns[:, rows, cols].reshape(d, -1)
                    np.matmul(vt.T, maps[:, ys, xs].reshape(d, -1),
                              out=buf[start:stop].reshape(vt.shape[1], -1))
                g = np.take(buf, plan.positions[:, queries])
                np.sum(plan.weight[:, queries] * g, axis=0, out=logits[chunk][queries])
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
    matrix A, and per tile (see `SamplingPlan`) y[:, tile] = f[:, box] @
    A_t.T is one BLAS product. The result is a new C-contiguous array in
    the dtype of f and weights; reruns are bit-identical. Tallies the
    N * K * D multiplies of the aggregation. `plan` is as for
    `bilinear_sample`.
    """
    plans = _plans(f, coords, plan, derivatives=False)
    n, k, _ = coords.shape
    if weights.shape != (n, k):
        raise DimensionError(f"weights {weights.shape} must be N x K = {(n, k)}")
    d = f.shape[0]
    dtype = np.result_type(f, weights, coords)
    maps = f.astype(dtype, copy=False)
    y = np.empty((d, n), dtype=dtype)
    for chunk, plan in plans:
        y_chunk = y[:, chunk].reshape(d, *plan.grid)
        for _, tiles, buf in _runs(plan, dtype, weights[chunk]):
            for start, stop, rows, cols, ys, xs in tiles:
                box = maps[:, ys, xs].reshape(d, -1)
                out = y_chunk[:, rows, cols]
                out[...] = (box @ buf[start:stop].reshape(-1, box.shape[1]).T).reshape(out.shape)
    tally_multiplies(n * k * d)
    return y.astype(np.result_type(f, weights), copy=False)


def bilinear_sample_backward(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                             vectors: np.ndarray, plan: SamplingPlan | None = None,
                             *, aggregate: bool = False,
                             grad_f: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Adjoint of bilinear_sample for the upstream gradient
    grad_out[n, :, k] = weights[n, k] * vectors[:, n].

    weights is N x K and vectors D x N, the form both reads of
    snl_backward receive: it is the adjoint of `bilinear_aggregate` with
    upstream gradient vectors, and of the logits `bilinear_sample(f,
    coords, vectors=vectors)` with upstream gradient weights. Returns
    (grad_f: D x H x W in f's dtype, grad_coords: N x K x 2 in coords'
    dtype, grad_weights: N x K in weights' dtype, those logits). With
    `aggregate`, the key read's adjoint, whose weights are the logits'
    gradient and need no gradient of their own, the third result is
    bilinear_aggregate(f, coords, weights) instead, D x N: the key read's
    query gradient. The coordinate gradient differentiates
    the corner weights; at exact integers the floor-cell
    (right-continuous) subgradient is used. `plan` is as for
    `bilinear_sample`, built with derivatives.

    Given `grad_f` (D x H x W), the map gradient is added into it, in
    its dtype, and it is returned as is: a caller running the adjoint a
    chunk at a time passes one array to every chunk. In the dtype of f,
    weights, vectors and coords, it gets the bits of a single call.

    Per tile (see `SamplingPlan`) of the read A with the weights folded
    in, grad_f[:, box] += vectors[:, tile] @ A_t (and the aggregate is
    f[:, box] @ A_t.T); then the SDDMM G_t = vectors[:, tile].T @
    f[:, box] overwrites A_t, and grad_weights and grad_coords (with
    dw/dt, times weights) are sums of G at the corners. grad_out is
    never formed. Scratch is the chunk's plan, its buffer and
    temporaries of the chunk's queries x K.

    The result is the adjoint to float rounding, in the widest dtype of
    the inputs: BLAS orders the sums, not a fixed np.add.at order.
    Reruns with the same inputs are bit-identical.
    """
    plans = _plans(f, coords, plan, derivatives=True)
    d, h, w = f.shape
    n, k, _ = coords.shape
    if weights.shape != (n, k) or vectors.shape != (d, n):
        raise DimensionError(f"grad_out factors {weights.shape}, {vectors.shape} must be "
                             f"{(n, k)}, {(d, n)} for N, D, K = {n}, {d}, {k}")
    dtype = np.result_type(f, weights, vectors, coords)
    maps = f.astype(dtype, copy=False)
    if grad_f is None:
        grad_maps = np.zeros((d, h, w), dtype=dtype)
    elif grad_f.shape != f.shape:
        raise DimensionError(f"grad_f {grad_f.shape} must be D x H x W = {f.shape}")
    else:
        grad_maps = grad_f
    grad_coords = np.empty_like(coords)
    grad_weights = None if aggregate else np.empty_like(weights)
    y = np.empty((d, n), dtype=dtype) if aggregate else None
    for chunk, plan in plans:
        columns = vectors[:, chunk].astype(dtype, copy=False).reshape(d, *plan.grid)
        y_chunk = y[:, chunk].reshape(d, *plan.grid) if aggregate else None
        upstream, grad_t = weights[chunk], grad_coords[chunk]
        for queries, tiles, buf in _runs(plan, dtype, upstream):
            for start, stop, rows, cols, ys, xs in tiles:
                vt = columns[:, rows, cols].reshape(d, -1)
                a_t = buf[start:stop].reshape(vt.shape[1], -1)
                box = grad_maps[:, ys, xs]
                box += (vt @ a_t).reshape(box.shape)
                f_box = maps[:, ys, xs].reshape(d, -1)
                if aggregate:
                    out = y_chunk[:, rows, cols]
                    out[...] = (f_box @ a_t.T).reshape(out.shape)
                np.matmul(vt.T, f_box, out=a_t)
            g = np.take(buf, plan.positions[:, queries])
            if not aggregate:
                grad_weights[chunk][queries] = (plan.weight[:, queries] * g).sum(axis=0)
            gx, gy = (plan.weight_grad[:, :, queries] * g).sum(axis=1)
            np.multiply(upstream[queries], gx, out=grad_t[queries, :, 0])
            np.multiply(upstream[queries], gy, out=grad_t[queries, :, 1])
    if grad_f is None:
        grad_maps = grad_maps.astype(f.dtype, copy=False)
    if aggregate:
        return grad_maps, grad_coords, y.astype(np.result_type(f, weights), copy=False)
    return grad_maps, grad_coords, grad_weights
