"""Bilinear sampling of a feature map at fractional coordinates, and its adjoint.

The block's reads store no samples: the key read (`bilinear_sample`) is
an SDDMM giving the logits, the value read (`bilinear_aggregate`) an
SpMM giving the aggregation, and `bilinear_sample_backward` is their
adjoint. All three work over 8 x 8 query tiles, one 8-row band of
queries at a time, on the `SamplingPlan` they are given: the corner
bookkeeping `sampling_plan` computes for a chunk of whole bands
(`query_chunks`). `snl_forward` and `snl_backward` build one per chunk
and share it between the two reads or the two adjoints, so none of it
outlives its chunk.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import ConsistencyError, DimensionError, NumericError, tally_multiplies


# The reads cut the queries _TILE x _TILE, and the block runs them a chunk
# of whole bands (rows of tiles) at a time, as many bands as have at most
# _BLOCK_ELEMENTS samples (at least one). Small chunks keep the
# bookkeeping small and its heap pages reused.
_BLOCK_ELEMENTS = 1 << 14
_TILE = 8


@dataclass(frozen=True)
class SamplingPlan:
    """Where the N x K bilinear samples of a grid of queries read an
    H x W map, laid out for the tiled reads, and with what weights.

    It depends only on `coords`, the array the reads must then be given,
    and the map's extent, so one plan serves maps of any channel count:
    a chunk's key and value read share one, and so do both adjoints.

    The N queries form the row-major `grid` (rows x cols), cut into
    8 x 8 tiles. A tile's box bounds the pixels its own samples' corners
    touch, so a far offset widens only its tile. `runs` holds (queries,
    buffer length, tiles) per band (row of tiles): the reads fill one
    band at a time into one buffer. Each tile is (start, stop, query
    rows, query cols, box rows, box cols), locating its (queries x box)
    matrix in its band's buffer. Corner c = 2 * dy + dx of sample (n, k),
    of the cell containing it, falls at buf[positions[c, n, k]] of its
    band's buffer and has the bilinear weight `weight[c, n, k]`: the
    product of the interpolation factors, 1 - u on the left/top side and
    u on the right/bottom one, for the fractional part u of t_x and of
    t_y. A corner outside the image falls on the pixel it clips to,
    inside the box, and weighs zero (zero padding). `weight_grad`
    (2 x 4 x N x K) holds the weights' derivatives along t_x and t_y,
    masked the same way (a masked derivative is a zero with the
    derivative's sign); only the adjoint needs it, and a plan built
    without derivatives holds None.
    """

    coords: np.ndarray
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
    N x 1 column, cut into chunks of whole bands of 8 query rows, as many
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
    # by corner [dy, dx], the weight fx[dx] * fy[dy] and, with
    # derivatives, its d/dt_x and d/dt_y, in one array
    weights = np.empty((1 + 2 * derivatives, 2, 2, n, k), dtype=factors.dtype)
    np.multiply(factors[None, :, 0], factors[:, None, 1], out=weights[0])
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
    # per tile: where pixel (0, 0) of its box would sit in its band's
    # buffer, and the box's area and width
    runs, per_tile = [], []
    for i, row in enumerate(counts):
        tiles, start = [], 0
        for j, count in enumerate(row):
            width = x1[i][j] - x0[i][j]
            area = width * (y1[i][j] - y0[i][j])
            tiles.append((start, start + count * area, slice(i * _TILE, (i + 1) * _TILE),
                          slice(j * _TILE, (j + 1) * _TILE),
                          slice(y0[i][j], y1[i][j]), slice(x0[i][j], x1[i][j])))
            per_tile.append((start - y0[i][j] * width - x0[i][j], area, width))
            start += count * area
        runs.append((slice(i * _TILE * qw, min((i + 1) * _TILE, qh) * qw), start, tuple(tiles)))

    # pixel (y, x) of query n's box sits at base[n] + y * width[n] + x
    dtype = np.int32 if max(size for _, size, _ in runs) + h * w < 2**31 else np.int64
    base, area, width = np.array(per_tile, dtype=dtype).T
    rows = np.multiply(cell[:, 1].reshape(2, -1), np.repeat(np.take(width, tile), k), dtype=dtype)
    rows += np.repeat(np.take(base, tile) + local * np.take(area, tile), k)
    positions = np.add(rows[:, None], cell[None, :, 0].reshape(1, 2, -1)).reshape(4, n, k)
    return SamplingPlan(coords, h, w, (qh, qw), tuple(runs), positions, weights[0],
                        weights[1:] if derivatives else None)


def _check_plan(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan, derivatives: bool):
    """Raise unless f is D x H x W, coords N x K x 2 and plan built from
    coords on f's extent, with derivatives where the adjoint needs them."""
    if f.ndim != 3 or coords.ndim != 3 or coords.shape[2] != 2:
        raise DimensionError(f"bilinear read shapes: f {f.shape}, coords {coords.shape}")
    if (plan.coords.shape, plan.height, plan.width) != (coords.shape, *f.shape[1:]):
        raise DimensionError(f"sampling plan for coords {plan.coords.shape} on {plan.height} x "
                             f"{plan.width} does not fit coords {coords.shape} on f {f.shape}")
    if coords is not plan.coords:
        raise ConsistencyError("the sampling plan was built from other coordinates")
    if derivatives and plan.weight_grad is None:
        raise ConsistencyError("the adjoint needs a sampling plan built with derivatives")


def _runs(plan: SamplingPlan, dtype, weights: np.ndarray | None = None):
    """The bands of plan as (queries, tiles, buf), buf in dtype and reused
    by every band. Given weights (N x K), buf holds the band's tiles of
    the read with them folded in, A[n, pixel] = sum over the corners of
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


def bilinear_sample(f: np.ndarray, coords: np.ndarray, plan: SamplingPlan,
                    vectors: np.ndarray) -> np.ndarray:
    """The key read: the N x K logits vectors[:, n] . (f read at
    coords[n, k]), for f D x H x W, coords N x K x 2 and vectors D x N.

    Four-corner interpolation with zero padding: corners outside the
    image contribute nothing. `plan` is `sampling_plan(coords, H, W)`,
    or a chunk's plan with the chunk's grid, built from this very coords
    array; it holds all the reads use of the coordinates.

    No samples are formed: per tile (see `SamplingPlan`), the SDDMM
    G_t = vectors[:, tile].T @ f[:, box] is one BLAS product, and each
    logit sums its corners' bilinear weights times G there: the einsum
    of vectors with the samples to float rounding, in the dtype of f and
    vectors, bit-identical on reruns. Tallies N * K * D multiplies; a
    non-finite logit raises NumericError.
    """
    _check_plan(f, coords, plan, derivatives=False)
    d = f.shape[0]
    n, k, _ = coords.shape
    if vectors.shape != (d, n):
        raise DimensionError(f"vectors {vectors.shape} must be D x N = {(d, n)}")
    dtype = np.result_type(f, vectors, coords)
    maps = f.astype(dtype, copy=False)
    columns = vectors.astype(dtype, copy=False).reshape(d, *plan.grid)
    logits = np.empty((n, k), dtype=dtype)
    # overflow, and inf times a masked corner's zero weight, raise below
    with np.errstate(over="ignore", invalid="ignore"):
        for queries, tiles, buf in _runs(plan, dtype):
            for start, stop, rows, cols, ys, xs in tiles:
                vt = columns[:, rows, cols].reshape(d, -1)
                np.matmul(vt.T, maps[:, ys, xs].reshape(d, -1),
                          out=buf[start:stop].reshape(vt.shape[1], -1))
            g = np.take(buf, plan.positions[:, queries])
            np.sum(plan.weight[:, queries] * g, axis=0, out=logits[queries])
    if not np.isfinite(logits).all():
        raise NumericError("non-finite logits in the contracted bilinear read")
    tally_multiplies(n * k * d)
    return logits.astype(np.result_type(f, vectors), copy=False)


def bilinear_aggregate(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                       plan: SamplingPlan) -> np.ndarray:
    """The value read: y[:, n] = sum_k weights[n, k] * (f read at
    coords[n, k]) -> D x N.

    Equal to `sparse_aggregate` of the N x D x K samples to float
    rounding, without forming them: with the weights folded in, the read
    is a sparse N x HW matrix A, and per tile (see `SamplingPlan`)
    y[:, tile] = f[:, box] @ A_t.T is one BLAS product. The result is a
    new C-contiguous array in the dtype of f and weights; reruns are
    bit-identical. Tallies the N * K * D multiplies of the aggregation.
    `plan` is as for `bilinear_sample`.
    """
    _check_plan(f, coords, plan, derivatives=False)
    n, k, _ = coords.shape
    if weights.shape != (n, k):
        raise DimensionError(f"weights {weights.shape} must be N x K = {(n, k)}")
    d = f.shape[0]
    dtype = np.result_type(f, weights, coords)
    maps = f.astype(dtype, copy=False)
    y = np.empty((d, n), dtype=dtype)
    y_grid = y.reshape(d, *plan.grid)
    for _, tiles, buf in _runs(plan, dtype, weights):
        for start, stop, rows, cols, ys, xs in tiles:
            box = maps[:, ys, xs].reshape(d, -1)
            out = y_grid[:, rows, cols]
            out[...] = (box @ buf[start:stop].reshape(-1, box.shape[1]).T).reshape(out.shape)
    tally_multiplies(n * k * d)
    return y.astype(np.result_type(f, weights), copy=False)


def bilinear_sample_backward(f: np.ndarray, coords: np.ndarray, weights: np.ndarray,
                             vectors: np.ndarray, plan: SamplingPlan, grad_f: np.ndarray,
                             *, aggregate: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of the bilinear read for the upstream gradient
    grad_out[n, :, k] = weights[n, k] * vectors[:, n].

    weights is N x K and vectors D x N, the form both reads of
    snl_backward receive: it is the adjoint of `bilinear_aggregate` with
    upstream gradient vectors, and of the logits `bilinear_sample(f,
    coords, plan, vectors)` with upstream gradient weights. The map
    gradient is added into grad_f (D x H x W), in its dtype: a caller
    running the adjoint a chunk at a time passes one array to every
    chunk, and one in the dtype of f, weights, vectors and coords gets
    the bits of a single call. Returns (grad_coords: N x K x 2 in
    coords' dtype, grad_weights: N x K in weights' dtype, those logits).
    With `aggregate`, the key read's adjoint, whose weights are the
    logits' gradient and need no gradient of their own, the second
    result is bilinear_aggregate(f, coords, weights, plan) instead,
    D x N: the key read's query gradient. The coordinate gradient
    differentiates the corner weights; at exact integers the floor-cell
    (right-continuous) subgradient is used. `plan` is as for
    `bilinear_sample`, built with derivatives.

    Per tile (see `SamplingPlan`) of the read A with the weights folded
    in, grad_f[:, box] += vectors[:, tile] @ A_t (and the aggregate is
    f[:, box] @ A_t.T); then the SDDMM G_t = vectors[:, tile].T @
    f[:, box] overwrites A_t, and grad_weights and grad_coords (with
    dw/dt, times weights) are sums of G at the corners. grad_out is
    never formed. Scratch is one band's buffer and temporaries of a
    band's queries x K.

    The result is the adjoint to float rounding, in the widest dtype of
    the inputs: BLAS orders the sums, not a fixed np.add.at order.
    Reruns with the same inputs are bit-identical.
    """
    _check_plan(f, coords, plan, derivatives=True)
    d = f.shape[0]
    n, k, _ = coords.shape
    if weights.shape != (n, k) or vectors.shape != (d, n):
        raise DimensionError(f"grad_out factors {weights.shape}, {vectors.shape} must be "
                             f"{(n, k)}, {(d, n)} for N, D, K = {n}, {d}, {k}")
    if grad_f.shape != f.shape:
        raise DimensionError(f"grad_f {grad_f.shape} must be D x H x W = {f.shape}")
    dtype = np.result_type(f, weights, vectors, coords)
    maps = f.astype(dtype, copy=False)
    columns = vectors.astype(dtype, copy=False).reshape(d, *plan.grid)
    grad_coords = np.empty_like(coords)
    if aggregate:
        y = np.empty((d, n), dtype=dtype)
        y_grid = y.reshape(d, *plan.grid)
    else:
        grad_weights = np.empty_like(weights)
    for queries, tiles, buf in _runs(plan, dtype, weights):
        for start, stop, rows, cols, ys, xs in tiles:
            vt = columns[:, rows, cols].reshape(d, -1)
            a_t = buf[start:stop].reshape(vt.shape[1], -1)
            box = grad_f[:, ys, xs]
            box += (vt @ a_t).reshape(box.shape)
            f_box = maps[:, ys, xs].reshape(d, -1)
            if aggregate:
                out = y_grid[:, rows, cols]
                out[...] = (f_box @ a_t.T).reshape(out.shape)
            np.matmul(vt.T, f_box, out=a_t)
        g = np.take(buf, plan.positions[:, queries])
        if not aggregate:
            grad_weights[queries] = (plan.weight[:, queries] * g).sum(axis=0)
        gx, gy = (plan.weight_grad[:, :, queries] * g).sum(axis=1)
        np.multiply(weights[queries], gx, out=grad_coords[queries, :, 0])
        np.multiply(weights[queries], gy, out=grad_coords[queries, :, 1])
    if aggregate:
        return grad_coords, y.astype(np.result_type(f, weights), copy=False)
    return grad_coords, grad_weights
