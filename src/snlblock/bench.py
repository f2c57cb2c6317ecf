"""Attention-core benchmarks: multiply counts and wall time vs N.

Each block's core is timed on the same random queries, keys and values:
the dense block's affinity and aggregation, and `snl_core`, the fused
chunk loop `snl_forward` runs, whose sampling is part of its products.
The 1x1 projections are shared between the two blocks and excluded, so
the scaling of the contested part is what gets fitted.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor import SINGLE, ConfigError, MultiplyCounter
from .dense import check_channels, dense_affinity, dense_aggregate
from .sparse import GridSpec, Shape2D, base_grid, snl_core


@dataclass
class BenchPoint:
    block: str      # "dense-nl" or "snl"
    n: int
    k: int
    c: int
    best_ms: float   # fastest per-call time, see _time_best
    multiplies: int

    def csv_row(self) -> str:
        return f"{self.block},{self.n},{self.k},{self.c},{self.best_ms:.6f},{self.multiplies}"


def dense_core_multiplies(n: int, c: int) -> int:
    """Closed form for the dense core: N^2 * C/2 (affinity) + N^2 * C."""
    return n * n * (c // 2) + n * n * c


def snl_core_multiplies(n: int, k: int, c: int) -> int:
    """Closed form for the sparse core: N*K*C/2 (affinity) + N*K*C."""
    return n * k * (c // 2) + n * k * c


# Each timing sample runs the call often enough to last at least
# _SAMPLE_S, so that scheduler noise on a shared host is small against
# it; sampling goes on for at least _SAMPLING_S, so that even a call
# slower than that is timed several times
_SAMPLE_S = 0.02
_SAMPLING_S = 0.25


def _time_best(fn, repeats: int) -> float:
    """Fastest per-call wall time in ms, over at least `repeats` samples.

    One warm-up call, discarded, sizes the batch: each sample times
    enough back-to-back calls to last about _SAMPLE_S.
    """
    t0 = time.perf_counter()
    fn()
    batch = max(1, math.ceil(_SAMPLE_S / max(time.perf_counter() - t0, 1e-9)))
    best, samples, start = math.inf, 0, time.perf_counter()
    while samples < repeats or time.perf_counter() - start < _SAMPLING_S:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, (time.perf_counter() - t0) / batch)
        samples += 1
    return best * 1000.0


def run_bench(shapes: list[tuple[int, int]], k: int, c: int,
              repeats: int = 5, seed: int = 0) -> list[BenchPoint]:
    """Measure both cores at each (H, W); returns two BenchPoints per shape.

    The SNL core reads the most nearly square kh x kw window with
    kh * kw = K, shifted by offsets drawn from N(0, 0.75^2) px (a mean
    |offset| of about 0.6 px). Shapes whose dense core does not fit in
    memory are skipped with a report line rather than aborting the sweep.
    """
    if repeats < 5:
        raise ConfigError(f"repeats must be >= 5, got {repeats}")
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    check_channels(c)
    kh = max(d for d in range(1, math.isqrt(k) + 1) if k % d == 0)
    rng = np.random.default_rng(seed)
    points: list[BenchPoint] = []
    for h, w in shapes:
        n = h * w
        q = rng.standard_normal((c // 2, n)).astype(SINGLE)
        keys = rng.standard_normal((c // 2, n)).astype(SINGLE)
        v = rng.standard_normal((c, n)).astype(SINGLE)
        coords = base_grid(Shape2D(h, w), GridSpec(kh, k // kh), dtype=SINGLE) + (
            0.75 * rng.standard_normal((n, k, 2))).astype(SINGLE)
        k_map, v_map = keys.reshape(-1, h, w), v.reshape(-1, h, w)
        cores = {"dense-nl": lambda: dense_aggregate(v, dense_affinity(q, keys)),
                 "snl": lambda: snl_core(q, k_map, v_map, coords)}
        for block, core in cores.items():
            try:
                with MultiplyCounter() as mc:
                    core()
                ms = _time_best(core, repeats)
                points.append(BenchPoint(block, n, k, c, ms, mc.count))
            except MemoryError:
                print(f"skip {block} N={n}: allocation failed")
    return points


def fit_scaling(points: list[BenchPoint]) -> float:
    """Least-squares slope of log(time) vs log(N) for one block kind."""
    if len(points) < 3:
        raise ConfigError(f"need >= 3 points to fit a slope, got {len(points)}")
    kinds = {p.block for p in points}
    if len(kinds) != 1 or len({(p.k, p.c) for p in points}) != 1:
        raise ConfigError("fit_scaling needs points from one block kind at fixed K, C")
    xs = np.log([p.n for p in points])
    ys = np.log([p.best_ms for p in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)
