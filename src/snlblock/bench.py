"""Attention-core benchmarks: multiply counts and wall time vs N.

Only the affinity + aggregation products are measured; the 1x1
projections are shared between the two blocks and excluded so the
scaling of the contested part is what gets fitted.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .tensor import SINGLE, ConfigError, MultiplyCounter
from .dense import dense_affinity, dense_aggregate
from .sparse import sparse_affinity, sparse_aggregate


@dataclass
class BenchPoint:
    block: str      # "dense-nl" or "snl"
    n: int
    k: int
    c: int
    repeats: int
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


def bench_dense_core(n: int, c: int, repeats: int,
                     rng: np.random.Generator) -> tuple[float, int]:
    q = rng.standard_normal((c // 2, n)).astype(SINGLE)
    k = rng.standard_normal((c // 2, n)).astype(SINGLE)
    v = rng.standard_normal((c, n)).astype(SINGLE)

    def core():
        a = dense_affinity(q, k)
        dense_aggregate(v, a)

    with MultiplyCounter() as mc:
        core()
    return _time_best(core, repeats), mc.count


def bench_snl_core(n: int, k: int, c: int, repeats: int,
                   rng: np.random.Generator) -> tuple[float, int]:
    # sampling shares the O(NKC) shape and is excluded along with the
    # projections; the core is the pair of sparse products
    q = rng.standard_normal((c // 2, n)).astype(SINGLE)
    sampled_k = rng.standard_normal((n, c // 2, k)).astype(SINGLE)
    sampled_v = rng.standard_normal((n, c, k)).astype(SINGLE)

    def core():
        s = sparse_affinity(q, sampled_k)
        sparse_aggregate(sampled_v, s)

    with MultiplyCounter() as mc:
        core()
    return _time_best(core, repeats), mc.count


def run_bench(shapes: list[tuple[int, int]], k: int, c: int,
              repeats: int = 5, seed: int = 0) -> list[BenchPoint]:
    """Measure both cores at each (H, W); returns two BenchPoints per shape.

    Shapes whose dense core does not fit in memory are skipped with a
    report line rather than aborting the sweep.
    """
    if repeats < 5:
        raise ConfigError(f"repeats must be >= 5, got {repeats}")
    rng = np.random.default_rng(seed)
    points: list[BenchPoint] = []
    for h, w in shapes:
        n = h * w
        if k > n:
            raise ConfigError(f"K={k} exceeds N={n} for shape {h}x{w}")
        try:
            ms, mult = bench_dense_core(n, c, repeats, rng)
            points.append(BenchPoint("dense-nl", n, k, c, repeats, ms, mult))
        except MemoryError:
            print(f"skip dense-nl N={n}: allocation failed")
        try:
            ms, mult = bench_snl_core(n, k, c, repeats, rng)
            points.append(BenchPoint("snl", n, k, c, repeats, ms, mult))
        except MemoryError:
            print(f"skip snl N={n}: allocation failed")
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
