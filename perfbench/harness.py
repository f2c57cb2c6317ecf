"""Measurement plumbing shared by the workloads: sample statistics, the
failure tally, the environment stamp and the result line.

Nothing here imports snlblock, so the harness can be tested without the
package and cannot be bent by a change to it.
"""
from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Samples:
    """Wall-time samples of one named operation, in milliseconds."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def add(self, ms: float) -> None:
        self.values.append(ms)

    def __len__(self) -> int:
        return len(self.values)

    def median(self) -> float:
        return statistics.median(self.values)

    def fastest(self) -> float:
        return min(self.values)

    def tail(self) -> tuple[int, float] | None:
        """Highest whole percentile with at least ten samples above it.

        Returns (percentile, value) or None when fewer than eleven
        samples exist. The value is the eleventh largest sample, which
        has exactly ten samples beyond it; the percentile is its rank.
        """
        n = len(self.values)
        if n < 11:
            return None
        return math.floor(100 * (n - 10) / n), sorted(self.values)[n - 11]

    def describe(self, unit: str) -> str:
        text = f"median={self.median():.4f} {unit} min={self.fastest():.4f} {unit} n={len(self)}"
        tail = self.tail()
        if tail is not None:
            text += f" p{tail[0]}={tail[1]:.4f} {unit}"
        return text


class Tally:
    """Operations attempted and failed, with a reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """Count one checked operation; returns ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB (10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_vendor() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def env_stamp(blas_threads: int, seed: int, op_counts: dict) -> dict:
    """What a reader needs before comparing figures from two runs."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
        "op_counts": op_counts,
    }


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON object every run ends with."""
    for name in metrics:
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
