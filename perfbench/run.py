"""Benchmark of the snlblock package, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-block --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 50 --trace 0

Workloads: paper-block, cli-flow (see README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1
every other operation runs under the span tracer and the run reports
per-layer metrics, including the tracing overhead. Human-readable lines
come first; the last line of stdout is one JSON object. The exit code
is 1 if any output check or exact count failed, 2 if the package cannot
be found.
"""
from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, at or below nproc
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import oracle
from harness import env_stamp, peak_rss_mb, result_line
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
NAMES = ("paper-block", "cli-flow")


def load_package():
    """Import snlblock from ROOT/src; returns (package, import seconds)."""
    src = ROOT / "src"
    if not (src / "snlblock" / "__init__.py").is_file():
        print(f"perfbench: no snlblock package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    snl = importlib.import_module("snlblock")
    importlib.import_module("snlblock.cli")
    import_s = time.perf_counter() - t0
    if Path(snl.__file__).resolve().parent != (src / "snlblock").resolve():
        print(f"perfbench: imported snlblock from {snl.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return snl, import_s


def attach_counters(tracer, wl) -> None:
    """Counts recorded at the traced boundaries, beside the spans."""
    counts = tracer.counts

    def matmul(args, kwargs, result, ctx):
        a, b = args[0], args[1]
        counts["tensor.matmul.mults"] += a.shape[0] * a.shape[1] * b.shape[1]

    def sample(args, kwargs, result, ctx):
        f, coords = args[0], args[1]
        d, h, w = f.shape
        n, k = coords.shape[:2]
        counts["sparse.bilinear_sample.bytes"] += oracle.bilinear_bytes(
            d, n, k, f.itemsize, coords.itemsize)
        x0 = np.floor(coords[..., 0])
        y0 = np.floor(coords[..., 1])
        in_x = [(x0 >= 0) & (x0 < w), (x0 >= -1) & (x0 < w - 1)]
        in_y = [(y0 >= 0) & (y0 < h), (y0 >= -1) & (y0 < h - 1)]
        read = sum(int(np.count_nonzero(ix & iy)) for ix in in_x for iy in in_y)
        counts["sparse.oob.attempted"] += 4 * n * k
        counts["sparse.oob.masked"] += 4 * n * k - read

    def sample_backward(args, kwargs, result, ctx):
        f, coords = args[0], args[1]
        d = f.shape[0]
        n, k = coords.shape[:2]
        counts["sparse.bilinear_sample_backward.bytes"] += oracle.bilinear_backward_bytes(
            d, n, k, f.itemsize, coords.itemsize)

    def write(args, kwargs, result, ctx):
        arr = np.asarray(args[1])
        counts["tensorio.write_tensor.bytes"] += 6 + 4 * arr.ndim + arr.nbytes

    def read(args, kwargs, result, ctx):
        counts["tensorio.read_tensor.bytes"] += 6 + 4 * result.ndim + result.nbytes

    def snl_forward(args, kwargs, result, ctx):
        x, p = args[0], args[1]
        c, h, w = x.shape
        wl.count("tensor.core_mults.snl_forward", ctx.count,
                 oracle.snl_core_mults(h * w, p.w_offset.shape[0] // 2, c))

    def nl_forward(args, kwargs, result, ctx):
        c, n = args[0].shape
        wl.count("tensor.core_mults.nl_forward", ctx.count, oracle.dense_core_mults(n, c))

    tracer.on_call("tensor.matmul", matmul)
    tracer.on_call("sparse.bilinear_sample", sample)
    tracer.on_call("sparse.bilinear_sample_backward", sample_backward)
    tracer.on_call("tensorio.write_tensor", write)
    tracer.on_call("tensorio.read_tensor", read)
    tracer.on_call("sparse.snl_forward", snl_forward, around=wl.snl.MultiplyCounter)
    tracer.on_call("dense.nl_forward", nl_forward, around=wl.snl.MultiplyCounter)


def e2e_metrics(wl, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics every workload reports, untraced."""
    return {"setup_s": (setup_s, "s"), **wl.e2e(), "peak_rss_mb": (rss_mb, "MB")}


def layer_metrics(tracer, wl, times: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced operations, per operation."""
    n = len(times[True])
    self_ms = tracer.self_ms()
    calls = tracer.calls()
    counts = tracer.counts
    m: dict[str, tuple[float, str]] = {}
    for layer, names in LAYERS.items():
        for fn in names:
            m[f"{layer}.{fn}.self_ms"] = (self_ms.get(f"{layer}.{fn}", 0.0) / n, "ms")
    m["tensor.matmul.calls"] = (calls.get("tensor.matmul", 0) / n, "count")
    m["tensor.matmul.mults"] = (counts["tensor.matmul.mults"] / n, "count")
    for kind in ("snl_forward", "nl_forward"):
        m[f"tensor.core_mults.{kind}"] = (wl.counts_seen.get(f"tensor.core_mults.{kind}", 0), "count")
    for name in ("sparse.bilinear_sample.bytes", "sparse.bilinear_sample_backward.bytes",
                 "tensorio.write_tensor.bytes", "tensorio.read_tensor.bytes"):
        m[name] = (counts[name] / n, "B")
    attempted = counts["sparse.oob.attempted"]
    m["sparse.oob_corner_frac"] = (counts["sparse.oob.masked"] / attempted if attempted else 0.0,
                                   "ratio")
    for name in ("sparse.snl_forward", "sparse.snl_backward"):
        m[f"{name}.peak_mb"] = (tracer.peaks_mb.get(name, 0.0), "MB")
    m["gradcheck.block_forward_calls"] = (
        tracer.calls_from("gradcheck", "sparse.snl_forward", "dense.nl_forward") / n, "count")
    traced = statistics.median(times[True]) * 1000.0
    untraced = statistics.median(times[False]) * 1000.0
    m["trace.spans"] = (len(tracer.spans) / n, "count")
    m["trace.op_ms"] = (traced, "ms")
    m["trace.untraced_op_ms"] = (untraced, "ms")
    m["trace.overhead_ms"] = (traced - untraced, "ms")
    return m


def measure(wl, snl, seconds: float, tracer) -> dict[bool, list[float]]:
    """Closed loop of wl.op() for `seconds`; with a tracer, every other
    operation is traced. Returns op wall times (s), keyed by traced."""
    times: dict[bool, list[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install(snl)
            wl.tracer = tracer
        t0 = time.perf_counter()
        try:
            wl.op()
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
        times[traced].append(time.perf_counter() - t0)
        i += 1
        both = tracer is None or (times[True] and times[False])
        typical = statistics.median(times[False] + times[True])
        if both and time.perf_counter() + typical > deadline:
            return times


def run_one(args) -> int:
    snl, import_s = load_package()
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](snl, args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if args.trace:
            tracer = Tracer()
            attach_counters(tracer, wl)
        times = measure(wl, snl, args.seconds, tracer)
        rss = peak_rss_mb()   # before the checks, whose references are large

        t0 = time.perf_counter()
        wl.finish()
        check_s = time.perf_counter() - t0
        tally = wl.tally()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    tag = wl.name
    print(f"# {tag} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env_stamp(BLAS_THREADS, args.seed, wl.op_counts())))
    if not args.trace:
        for line in wl.report():
            print(f"{tag} {line}")
    print(f"{tag} setup_s {setup_s:.4f} s (import {import_s:.4f} s + median of "
          f"{SETUP_REPS} set-ups: {', '.join(f'{s:.4f}' for s in setups)})")
    print(f"{tag} peak_rss_mb {rss:.1f} MB")
    print(f"{tag} error_rate {tally.error_rate:.4f} ({tally.failed} of {tally.attempted} failed)")
    print(f"{tag} check_s {check_s:.2f} s (untimed output checks after the loop)")
    for problem in wl.problems + wl.count_errors:
        print(f"{tag} FAILED {problem}")

    if args.trace:
        metrics = layer_metrics(tracer, wl, times)
        for name, (value, unit) in metrics.items():
            print(f"{tag} {name} {value:.6g} {unit}")
    else:
        metrics = e2e_metrics(wl, setup_s, rss)
    print(result_line(tally, metrics))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
