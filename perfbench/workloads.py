"""The benchmark's two workloads, each a closed loop in one process.

A workload is driven through four calls: ``setup()`` (input generation
from the seed plus one warm-up, repeated for the set-up median),
``op()`` (one timed operation of the loop), ``finish()`` (untimed output
checks once the loop is over) and ``report()``. Every timed call is
checked: bit-identical to the first call of its kind in the run, and
that first output against an oracle in ``oracle.py``. A call fails if
either check fails; ``tally()`` turns the outcomes into the failure
count the result line carries.

``cli-flow`` is built from two parts, ``BeaconTrain`` and
``GradcheckSmall``, that keep one record of samples, outcomes and
counts, so the gradcheck layer is measured in the same loop as the
train and dump-attention commands.
"""
from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
from harness import Samples, Tally


def block_params(rng: np.random.Generator, c: int, k: int, dtype,
                 offset_px: float = 0.6) -> dict[str, np.ndarray]:
    """Random weights for both blocks, keyed like ``param_groups()``.

    The offset head is non-zero: for unit-variance input its offsets
    have a mean magnitude of about ``offset_px`` pixels, so sampling
    coordinates are fractional and some corners fall outside the image.
    """
    def w(rows, cols, scale=0.1):
        return (scale * rng.standard_normal((rows, cols))).astype(dtype)

    def b(n):
        return (0.05 * rng.standard_normal(n)).astype(dtype)

    # offset ~ N(0, c scale^2), and E|N(0, s^2)| = s sqrt(2/pi)
    offset_scale = offset_px / (math.sqrt(2 / math.pi) * math.sqrt(c))
    return {"w_theta": w(c // 2, c), "w_phi": w(c // 2, c), "w_g": w(c, c),
            "w_gamma": w(c, c), "w_offset": w(2 * k, c, offset_scale),
            "b_theta": b(c // 2), "b_phi": b(c // 2), "b_g": b(c),
            "b_gamma": b(c), "b_offset": b(2 * k)}


def query_pixels(h: int, w: int) -> list[int]:
    """Pixels the per-query oracle recomputes: the corners, edge midpoints
    and centre, where windows leave the image, plus 16 spread through."""
    edges = {(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1), (0, w // 2),
             (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1), (h // 2, w // 2)}
    spread = np.linspace(0, h * w - 1, 16).astype(int)
    return sorted({y * w + x for y, x in edges} | set(spread.tolist()))


def dense_part(p: dict) -> dict:
    return {name: arr for name, arr in p.items() if not name.endswith("_offset")}


def identical(a, b) -> bool:
    """Bit-for-bit equality of nested outputs (arrays, dicts, tuples, bytes)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return a == b


def read_if_there(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def run_cli(snl, argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout and stderr captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = snl.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    name = ""
    # end-to-end metric -> (key in self.samples, unit)
    E2E: dict[str, tuple[str, str]] = {}

    def __init__(self, snl, seed: int, workdir: Path) -> None:
        self.snl = snl
        self.seed = seed
        self.workdir = workdir
        self.samples: dict[str, Samples] = defaultdict(Samples)
        self.outcomes: dict[str, list[bool]] = defaultdict(list)
        self.verdicts: dict[str, bool] = {}
        self.problems: list[str] = []
        self._first: dict[str, object] = {}
        self.tracer = None          # set while a traced operation runs
        self.count_errors: list[str] = []
        self.counts_seen: dict[str, int] = {}

    # -- checks ----------------------------------------------------------

    def outcome(self, kind: str, output, ok: bool = True) -> None:
        """Record one timed call: it passes if ok and bit-identical to the
        first call of its kind."""
        if kind not in self._first:
            self._first[kind] = output
        elif not identical(self._first[kind], output):
            ok = False
            self.problems.append(f"{kind}: output differs from the first call")
        self.outcomes[kind].append(ok)

    def first(self, kind: str):
        return self._first[kind]

    def verdict(self, kind: str, ok: bool, what: str) -> None:
        """Oracle verdict on the first output of a kind; since every call
        must equal that output, a wrong one fails all calls of the kind."""
        self.verdicts[kind] = self.verdicts.get(kind, True) and ok
        if not ok:
            self.problems.append(f"{kind}: {what}")

    def count(self, kind: str, got: int, expected: int) -> bool:
        """Check an exact count against its closed form; a mismatch fails the run."""
        self.counts_seen[kind] = got
        if got != expected:
            self.count_errors.append(f"{kind}: counted {got}, closed form {expected}")
        return got == expected

    def tally(self) -> Tally:
        t = Tally()
        for kind, oks in self.outcomes.items():
            for ok in oks:
                t.record(ok and self.verdicts.get(kind, True), kind)
        for problem in self.count_errors:
            t.record(False, problem)
        return t

    def counted(self, fn, kind: str, expected: int):
        """Call fn under one MultiplyCounter (none while the tracer counts)."""
        if self.tracer is not None:
            return fn()
        with self.snl.MultiplyCounter() as mc:
            out = fn()
        self.count(kind, mc.count, expected)
        return out

    # -- interface -------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def e2e(self) -> dict[str, tuple[float, str]]:
        # The gated timing is the run's fastest operation. On a shared host
        # other tenants slow a varying share of the operations: over ten
        # runs of the same code, run medians spread 0.20-0.36 (quartile
        # distance over median) where the fastest operation spread
        # 0.04-0.11. The median is still printed.
        return {metric: (self.samples[key].fastest(), unit)
                for metric, (key, unit) in self.E2E.items()}

    def report(self) -> list[str]:
        return []

    def op_counts(self) -> dict:
        return {kind: len(oks) for kind, oks in self.outcomes.items()}


# -- paper-block --------------------------------------------------------------

class PaperBlock(Workload):
    """Both blocks, forward and backward, at N=2401 (49x49), K=81 (9x9), C=64."""

    name = "paper-block"
    C, H, W, KH, KW = 64, 49, 49, 9, 9
    E2E = {"fwd_ms": ("snl_fwd_ms", "ms"), "step_ms": ("snl_step_ms", "ms")}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        c, h, w = self.C, self.H, self.W
        self.x = rng.standard_normal((c, h, w)).astype(np.float32)
        self.p = block_params(rng, c, self.KH * self.KW, np.float32)
        self.grad_z = rng.standard_normal((c, h, w)).astype(np.float32)
        self.sp = self.snl.SnlParams(**self.p)
        self.dp = self.snl.NlParams(**dense_part(self.p))
        self.grid = self.snl.GridSpec(self.KH, self.KW)
        self.check_rng = np.random.default_rng([self.seed, 1])
        # warm-up: the first forward of each block pays lazy set-up
        self.snl.sparse.snl_forward(self.x, self.sp, self.grid)
        self.snl.dense.nl_forward(self.x.reshape(c, h * w), self.dp)

    def op(self) -> None:
        sparse, dense = self.snl.sparse, self.snl.dense
        c, n, k = self.C, self.H * self.W, self.KH * self.KW
        xf, gzf = self.x.reshape(c, n), self.grad_z.reshape(c, n)

        t0 = time.perf_counter()
        z, acts = self.counted(lambda: sparse.snl_forward(self.x, self.sp, self.grid),
                               "snl_forward", oracle.snl_core_mults(n, k, c))
        t1 = time.perf_counter()
        grads = sparse.snl_backward(acts, self.sp, self.x, self.grad_z)
        t2 = time.perf_counter()
        del acts   # freeing the sparse activations is timed as neither block
        t3 = time.perf_counter()
        zd, acts_d = self.counted(lambda: dense.nl_forward(xf, self.dp),
                                  "nl_forward", oracle.dense_core_mults(n, c))
        t4 = time.perf_counter()
        grads_d = dense.nl_backward(acts_d, self.dp, xf, gzf)
        t5 = time.perf_counter()
        del acts_d

        for key, ms in (("snl_fwd_ms", t1 - t0), ("snl_step_ms", t2 - t0),
                        ("nl_fwd_ms", t4 - t3), ("nl_step_ms", t5 - t3)):
            self.samples[key].add(ms * 1000.0)
        self.outcome("snl_forward", z)
        self.outcome("snl_backward", grads)
        self.outcome("nl_forward", zd)
        self.outcome("nl_backward", grads_d)

    def finish(self) -> None:
        c, h, w = self.C, self.H, self.W
        kh, kw = self.KH, self.KW
        x64 = self.x.astype(np.float64)
        tol = 1e-4

        # sparse forward: per-query loop oracle on a fixed set of pixels
        z = self.first("snl_forward")
        self.queries = query_pixels(h, w)
        zq = np.stack([z[:, i // w, i % w] for i in self.queries], axis=1)
        ref = np.stack([oracle.sparse_query(x64, self.p, kh, kw, i)
                        for i in self.queries], axis=1)
        err = float(np.abs(zq - ref).max() / np.abs(ref).max())
        self.verdict("snl_forward", err < tol, f"max rel deviation {err:.2e} from the loop oracle")
        self.snl_forward_err = err

        # dense forward: every pixel against the float64 BLAS reference
        zd = self.first("nl_forward")
        ref_d = oracle.dense_block(x64.reshape(c, h * w), dense_part(self.p))
        err = float(np.abs(zd - ref_d).max() / np.abs(ref_d).max())
        self.verdict("nl_forward", err < tol, f"max rel deviation {err:.2e} from the BLAS reference")
        self.nl_forward_err = err

        # backward passes: one directional central difference each, in float64
        g64 = self.grad_z.astype(np.float64)

        def sparse_loss(x, p):
            return float((oracle.sparse_block(x, p, kh, kw)[0] * g64).sum())

        def dense_loss(xf, p):
            return float((oracle.dense_block(xf, p) * g64.reshape(c, h * w)).sum())

        self.slopes = {}
        for kind, loss, x, p in (
                ("snl_backward", sparse_loss, self.x, self.p),
                ("nl_backward", dense_loss, self.x.reshape(c, h * w), dense_part(self.p))):
            grad_x, grads = self.first(kind)
            analytic, numeric, scale = oracle.directional_check(
                loss, grad_x, grads, x, p, self.check_rng)
            # float32 gradients land about 1e-4 of scale from the float64 slope
            err = abs(analytic - numeric) / scale
            self.slopes[kind] = (analytic, numeric, err)
            self.verdict(kind, err < 1e-3,
                         f"directional slope {analytic:.6g} vs central difference "
                         f"{numeric:.6g} (deviation {err:.2e} of the term scale)")

    def report(self) -> list[str]:
        s = self.samples
        lines = [f"{key} {s[key].describe('ms')}"
                 for key in ("snl_fwd_ms", "snl_step_ms", "nl_fwd_ms", "nl_step_ms")]
        ratio = s["snl_step_ms"].median() / s["nl_step_ms"].median()
        lines.append(f"ratio snl_step_ms/nl_step_ms = {ratio:.3f} "
                     f"(base nl_step_ms = {s['nl_step_ms'].median():.1f} ms)")
        lines.append(f"oracle: snl_forward rel err {self.snl_forward_err:.2e} "
                     f"on {len(self.queries)} queries, nl_forward rel err {self.nl_forward_err:.2e}")
        for kind, (a, nnum, err) in self.slopes.items():
            lines.append(f"oracle: {kind} directional slope {a:.6g} vs {nnum:.6g} "
                         f"(deviation {err:.2e} of the term scale)")
        lines.append(f"exact counts per call: {self.counts_seen}")
        return lines


# -- cli-flow -----------------------------------------------------------------

class BeaconTrain(Workload):
    """The user's CLI flow: train the SNL head, then dump its attention."""

    ITERS, BATCH, SIDE, FEATURES, KH, KW, N_EVAL = 8, 4, 32, 8, 3, 3, 8
    DUMPS = 3  # dump-attention runs per operation: more samples of the short command
    LAST = 4   # logged iterations averaged into train_final_loss
    HEAD = ("w_theta", "w_phi", "w_g", "w_gamma", "w_offset",
            "b_theta", "b_phi", "b_g", "b_gamma", "b_offset")

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.input = self.workdir / "dump_input.snlt"
        oracle.write_snlt(self.input, rng.standard_normal(
            (self.FEATURES, self.SIDE, self.SIDE)).astype(np.float32))
        self.ops = 0
        self._run(self.workdir / "warmup")

    def _run(self, out: Path) -> tuple[float, list[float], tuple]:
        out.mkdir(parents=True, exist_ok=True)
        train_argv = [
            "train", "--model", "snl", "--seed", str(self.seed),
            "--max-iter", str(self.ITERS), "--batch", str(self.BATCH),
            "--height", str(self.SIDE), "--width", str(self.SIDE),
            "--features", str(self.FEATURES), "--kh", str(self.KH), "--kw", str(self.KW),
            "--n-images", str(self.ITERS * self.BATCH), "--n-eval", str(self.N_EVAL),
            "--out", str(out / "trainlog.csv"), "--params-out", str(out / "params")]
        dump_argv = [
            "dump-attention", "--input", str(self.input), "--params-dir", str(out / "params"),
            "--kh", str(self.KH), "--kw", str(self.KW), "--out", str(out / "attention.csv")]
        t0 = time.perf_counter()
        train_code, train_text = run_cli(self.snl, train_argv)
        train_s = time.perf_counter() - t0
        params = {p.name: p.read_bytes() for p in sorted((out / "params").glob("*.snlt"))}
        # the output directory differs per operation; nothing else may
        train_out = (train_code, train_text.replace(str(out), "<out>"),
                     read_if_there(out / "trainlog.csv"), params)
        dump_s, dump_outs = [], []
        for _ in range(self.DUMPS):
            t0 = time.perf_counter()
            dump_code, dump_text = run_cli(self.snl, dump_argv)
            dump_s.append(time.perf_counter() - t0)
            dump_outs.append((dump_code, dump_text.replace(str(out), "<out>"),
                              read_if_there(out / "attention.csv")))
        return train_s, dump_s, (train_out, dump_outs)

    def op(self) -> None:
        out = self.workdir / f"op{self.ops}"
        train_s, dump_s, (train_out, dump_outs) = self._run(out)
        self.samples["train_iter_ms"].add(train_s * 1000.0 / self.ITERS)
        self.samples["train_img_per_s"].add(self.ITERS * self.BATCH / train_s)
        self.outcome("train", train_out, train_out[0] == 0)
        for s, dump_out in zip(dump_s, dump_outs):
            self.samples["dump_ms"].add(s * 1000.0)
            self.outcome("dump-attention", dump_out, dump_out[0] == 0)
        if self.ops == 0:
            self.first_dir = out
        else:
            shutil.rmtree(out)
        self.ops += 1

    def finish(self) -> None:
        out = self.first_dir
        train_out, dump_out = self.first("train"), self.first("dump-attention")
        if train_out[2] is None or dump_out[2] is None:
            self.final_loss = float("nan")
            self.verdict("train", train_out[2] is not None, "no training log written")
            self.verdict("dump-attention", False, "no attention table to check")
            return
        rows = np.loadtxt(out / "trainlog.csv", delimiter=",", skiprows=1, ndmin=2)
        losses = rows[:, 2]
        self.final_loss = float(losses[-self.LAST:].mean())
        ok = (len(rows) == self.ITERS and np.isfinite(losses).all()
              and ((rows[:, 3] >= 0) & (rows[:, 3] <= 1)).all())
        self.verdict("train", ok, f"training log malformed or non-finite: {len(rows)} rows")
        names = {f"head_{n}.snlt" for n in self.HEAD}
        have = {p.name for p in (out / "params").glob("*.snlt")}
        self.verdict("train", names <= have, f"missing head parameters {sorted(names - have)}")
        if not names <= have:
            self.verdict("dump-attention", False, "no head parameters to check against")
            return

        # dump-attention: coordinates and affinities against the float64 oracle
        p = {n: oracle.read_snlt(out / "params" / f"head_{n}.snlt") for n in self.HEAD}
        x = oracle.read_snlt(self.input)
        _, coords, s = oracle.sparse_block(x, p, self.KH, self.KW)
        table = np.loadtxt(out / "attention.csv", delimiter=",", skiprows=1, ndmin=2)
        n, k = coords.shape[:2]
        ok = table.shape == (n * k, 5)
        if ok:
            ok = (np.array_equal(table[:, 0], np.repeat(np.arange(n), k))
                  and np.array_equal(table[:, 1], np.tile(np.arange(k), n)))
            self.coord_err = float(np.abs(table[:, 2:4] - coords.reshape(n * k, 2)).max())
            self.s_err = float(np.abs(table[:, 4] - s.reshape(-1)).max())
            ok = ok and self.coord_err < 1e-3 and self.s_err < 1e-4
        self.verdict("dump-attention", bool(ok), "attention table disagrees with the oracle")

    def report(self) -> list[str]:
        s = self.samples
        return [f"train_img_per_s {s['train_img_per_s'].describe('1/s')}",
                f"train_iter_ms {s['train_iter_ms'].describe('ms')}",
                f"dump_attention_ms {s['dump_ms'].describe('ms')}",
                f"train_final_loss {self.final_loss:.6f} (mean of the last {self.LAST} "
                f"of {self.ITERS} iterations; identical in every call)",
                f"oracle: dump-attention coords max abs err {getattr(self, 'coord_err', float('nan')):.2e}, "
                f"affinity max abs err {getattr(self, 's_err', float('nan')):.2e}"]


class GradcheckSmall(Workload):
    """``snlblock gradcheck`` at the CLI defaults, one seed per operation."""

    # `snlblock gradcheck` with no arguments checks seeds 0-4; the loop
    # cycles through that run one seed per operation, starting at seed % 5
    CLI_SEEDS = range(0, 5)
    FWD_BATCH = 20      # forward pairs per fwd sample
    # CLI defaults: dense C=4, N=9; sparse C=4 at 5x5 with a 3x3 window
    C, N, H, W, KH, KW = 4, 9, 5, 5, 3, 3

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        c, k = self.C, self.KH * self.KW
        self.x5 = rng.standard_normal((c, self.H, self.W))
        self.p5 = block_params(rng, c, k, np.float64)
        self.x9 = rng.standard_normal((c, self.N))
        self.p9 = dense_part(block_params(rng, c, k, np.float64))
        self.sp = self.snl.SnlParams(**self.p5)
        self.dp = self.snl.NlParams(**self.p9)
        self.grid = self.snl.GridSpec(self.KH, self.KW)
        self.ops = 0
        run_cli(self.snl, ["gradcheck", "--seed", str(self._cli_seed()), "--seeds", "1"])
        self._forwards()

    def _forwards(self):
        sparse, dense = self.snl.sparse, self.snl.dense
        n5 = self.H * self.W
        k = self.KH * self.KW
        for _ in range(self.FWD_BATCH):
            z, _ = self.counted(lambda: sparse.snl_forward(self.x5, self.sp, self.grid),
                                "snl_forward", oracle.snl_core_mults(n5, k, self.C))
            zd, _ = self.counted(lambda: dense.nl_forward(self.x9, self.dp),
                                 "nl_forward", oracle.dense_core_mults(self.N, self.C))
        return z, zd

    def op(self) -> None:
        s = self._cli_seed()
        t0 = time.perf_counter()
        before = self._gradcheck_forwards()
        code, text = run_cli(self.snl, ["gradcheck", "--seed", str(s), "--seeds", "1"])
        t1 = time.perf_counter()
        if self.tracer is not None:
            self.count("gradcheck.block_forward_calls",
                       self._gradcheck_forwards() - before, self.forward_calls_per_seed())
        outs = self._forwards()
        t2 = time.perf_counter()
        self.samples["seed_ms"].add((t1 - t0) * 1000.0)
        self.samples["fwd_pair_ms"].add((t2 - t1) * 1000.0 / self.FWD_BATCH)
        self.outcome(f"gradcheck seed {s}", (code, text), code == 0)
        if code != 0:
            self.problems.append(f"gradcheck seed {s} exited {code}: "
                                 + "; ".join(l for l in text.splitlines() if "FAIL" in l))
        self.outcome("forward pair", outs)
        self.ops += 1

    def _cli_seed(self) -> int:
        return self.CLI_SEEDS[(self.seed + self.ops) % len(self.CLI_SEEDS)]

    def _gradcheck_forwards(self) -> int:
        if self.tracer is None:
            return 0
        return self.tracer.calls_from("gradcheck", "sparse.snl_forward", "dense.nl_forward")

    def forward_calls_per_seed(self) -> int:
        """Closed form for the block forwards of one gradcheck seed."""
        c, n, n5, k = self.C, self.N, self.H * self.W, self.KH * self.KW
        dense = [c // 2 * c, c // 2 * c, c * c, c * c, c // 2, c // 2, c, c]
        sparse = dense + [2 * k * c, 2 * k]
        return (oracle.gradcheck_forward_calls(c * n, dense)
                + oracle.gradcheck_forward_calls(c * n5, sparse))

    def finish(self) -> None:
        z, zd = self.first("forward pair")
        ref = oracle.sparse_block(self.x5, self.p5, self.KH, self.KW)[0]
        ref_d = oracle.dense_block(self.x9, self.p9)
        self.fwd_err = max(float(np.abs(z - ref).max()), float(np.abs(zd - ref_d).max()))
        self.verdict("forward pair", self.fwd_err < 1e-10,
                     f"float64 forwards deviate {self.fwd_err:.2e} from the oracle")

    def report(self) -> list[str]:
        s = self.samples
        return [f"gradcheck_seed_ms {s['seed_ms'].describe('ms')}",
                f"fwd_pair_ms {s['fwd_pair_ms'].describe('ms')} "
                f"(one snl_forward at 5x5, K=9 plus one nl_forward at N=9, C=4, float64)",
                f"oracle: forward pair max abs err {self.fwd_err:.2e}; "
                f"block forwards per seed (closed form) {self.forward_calls_per_seed()}"]


class CliFlow(Workload):
    """One operation runs both parts: train, dump-attention, then a
    gradcheck seed and its forward pairs. The gated timings are the
    training iteration and the dump; the gradcheck figures are printed."""

    name = "cli-flow"
    E2E = {"fwd_ms": ("dump_ms", "ms"), "step_ms": ("train_iter_ms", "ms")}

    def __init__(self, snl, seed: int, workdir: Path) -> None:
        super().__init__(snl, seed, workdir)
        self.parts = (BeaconTrain(snl, seed, workdir), GradcheckSmall(snl, seed, workdir))
        for part in self.parts:
            part.samples, part.outcomes, part.verdicts = self.samples, self.outcomes, self.verdicts
            part.problems, part.count_errors = self.problems, self.count_errors
            part.counts_seen, part._first = self.counts_seen, self._first

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def op(self) -> None:
        for part in self.parts:
            part.tracer = self.tracer
            part.op()

    def finish(self) -> None:
        for part in self.parts:
            part.finish()

    def report(self) -> list[str]:
        return [line for part in self.parts for line in part.report()]


WORKLOADS = {w.name: w for w in (PaperBlock, CliFlow)}
