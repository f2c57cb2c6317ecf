"""Command-line surface: gradcheck, equiv, bench, train, dump-attention.

Exit codes: 0 = success / all checks passed, 1 = a check failed,
2 = usage or configuration error. Configuration is a flat key=value
text file; every key can also be overridden with --key value.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator
from dataclasses import fields
from pathlib import Path

import numpy as np

from .tensor import SINGLE, DOUBLE, ConfigError, DimensionError, NumericError
from .tensorio import read_tensor, write_tensor
from .dense import nl_forward
from .sparse import (GridSpec, Shape2D, SnlParams, full_coverage_grid,
                     snl_forward)
from .gradcheck import block_setup, check_block, DENSE_THRESHOLD, SNL_THRESHOLD
from .bench import run_bench
from .trainer import DivergenceError, TrainConfig, train

DEFAULTS = {
    "gradcheck": {
        "seed": 0, "seeds": 5, "eps": 1e-5,
        "dense_threshold": DENSE_THRESHOLD, "snl_threshold": SNL_THRESHOLD,
        "c": 4, "n": 9, "h": 5, "w": 5, "kh": 3, "kw": 3,
    },
    "equiv": {
        "seed": 0, "c": 4, "h": 5, "w": 5,
        "precision": "double", "tolerance": 0.0,  # 0 = pick by precision
    },
    "bench": {
        "grid": "16,32,64", "k": 81, "c": 64, "repeats": 5, "seed": 0,
        "out": "bench.csv",
    },
    "train": {
        "model": "snl", **{f.name: f.default for f in fields(TrainConfig)},
        "out": "trainlog.csv", "params_out": "",
    },
    "dump-attention": {
        "input": "", "seed": 0, "kh": 3, "kw": 3, "out": "attention.csv",
        "params_dir": "",
    },
}


def _parse_value(raw: str, like):
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def load_config(command: str, path: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS[command])
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in cfg:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg[key] = _parse_value(value, cfg[key])
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = _parse_value(value, cfg[key])
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    if cfg.get("seeds", 1) < 1:
        # no seed at all would check nothing and pass
        raise ConfigError(f"seeds must be at least 1, got {cfg['seeds']}")
    return cfg


def cmd_gradcheck(cfg: dict) -> int:
    blocks = (("dense-nl", cfg["dense_threshold"], {"c": cfg["c"], "n": cfg["n"]}),
              ("snl", cfg["snl_threshold"],
               {"c": cfg["c"], "h": cfg["h"], "w": cfg["w"], "kh": cfg["kh"], "kw": cfg["kw"]}))
    # both blocks' sizes are checked before either prints a line
    for kind, _, dims in blocks:
        block_setup(kind, dims=dims)
    all_passed = True
    for kind, threshold, dims in blocks:
        for seed in range(cfg["seed"], cfg["seed"] + cfg["seeds"]):
            reports = check_block(kind, seed=seed, dims=dims, eps=cfg["eps"],
                                  threshold=threshold)
            for rep in reports:
                print(f"{kind} seed={seed} {rep.line()}")
                all_passed &= rep.passed
    return 0 if all_passed else 1


def cmd_equiv(cfg: dict) -> int:
    c, shape = cfg["c"], Shape2D(cfg["h"], cfg["w"])
    n = shape.n
    if cfg["precision"] not in ("single", "double"):
        raise ConfigError(f"precision must be single or double, got {cfg['precision']!r}")
    dtype = DOUBLE if cfg["precision"] == "double" else SINGLE
    tolerance = cfg["tolerance"] or (1e-10 if dtype == DOUBLE else 1e-5)
    rng = np.random.default_rng(cfg["seed"])
    sp = SnlParams.random(rng, c, n, dtype=dtype, zero_gamma=False, zero_offset=True)
    x = rng.standard_normal((c, shape.height, shape.width)).astype(dtype)
    base = full_coverage_grid(shape, dtype=dtype)
    z_sparse, _ = snl_forward(x, sp, base=base)
    z_dense, _ = nl_forward(x.reshape(c, n), sp)
    dev = float(np.abs(z_sparse.reshape(c, n) - z_dense).max())
    print(f"max abs deviation: {dev:.3e} (tolerance {tolerance:.1e})")
    return 0 if dev < tolerance else 1


def cmd_bench(cfg: dict) -> int:
    try:
        sides = [int(s) for s in str(cfg["grid"]).split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad grid spec {cfg['grid']!r}") from None
    if min(sides, default=1) < 1:
        raise ConfigError(f"grid sides must be at least 1, got {cfg['grid']!r}")
    points = run_bench([(s, s) for s in sides], cfg["k"], cfg["c"],
                       repeats=cfg["repeats"], seed=cfg["seed"])
    with open(cfg["out"], "w") as fh:
        fh.write("block,N,K,C,best_ms,multiplies\n")
        for p in points:
            fh.write(p.csv_row() + "\n")
            print(p.csv_row())
    return 0


def cmd_train(cfg: dict) -> int:
    tc = TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})
    try:
        log, params = train(cfg["model"], tc, progress=True)
    except DivergenceError as exc:
        print(exc, file=sys.stderr)
        return 1
    log.write_csv(cfg["out"])
    print(f"final accuracy: {log.final_accuracy:.4f}")
    if cfg["params_out"]:
        out = Path(cfg["params_out"])
        out.mkdir(parents=True, exist_ok=True)
        for name, arr in params.items():
            write_tensor(out / (name.replace(".", "_") + ".snlt"), arr)
    return 0


def cmd_dump_attention(cfg: dict) -> int:
    x = read_tensor(cfg["input"])
    if x.ndim != 3:
        raise DimensionError(f"expected a C x H x W tensor, got shape {x.shape}")
    c, h, w = x.shape
    grid = GridSpec(cfg["kh"], cfg["kw"])
    if cfg["params_dir"]:
        pdir = Path(cfg["params_dir"])
        params = SnlParams(**{f.name: read_tensor(pdir / f"head_{f.name}.snlt")
                              for f in fields(SnlParams)})
    else:
        rng = np.random.default_rng(cfg["seed"])
        params = SnlParams.random(rng, c, grid.k, dtype=x.dtype,
                                  zero_gamma=False, zero_offset=True)
    _, acts = snl_forward(x, params, grid)
    with open(cfg["out"], "w") as fh:
        fh.writelines(attention_csv_lines(acts.coords, acts.affinity))
    print(f"wrote {h * w * grid.k} rows to {cfg['out']}")
    return 0


def attention_csv_lines(coords: np.ndarray, affinity: np.ndarray) -> Iterator[str]:
    """Lines of the dump-attention table: a header, then one
    `query,slot,t_x,t_y,s` row per (query, slot), from coords N x K x 2
    and affinity N x K."""
    n, k = affinity.shape
    yield "query,slot,t_x,t_y,s\n"
    # 256 queries at a time, so the lists of Python numbers stay small
    for a in range(0, n, 256):
        b = min(a + 256, n)
        rows = zip(np.repeat(np.arange(a, b), k).tolist(), np.tile(np.arange(k), b - a).tolist(),
                   coords[a:b, :, 0].ravel().tolist(), coords[a:b, :, 1].ravel().tolist(),
                   affinity[a:b].ravel().tolist())
        yield from map("%d,%d,%.6g,%.6g,%.8g\n".__mod__, rows)


COMMANDS = {
    "gradcheck": cmd_gradcheck,
    "equiv": cmd_equiv,
    "bench": cmd_bench,
    "train": cmd_train,
    "dump-attention": cmd_dump_attention,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snlblock")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        for key, value in defaults.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                           default=None, metavar=str(value))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    overrides = {key[4:]: value for key, value in vars(args).items()
                 if key.startswith("cfg_")}
    try:
        cfg = load_config(args.command, args.config, overrides)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, NumericError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
