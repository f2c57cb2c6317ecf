"""Toy training demo: long-range context on a synthetic beacon task.

Each 32x32 image carries two distant beacon pixels; every pixel must be
labelled with the class of its nearest beacon, but the class identity
is only readable in a tight neighbourhood of the beacon itself. A local
convolution cannot solve this; a block that learns to sample far away
can. The optimizer is SGD with momentum, weight decay and a poly
learning-rate schedule.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import SINGLE, ConfigError, NumericError, conv1x1, softmax_rows
from .sparse import GridSpec, SnlParams, snl_forward, snl_backward

IN_CHANNELS = 5   # beacon proximity, (dx, dy) to nearest beacon, 2 class smears
NUM_CLASSES = 2

GUIDE_SIGMA = 10.0   # wide proximity bump: smooth gradient across the map
CLASS_SIGMA = 2.5    # class channels are only readable near the beacon
DX_SCALE = 8.0       # displacement channels in units of DX_SCALE pixels
GUIDE_AMP = 4.0      # amplitude of the proximity bump
CLASS_AMP = 4.0      # amplitude of the class smears


class DivergenceError(RuntimeError):
    """Training met a non-finite value: in the forward pass, the loss,
    a gradient or a stepped parameter. `train` sets `iteration` and
    `last_good`, the parameters before the step that failed."""

    def __init__(self, msg: str, iteration: int | None = None,
                 last_good: dict | None = None):
        super().__init__(msg)
        self.iteration = iteration
        self.last_good = last_good


@dataclass
class TrainConfig:
    """The training options. The CLI's `train` keys are these fields plus
    model, out and params_out."""

    seed: int = 0
    base_lr: float = 0.005
    power: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 0.0001
    max_iter: int = 2000
    batch: int = 4
    height: int = 32
    width: int = 32
    n_images: int = 128
    n_eval: int = 32
    features: int = 8
    kh: int = 3
    kw: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("base_lr", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.power <= 1:
            raise ConfigError(f"power must be in (0, 1], got {self.power}")
        for name in ("max_iter", "batch", "n_images", "n_eval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.features < 2 or self.features % 2 != 0:
            raise ConfigError(f"features must be even and at least 2, got {self.features}")


@dataclass
class BeaconSample:
    input: np.ndarray    # IN_CHANNELS x H x W
    labels: np.ndarray   # H x W int, values in {0, 1}
    beacons: np.ndarray  # 2 x 2 (x, y) per beacon
    classes: np.ndarray  # 2 ints


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # (iter, lr, loss, accuracy, mean_abs_offset)
    final_accuracy: float = 0.0

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "lr", "loss", "accuracy", "mean_abs_offset"])
            for row in self.rows:
                writer.writerow([row[0], f"{row[1]:.8g}", f"{row[2]:.8g}",
                                 f"{row[3]:.6g}", f"{row[4]:.8g}"])


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """base_lr * (1 - iter/max_iter)^power."""
    if iteration < 0 or iteration > cfg.max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {cfg.max_iter}]")
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


def sgd_step(params: dict, grads: dict, velocity: dict, lr: float,
             cfg: TrainConfig) -> tuple[dict, dict]:
    """Classic momentum SGD: v <- m*v + g + wd*p; p <- p - lr*v. In place.

    Every gradient and every stepped value is checked before any
    parameter changes, so a step that would make one non-finite raises
    DivergenceError and leaves params and velocity as they were.
    """
    for name in params:
        if not np.isfinite(grads[name]).all():
            raise DivergenceError(f"non-finite gradient in {name}")
    stepped = {}
    # an overflow is caught by the finiteness check, not reported twice
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            v = velocity[name] * cfg.momentum
            v += grads[name] + cfg.weight_decay * p
            new_p = p - (lr * v).astype(p.dtype)
            if not (np.isfinite(v).all() and np.isfinite(new_p).all()):
                raise DivergenceError(f"step makes {name} non-finite")
            stepped[name] = v, new_p
    for name, (v, new_p) in stepped.items():
        velocity[name][...] = v
        params[name][...] = new_p
    return params, velocity


def gen_beacon_dataset(n: int, shape: tuple[int, int] = (32, 32),
                       seed: int = 0) -> list[BeaconSample]:
    """Deterministic synthetic dataset; beacons at least max(H,W)/2 apart.

    Channels: 0 = class-agnostic proximity bump (wide), 1-2 = normalized
    displacement to the nearest beacon, 3-4 = class one-hot smeared only
    in a small radius around each beacon. The two beacons always carry
    different classes, which keeps pixel labels balanced.
    """
    h, w = shape
    if h < 16 or w < 16:
        raise ConfigError(f"shape {h}x{w} too small; need at least 16x16")
    min_sep = max(h, w) / 2.0
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:h, 0:w].astype(SINGLE)
    samples = []
    for _ in range(n):
        bx0, by0 = rng.integers(0, w), rng.integers(0, h)
        while True:
            bx1, by1 = rng.integers(0, w), rng.integers(0, h)
            if np.hypot(bx1 - bx0, by1 - by0) >= min_sep:
                break
        c0 = int(rng.integers(0, NUM_CLASSES))
        c1 = 1 - c0
        d0sq = (xs - bx0) ** 2 + (ys - by0) ** 2
        d1sq = (xs - bx1) ** 2 + (ys - by1) ** 2
        nearest0 = d0sq <= d1sq
        inp = np.zeros((IN_CHANNELS, h, w), dtype=SINGLE)
        inp[0] = GUIDE_AMP * (np.exp(-d0sq / (2 * GUIDE_SIGMA**2))
                              + np.exp(-d1sq / (2 * GUIDE_SIGMA**2)))
        # coarse pixel units keep the offset-head weights small while the
        # backbone still sees O(1)-magnitude features
        inp[1] = np.where(nearest0, bx0 - xs, bx1 - xs) / DX_SCALE
        inp[2] = np.where(nearest0, by0 - ys, by1 - ys) / DX_SCALE
        # truncated at 3 sigma so class identity is truly unreadable far
        # from a beacon; the smooth tails would otherwise leak it everywhere
        cut = (3 * CLASS_SIGMA) ** 2
        inp[3 + c0] += CLASS_AMP * np.exp(-d0sq / (2 * CLASS_SIGMA**2)) * (d0sq < cut)
        inp[3 + c1] += CLASS_AMP * np.exp(-d1sq / (2 * CLASS_SIGMA**2)) * (d1sq < cut)
        labels = np.where(nearest0, c0, c1).astype(np.int64)
        samples.append(BeaconSample(inp, labels,
                                    np.array([[bx0, by0], [bx1, by1]]),
                                    np.array([c0, c1])))
    return samples


# -- small conv backbone -----------------------------------------------------

def _patches(x: np.ndarray) -> np.ndarray:
    """The im2col matrix of x (C x H x W) zero-padded by one pixel: 9C x HW,
    row 9c + 3r + s holding channel c shifted by (r - 1, s - 1)."""
    c, h, w = x.shape
    padded = np.zeros((c, h + 2, w + 2), dtype=x.dtype)
    padded[:, 1:-1, 1:-1] = x
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))
    return windows.transpose(0, 3, 4, 1, 2).reshape(9 * c, h * w)


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """3x3 correlation of x with w (O x C x 3 x 3), zero-padded: one GEMM."""
    return (w.reshape(w.shape[0], -1) @ _patches(x)).reshape((w.shape[0],) + x.shape[1:])


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 correlation with zero padding, plus the bias."""
    return _correlate(x, w) + b[:, None, None]


def _conv3x3_param_grads(x: np.ndarray, grad_out: np.ndarray):
    """(grad_w, grad_b) of conv3x3 at input x."""
    o = grad_out.shape[0]
    grad_w = (grad_out.reshape(o, -1) @ _patches(x).T).reshape(o, x.shape[0], 3, 3)
    return grad_w, grad_out.sum(axis=(1, 2))


def conv3x3_backward(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray):
    """(grad_x, grad_w, grad_b) of conv3x3; grad_x is the correlation of
    grad_out with the kernel flipped in space, in and out channels swapped."""
    grad_x = _correlate(grad_out, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return (grad_x, *_conv3x3_param_grads(x, grad_out))


def _he(rng, shape, fan_in, dtype=SINGLE):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def init_model(model: str, cfg: TrainConfig, rng: np.random.Generator) -> dict:
    """Parameter dict for the toy network.

    Backbone: two 3x3 convs + ReLU. Head: either the sparse attention
    block (gamma and offsets zero-initialized) or a residual 3x3 local
    conv of comparable parameter budget. Classifier: per-pixel linear.
    """
    f = cfg.features
    params = {
        "conv1.w": _he(rng, (f, IN_CHANNELS, 3, 3), IN_CHANNELS * 9),
        "conv1.b": np.zeros(f, dtype=SINGLE),
        "conv2.w": _he(rng, (f, f, 3, 3), f * 9),
        "conv2.b": np.zeros(f, dtype=SINGLE),
        "cls.w": _he(rng, (NUM_CLASSES, f), f),
        "cls.b": np.zeros(NUM_CLASSES, dtype=SINGLE),
    }
    if model == "snl":
        # theta, phi and g He-scaled, the draws _he would make; the rest zero
        head = SnlParams.random(rng, f, cfg.kh * cfg.kw, dtype=SINGLE, scale=np.sqrt(2.0 / f))
        params.update({f"head.{name}": arr for name, arr in head.param_groups().items()})
    elif model == "local-baseline":
        params.update({
            "head.w_local": _he(rng, (f, f, 3, 3), f * 9),
            "head.b_local": np.zeros(f, dtype=SINGLE),
        })
    else:
        raise ConfigError(f"unknown model {model!r}")
    return params


def _head_params(params: dict) -> SnlParams:
    return SnlParams(**{f.name: params[f"head.{f.name}"] for f in fields(SnlParams)})


def forward_backward(params: dict, sample: BeaconSample, model: str,
                     grid: GridSpec, compute_grads: bool = True):
    """One image through the network; returns (loss, accuracy,
    mean_abs_offset, grads or None)."""
    x = sample.input
    h, w = x.shape[1:]
    n = h * w
    labels = sample.labels.reshape(-1)

    a1 = conv3x3(x, params["conv1.w"], params["conv1.b"])
    h1 = np.maximum(a1, 0)
    a2 = conv3x3(h1, params["conv2.w"], params["conv2.b"])
    h2 = np.maximum(a2, 0)

    if model == "snl":
        hp = _head_params(params)
        z, acts = snl_forward(h2, hp, grid)
        mean_abs_offset = float(np.abs(acts.offsets).mean())
    else:
        local = conv3x3(h2, params["head.w_local"], params["head.b_local"])
        z = local + h2
        mean_abs_offset = 0.0

    zf = z.reshape(z.shape[0], n)
    logits = conv1x1(zf, params["cls.w"], params["cls.b"])  # L x N
    probs = softmax_rows(logits.T).T
    loss = float(-np.log(np.maximum(probs[labels, np.arange(n)], 1e-30)).mean())
    accuracy = float((probs.argmax(axis=0) == labels).mean())
    if not compute_grads:
        return loss, accuracy, mean_abs_offset, None

    grad_logits = probs.copy()
    grad_logits[labels, np.arange(n)] -= 1.0
    grad_logits /= n

    grads = {name: None for name in params}
    grads["cls.w"] = grad_logits @ zf.T
    grads["cls.b"] = grad_logits.sum(axis=1)
    grad_z = (params["cls.w"].T @ grad_logits).reshape(z.shape)

    if model == "snl":
        grad_h2, head_grads = snl_backward(acts, hp, h2, grad_z)
        for key, g in head_grads.items():
            grads[f"head.{key}"] = g
    else:
        grad_h2, gw, gb = conv3x3_backward(h2, params["head.w_local"], grad_z)
        grad_h2 = grad_h2 + grad_z  # residual path
        grads["head.w_local"] = gw
        grads["head.b_local"] = gb

    grad_a2 = grad_h2 * (a2 > 0)
    grad_h1, grads["conv2.w"], grads["conv2.b"] = conv3x3_backward(
        h1, params["conv2.w"], grad_a2)
    grad_a1 = grad_h1 * (a1 > 0)
    # the input needs no gradient
    grads["conv1.w"], grads["conv1.b"] = _conv3x3_param_grads(x, grad_a1)
    return loss, accuracy, mean_abs_offset, grads


def evaluate(params: dict, samples: list[BeaconSample], model: str,
             grid: GridSpec) -> float:
    """Mean pixel accuracy over a sample list."""
    accs = [forward_backward(params, s, model, grid, compute_grads=False)[1]
            for s in samples]
    return float(np.mean(accs))


def train(model: str, cfg: TrainConfig,
          progress: bool = False) -> tuple[TrainLog, dict]:
    """Train the toy network; returns (log, final params).

    Single-threaded and bit-reproducible for a fixed (seed, cfg). A
    non-finite value anywhere in a step raises DivergenceError with the
    iteration and the parameters before that step; the final evaluation
    counts as iteration max_iter.
    """
    grid = GridSpec(cfg.kh, cfg.kw)
    # the model first, so an unknown one is rejected before any data is
    # made; it draws from its own generator
    params = init_model(model, cfg, np.random.default_rng(cfg.seed + 2))
    dataset = gen_beacon_dataset(cfg.n_images, (cfg.height, cfg.width), cfg.seed)
    eval_set = gen_beacon_dataset(cfg.n_eval, (cfg.height, cfg.width), cfg.seed + 1)
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    log = TrainLog()

    for it in range(cfg.max_iter):
        lr = poly_lr(it, cfg)
        start = (it * cfg.batch) % len(dataset)
        idx = [(start + j) % len(dataset) for j in range(cfg.batch)]
        batch_grads = None
        losses, accs, offs = [], [], []
        try:
            for j in idx:
                loss, acc, mao, grads = forward_backward(params, dataset[j], model, grid)
                if not np.isfinite(loss):
                    raise DivergenceError("non-finite loss")
                losses.append(loss)
                accs.append(acc)
                offs.append(mao)
                if batch_grads is None:
                    batch_grads = grads
                else:
                    for name in batch_grads:
                        batch_grads[name] += grads[name]
            for name in batch_grads:
                batch_grads[name] /= cfg.batch
            sgd_step(params, batch_grads, velocity, lr, cfg)
        except (NumericError, DivergenceError) as exc:
            # sgd_step changes nothing when it fails, so params are the last good ones
            raise _diverged(f"at iteration {it}", it, exc, params) from exc
        log.rows.append((it, lr, float(np.mean(losses)), float(np.mean(accs)),
                         float(np.mean(offs))))
        if progress and it % 100 == 0:
            print(f"iter {it:5d} lr {lr:.5f} loss {np.mean(losses):.4f} "
                  f"acc {np.mean(accs):.3f} |offset| {np.mean(offs):.3f}")

    try:
        log.final_accuracy = evaluate(params, eval_set, model, grid)
    except NumericError as exc:
        raise _diverged("in the final evaluation", cfg.max_iter, exc, params) from exc
    return log, params


def _diverged(where: str, iteration: int, exc: Exception, params: dict) -> DivergenceError:
    return DivergenceError(f"training diverged {where}: {exc}", iteration=iteration,
                           last_good={k: v.copy() for k, v in params.items()})
