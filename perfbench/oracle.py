"""Float64 references for the benchmark's output checks.

Written from the block definitions, not from snlblock's code, and never
importing it: a change to the package cannot change what it is checked
against. Parameters are plain dicts keyed like ``param_groups()``
(``w_theta``, ``b_theta``, ..., ``w_offset``, ``b_offset``). Feature
maps are C x H x W; pixel i sits at x = i % W, y = i // W.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


def _proj(p: dict, name: str, xf: np.ndarray) -> np.ndarray:
    return p[f"w_{name}"].astype(np.float64) @ xf + p[f"b_{name}"].astype(np.float64)[:, None]


def _softmax(m: np.ndarray) -> np.ndarray:
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def window(kh: int, kw: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot offsets (dx, dy) of a kh x kw window centred on the query."""
    s = np.arange(kh * kw)
    return s % kw - (kw - 1) / 2, s // kw - (kh - 1) / 2


def sample_coords(x: np.ndarray, p: dict, kh: int, kw: int) -> np.ndarray:
    """N x K x 2 sampling coordinates: window plus predicted offsets."""
    c, h, w = x.shape
    n = h * w
    off = _proj(p, "offset", x.reshape(c, n).astype(np.float64))  # 2K x N
    dx, dy = window(kh, kw)
    i = np.arange(n)
    coords = np.empty((n, kh * kw, 2))
    coords[..., 0] = (i % w)[:, None] + dx[None, :] + off[0::2].T
    coords[..., 1] = (i // w)[:, None] + dy[None, :] + off[1::2].T
    return coords


def sparse_query(x: np.ndarray, p: dict, kh: int, kw: int, i: int) -> np.ndarray:
    """Sparse block output at query pixel i, one slot and corner at a time.

    Reads each of the four cell corners explicitly, skipping corners
    outside the image (zero padding), then softmax, aggregate and the
    residual fusion. Returns the C output channels of pixel i.
    """
    c, h, w = x.shape
    x = x.astype(np.float64)
    xi = x[:, i // w, i % w]
    q = _proj(p, "theta", xi[:, None])[:, 0]
    coords = sample_coords(x, p, kh, kw)[i]
    keys, values = [], []
    for tx, ty in coords:
        x0, y0 = int(np.floor(tx)), int(np.floor(ty))
        u, v = tx - x0, ty - y0
        k_acc = np.zeros(c // 2)
        v_acc = np.zeros(c)
        for cx, cy, wgt in ((x0, y0, (1 - u) * (1 - v)), (x0 + 1, y0, u * (1 - v)),
                            (x0, y0 + 1, (1 - u) * v), (x0 + 1, y0 + 1, u * v)):
            if 0 <= cx < w and 0 <= cy < h:
                pix = x[:, cy, cx][:, None]
                k_acc += wgt * _proj(p, "phi", pix)[:, 0]
                v_acc += wgt * _proj(p, "g", pix)[:, 0]
        keys.append(k_acc)
        values.append(v_acc)
    s = _softmax(np.array(keys) @ q)
    y = np.array(values).T @ s
    return _proj(p, "gamma", y[:, None])[:, 0] + xi


def _bilinear(f: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read D x H x W map f at N x K x 2 coords -> D x N x K, zero padded."""
    d, h, w = f.shape
    flat = f.reshape(d, h * w)
    tx, ty = coords[..., 0], coords[..., 1]
    x0, y0 = np.floor(tx), np.floor(ty)
    u, v = tx - x0, ty - y0
    x0, y0 = x0.astype(np.int64), y0.astype(np.int64)
    out = np.zeros((d,) + tx.shape)
    for cx, cy, wgt in ((x0, y0, (1 - u) * (1 - v)), (x0 + 1, y0, u * (1 - v)),
                        (x0, y0 + 1, (1 - u) * v), (x0 + 1, y0 + 1, u * v)):
        ok = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        idx = np.where(ok, cy * w + cx, 0)
        out += np.where(ok, wgt, 0.0) * flat[:, idx]
    return out


def sparse_block(x: np.ndarray, p: dict, kh: int, kw: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole sparse block, vectorised: returns (z: C x H x W, coords, s: N x K)."""
    c, h, w = x.shape
    xf = x.reshape(c, h * w).astype(np.float64)
    coords = sample_coords(x, p, kh, kw)
    k = _bilinear(_proj(p, "phi", xf).reshape(c // 2, h, w), coords)
    v = _bilinear(_proj(p, "g", xf).reshape(c, h, w), coords)
    s = _softmax(np.einsum("cn,cnk->nk", _proj(p, "theta", xf), k))
    y = np.einsum("nk,cnk->cn", s, v)
    return (_proj(p, "gamma", y) + xf).reshape(c, h, w), coords, s


def dense_block(xf: np.ndarray, p: dict) -> np.ndarray:
    """Dense block on C x N: softmax(Q^T K) over all N keys, BLAS products."""
    xf = xf.astype(np.float64)
    a = _softmax(_proj(p, "theta", xf).T @ _proj(p, "phi", xf))
    y = _proj(p, "g", xf) @ a.T
    return _proj(p, "gamma", y) + xf


def directional_check(loss, grad_x: np.ndarray, grads: dict, x: np.ndarray,
                      p: dict, rng: np.random.Generator,
                      eps: float = 1e-6) -> tuple[float, float, float]:
    """Compare analytic and central-difference slopes along one direction.

    The direction gives x and every parameter group a random unit-norm
    component, so each group contributes on the same scale. loss(x, p)
    must evaluate the block in float64. eps is kept small so that few
    coordinates cross a cell edge, where the bilinear read has a kink;
    at 1e-3 those crossings alone put the sparse slope 0.5% off.

    Returns (analytic, numeric, scale). The per-group terms of the slope
    can cancel, so compare |analytic - numeric| with scale, the sum of
    their magnitudes, rather than with the slope itself.
    """
    def unit(shape):
        d = rng.standard_normal(shape)
        return d / np.linalg.norm(d)

    dx = unit(x.shape)
    dp = {name: unit(arr.shape) for name, arr in p.items()}
    terms = [float((grad_x.astype(np.float64) * dx).sum())] + [
        float((grads[name].astype(np.float64) * dp[name]).sum()) for name in p]

    def shifted(sign):
        return loss(x.astype(np.float64) + sign * eps * dx,
                    {name: arr.astype(np.float64) + sign * eps * dp[name]
                     for name, arr in p.items()})

    numeric = (shifted(1.0) - shifted(-1.0)) / (2 * eps)
    return sum(terms), numeric, sum(abs(t) for t in terms)


# -- closed forms for the exact counts ---------------------------------------

def snl_core_mults(n: int, k: int, c: int) -> int:
    """Sparse affinity (N K C/2) plus aggregation (N K C) multiplies."""
    return n * k * (c // 2) + n * k * c


def dense_core_mults(n: int, c: int) -> int:
    """Dense affinity (N^2 C/2) plus aggregation (N^2 C) multiplies."""
    return n * n * (c // 2) + n * n * c


def gradcheck_forward_calls(x_size: int, param_sizes: list[int]) -> int:
    """Block forwards one check_block makes: one for the analytic
    gradient, then two per perturbed entry of x and of every parameter."""
    return 1 + 2 * (x_size + sum(param_sizes))


def bilinear_bytes(d: int, n: int, k: int, itemsize: int, coord_itemsize: int) -> int:
    """Computed bytes of one bilinear read: four corner gathers of D x N x K
    values, the D x N x K result written, and the N x K x 2 coordinates."""
    return 5 * d * n * k * itemsize + 2 * n * k * coord_itemsize


def bilinear_backward_bytes(d: int, n: int, k: int, itemsize: int, coord_itemsize: int) -> int:
    """Computed bytes of one bilinear adjoint: per corner, the scatter's
    read-modify-write (2), the feature gather (1) and the upstream
    gradient read (1), each D x N x K; plus coordinates read and their
    gradient written."""
    return 16 * d * n * k * itemsize + 4 * n * k * coord_itemsize


# -- .snlt files, read and written without the package -------------------------

_SNLT_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_snlt(path: Path, arr: np.ndarray) -> None:
    flag = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(b"SNLT" + struct.pack("<BB", flag, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype=_SNLT_DTYPES[flag]).tobytes())


def read_snlt(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != b"SNLT":
        raise ValueError(f"{path}: not an .snlt file")
    flag, rank = struct.unpack_from("<BB", raw, 4)
    dims = struct.unpack_from(f"<{rank}I", raw, 6)
    dtype = _SNLT_DTYPES[flag]
    count = 1
    for d in dims:
        count *= d
    body = raw[6 + 4 * rank:]
    if len(body) != count * dtype.itemsize:
        raise ValueError(f"{path}: payload is {len(body)} bytes, expected {count * dtype.itemsize}")
    return np.frombuffer(body, dtype=dtype).reshape(dims).astype(dtype.newbyteorder("="))
