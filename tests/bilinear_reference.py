"""The per-sample bilinear read the tiled reads are tested against: a
D x N x K accumulation over `f[:, cy, cx]`, one corner at a time."""
import numpy as np


def reference_corners(f, coords):
    h, w = f.shape[1], f.shape[2]
    tx = coords[..., 0]
    ty = coords[..., 1]
    x0 = np.floor(tx)
    y0 = np.floor(ty)
    u = tx - x0
    v = ty - y0
    x0 = x0.astype(np.int64)
    y0 = y0.astype(np.int64)
    one = np.ones_like(u)
    corners = (
        (x0,     y0,     (1 - u) * (1 - v), -(1 - v), -(1 - u)),
        (x0 + 1, y0,     u * (1 - v),        (1 - v), -u),
        (x0,     y0 + 1, (1 - u) * v,       -v,        (1 - u)),
        (x0 + 1, y0 + 1, u * v,              v,        u),
    )
    for cx, cy, wgt, dwdx, dwdy in corners:
        valid = (cx >= 0) & (cx < w) & (cy >= 0) & (cy < h)
        yield (np.clip(cx, 0, w - 1), np.clip(cy, 0, h - 1), valid,
               wgt, dwdx * one, dwdy * one)


def reference_sample(f, coords):
    """f (D x H x W) read at coords (N x K x 2) -> N x D x K samples."""
    d = f.shape[0]
    n, k, _ = coords.shape
    out = np.zeros((d, n, k), dtype=f.dtype)
    for cx, cy, valid, wgt, _, _ in reference_corners(f, coords):
        out += (wgt * valid) * f[:, cy, cx]
    return out.transpose(1, 0, 2)
