"""Line-feature focusing: discrete Radon accumulation, thresholded
back-projection, spatial softmax, and gated fusion.

Feature maps are numpy arrays of shape (H, W, C); Radon-domain maps are
(n_angles, n_rho, C). The forward transform assigns every pixel to exactly
one rho bin per angle, and back-projection reuses the identical bin mapping,
so back-projection at threshold 0 is the exact adjoint of the forward pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _as_hwc(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3:
        raise ValueError(f"expected (H, W) or (H, W, C) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature map contains non-finite values")
    return x


@lru_cache(maxsize=32)
def _rho_bins(h: int, w: int, n_angles: int, n_rho: int) -> np.ndarray:
    """Per-angle rho bin index of every pixel, shape (n_angles, h, w).

    Pixel coordinates are centered on the map center; rho is offset by half
    the diagonal so bin indices are nonnegative, then clamped to the valid
    range (boundary clamping keeps per-angle mass conservation exact).
    """
    diag = math.hypot(h, w)
    d_theta = math.pi / n_angles
    d_rho = diag / n_rho
    ys, xs = np.mgrid[0:h, 0:w]
    xc = xs - (w - 1) / 2.0
    yc = ys - (h - 1) / 2.0
    thetas = np.arange(n_angles) * d_theta
    rho = (np.cos(thetas)[:, None, None] * xc[None] +
           np.sin(thetas)[:, None, None] * yc[None])
    idx = np.floor((rho + diag / 2.0) / d_rho).astype(np.intp)
    np.clip(idx, 0, n_rho - 1, out=idx)
    idx.setflags(write=False)
    return idx


def default_bins(h: int, w: int) -> tuple[int, int]:
    """Default (n_angles, n_rho) for an h x w map."""
    return 180, int(math.ceil(math.hypot(h, w)))


def radon_forward(x, n_angles: int, n_rho: int) -> np.ndarray:
    """Accumulate each pixel's value into its (angle, rho) bin.

    Returns a (n_angles, n_rho, C) array.
    """
    x = _as_hwc(x)
    if n_angles < 1 or n_rho < 1:
        raise ValueError("n_angles and n_rho must be >= 1")
    h, w, c = x.shape
    bins = _rho_bins(h, w, n_angles, n_rho)
    flat = x.reshape(h * w, c)
    out = np.zeros((n_angles, n_rho, c))
    for a in range(n_angles):
        b = bins[a].ravel()
        for k in range(c):
            out[a, :, k] = np.bincount(b, weights=flat[:, k], minlength=n_rho)
    return out


def radon_backproject(y, tau, h: int, w: int) -> np.ndarray:
    """Spread each above-threshold Radon bin back along its pixel set.

    ``tau`` is one threshold or one per channel. A pixel receives a bin's
    value iff its forward mapping at that angle lands in that bin, making
    tau=0 the exact adjoint of radon_forward.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 2:
        y = y[:, :, None]
    if y.ndim != 3:
        raise ValueError(f"expected (angles, rho, C) array, got shape {y.shape}")
    n_angles, n_rho, c = y.shape
    bins = _rho_bins(h, w, n_angles, n_rho)
    kept = np.where(y >= tau, y, 0.0)
    out = np.zeros((h, w, c))
    for a in range(n_angles):
        out += kept[a][bins[a]]
    return out


def soft_normalize(a) -> np.ndarray:
    """Per-channel spatial softmax (max-subtracted for stability)."""
    a = _as_hwc(a)
    h, w, c = a.shape
    flat = a.reshape(h * w, c)
    flat = flat - flat.max(axis=0, keepdims=True)
    e = np.exp(flat)
    return (e / e.sum(axis=0, keepdims=True)).reshape(h, w, c)


@dataclass(frozen=True)
class FusionParams:
    """Channel-mixing weights of the 1x1 fusion gate, shape (2C, 2C)."""

    weight: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
            raise ValueError(f"fusion weight must be square (2C, 2C), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("fusion weight contains non-finite values")
        object.__setattr__(self, "weight", w)

    @classmethod
    def zeros(cls, channels: int) -> "FusionParams":
        return cls(np.zeros((2 * channels, 2 * channels)))


def gated_fuse(x, a_soft, params: FusionParams) -> np.ndarray:
    """Residual-gated blend of the input map with the line-intensity map.

    concat -> 1x1 mix -> sigmoid gives per-pixel gates [gx, ga];
    output = (gx + 1) * x + ga * a_soft.
    """
    x = _as_hwc(x)
    a_soft = _as_hwc(a_soft)
    if x.shape != a_soft.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {a_soft.shape}")
    c = x.shape[2]
    if params.weight.shape != (2 * c, 2 * c):
        raise ValueError(f"params shape {params.weight.shape} incompatible with C={c}")
    cat = np.concatenate([x, a_soft], axis=2)
    mixed = cat @ params.weight.T
    gates = 1.0 / (1.0 + np.exp(-mixed))
    gx, ga = gates[:, :, :c], gates[:, :, c:]
    return (gx + 1.0) * x + ga * a_soft


def default_tau(y) -> np.ndarray:
    """Per-channel noise threshold: mean + one std of the Radon map."""
    y = np.asarray(y, dtype=float)
    return y.mean(axis=(0, 1)) + y.std(axis=(0, 1))


def lffm(x, n_angles: int | None = None, n_rho: int | None = None,
         tau: float | None = None,
         params: FusionParams | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full line-feature enhancement pass.

    Returns (fused map Z, line-intensity map A_soft), both shaped like x.
    """
    x = _as_hwc(x)
    h, w, c = x.shape
    if n_angles is None or n_rho is None:
        da, dr = default_bins(h, w)
        n_angles = n_angles or da
        n_rho = n_rho or dr
    if params is None:
        params = FusionParams.zeros(c)
    y = radon_forward(x, n_angles, n_rho)
    if tau is None:
        tau = default_tau(y)
    raw = radon_backproject(y, tau, h, w)
    a_soft = soft_normalize(raw)
    z = gated_fuse(x, a_soft, params)
    return z, a_soft
