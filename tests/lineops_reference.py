"""Frozen reference for the equivalence tests: neighborhood_pool and
radon_backproject as they were when the pool tested every pixel of the map
and the back-projection gathered all channels per angle, kept verbatim apart
from this docstring. Test-only; do not change it to follow the library.
"""
from __future__ import annotations

import numpy as np

from sartrack.lineops import _rho_bins


def radon_backproject(y, tau, h: int, w: int) -> np.ndarray:
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


def neighborhood_pool(a_soft, center, radius: float) -> np.ndarray:
    a = np.asarray(a_soft, dtype=float)
    if a.ndim == 2:
        a = a[:, :, None]
    h, w, _ = a.shape
    cx, cy = float(center[0]), float(center[1])
    if not (0 <= cx < w and 0 <= cy < h):
        raise ValueError(f"center ({cx}, {cy}) outside {h}x{w} map")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    ys, xs = np.mgrid[0:h, 0:w]
    mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
    mask[min(h - 1, round(cy)), min(w - 1, round(cx))] = True
    return a[mask].mean(axis=0)
