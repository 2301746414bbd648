"""Frozen reference for the pooling equivalence tests, test-only; do not
change it to follow the library.

``neighborhood_pool`` as it was when it gathered the disk from the 3-D window
with one 2-D mask, ``a[y0:y1, x0:x1][mask]``, which numpy turns into two
K-long index arrays. The code is kept verbatim apart from this docstring.
"""
from __future__ import annotations

import math

import numpy as np


def neighborhood_pool(a_soft, center, radius: float) -> np.ndarray:
    a = np.asarray(a_soft, dtype=float)
    if a.ndim == 2:
        a = a[:, :, None]
    h, w, _ = a.shape
    cx, cy = float(center[0]), float(center[1])
    if not (0 <= cx < w and 0 <= cy < h):
        raise ValueError(f"center ({cx}, {cy}) outside {h}x{w} map")
    if math.isnan(radius) or radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    iy, ix = min(h - 1, round(cy)), min(w - 1, round(cx))
    # Clamped to the map before rounding, so an infinite radius stays finite.
    # Pixels outside the window lie at least 1 px beyond the radius.
    y0 = min(iy, math.floor(max(cy - radius, 0.0)))
    y1 = max(iy, math.ceil(min(cy + radius, h - 1.0))) + 1
    x0 = min(ix, math.floor(max(cx - radius, 0.0)))
    x1 = max(ix, math.ceil(min(cx + radius, w - 1.0))) + 1
    ys, xs = np.ogrid[y0:y1, x0:x1]
    mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2
    mask[iy - y0, ix - x0] = True
    return a[y0:y1, x0:x1][mask].mean(axis=0)
