"""Velocity-adaptive proposal enhancement: displacement targets, adaptive
matching radius, and neighborhood pooling of the line-intensity map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BBox
from .motion import Affine2x3


def velocity_target(center_t, center_prev, cmc: Affine2x3 | None,
                    delta_f: float) -> float:
    """Camera-compensated center displacement per frame (pixels/frame)."""
    if delta_f <= 0:
        raise ValueError(f"delta_f must be positive, got {delta_f}")
    prev = np.asarray(center_prev, dtype=float)
    if cmc is not None:
        prev = cmc.apply(prev)
    cur = np.asarray(center_t, dtype=float)
    return float(np.linalg.norm(cur - prev)) / delta_f


def normalize_velocities(v) -> np.ndarray:
    """Divide by the global max; an all-zero list stays all zero."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("empty velocity list")
    m = v.max()
    if m <= 0:
        return np.zeros_like(v)
    return v / m


@dataclass(frozen=True, slots=True)
class LfaConfig:
    image_w: float
    image_h: float
    lambda_max: float = 0.4

    def __post_init__(self):
        for name in ("image_w", "image_h", "lambda_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, slots=True)
class Proposal:
    bbox: BBox
    feature: np.ndarray
    v_hat: float

    def __post_init__(self):
        if not 0.0 <= self.v_hat <= 1.0:
            raise ValueError(f"v_hat must be in [0,1], got {self.v_hat}")
        f = np.asarray(self.feature, dtype=float)
        if not np.all(np.isfinite(f)):
            raise ValueError("proposal feature contains non-finite values")
        object.__setattr__(self, "feature", f)


def adaptive_radius(bbox: BBox, v_hat: float, cfg: LfaConfig) -> float:
    """Matching radius interpolated between the box size and the scaled
    distance to the farthest image border; clamped below by the box size."""
    r_min = max(bbox.w, bbox.h)
    cx, cy = bbox.center()
    r_max = cfg.lambda_max * max(cx, cfg.image_w - cx, cy, cfg.image_h - cy)
    if r_max < r_min:
        return r_min
    return r_min + v_hat * (r_max - r_min)


def neighborhood_pool(a_soft, center, radius: float) -> np.ndarray:
    """Mean of a_soft over grid positions within the radius of center.

    The pixel nearest the center always participates, so the neighborhood is
    never empty even at radius 0. The disk test runs only inside the disk's
    bounding window, so the cost is bounded by the radius, not the map size;
    an infinite radius pools the whole map.
    """
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


def enhance_proposal(p: Proposal, a_soft, cfg: LfaConfig) -> Proposal:
    """Add the rectified pooled line intensity, max(pooled, 0), to the first
    min(C, k) of the proposal's k features and +0.0 to the rest.

    This is the paper's pooling MLP with identity weights and a max(0, .)
    between its layers. Like that map, it turns a -0.0 feature or pooled
    value into 0.0. A non-finite pooled channel raises ValueError.
    """
    r = adaptive_radius(p.bbox, p.v_hat, cfg)
    pooled = neighborhood_pool(a_soft, p.bbox.center(), r)
    if not np.all(np.isfinite(pooled)):
        raise ValueError("pooled line intensity contains non-finite values")
    gain = np.zeros_like(p.feature)
    n = min(pooled.shape[0], gain.shape[0])
    gain[:n] = np.where(pooled[:n] > 0, pooled[:n], 0.0)
    return Proposal(p.bbox, p.feature + gain, p.v_hat)
