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


@dataclass(frozen=True)
class TwoLayerMlp:
    """Fixed two-layer affine map with an elementwise max(0, .) between."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __call__(self, v) -> np.ndarray:
        h = np.maximum(self.w1 @ np.asarray(v, dtype=float) + self.b1, 0.0)
        return self.w2 @ h + self.b2

    @classmethod
    def passthrough(cls, in_dim: int, out_dim: int) -> "TwoLayerMlp":
        """Identity on the first min(in_dim, out_dim) coordinates."""
        w1 = np.eye(out_dim, in_dim)
        w2 = np.eye(out_dim)
        return cls(w1, np.zeros(out_dim), w2, np.zeros(out_dim))

    @classmethod
    def zeros(cls, in_dim: int, out_dim: int) -> "TwoLayerMlp":
        return cls(np.zeros((out_dim, in_dim)), np.zeros(out_dim),
                   np.zeros((out_dim, out_dim)), np.zeros(out_dim))


@dataclass(frozen=True)
class LfaConfig:
    image_w: float
    image_h: float
    lambda_max: float = 0.4
    mlp: TwoLayerMlp | None = None

    def __post_init__(self):
        for name in ("image_w", "image_h", "lambda_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
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
    """Add pooled line-feature context (through the MLP) to the proposal."""
    r = adaptive_radius(p.bbox, p.v_hat, cfg)
    pooled = neighborhood_pool(a_soft, p.bbox.center(), r)
    mlp = cfg.mlp
    if mlp is None:
        mlp = TwoLayerMlp.passthrough(pooled.shape[0], p.feature.shape[0])
    return Proposal(p.bbox, p.feature + mlp(pooled), p.v_hat)
