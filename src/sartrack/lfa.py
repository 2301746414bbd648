"""Velocity-adaptive proposal enhancement: displacement targets, adaptive
matching radius, and neighborhood pooling of the line-intensity map.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.lambda_max <= 0:
            raise ValueError(f"lambda_max must be positive, got {self.lambda_max}")


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
    never empty even at radius 0.
    """
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


def enhance_proposal(p: Proposal, a_soft, cfg: LfaConfig) -> Proposal:
    """Add pooled line-feature context (through the MLP) to the proposal."""
    r = adaptive_radius(p.bbox, p.v_hat, cfg)
    pooled = neighborhood_pool(a_soft, p.bbox.center(), r)
    mlp = cfg.mlp
    if mlp is None:
        mlp = TwoLayerMlp.passthrough(pooled.shape[0], p.feature.shape[0])
    return Proposal(p.bbox, p.feature + mlp(pooled), p.v_hat)
