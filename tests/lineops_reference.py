"""Frozen reference for the equivalence tests, test-only; do not change it to
follow the library.

- ``neighborhood_pool`` and ``radon_backproject`` as they were when the pool
  tested every pixel of the map and the back-projection gathered all
  channels per angle.
- ``radon_forward`` as it was when it made one whole-map ``np.bincount``
  call per angle and channel.
- ``soft_normalize`` as it was when it allocated a new map for the
  max-subtracted values, their ``exp`` and the quotient.
- ``FusionParams``, ``gated_fuse``, ``TwoLayerMlp`` and ``enhance_proposal``
  as they were when the fusion gate and the pooling MLP held weights. The
  MLP used to sit on ``LfaConfig.mlp``; here it is an argument of
  ``enhance_proposal`` that defaults to the same pass-through. That
  function pools through the library's ``lfa.neighborhood_pool``, as it did.

The code is kept verbatim apart from those two names and this docstring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sartrack import lfa
from sartrack.lfa import Proposal
from sartrack.lineops import BIN_TABLE_MAX_BYTES, _as_hwc, _bin_table_size, _rho_bins


def radon_forward(x, n_angles: int, n_rho: int) -> np.ndarray:
    """Accumulate each pixel's value into its (angle, rho) bin.

    Returns a (n_angles, n_rho, C) array. A bin table or output above
    ``BIN_TABLE_MAX_BYTES`` raises ValueError before either is allocated.
    """
    x = _as_hwc(x)
    h, w, c = x.shape
    _bin_table_size(h, w, n_angles, n_rho)
    nbytes = n_angles * n_rho * c * np.dtype(float).itemsize
    if nbytes > BIN_TABLE_MAX_BYTES:
        raise ValueError(
            f"Radon map of shape ({n_angles}, {n_rho}, {c}) needs {nbytes} bytes, "
            f"above the {BIN_TABLE_MAX_BYTES}-byte limit; use fewer angles or rho bins")
    bins = _rho_bins(h, w, n_angles, n_rho)
    flat = x.reshape(h * w, c)
    out = np.zeros((n_angles, n_rho, c))
    # bincount casts narrow indices to a fresh intp array on every call;
    # casting each angle once into one reused buffer allocates nothing.
    idx = np.empty(h * w, dtype=np.intp)
    for a in range(n_angles):
        idx[...] = bins[a].ravel()
        for k in range(c):
            out[a, :, k] = np.bincount(idx, weights=flat[:, k], minlength=n_rho)
    return out


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


def soft_normalize(a) -> np.ndarray:
    """Per-channel spatial softmax (max-subtracted for stability)."""
    a = _as_hwc(a)
    h, w, c = a.shape
    flat = a.reshape(h * w, c)
    flat = flat - flat.max(axis=0, keepdims=True)
    e = np.exp(flat)
    return (e / e.sum(axis=0, keepdims=True)).reshape(h, w, c)


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


def enhance_proposal(p: Proposal, a_soft, cfg, mlp: TwoLayerMlp | None = None) -> Proposal:
    """Add pooled line-feature context (through the MLP) to the proposal."""
    r = lfa.adaptive_radius(p.bbox, p.v_hat, cfg)
    pooled = lfa.neighborhood_pool(a_soft, p.bbox.center(), r)
    if mlp is None:
        mlp = TwoLayerMlp.passthrough(pooled.shape[0], p.feature.shape[0])
    return Proposal(p.bbox, p.feature + mlp(pooled), p.v_hat)
