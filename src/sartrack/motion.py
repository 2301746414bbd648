"""Constant-velocity Kalman filtering on (cx, cy, a, h) boxes plus global
camera-motion compensation of predicted states.

This module alone knows the (cx, cy, a, h) state layout: callers turn
(x, y, w, h) boxes into measurements with `boxes_to_measurements` and read
predicted boxes back with `means_to_boxes`. The filter runs on stacks:
(N, 8) means and (N, 8, 8) covariances, one row per track, so a frame costs
one predict and one update call. Noise scaling follows the SORT/ByteTrack
convention: position stds weighted by h/20, velocity stds by h/160.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class Affine2x3:
    """2x3 matrix [R|t] mapping a point p to R @ p + t."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.shape != (2, 3):
            raise ValueError(f"expected 2x3 matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("affine matrix contains non-finite values")
        object.__setattr__(self, "m", m)

    @property
    def rot(self) -> np.ndarray:
        return self.m[:, :2]

    @property
    def t(self) -> np.ndarray:
        return self.m[:, 2]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.m, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


# State layout: (cx, cy, a, h, vcx, vcy, va, vh)
_F = np.eye(8)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8)
_I8 = np.eye(8)

# SORT/ByteTrack noise: position stds are h/20 and velocity stds h/160;
# aspect-ratio terms have fixed stds. Row stds are h * weights + fixed.
_W_POS, _W_VEL = 1.0 / 20.0, 1.0 / 160.0
_Q_W = np.array([_W_POS, _W_POS, 0.0, _W_POS, _W_VEL, _W_VEL, 0.0, _W_VEL])
_INIT_W = _Q_W * [2.0, 2.0, 0.0, 2.0, 10.0, 10.0, 0.0, 10.0]
_Q_FIXED = np.array([0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-5, 0.0])
_R_FIXED = np.array([0.0, 0.0, 1e-1, 0.0])


def boxes_to_measurements(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) x, y, w, h boxes -> (N, 4) cx, cy, a, h measurements."""
    x, y, w, h = boxes.T
    return np.stack([x + w / 2.0, y + h / 2.0, w / h, h], axis=1)


def means_to_boxes(mean: np.ndarray) -> np.ndarray:
    """(N, 8) means -> (N, 4) x, y, w, h boxes, with the aspect ratio and
    height clamped positive."""
    a = np.maximum(mean[:, 2], 1e-6)
    h = np.maximum(mean[:, 3], 1e-6)
    w = a * h
    return np.stack([mean[:, 0] - w / 2.0, mean[:, 1] - h / 2.0, w, h], axis=1)


def kf_init(measurement) -> tuple[np.ndarray, np.ndarray]:
    """Start a track from one (cx, cy, a, h) measurement, zero velocity.
    Returns one (8,) mean and one (8, 8) covariance."""
    z = np.asarray(measurement, dtype=float)
    if z[3] <= 0:
        raise ValueError(f"height must be positive, got {z[3]}")
    mean = np.zeros(8)
    mean[:4] = z
    return mean, np.diag((z[3] * _INIT_W + _Q_FIXED) ** 2)


def kf_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-timestep constant-velocity prediction of (N, 8) means and
    (N, 8, 8) covariances, one row per track."""
    std = mean[:, 3:4] * _Q_W + _Q_FIXED
    c = _F @ cov @ _F.T + _I8 * (std ** 2)[:, None, :]
    return mean @ _F.T, 0.5 * (c + c.transpose(0, 2, 1))


def kf_update(mean: np.ndarray, cov: np.ndarray,
              measurement) -> tuple[np.ndarray, np.ndarray]:
    """Standard Kalman correction with H = [I4 0] of (N, 8) means and
    (N, 8, 8) covariances by (N, 4) measurements, row by row."""
    z = np.asarray(measurement, dtype=float)
    std = mean[:, 3:4] * _Q_W[:4] + _R_FIXED
    # H selects the first four state entries, so H @ cov @ H.T, cov @ H.T
    # and H @ mean are slices.
    innov_cov = cov[:, :4, :4] + _I8[:4, :4] * (std ** 2)[:, None, :]
    try:
        gain = np.linalg.solve(innov_cov.transpose(0, 2, 1),
                               cov[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
    except np.linalg.LinAlgError as e:
        raise ValueError("singular innovation covariance") from e
    new_mean = mean + (gain @ (z - mean[:, :4])[:, :, None])[:, :, 0]
    c = (_I8 - gain @ _H) @ cov
    return new_mean, 0.5 * (c + c.transpose(0, 2, 1))


def apply_cmc(mean: np.ndarray, cov: np.ndarray,
              m: Affine2x3) -> tuple[np.ndarray, np.ndarray]:
    """Carry (N, 8) means and (N, 8, 8) covariances into the current frame's
    geometry.

    Centers get the full affine; center velocities are rotated only; aspect
    and height are untouched. The position covariance block is rotated.
    """
    if m.is_identity():
        return mean, cov
    rot, t = m.rot, m.t
    mean = mean.copy()
    mean[:, :2] = (rot @ mean[:, :2, None])[:, :, 0] + t
    mean[:, 4:6] = (rot @ mean[:, 4:6, None])[:, :, 0]
    cov = cov.copy()
    cov[:, :2, :2] = rot @ cov[:, :2, :2] @ rot.T
    return mean, cov
