"""Constant-velocity Kalman filtering on (cx, cy, a, h) boxes plus global
camera-motion compensation of predicted states.

This module alone knows the (cx, cy, a, h) state layout: callers turn
(x, y, w, h) boxes into measurements with `boxes_to_measurements` and read
predicted boxes back with `means_to_boxes`. The filter runs on stacks:
(N, 8) means and (N, 2, 2, 6) covariances, one row per track, so a frame
costs one predict and one update call. Noise scaling follows the
SORT/ByteTrack convention: position stds weighted by h/20, velocity stds
by h/160. `cov[:, r, s, q]` (r, s: 0 position, 1 velocity) is the 8x8
entry (q + 4r, q + 4s) for axis q < 4; q = 4 and 5 hold the cx-cy cross
terms only a rotated camera motion makes (cx row and cy column, then the
transpose). The results equal the dense filter's bit for bit.
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

# Dense (row, column) of each cov[..., r, s, q], and the q of its transpose.
_ROW = 4 * np.arange(2)[:, None, None] + np.array([0, 1, 2, 3, 0, 1])
_COL = 4 * np.arange(2)[None, :, None] + np.array([0, 1, 2, 3, 1, 0])
_TRANSPOSED = np.array([0, 1, 2, 3, 5, 4])
_XY = np.array([0, 4, 5, 1])  # cov[:, 0, 0, _XY] is [[xx, xy], [yx, yy]]

# SORT/ByteTrack noise: position stds are h/20 and velocity stds h/160;
# aspect-ratio terms have fixed stds. Row stds are h * weights + fixed.
_W_POS, _W_VEL = 1.0 / 20.0, 1.0 / 160.0
_Q_W = np.array([_W_POS, _W_POS, 0.0, _W_POS, _W_VEL, _W_VEL, 0.0, _W_VEL])
_INIT_W = _Q_W * [2.0, 2.0, 0.0, 2.0, 10.0, 10.0, 0.0, 10.0]
_Q_FIXED = np.array([0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-5, 0.0])
_R_FIXED = np.array([0.0, 0.0, 1e-1, 0.0])


def boxes_to_measurements(boxes: np.ndarray) -> np.ndarray:
    """(N, 4) x, y, w, h boxes -> (N, 4) cx, cy, a, h measurements."""
    z = np.empty((len(boxes), 4))
    np.add(boxes[:, :2], boxes[:, 2:] / 2.0, out=z[:, :2])
    np.divide(boxes[:, 2], boxes[:, 3], out=z[:, 2])
    z[:, 3] = boxes[:, 3]
    return z


def means_to_boxes(mean: np.ndarray) -> np.ndarray:
    """(N, 8) means -> (N, 4) x, y, w, h boxes, with the aspect ratio and
    height clamped positive."""
    b = np.empty((len(mean), 4))
    wh = np.maximum(mean[:, 2:4], 1e-6, out=b[:, 2:])  # a, h; then w = a * h
    np.multiply(wh[:, 0], wh[:, 1], out=wh[:, 0])
    np.subtract(mean[:, :2], wh / 2.0, out=b[:, :2])
    return b


def cov_to_dense(cov: np.ndarray) -> np.ndarray:
    """(..., 2, 2, 6) covariances as (..., 8, 8); `[..., _ROW, _COL]` inverts."""
    dense = np.zeros(cov.shape[:-3] + (8, 8))
    dense[..., _ROW, _COL] = cov
    return dense


def _symmetric_rows(c: np.ndarray, coupled: bool) -> np.ndarray:
    """0.5 * (C + C.T) of (2, 2, 6, N) covariances, as (N, 2, 2, 6). The
    kernels work on such copies: a few loops over N, not N short ones.
    Unless `coupled`, planes 4 and 5 must hold +0.0 only: the transpose's
    swap of those two planes then changes no bit, so it is skipped."""
    c += c.swapaxes(0, 1)[:, :, _TRANSPOSED] if coupled else c.swapaxes(0, 1).copy()
    c *= 0.5
    return c.transpose(3, 0, 1, 2).copy()


def kf_init(measurement) -> tuple[np.ndarray, np.ndarray]:
    """Start a track from one (cx, cy, a, h) measurement, zero velocity.
    Returns one (8,) mean and one (2, 2, 6) covariance."""
    z = np.asarray(measurement, dtype=float)
    if z[3] <= 0:
        raise ValueError(f"height must be positive, got {z[3]}")
    mean = np.zeros(8)
    mean[:4] = z
    return mean, np.diag((z[3] * _INIT_W + _Q_FIXED) ** 2)[_ROW, _COL]


def kf_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-timestep constant-velocity prediction of (N, 8) means and
    (N, 2, 2, 6) covariances. F @ C @ F.T adds the velocity rows, then
    columns, to the position ones; Q adds to the diagonal blocks."""
    c = cov.transpose(1, 2, 3, 0).copy()
    c[0] += c[1]
    c[:, 0] += c[:, 1]
    var = (mean[:, 3] * _Q_W[:, None] + _Q_FIXED[:, None]) ** 2
    c.reshape(4, 6, -1)[::3, :4] += var.reshape(2, 4, -1)
    # Any set bit in planes 4 and 5, -0.0 and NaN too, takes the gather.
    return mean @ _F.T, _symmetric_rows(c, c[:, :, 4:].view(np.int64).any())


def kf_update(mean: np.ndarray, cov: np.ndarray,
              measurement) -> tuple[np.ndarray, np.ndarray]:
    """Standard Kalman correction with H = [I4 0] of (N, 8) means and
    (N, 2, 2, 6) covariances by (N, 4) measurements, row by row. Without
    cross terms S is diagonal, so the gain is p * (1/s), as LAPACK gives
    it, and (I - K H) @ C per axis is [[1 - k_p, 0], [-k_v, 1]] @ C."""
    z = np.asarray(measurement, dtype=float)
    var = (mean[:, 3:4] * _Q_W[:4] + _R_FIXED) ** 2
    if cov[..., 4:].any():  # cross terms: the dense arithmetic, on every row
        # H selects the first four state entries, so H @ cov @ H.T, cov @ H.T
        # and H @ mean are slices.
        cov = cov_to_dense(cov)
        innov_cov = cov[:, :4, :4] + _I8[:4, :4] * var[:, None, :]
        try:
            gain = np.linalg.solve(innov_cov.transpose(0, 2, 1),
                                   cov[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
        except np.linalg.LinAlgError as e:
            raise ValueError("singular innovation covariance") from e
        c = (_I8 - gain @ _H) @ cov
        return (mean + (gain @ (z - mean[:, :4])[:, :, None])[:, :, 0],
                (0.5 * (c + c.transpose(0, 2, 1)))[:, _ROW, _COL])
    c = cov.transpose(1, 2, 3, 0).copy()
    s = c[0, 0, :4] + var.T
    if not s.all():
        raise ValueError("singular innovation covariance")
    gain = c[:, 0, :4] * (1.0 / s)
    out = np.zeros_like(c)
    np.multiply(1.0 - gain[0], c[0, :, :4], out=out[0, :, :4])
    np.subtract(c[1, :, :4], gain[1] * c[0, :, :4], out=out[1, :, :4])
    return mean + (gain * (z - mean[:, :4]).T).reshape(8, -1).T, _symmetric_rows(out, False)


def apply_cmc(mean: np.ndarray, cov: np.ndarray,
              m: Affine2x3) -> tuple[np.ndarray, np.ndarray]:
    """Carry (N, 8) means and (N, 2, 2, 6) covariances into the current
    frame's geometry.

    Centers get the full affine; center velocities are rotated only; aspect
    and height are untouched. A rotation turns the position covariance block.
    """
    if m.is_identity():
        return mean, cov
    rot, t = m.rot, m.t
    mean = mean.copy()
    mean[:, :2] = (rot @ mean[:, :2, None])[:, :, 0] + t
    mean[:, 4:6] = (rot @ mean[:, 4:6, None])[:, :, 0]
    if (rot != _I8[:2, :2]).any():
        cov = cov.copy()
        cov[:, 0, 0, _XY] = (rot @ cov[:, 0, 0, _XY].reshape(-1, 2, 2) @ rot.T).reshape(-1, 4)
    return mean, cov
