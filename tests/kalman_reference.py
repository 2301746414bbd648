"""Frozen reference for the bitwise kernel tests: `boxes_to_measurements`,
`means_to_boxes`, `kf_predict` and `kf_update` of `sartrack.motion` as they
were when the box conversions `np.stack`-ed four columns and every
symmetrization gathered the transposed cross-term planes. The code is kept
verbatim apart from this docstring and the imports; the layout tables and
noise constants come from the library. Test-only; do not change it to follow
the library.
"""
from __future__ import annotations

import numpy as np

from sartrack.motion import (_F, _H, _I8, _Q_FIXED, _Q_W, _R_FIXED, _TRANSPOSED, _COL,
                             _ROW, cov_to_dense)


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


def _symmetric_rows(c: np.ndarray) -> np.ndarray:
    """0.5 * (C + C.T) of (2, 2, 6, N) covariances, as (N, 2, 2, 6). The
    kernels work on such copies: a few loops over N, not N short ones."""
    c += c.swapaxes(0, 1)[:, :, _TRANSPOSED]
    c *= 0.5
    return c.transpose(3, 0, 1, 2).copy()


def kf_predict(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-timestep constant-velocity prediction of (N, 8) means and
    (N, 2, 2, 6) covariances. F @ C @ F.T adds the velocity rows, then
    columns, to the position ones; Q adds to the diagonal blocks."""
    c = cov.transpose(1, 2, 3, 0).copy()
    c[0] += c[1]
    c[:, 0] += c[:, 1]
    var = (mean[:, 3] * _Q_W[:, None] + _Q_FIXED[:, None]) ** 2
    c.reshape(4, 6, -1)[::3, :4] += var.reshape(2, 4, -1)
    return mean @ _F.T, _symmetric_rows(c)


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
    return mean + (gain * (z - mean[:, :4]).T).reshape(8, -1).T, _symmetric_rows(out)
