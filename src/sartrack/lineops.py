"""Line-feature focusing: discrete Radon accumulation, thresholded
back-projection, spatial softmax, and the fusion Z = 1.5 * x + 0.5 * A_soft
that the paper's gated fusion gives at zero (untrained) weights.

Feature maps are numpy arrays of shape (H, W, C); Radon-domain maps are
(n_angles, n_rho, C). The forward transform assigns every pixel to exactly
one rho bin per angle, and back-projection reuses the identical bin mapping,
so back-projection at threshold 0 is the exact adjoint of the forward pass.

That mapping is an (n_angles, H, W) table of bin indices in the smallest
unsigned type that holds ``n_rho - 1``: 2 bytes per entry at the default bin
counts, 94 MB for a 512 x 512 map at the default 180 angles. A table, or a
forward Radon map, larger than ``BIN_TABLE_MAX_BYTES`` (1 GiB) is rejected
with a ``ValueError`` before anything is allocated. Built tables are cached
up to the same total, and the least recently used ones are evicted first.
Both transforms loop over angles within blocks of whole rows (``_BLOCK_PX``
pixels, twice that in the forward), so at 512 x 512 an angle touches about 1
MB of cache instead of 6.5 MB of whole-map planes. A pixel still sums its
kept bins in angle order, and a rho bin its pixels in row-major order, both
from +0.0: no bit changes.
"""
from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

BIN_TABLE_MAX_BYTES = 1 << 30
_BLOCK_PX = 1 << 15

_bin_tables: OrderedDict[tuple[int, int, int, int], np.ndarray] = OrderedDict()


def _as_hwc(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3:
        raise ValueError(f"expected (H, W) or (H, W, C) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature map contains non-finite values")
    return x


def _bin_table_size(h: int, w: int, n_angles: int, n_rho: int) -> tuple[np.dtype, int]:
    """Index dtype and byte size of the (n_angles, h, w) rho bin table.

    Raises ValueError for fewer than one angle or bin, or a table above
    ``BIN_TABLE_MAX_BYTES``.
    """
    if n_angles < 1 or n_rho < 1:
        raise ValueError("n_angles and n_rho must be >= 1")
    dtype = np.min_scalar_type(n_rho - 1)
    nbytes = n_angles * h * w * dtype.itemsize
    if nbytes > BIN_TABLE_MAX_BYTES:
        raise ValueError(
            f"rho bin table of shape ({n_angles}, {h}, {w}) needs {nbytes} bytes, "
            f"above the {BIN_TABLE_MAX_BYTES}-byte limit; use fewer angles")
    return dtype, nbytes


def _rho_bins(h: int, w: int, n_angles: int, n_rho: int) -> np.ndarray:
    """Per-angle rho bin index of every pixel, shape (n_angles, h, w).

    Pixel coordinates are centered on the map center; rho is offset by half
    the diagonal so bin indices are nonnegative, then clamped to the valid
    range (boundary clamping keeps per-angle mass conservation exact).
    Indices are stored in the dtype ``_bin_table_size`` picks. The table is
    cached and read-only.
    """
    key = (h, w, n_angles, n_rho)
    idx = _bin_tables.get(key)
    if idx is not None:
        _bin_tables.move_to_end(key)
        return idx
    dtype, nbytes = _bin_table_size(h, w, n_angles, n_rho)
    # Evict before building, so the new table never coexists with a full cache.
    cached = sum(t.nbytes for t in _bin_tables.values())
    while cached + nbytes > BIN_TABLE_MAX_BYTES:
        cached -= _bin_tables.popitem(last=False)[1].nbytes
    diag = math.hypot(h, w)
    d_theta = math.pi / n_angles
    d_rho = diag / n_rho
    xc = np.arange(w) - (w - 1) / 2.0
    yc = (np.arange(h) - (h - 1) / 2.0)[:, None]
    thetas = np.arange(n_angles) * d_theta
    # Filled one angle at a time through one (h, w) float buffer. The clamp
    # runs in float, before the narrowing cast, so no bin can wrap around.
    idx = np.empty((n_angles, h, w), dtype=dtype)
    buf = np.empty((h, w))
    for a, (cos_t, sin_t) in enumerate(zip(np.cos(thetas), np.sin(thetas))):
        np.add(cos_t * xc, sin_t * yc, out=buf)
        buf += diag / 2.0
        buf /= d_rho
        np.floor(buf, out=buf)
        np.clip(buf, 0, n_rho - 1, out=buf)
        idx[a] = buf
    idx.setflags(write=False)
    _bin_tables[key] = idx
    return idx


def default_bins(h: int, w: int) -> tuple[int, int]:
    """Default (n_angles, n_rho) for an h x w map."""
    return 180, int(math.ceil(math.hypot(h, w)))


def radon_forward(x, n_angles: int, n_rho: int) -> np.ndarray:
    """Accumulate each pixel's value into its (angle, rho) bin.

    Returns a (n_angles, n_rho, C) array, summed one row block at a time. A
    bin table or output above ``BIN_TABLE_MAX_BYTES`` raises ValueError
    before either is allocated.
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
    # Per row block and angle, bincount gets an arange(n_rho) prefix weighted
    # by the bins' running sums, then the block. It adds each bin's weights in
    # order from +0.0, and a sum from +0.0 is never -0.0, so 0.0 + sum is that
    # sum: each bin goes on with a whole-map call's row-major additions. Blocks
    # of at least 4 * n_rho pixels bound the carried sums' cost; 2 * _BLOCK_PX
    # holds 256 x 256 whole. The reused intp buffer saves bincount a cast.
    rows = max(1, min(h, max(2 * _BLOCK_PX, 4 * n_rho) // max(w, 1)))
    idx = np.arange(n_rho + rows * w, dtype=np.intp)
    wts = np.empty((c, n_rho + rows * w))
    for r in range(0, h, rows):
        n = n_rho + min(rows, h - r) * w
        wts[:, n_rho:n] = flat[r * w:(r + rows) * w].T
        for a in range(n_angles):
            idx[n_rho:n] = bins[a, r:r + rows].ravel()
            for k in range(c):
                wts[k, :n_rho] = out[a, :, k]
                out[a, :, k] = np.bincount(idx[:n], weights=wts[k, :n], minlength=n_rho)
    return out


def radon_backproject(y, tau, h: int, w: int) -> np.ndarray:
    """Spread each above-threshold Radon bin back along its pixel set.

    ``tau`` is one threshold or one per channel. A pixel receives a bin's
    value iff its forward mapping at that angle lands in that bin, making
    tau=0 the exact adjoint of radon_forward.

    Each row block of each output plane is summed in place over angles, in
    angle order, from 1-D gathers out of one contiguous copy of that channel's
    bins (a view for one channel), through two block-sized buffers: one for
    the indices and one for the gathered values.
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
    # np.take given narrow indices allocates an intp copy of them and a result
    # on every call, and freeing both can hand the pages back to the OS each
    # time. 'clip' never moves an index of the clamped table; the default
    # 'raise' would copy `out` before writing it.
    rows = max(1, min(h, _BLOCK_PX // max(w, 1)))
    idx = np.empty((rows, w), dtype=np.intp)
    vals = np.empty((rows, w))
    for k in range(c):
        col = np.ascontiguousarray(kept[:, :, k])
        for r in range(0, h, rows):
            n = min(rows, h - r)
            plane = out[r:r + n, :, k]
            for a in range(n_angles):
                idx[:n] = bins[a, r:r + n]
                np.take(col[a], idx[:n], out=vals[:n], mode="clip")
                plane += vals[:n]
    return out


def soft_normalize(a) -> np.ndarray:
    """Per-channel spatial softmax (max-subtracted for stability)."""
    a = _as_hwc(a)
    h, w, c = a.shape
    flat = a.reshape(h * w, c)
    e = flat - flat.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e.reshape(h, w, c)


def gated_fuse(x, a_soft) -> np.ndarray:
    """Residual blend 1.5 * x + 0.5 * a_soft of the input and line maps.

    This is the paper's gated 1x1 fusion at zero (untrained) weights: both
    gates are sigmoid(0) = 0.5, and the input keeps its residual term.
    """
    x = _as_hwc(x)
    a_soft = _as_hwc(a_soft)
    if x.shape != a_soft.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {a_soft.shape}")
    z = 1.5 * x
    z += 0.5 * a_soft
    return z


def default_tau(y) -> np.ndarray:
    """Per-channel noise threshold: mean + one std of the Radon map."""
    y = np.asarray(y, dtype=float)
    return y.mean(axis=(0, 1)) + y.std(axis=(0, 1))


def lffm(x, n_angles: int | None = None, n_rho: int | None = None,
         tau: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full line-feature enhancement pass.

    Returns (fused map Z = ``gated_fuse(x, A_soft)``, line-intensity map
    A_soft), both shaped like x. A Radon map, default threshold or
    back-projection that overflows the float range raises ValueError.
    """
    x = _as_hwc(x)
    h, w, _ = x.shape
    da, dr = default_bins(h, w)
    n_angles = da if n_angles is None else n_angles
    n_rho = dr if n_rho is None else n_rho
    if tau is not None and not np.all(np.isfinite(tau)):
        raise ValueError(f"tau must be finite, got {tau}")
    y = radon_forward(x, n_angles, n_rho)
    if not np.isfinite(y).all():
        raise ValueError("Radon map overflows: a line sum of the input exceeds the float range")
    if tau is None:
        with np.errstate(over="ignore", invalid="ignore"):
            tau = default_tau(y)
        if not np.isfinite(tau).all():
            raise ValueError("default threshold overflows: the Radon map's mean or spread "
                             "exceeds the float range; pass tau")
    with np.errstate(over="ignore"):
        raw = radon_backproject(y, tau, h, w)
    del y  # neither map is needed past its own stage
    if not np.isfinite(raw).all():
        raise ValueError("back-projection overflows: a pixel's sum of kept bins "
                         "exceeds the float range")
    a_soft = soft_normalize(raw)
    del raw
    z = gated_fuse(x, a_soft)
    return z, a_soft
