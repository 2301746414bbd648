import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from sartrack import lineops
from sartrack.lineops import (_rho_bins, default_bins, gated_fuse, lffm,
                              radon_backproject, radon_forward, soft_normalize)


def brute_force_radon(x, n_angles, n_rho):
    """Independent per-pixel accumulation oracle."""
    h, w, c = x.shape
    diag = math.hypot(h, w)
    d_theta = math.pi / n_angles
    d_rho = diag / n_rho
    out = np.zeros((n_angles, n_rho, c))
    for a in range(n_angles):
        theta = a * d_theta
        for yy in range(h):
            for xx in range(w):
                xc = xx - (w - 1) / 2
                yc = yy - (h - 1) / 2
                rho = xc * math.cos(theta) + yc * math.sin(theta)
                rb = int(math.floor((rho + diag / 2) / d_rho))
                rb = min(max(rb, 0), n_rho - 1)
                out[a, rb] += x[yy, xx]
    return out


def vectorized_rho_bins(h, w, n_angles, n_rho):
    """The bin table built in one (n_angles, h, w) float pass, frozen as the
    per-angle build's reference."""
    diag = math.hypot(h, w)
    d_theta = math.pi / n_angles
    d_rho = diag / n_rho
    ys, xs = np.mgrid[0:h, 0:w]
    xc = xs - (w - 1) / 2.0
    yc = ys - (h - 1) / 2.0
    thetas = np.arange(n_angles) * d_theta
    rho = (np.cos(thetas)[:, None, None] * xc[None] +
           np.sin(thetas)[:, None, None] * yc[None])
    idx = np.floor((rho + diag / 2.0) / d_rho).astype(np.intp)
    np.clip(idx, 0, n_rho - 1, out=idx)
    return idx


@pytest.mark.parametrize("h,w", [(1, 1), (5, 9), (17, 23), (32, 32)])
def test_rho_bins_equal_vectorized_formula(h, w):
    for n_angles, n_rho in (default_bins(h, w), (7, 11), (1, 1), (13, 200)):
        got = _rho_bins(h, w, n_angles, n_rho)
        assert got.dtype == np.min_scalar_type(n_rho - 1) and not got.flags.writeable
        assert np.array_equal(got, vectorized_rho_bins(h, w, n_angles, n_rho))


@pytest.mark.parametrize("n_rho", [255, 256, 257, 65535, 65536, 65537])
def test_rho_bins_narrow_dtype_boundaries(n_rho):
    # A one-row strip at least n_rho / 2 wide reaches both the first and the
    # last bin, the largest index the narrow dtype must hold.
    for h, w, n_angles in ((17, 23, 7), (1, n_rho // 2 + 1, 3)):
        want = vectorized_rho_bins(h, w, n_angles, n_rho)
        got = _rho_bins(h, w, n_angles, n_rho)
        assert got.dtype == np.min_scalar_type(n_rho - 1)
        assert np.array_equal(got, want)
    assert want.min() == 0 and want.max() == n_rho - 1


def test_rho_bins_cold_build_memory_is_table_plus_two_planes(monkeypatch):
    monkeypatch.setattr(lineops, "_bin_tables", OrderedDict())
    tracemalloc.start()
    try:
        table = _rho_bins(256, 256, 180, 363)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 2 * 256 * 256 * np.dtype(float).itemsize


def test_warm_radon_transforms_memory_is_outputs_kept_bins_and_blocks():
    """Past its outputs and the kept-bin copy, a warm forward and back pass at
    512 x 512 allocates O(block) buffers; whole-map intp index and value
    planes (4 MB) do not fit."""
    x = np.random.default_rng(0).random((512, 512))
    n_angles, n_rho = default_bins(512, 512)
    y = radon_forward(x, n_angles, n_rho)
    tau = float(y.mean())
    tracemalloc.start()
    try:
        y = radon_forward(x, n_angles, n_rho)
        out = radon_backproject(y, tau, 512, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = 4 * (lineops._BLOCK_PX + 4 * n_rho) * np.dtype(np.intp).itemsize
    assert peak <= out.nbytes + 2 * y.nbytes + blocks


def test_warm_lffm_peak_memory_drops_the_radon_and_raw_maps():
    """A warm 512 x 512 x 1 lffm peaks near 6 MiB: the input, the two 2 MiB
    outputs and one fusion temporary. Keeping the 1 MiB Radon map and the
    2 MiB back-projection alive into the fusion lifts it to 9 MiB."""
    x = np.random.default_rng(0).random((512, 512, 1))
    lffm(x)
    tracemalloc.start()
    try:
        z, a_soft = lffm(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.nbytes == a_soft.nbytes == x.nbytes
    assert peak <= 7 * 2**20


def test_rho_bins_rejects_oversized_table_before_allocating():
    x = np.zeros((64, 64, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"\(1000000000, 64, 64\)"):
            _rho_bins(64, 64, 10**9, 91)
        with pytest.raises(ValueError, match=r"Radon map of shape \(2, 1000000000, 1\)"):
            radon_forward(x, 2, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rho_bins_cache_keeps_benchmark_tables():
    # The 256 x 256 and 512 x 512 tables at the default 180 angles fit together.
    nbytes = [lineops._bin_table_size(n, n, *default_bins(n, n))[1] for n in (256, 512)]
    assert sum(nbytes) <= lineops.BIN_TABLE_MAX_BYTES


def test_rho_bins_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(lineops, "_bin_tables", OrderedDict())
    one = lineops._bin_table_size(8, 8, 4, 7)[1]
    monkeypatch.setattr(lineops, "BIN_TABLE_MAX_BYTES", 2 * one + 1)
    first = _rho_bins(8, 8, 4, 5)
    second = _rho_bins(8, 8, 4, 6)
    assert _rho_bins(8, 8, 4, 5) is first  # cached, and now the most recent
    third = _rho_bins(8, 8, 4, 7)
    assert list(lineops._bin_tables) == [(8, 8, 4, 5), (8, 8, 4, 7)]
    assert _rho_bins(8, 8, 4, 7) is third
    assert _rho_bins(8, 8, 4, 6) is not second
    assert np.array_equal(_rho_bins(8, 8, 4, 6), second)
    with pytest.raises(ValueError, match="limit"):
        _rho_bins(8, 8, 12, 5)


def test_forward_zero_map():
    y = radon_forward(np.zeros((8, 8, 1)), 6, 12)
    assert np.all(y == 0)


def test_forward_impulse():
    x = np.zeros((8, 8, 1))
    x[3, 5, 0] = 1.0
    y = radon_forward(x, 4, 12)
    for a in range(4):
        row = y[a, :, 0]
        assert np.count_nonzero(row) == 1
        assert row.sum() == 1.0


def test_forward_row_of_ones_matches_oracle():
    x = np.zeros((4, 4, 1))
    x[2, :, 0] = 1.0
    y = radon_forward(x, 4, 8)
    np.testing.assert_allclose(y, brute_force_radon(x, 4, 8))
    # theta = pi/2 (horizontal line) concentrates all mass in one rho bin
    row = y[2, :, 0]
    assert row.max() == 4.0
    assert np.count_nonzero(row) == 1
    for a in (1, 3):
        assert np.count_nonzero(y[a, :, 0]) >= 2


def test_forward_matches_oracle_random():
    rng = np.random.default_rng(3)
    x = rng.random((7, 5, 2))
    np.testing.assert_allclose(radon_forward(x, 9, 11), brute_force_radon(x, 9, 11),
                               atol=1e-12)


def test_per_angle_mass_conservation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.random((10, 12, 2))
        y = radon_forward(x, 15, 17)
        target = x.sum(axis=(0, 1))
        for a in range(15):
            np.testing.assert_allclose(y[a].sum(axis=0), target, atol=1e-9)


def test_forward_linearity():
    rng = np.random.default_rng(6)
    x1, x2 = rng.random((6, 6, 1)), rng.random((6, 6, 1))
    lhs = radon_forward(2.5 * x1 - 1.5 * x2, 8, 10)
    rhs = 2.5 * radon_forward(x1, 8, 10) - 1.5 * radon_forward(x2, 8, 10)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_backproject_zero_and_tau_kills_all():
    y = np.zeros((4, 12, 1))
    assert np.all(radon_backproject(y, 0.0, 8, 8) == 0)
    x = np.ones((8, 8, 1))
    y = radon_forward(x, 4, 12)
    assert np.all(radon_backproject(y, y.max() + 1, 8, 8) == 0)


def test_backproject_impulse_adjoint_composition():
    x = np.zeros((8, 8, 1))
    x[3, 5, 0] = 1.0
    y = radon_forward(x, 4, 12)
    a = radon_backproject(y, 0.0, 8, 8)
    assert a[3, 5, 0] == 4.0  # one contribution per angle bin
    others = np.delete(a.ravel(), 3 * 8 + 5)
    assert set(np.unique(others)).issubset({0.0, 1.0, 2.0, 3.0})


def test_adjoint_identity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = rng.standard_normal((9, 7, 2))
        y = rng.standard_normal((11, 13, 2))
        fx = radon_forward(x, 11, 13)
        bty = radon_backproject(y, -np.inf, 9, 7)
        lhs = float((fx * y).sum())
        rhs = float((x * bty).sum())
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_backproject_monotone_in_tau():
    rng = np.random.default_rng(13)
    x = rng.random((8, 8, 1))
    y = radon_forward(x, 6, 10)
    a_low = radon_backproject(y, 0.5, 8, 8)
    a_high = radon_backproject(y, 2.0, 8, 8)
    assert np.all(a_low >= a_high)
    # One threshold per channel equals one call per channel, bitwise.
    y3 = radon_forward(rng.random((8, 8, 3)), 6, 10)
    taus = np.array([0.5, 1.0, 2.0])
    per_channel = np.concatenate(
        [radon_backproject(y3[:, :, k:k + 1], float(taus[k]), 8, 8) for k in range(3)], axis=2)
    assert np.array_equal(radon_backproject(y3, taus, 8, 8), per_channel)


def test_soft_normalize_constant_and_sum():
    a = soft_normalize(np.full((4, 4, 2), 3.7))
    np.testing.assert_allclose(a, 1 / 16, atol=1e-12)
    rng = np.random.default_rng(21)
    a = soft_normalize(rng.standard_normal((9, 5, 3)) * 50)
    np.testing.assert_allclose(a.sum(axis=(0, 1)), 1.0, atol=1e-9)
    assert np.all(a > 0) and np.all(a < 1)


def test_soft_normalize_peak():
    x = np.zeros((5, 5, 1))
    x[2, 2, 0] = 100.0
    a = soft_normalize(x)
    assert abs(a[2, 2, 0] - 1.0) < 1e-9
    assert a.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(7, 5), (7, 5, 1), (6, 4, 3)])
def test_softmax_and_fusion_leave_read_only_inputs_unwritten(shape):
    rng = np.random.default_rng(22)
    x, a = rng.standard_normal(shape), rng.random(shape)
    x_bytes, a_bytes = x.tobytes(), a.tobytes()
    x.flags.writeable = a.flags.writeable = False
    s, z = soft_normalize(x), gated_fuse(x, a)
    assert x.tobytes() == x_bytes and a.tobytes() == a_bytes
    assert not np.shares_memory(s, x) and not np.shares_memory(z, x)
    assert not np.shares_memory(z, a)


def test_soft_normalize_allocates_only_its_output():
    """exp and the division run in place in the one max-subtracted map."""
    x = np.random.default_rng(23).standard_normal((256, 256, 2))
    tracemalloc.start()
    try:
        out = soft_normalize(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024


def test_gated_fuse_zero_params():
    """The fusion is the zero-weight gate: both gates sigmoid(0) = 0.5."""
    rng = np.random.default_rng(2)
    x = rng.random((6, 6, 2))
    a = rng.random((6, 6, 2))
    z = gated_fuse(x, a)
    np.testing.assert_allclose(z, 1.5 * x + 0.5 * a, atol=1e-12)
    z0 = gated_fuse(np.zeros_like(x), a)
    np.testing.assert_allclose(z0, 0.5 * a, atol=1e-12)


def test_gated_fuse_shape_errors():
    with pytest.raises(ValueError, match="shape mismatch"):
        gated_fuse(np.zeros((4, 4, 1)), np.zeros((4, 5, 1)))
    with pytest.raises(ValueError, match="shape mismatch"):
        gated_fuse(np.zeros((4, 4, 2)), np.zeros((4, 4, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        gated_fuse(np.zeros((4, 4, 1)), np.full((4, 4, 1), np.nan))


def test_lffm_zero_input():
    z, a = lffm(np.zeros((6, 6, 1)), 8, 10, tau=0.0)
    np.testing.assert_allclose(a, 1 / 36, atol=1e-12)
    np.testing.assert_allclose(z, 0.5 / 36, atol=1e-12)
    assert z.shape == (6, 6, 1)


def make_streak(rng, size=32, amplitude=5.0, noise=1.0):
    """Random line segment of given amplitude over uniform noise."""
    img = rng.uniform(0, noise, (size, size))
    theta = rng.uniform(0, np.pi)
    cx = rng.uniform(size * 0.3, size * 0.7)
    cy = rng.uniform(size * 0.3, size * 0.7)
    half = size * 0.4
    n = int(4 * half)
    xs = np.round(cx + np.cos(theta) * np.linspace(-half, half, n)).astype(int)
    ys = np.round(cy + np.sin(theta) * np.linspace(-half, half, n)).astype(int)
    keep = (xs >= 0) & (xs < size) & (ys >= 0) & (ys < size)
    img[ys[keep], xs[keep]] = amplitude
    mask = np.zeros((size, size), dtype=bool)
    mask[ys[keep], xs[keep]] = True
    return img[:, :, None], mask


def test_lffm_streak_argmax_on_streak():
    rng = np.random.default_rng(17)
    img, mask = make_streak(rng)
    _, a = lffm(img)
    iy, ix = np.unravel_index(np.argmax(a[:, :, 0]), a.shape[:2])
    assert mask[iy, ix]


def test_lffm_zero_bins_and_non_finite_tau_rejected():
    x = np.zeros((6, 6, 1))
    for kwargs in ({"n_angles": 0}, {"n_rho": 0}, {"n_angles": 0, "n_rho": 0}):
        with pytest.raises(ValueError, match="n_angles and n_rho must be >= 1"):
            lffm(x, **kwargs)
    for tau in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            lffm(x, tau=tau)


@pytest.mark.parametrize("value, tau, message", [
    (1e307, None, "Radon map overflows"),
    (1e306, None, "default threshold overflows"),
    (1e305, 0.0, "back-projection overflows"),
])
def test_lffm_overflow_raises_without_numpy_warning(value, tau, message):
    """A 16x16 map sums up to 29 pixels into one Radon bin, 180 * 256 into
    the default threshold's mean, and 180 bins into each back-projected pixel.
    Under the suite's warnings-as-errors filter a numpy warning fails the test."""
    with pytest.raises(ValueError, match=message):
        lffm(np.full((16, 16, 1), value), tau=tau)


def test_default_bins():
    n_a, n_r = default_bins(16, 16)
    assert n_a == 180
    assert n_r == int(np.ceil(np.hypot(16, 16)))


def test_rejects_non_finite():
    x = np.zeros((4, 4, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        radon_forward(x, 4, 8)
