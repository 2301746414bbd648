import math

import numpy as np
import pytest

from sartrack.lineops import (FusionParams, default_bins, gated_fuse, lffm,
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


def test_gated_fuse_zero_params():
    rng = np.random.default_rng(2)
    x = rng.random((6, 6, 2))
    a = rng.random((6, 6, 2))
    z = gated_fuse(x, a, FusionParams.zeros(2))
    np.testing.assert_allclose(z, 1.5 * x + 0.5 * a, atol=1e-12)
    z0 = gated_fuse(np.zeros_like(x), a, FusionParams.zeros(2))
    np.testing.assert_allclose(z0, 0.5 * a, atol=1e-12)


def test_gated_fuse_scalar_loop_oracle():
    rng = np.random.default_rng(4)
    c = 3
    x = rng.random((4, 5, c))
    a = rng.random((4, 5, c))
    wmat = rng.standard_normal((2 * c, 2 * c))
    z = gated_fuse(x, a, FusionParams(wmat))
    for yy in range(4):
        for xx in range(5):
            cat = np.concatenate([x[yy, xx], a[yy, xx]])
            gates = 1 / (1 + np.exp(-(wmat @ cat)))
            expect = (gates[:c] + 1) * x[yy, xx] + gates[c:] * a[yy, xx]
            np.testing.assert_allclose(z[yy, xx], expect, atol=1e-9)


def test_gated_fuse_shape_errors():
    with pytest.raises(ValueError):
        gated_fuse(np.zeros((4, 4, 1)), np.zeros((4, 5, 1)), FusionParams.zeros(1))
    with pytest.raises(ValueError):
        gated_fuse(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)), FusionParams.zeros(1))


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


def test_default_bins():
    n_a, n_r = default_bins(16, 16)
    assert n_a == 180
    assert n_r == int(np.ceil(np.hypot(16, 16)))


def test_rejects_non_finite():
    x = np.zeros((4, 4, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        radon_forward(x, 4, 8)
