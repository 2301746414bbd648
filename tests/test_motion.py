import numpy as np
import pytest

from sartrack.motion import (Affine2x3, apply_cmc, boxes_to_measurements, cov_to_dense,
                             kf_init, kf_predict, kf_update, means_to_boxes)


def init1(z):
    """kf_init as an N=1 stack: (1, 8) mean and (1, 2, 2, 6) covariance."""
    mean, cov = kf_init(z)
    return mean[None], cov[None]


def predict1(s):
    return kf_predict(*s)


def update1(s, z):
    return kf_update(*s, np.asarray(z, dtype=float)[None])


def test_conversion_examples():
    z = boxes_to_measurements(np.array([[0.0, 0.0, 2.0, 4.0], [5.0, 5.0, 10.0, 10.0]]))
    assert z.tolist() == [[1, 2, 0.5, 4], [10, 10, 1, 10]]


def test_conversion_round_trip():
    rng = np.random.default_rng(11)
    boxes = np.array([[*rng.uniform(-100, 100, 2), *rng.uniform(0.1, 80, 2)]
                      for _ in range(1000)])
    mean = np.zeros((len(boxes), 8))
    mean[:, :4] = boxes_to_measurements(boxes)
    assert np.all(np.abs(means_to_boxes(mean) - boxes) < 1e-9)


def test_means_to_boxes_clamps_aspect_and_height():
    mean = np.zeros((1, 8))
    mean[0, :4] = (10.0, 20.0, -1.0, 0.0)
    want = [[10.0 - 1e-12 / 2.0, 20.0 - 1e-6 / 2.0, 1e-12, 1e-6]]
    assert means_to_boxes(mean).tolist() == want


def test_init_zero_velocity_and_spd_cov():
    mean, blocks = kf_init((10, 10, 1, 4))
    assert mean.shape == (8,) and blocks.shape == (2, 2, 6)
    cov = cov_to_dense(blocks)
    assert np.all(mean[4:] == 0)
    np.testing.assert_allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0)
    mean2, cov2 = kf_init((10, 10, 1, 4))
    np.testing.assert_array_equal(mean, mean2)
    np.testing.assert_array_equal(blocks, cov2)


def test_init_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        kf_init((0, 0, 1, 0))


def test_predict_zero_velocity_keeps_position():
    mean, _ = predict1(init1((5, 6, 1, 4)))
    np.testing.assert_allclose(mean[0, :4], [5, 6, 1, 4])


def test_predict_linear_motion():
    mean, cov = init1((0, 0, 1, 4))
    mean[0, 4:6] = [1, 2]
    mean, _ = kf_predict(mean, cov)
    np.testing.assert_allclose(mean[0, :4], [1, 2, 1, 4])


def test_predict_increases_trace():
    s = init1((0, 0, 1, 4))
    s2 = predict1(s)
    assert np.trace(cov_to_dense(s2[1][0])) > np.trace(cov_to_dense(s[1][0]))


def test_update_zero_innovation():
    s = predict1(init1((3, 4, 1, 5)))
    mean, _ = update1(s, s[0][0, :4])
    np.testing.assert_allclose(mean[0, :4], s[0][0, :4], atol=1e-12)


def test_update_contracts_position_variance():
    s = predict1(init1((3, 4, 1, 5)))
    _, cov = update1(s, (3.5, 4.5, 1, 5))
    before, after = cov_to_dense(s[1][0]), cov_to_dense(cov[0])
    for i in range(4):
        assert after[i, i] <= before[i, i] + 1e-12


def test_repeated_updates_converge():
    s = init1((0, 0, 1, 4))
    z = np.array([10.0, -5.0, 1.2, 6.0])
    errs = []
    for _ in range(100):
        s = update1(predict1(s), z)
        errs.append(np.abs(s[0][0, :2] - z[:2]).max())
    np.testing.assert_allclose(s[0][0, :2], z[:2], atol=1e-3)
    assert errs[-1] < errs[19] < errs[4]


def test_covariance_symmetric_over_long_sequence():
    rng = np.random.default_rng(0)
    s = init1((0, 0, 1, 4))
    for _ in range(100):
        s = predict1(s)
        s = update1(s, s[0][0, :4] + rng.normal(0, 0.1, 4) * [1, 1, 0.01, 1])
        cov = cov_to_dense(s[1][0])
        assert np.abs(cov - cov.T).max() < 1e-9


def test_update_rejects_singular_innovation_covariance():
    """A zero height gives zero measurement noise on cx, cy and h; with zero
    variance there, the innovation covariance is singular."""
    mean, cov = np.zeros((1, 8)), np.zeros((1, 2, 2, 6))
    with pytest.raises(ValueError, match="singular"):
        kf_update(mean, cov, np.zeros((1, 4)))


def test_tracks_constant_velocity_truth():
    s = init1((0.0, 0.0, 1.0, 4.0))
    for t in range(1, 31):
        s = predict1(s)
        s = update1(s, (2.0 * t, -1.0 * t, 1.0, 4.0))
    np.testing.assert_allclose(s[0][0, :2], [60.0, -30.0], atol=1e-2)


def test_apply_cmc_identity():
    mean, cov = init1((1, 2, 1, 4))
    out_mean, out_cov = apply_cmc(mean, cov, Affine2x3(np.eye(2, 3)))
    np.testing.assert_array_equal(out_mean, mean)
    np.testing.assert_array_equal(out_cov, cov)


def test_apply_cmc_translation():
    mean, cov = init1((1, 2, 1, 4))
    mean[0, 4:6] = [0.5, -0.5]
    m = Affine2x3(np.array([[1, 0, 5], [0, 1, 0]], dtype=float))
    out, out_cov = apply_cmc(mean, cov, m)
    assert out_cov is cov  # a translation leaves the covariance alone
    np.testing.assert_allclose(out[0, :2], [6, 2])
    np.testing.assert_allclose(out[0, 4:6], [0.5, -0.5])
    np.testing.assert_allclose(out[0, 2:4], mean[0, 2:4])


def test_apply_cmc_rotation():
    mean, cov = init1((1, 0, 1, 4))
    rot90 = Affine2x3(np.array([[0, -1, 0], [1, 0, 0]], dtype=float))
    out, _ = apply_cmc(mean, cov, rot90)
    np.testing.assert_allclose(out[0, :2], [0, 1], atol=1e-12)
    np.testing.assert_allclose(out[0, 2:4], mean[0, 2:4])


def test_affine_validation():
    with pytest.raises(ValueError):
        Affine2x3(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Affine2x3(np.full((2, 3), np.nan))
