import numpy as np
import pytest

from sartrack.core import BBox
from sartrack.lfa import (LfaConfig, Proposal, TwoLayerMlp, adaptive_radius,
                          enhance_proposal, neighborhood_pool, normalize_velocities,
                          velocity_target)
from sartrack.motion import Affine2x3


def test_velocity_target():
    assert velocity_target((5, 5), (5, 5), None, 1) == 0.0
    assert velocity_target((13, 14), (10, 10), Affine2x3.identity(), 1) == pytest.approx(5.0)
    shift = Affine2x3(np.array([[1, 0, 3], [0, 1, 4]], dtype=float))
    assert velocity_target((13, 14), (10, 10), shift, 1) == 0.0
    with pytest.raises(ValueError):
        velocity_target((0, 0), (0, 0), None, 0)


def test_velocity_target_translation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, t = rng.uniform(-20, 20, (3, 2))
        v1 = velocity_target(a, b, None, 2)
        v2 = velocity_target(a + t, b + t, None, 2)
        assert v1 == pytest.approx(v2)


def test_normalize_velocities():
    np.testing.assert_allclose(normalize_velocities([0, 5, 10]), [0, 0.5, 1])
    np.testing.assert_allclose(normalize_velocities([0, 0]), [0, 0])
    np.testing.assert_allclose(normalize_velocities([7]), [1])
    with pytest.raises(ValueError):
        normalize_velocities([])


def test_normalize_velocities_order_preserving():
    rng = np.random.default_rng(1)
    v = rng.uniform(0, 9, 30)
    out = normalize_velocities(v)
    assert out.max() == 1.0
    assert np.all(np.argsort(out) == np.argsort(v))


def test_adaptive_radius_endpoints_and_hand_case():
    cfg = LfaConfig(image_w=1024, image_h=1024, lambda_max=0.4)
    box = BBox(100, 40, 10, 20)  # center (105, 50)
    assert adaptive_radius(box, 0.0, cfg) == 20.0
    r_max = 0.4 * max(105, 1024 - 105, 50, 1024 - 50)
    assert r_max == pytest.approx(0.4 * 974)
    assert adaptive_radius(box, 1.0, cfg) == pytest.approx(r_max)
    assert adaptive_radius(box, 0.5, cfg) == pytest.approx(204.8)


def test_adaptive_radius_clamps_when_rmax_small():
    cfg = LfaConfig(image_w=100, image_h=100, lambda_max=0.01)
    box = BBox(40, 40, 30, 30)
    assert adaptive_radius(box, 1.0, cfg) == 30.0


def test_adaptive_radius_monotone():
    cfg = LfaConfig(image_w=512, image_h=512)
    box = BBox(50, 60, 12, 18)
    vals = [adaptive_radius(box, v, cfg) for v in np.linspace(0, 1, 101)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    r_min = 18.0
    assert all(r_min <= v <= max(r_min, vals[-1]) for v in vals)


def test_neighborhood_pool_center_only():
    rng = np.random.default_rng(2)
    a = rng.random((8, 8, 3))
    np.testing.assert_allclose(neighborhood_pool(a, (5, 3), 0.0), a[3, 5])


def test_neighborhood_pool_uniform_any_radius():
    a = np.full((10, 10, 2), 1 / 100)
    for r in (0, 2.5, 7, 100):
        np.testing.assert_allclose(neighborhood_pool(a, (4.2, 6.1), r), 1 / 100)


def test_neighborhood_pool_whole_map():
    rng = np.random.default_rng(3)
    a = rng.random((6, 9, 2))
    a /= a.sum(axis=(0, 1), keepdims=True)
    np.testing.assert_allclose(neighborhood_pool(a, (4, 3), 100), 1 / 54)


def test_neighborhood_pool_brute_force_exact():
    rng = np.random.default_rng(4)
    a = rng.random((11, 7, 2))
    for _ in range(20):
        cx = rng.uniform(0, 6.99)
        cy = rng.uniform(0, 10.99)
        r = rng.uniform(0, 8)
        got = neighborhood_pool(a, (cx, cy), r)
        acc, cnt = np.zeros(2), 0
        for yy in range(11):
            for xx in range(7):
                if (xx - cx) ** 2 + (yy - cy) ** 2 <= r ** 2:
                    acc += a[yy, xx]
                    cnt += 1
        if cnt == 0:
            acc, cnt = a[min(10, round(cy)), min(6, round(cx))], 1
        np.testing.assert_allclose(got, acc / cnt)


def test_neighborhood_pool_center_outside():
    with pytest.raises(ValueError):
        neighborhood_pool(np.zeros((4, 4, 1)), (10, 1), 1.0)


def test_enhance_proposal_zero_mlp():
    a = np.full((8, 8, 3), 1 / 64)
    cfg = LfaConfig(image_w=8, image_h=8, mlp=TwoLayerMlp.zeros(3, 3))
    p = Proposal(BBox(2, 2, 2, 2), np.array([1.0, 2.0, 3.0]), 0.5)
    out = enhance_proposal(p, a, cfg)
    np.testing.assert_allclose(out.feature, p.feature)


def test_enhance_proposal_passthrough_uniform():
    a = np.full((8, 8, 3), 1 / 64)
    cfg = LfaConfig(image_w=8, image_h=8)  # default pass-through MLP
    p = Proposal(BBox(2, 2, 2, 2), np.zeros(3), 0.3)
    out = enhance_proposal(p, a, cfg)
    np.testing.assert_allclose(out.feature, np.full(3, 1 / 64))


def test_enhance_proposal_deterministic():
    rng = np.random.default_rng(5)
    a = rng.random((16, 16, 2))
    cfg = LfaConfig(image_w=16, image_h=16)
    p1 = Proposal(BBox(4, 4, 3, 3), np.array([0.1, 0.2]), 0.7)
    p2 = Proposal(BBox(4, 4, 3, 3), np.array([5.0, 6.0]), 0.7)
    d1 = enhance_proposal(p1, a, cfg).feature - p1.feature
    d2 = enhance_proposal(p2, a, cfg).feature - p2.feature
    np.testing.assert_allclose(d1, d2)


def test_proposal_validation():
    with pytest.raises(ValueError):
        Proposal(BBox(0, 0, 1, 1), np.zeros(2), 1.5)
    with pytest.raises(ValueError):
        Proposal(BBox(0, 0, 1, 1), np.array([np.inf]), 0.5)
