import math
import tracemalloc
from unittest import mock

import lfa_reference as ref
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sartrack import lfa
from sartrack.core import BBox
from sartrack.lfa import (LfaConfig, Proposal, adaptive_radius, enhance_proposal,
                          neighborhood_pool, normalize_velocities)


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


def test_neighborhood_pool_nan_radius_rejected():
    a = np.random.default_rng(6).random((5, 7, 2))
    with pytest.raises(ValueError, match="radius"):
        neighborhood_pool(a, (3, 2), float("nan"))


def test_neighborhood_pool_infinite_radius_pools_whole_map():
    a = np.random.default_rng(7).random((5, 7, 2))
    for center in ((0, 0), (6.9, 4.9), (3.2, 1.7)):
        np.testing.assert_allclose(neighborhood_pool(a, center, np.inf),
                                   a.reshape(-1, 2).mean(axis=0))


def test_neighborhood_pool_center_outside():
    with pytest.raises(ValueError):
        neighborhood_pool(np.zeros((4, 4, 1)), (10, 1), 1.0)


def test_enhance_proposal_passthrough_uniform():
    a = np.full((8, 8, 3), 1 / 64)
    cfg = LfaConfig(image_w=8, image_h=8)
    p = Proposal(BBox(2, 2, 2, 2), np.zeros(3), 0.3)
    out = enhance_proposal(p, a, cfg)
    np.testing.assert_allclose(out.feature, np.full(3, 1 / 64))


def test_enhance_proposal_rectifies_and_keeps_feature_length():
    a = np.empty((8, 8, 2))
    a[:, :, 0], a[:, :, 1] = 0.25, -0.5
    cfg = LfaConfig(image_w=8, image_h=8)
    for feature, expect in (([1.0], [1.25]),
                            ([1.0, 2.0], [1.25, 2.0]),
                            ([1.0, 2.0, -0.0], [1.25, 2.0, 0.0])):
        p = Proposal(BBox(2, 2, 2, 2), np.array(feature), 0.3)
        out = enhance_proposal(p, a, cfg).feature
        assert out.tolist() == expect and not np.signbit(out).any()


def test_enhance_proposal_deterministic():
    rng = np.random.default_rng(5)
    a = rng.random((16, 16, 2))
    cfg = LfaConfig(image_w=16, image_h=16)
    p1 = Proposal(BBox(4, 4, 3, 3), np.array([0.1, 0.2]), 0.7)
    p2 = Proposal(BBox(4, 4, 3, 3), np.array([5.0, 6.0]), 0.7)
    d1 = enhance_proposal(p1, a, cfg).feature - p1.feature
    d2 = enhance_proposal(p2, a, cfg).feature - p2.feature
    np.testing.assert_allclose(d1, d2)


def test_lfa_config_rejects_non_finite_or_non_positive_values():
    for bad in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(ValueError, match="lambda_max"):
            LfaConfig(image_w=8, image_h=8, lambda_max=bad)
        with pytest.raises(ValueError, match="image_w"):
            LfaConfig(image_w=bad, image_h=8)
        with pytest.raises(ValueError, match="image_h"):
            LfaConfig(image_w=8, image_h=bad)


def test_proposal_validation():
    with pytest.raises(ValueError):
        Proposal(BBox(0, 0, 1, 1), np.zeros(2), 1.5)
    with pytest.raises(ValueError):
        Proposal(BBox(0, 0, 1, 1), np.array([np.inf]), 0.5)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _pool_map(draw):
    """A 1-40 px map of C in {1, 2, 3, 5} channels, or a 2-D one, laid out
    C-ordered, F-ordered or as a strided slice of a larger array."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    c = draw(st.sampled_from([None, 1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["uniform", "normal", "signed zeros"]))
    shape = (2 * h + 1, 2 * w + 1, 2 * (c or 1) + 1)
    if fill == "uniform":
        big = rng.random(shape)
    elif fill == "normal":
        big = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    else:
        big = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    if layout == "sliced":
        a = big[1::2, ::-2][:h, :w, 1::2][:, :, :c or 1]
    else:
        a = np.array(big[:h, :w, :c or 1], order=layout)
    return a[:, :, 0] if c is None else a


@st.composite
def _centre(draw, n):
    """A pixel centre, a half-integer (rounded half to even), a point in the
    last row or column, or any point of [0, n)."""
    return draw(st.one_of(
        st.integers(0, n - 1).map(float),
        st.integers(0, n - 1).map(lambda i: i + 0.5),
        st.sampled_from([n - 1.0, n - 0.5, float(np.nextafter(n, 0))]),
        st.floats(0, n, exclude_max=True)))


@st.composite
def _pool_case(draw):
    a = draw(_pool_map())
    h, w = a.shape[:2]
    centre = draw(_centre(w)), draw(_centre(h))
    diag = math.hypot(h, w)
    radius = draw(st.one_of(
        st.just(0.0),
        st.floats(0, diag, exclude_min=True).filter(lambda r: r != int(r)),
        st.floats(diag, 1e9),
        st.just(math.inf)))
    return a, centre, radius


@settings(max_examples=500, deadline=None)
@given(_pool_case())
def test_neighborhood_pool_and_enhance_equal_frozen_pool_bitwise(case):
    """The column-filled (K, C) block is the array the 3-D masked gather
    built, so its axis-0 mean has the same bits. It must be built whole:
    per-channel 1-D means sum pairwise, the axis-0 mean of a C-ordered block
    row by row, and over 300 random blocks per C (K up to 5,000) the two
    differed in the last bit in 98-100% of blocks at every C from 2 to 64,
    agreeing only at C = 1."""
    a, centre, radius = case
    assert _same_bits(neighborhood_pool(a, centre, radius),
                      ref.neighborhood_pool(a, centre, radius))
    h, w = a.shape[:2]
    bbox = BBox(centre[0] - 0.25, centre[1] - 0.25, 0.5, 0.5)
    assume(0 <= bbox.center()[0] < w and 0 <= bbox.center()[1] < h)
    p = Proposal(bbox, np.linspace(-1.0, 1.0, 4), 0.5)
    cfg = LfaConfig(image_w=float(w), image_h=float(h))
    with mock.patch.object(lfa, "adaptive_radius", lambda *_: radius):
        got = enhance_proposal(p, a, cfg).feature
        with mock.patch.object(lfa, "neighborhood_pool", ref.neighborhood_pool):
            want = enhance_proposal(p, a, cfg).feature
    assert _same_bits(got, want)


@pytest.mark.parametrize("shape", [(512, 512, 1), (256, 256, 3)])
def test_infinite_radius_pool_memory_is_mask_block_and_one_gather(shape):
    """Pooling the whole map holds the mask, the (K, C) block and one K-long
    channel gather; the 3-D masked gather's two K-long intp index arrays
    (4 MB at 512 x 512) do not fit."""
    h, w, c = shape
    a = np.random.default_rng(9).random(shape)
    k = h * w
    tracemalloc.start()
    try:
        neighborhood_pool(a, (3.0, 4.0), math.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= k + (c + 1) * k * np.dtype(float).itemsize + 256 * 1024
