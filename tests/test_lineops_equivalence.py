"""The windowed neighborhood pool, the per-channel back-projection, the fixed
fusion and the rectified proposal enhancement against the frozen
implementations in lineops_reference.py, bitwise."""
import math
from unittest import mock

import lineops_reference as ref
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sartrack import lfa
from sartrack.core import BBox
from sartrack.lfa import LfaConfig, Proposal, enhance_proposal, neighborhood_pool
from sartrack.lineops import gated_fuse, radon_backproject

_SEED = st.integers(0, 2**32 - 1)


def _bitwise_equal(got, want):
    """Equal values with equal bits, so 0.0 and -0.0 differ."""
    return (np.array_equal(got, want) and got.shape == want.shape
            and got.dtype == want.dtype and got.tobytes() == want.tobytes())


@st.composite
def _coord(draw, n):
    """A center coordinate on [0, n): edges, integers, half-pixels or any float."""
    return draw(st.one_of(
        st.sampled_from([0.0, n - 1.0, n - 0.5, float(np.nextafter(n, 0))]),
        st.integers(0, n - 1).map(float),
        st.integers(0, n - 1).map(lambda i: i + 0.5),
        st.floats(0, n, exclude_max=True)))


@st.composite
def _pool_case(draw):
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    c = draw(st.integers(1, 3))
    cx, cy = draw(_coord(w)), draw(_coord(h))
    diag = math.hypot(h, w)
    px, py = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    radius = draw(st.one_of(
        st.just(0.0),
        st.floats(0, diag, exclude_min=True),
        st.integers(0, 2 * max(h, w)).map(float),
        st.floats(diag, 1e12),
        st.just(math.inf),
        # A pixel exactly on the disk's rim.
        st.just(math.hypot(px - cx, py - cy))))
    a = np.random.default_rng(draw(_SEED)).random((h, w, c))
    if c == 1 and draw(st.booleans()):
        a = a[:, :, 0]
    return a, (cx, cy), radius


@settings(max_examples=400, deadline=None)
@given(_pool_case())
def test_neighborhood_pool_equals_full_map_reference(case):
    a, center, radius = case
    assert _bitwise_equal(neighborhood_pool(a, center, radius),
                          ref.neighborhood_pool(a, center, radius))


@st.composite
def _backproject_case(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    # Up to 256 bins the table is uint8; 250-300 also reaches uint16.
    n_angles = draw(st.integers(1, 20))
    n_rho = draw(st.one_of(st.integers(1, 30), st.integers(250, 300)))
    c = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(_SEED))
    y = rng.standard_normal((n_angles, n_rho, c))
    y[rng.random(y.shape) < 0.2] = 0.0
    y[rng.random(y.shape) < 0.05] = -0.0
    per_channel = draw(st.booleans())
    tau = draw(st.one_of(
        st.just(-math.inf), st.just(0.0), st.floats(-3, 3),
        st.sampled_from([float(v) for v in y.ravel()[:5]])))
    if per_channel:
        tau = np.array([tau] + [float(v) for v in rng.uniform(-1, 2, c - 1)])
    if c == 1 and draw(st.booleans()):
        y = y[:, :, 0]
    return y, tau, h, w


@settings(max_examples=200, deadline=None)
@given(_backproject_case())
def test_radon_backproject_equals_all_channel_reference(case):
    y, tau, h, w = case
    assert _bitwise_equal(radon_backproject(y, tau, h, w),
                          ref.radon_backproject(y, tau, h, w))


def _values(rng, shape, fill):
    """Random finite values of one kind: normal, all -0.0, signed zeros, or a
    mix of normal values, signed zeros and large magnitudes."""
    if fill == "-0.0":
        return np.full(shape, -0.0)
    if fill == "zeros":
        return np.where(rng.random(shape) < 0.5, 0.0, -0.0)
    v = rng.standard_normal(shape)
    if fill == "mixed":
        v[rng.random(shape) < 0.2] = 0.0
        v[rng.random(shape) < 0.2] = -0.0
        v[rng.random(shape) < 0.1] *= 1e300
    return v


_FILL = st.sampled_from(["normal", "-0.0", "zeros", "mixed"])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), _FILL, _FILL, _SEED)
def test_gated_fuse_equals_zero_weight_reference(h, w, c, fill_x, fill_a, seed):
    rng = np.random.default_rng(seed)
    x, a = _values(rng, (h, w, c), fill_x), _values(rng, (h, w, c), fill_a)
    assert _bitwise_equal(gated_fuse(x, a),
                          ref.gated_fuse(x, a, ref.FusionParams.zeros(c)))


@st.composite
def _enhance_case(draw):
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    c = draw(st.integers(1, 3))
    k = draw(st.sampled_from([max(1, c - 1), c, c + 1, c + 3]))
    rng = np.random.default_rng(draw(_SEED))
    a = _values(rng, (h, w, c), draw(_FILL))
    feature = _values(rng, k, draw(_FILL))
    bw, bh = draw(st.floats(0.5, 4)), draw(st.floats(0.5, 4))
    cx, cy = draw(_coord(w)), draw(_coord(h))
    bbox = BBox(cx - bw / 2, cy - bh / 2, bw, bh)
    # x + w / 2 can round back up to the map's edge.
    assume(0 <= bbox.center()[0] < w and 0 <= bbox.center()[1] < h)
    cfg = LfaConfig(image_w=float(w), image_h=float(h),
                    lambda_max=draw(st.floats(0.01, 1.5)))
    return Proposal(bbox, feature, draw(st.floats(0, 1))), a, cfg


@settings(max_examples=300, deadline=None)
@given(_enhance_case())
def test_enhance_proposal_equals_passthrough_reference(case):
    p, a, cfg = case
    assert _bitwise_equal(enhance_proposal(p, a, cfg).feature,
                          ref.enhance_proposal(p, a, cfg).feature)


@settings(max_examples=200, deadline=None)
@given(_enhance_case(), st.integers(1, 4), _FILL, _SEED)
def test_enhance_proposal_equals_reference_on_any_pooled_vector(case, c, fill, seed):
    """A pooled mean is never -0.0, so this feeds both sides pooled vectors
    directly, -0.0 included."""
    p, a, cfg = case
    pooled = _values(np.random.default_rng(seed), c, fill)
    with mock.patch.object(lfa, "neighborhood_pool", lambda *args: pooled.copy()):
        assert _bitwise_equal(enhance_proposal(p, a, cfg).feature,
                              ref.enhance_proposal(p, a, cfg).feature)


@settings(max_examples=200, deadline=None)
@given(_enhance_case(), st.sampled_from([math.inf, -math.inf, math.nan]), st.data())
def test_enhance_proposal_non_finite_pool_raises_like_reference(case, bad, data):
    p, a, cfg = case
    channel = data.draw(st.integers(0, a.shape[2] - 1))
    cx, cy = p.bbox.center()
    # The pixel nearest the center is always pooled.
    a[min(a.shape[0] - 1, round(cy)), min(a.shape[1] - 1, round(cx)), channel] = bad
    with pytest.raises(ValueError, match="non-finite"):
        enhance_proposal(p, a, cfg)
    # The reference's 0 * inf in its identity matmul warns before it raises.
    with np.errstate(invalid="ignore"):
        if p.feature.size == 1 and channel == 0 and bad == -math.inf:
            # The reference's one output row reads channel 0 alone, and
            # max(-inf, 0) = 0 leaves the feature as it was, where
            # enhance_proposal raises.
            assert _bitwise_equal(ref.enhance_proposal(p, a, cfg).feature, p.feature + 0.0)
        else:
            with pytest.raises(ValueError, match="non-finite"):
                ref.enhance_proposal(p, a, cfg)
