"""The windowed neighborhood pool, the row-blocked Radon transforms, the fixed
fusion and the rectified proposal enhancement against the frozen
implementations in lineops_reference.py, bitwise."""
import math
from unittest import mock

import lineops_reference as ref
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sartrack import lfa, lineops
from sartrack.core import BBox
from sartrack.lfa import LfaConfig, Proposal, enhance_proposal, neighborhood_pool
from sartrack.lineops import gated_fuse, radon_backproject, radon_forward

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


def _same_bits(got, want):
    """Equal shapes, dtypes and bits; unlike _bitwise_equal, NaNs with equal
    bits are equal, since sums of large values can overflow to inf - inf."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def _block_px(draw, h, w):
    """A block of 1 px, of a row count that does not divide h, or at least
    the whole map."""
    ragged = [r for r in range(2, h) if h % r]
    kinds = ["1px", "whole"] + (["ragged"] if ragged else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "1px":
        return 1
    if kind == "ragged":
        return draw(st.sampled_from(ragged)) * w
    return h * w + draw(st.sampled_from([0, 1, 1 << 20]))


@st.composite
def _radon_case(draw, min_side=0):
    """A map, its bin counts and a block size. Up to 256 bins the table is
    uint8; 250-300 also reaches uint16. The forward transform's blocks hold at
    least 4 * n_rho pixels, so small bin counts give it several blocks."""
    h, w = draw(st.integers(min_side, 40)), draw(st.integers(min_side, 40))
    n_angles = draw(st.integers(1, 20))
    n_rho = draw(st.one_of(st.integers(1, 30), st.integers(250, 300)))
    c = draw(st.integers(1, 3))
    return h, w, n_angles, n_rho, c, draw(_block_px(h, w))


@settings(max_examples=300, deadline=None)
@given(_radon_case(), _FILL, _SEED)
def test_radon_forward_equals_whole_map_reference_at_any_block(case, fill, seed):
    h, w, n_angles, n_rho, c, block_px = case
    x = _values(np.random.default_rng(seed), (h, w, c), fill)
    if c == 1 and seed % 2:
        x = x[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref.radon_forward(x, n_angles, n_rho)
        with mock.patch.object(lineops, "_BLOCK_PX", block_px):
            got = radon_forward(x, n_angles, n_rho)
    assert _same_bits(got, want)


@st.composite
def _backproject_case(draw):
    h, w, n_angles, n_rho, c, block_px = draw(_radon_case())
    rng = np.random.default_rng(draw(_SEED))
    y = _values(rng, (n_angles, n_rho, c), draw(_FILL))
    tau = draw(st.one_of(
        st.just(-math.inf), st.just(0.0), st.just(-0.0), st.floats(-3, 3),
        st.sampled_from([float(v) for v in y.ravel()[:5]])))
    if draw(st.booleans()):
        tau = np.array([tau] + [float(v) for v in rng.uniform(-1, 2, c - 1)])
    if c == 1 and draw(st.booleans()):
        y = y[:, :, 0]
    return y, tau, h, w, block_px


@settings(max_examples=300, deadline=None)
@given(_backproject_case())
def test_radon_backproject_equals_all_channel_reference(case):
    y, tau, h, w, block_px = case
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref.radon_backproject(y, tau, h, w)
        with mock.patch.object(lineops, "_BLOCK_PX", block_px):
            got = radon_backproject(y, tau, h, w)
    assert _same_bits(got, want)


@pytest.mark.parametrize("block_px", [1, 25 * 41, 37 * 41])
def test_radon_transforms_equal_references_on_uint16_table_in_row_blocks(block_px):
    """260 bins need a uint16 table; at 1 px the forward's 4 * 260-pixel floor
    gives blocks of 25 rows, which do not divide 37."""
    rng = np.random.default_rng(block_px)
    x = _values(rng, (37, 41, 2), "mixed")
    x[:, :, 1] = -0.0
    with mock.patch.object(lineops, "_BLOCK_PX", block_px), \
            np.errstate(over="ignore", invalid="ignore"):
        y = radon_forward(x, 9, 260)
        assert _same_bits(y, ref.radon_forward(x, 9, 260))
        assert lineops._bin_tables[(37, 41, 9, 260)].dtype == np.uint16
        tau = np.array([0.0, -0.0])
        assert _same_bits(radon_backproject(y, tau, 37, 41),
                          ref.radon_backproject(y, tau, 37, 41))


@settings(max_examples=100, deadline=None)
@given(_radon_case(min_side=1), st.sampled_from(["normal", "-0.0", "zeros"]), _SEED,
       st.one_of(st.none(), st.floats(-3, 3)))
def test_lffm_equals_lffm_through_reference_transforms(case, fill, seed, tau):
    h, w, n_angles, n_rho, c, block_px = case
    x = _values(np.random.default_rng(seed), (h, w, c), fill)
    with mock.patch.object(lineops, "radon_forward", ref.radon_forward), \
            mock.patch.object(lineops, "radon_backproject", ref.radon_backproject):
        want = lineops.lffm(x, n_angles, n_rho, tau)
    with mock.patch.object(lineops, "_BLOCK_PX", block_px):
        got = lineops.lffm(x, n_angles, n_rho, tau)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), _FILL, _FILL, _SEED)
def test_gated_fuse_equals_zero_weight_reference(h, w, c, fill_x, fill_a, seed):
    rng = np.random.default_rng(seed)
    x, a = _values(rng, (h, w, c), fill_x), _values(rng, (h, w, c), fill_a)
    assert _bitwise_equal(gated_fuse(x, a),
                          ref.gated_fuse(x, a, ref.FusionParams.zeros(c)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), _FILL, _SEED,
       st.booleans())
def test_soft_normalize_equals_out_of_place_reference(h, w, c, fill, seed, two_d):
    a = _values(np.random.default_rng(seed), (h, w, c), fill)
    if two_d:
        a = a[:, :, 0]
    assert _bitwise_equal(lineops.soft_normalize(a), ref.soft_normalize(a))


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
