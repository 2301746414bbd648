"""The windowed neighborhood pool and the per-channel back-projection against
the frozen full-map implementations in lineops_reference.py, bitwise."""
import math

import lineops_reference as ref
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack.lfa import neighborhood_pool
from sartrack.lineops import radon_backproject

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
