"""The box conversions and the stacked Kalman kernels against their frozen
copies in kalman_reference.py, byte for byte, on uncoupled stacks, stacks
coupled by a rotated camera motion, stacks whose cross-term planes hold
signed zeros, asymmetric covariances, clamped rows and read-only or strided
inputs."""
import kalman_reference as ref
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack.motion import (Affine2x3, apply_cmc, boxes_to_measurements, kf_init,
                             kf_predict, kf_update, means_to_boxes)

_CLAMPED = (0.0, -0.0, 1e-9, 1e-6, -3.0)


def _stacks(rng, n, coupling, asymmetric, clamp):
    """(N, 8) means, (N, 2, 2, 6) covariances and (N, 4) measurements. Each
    covariance has run a few predict and update rounds from kf_init."""
    z = np.empty((n, 4))
    z[:, :2] = rng.uniform(-500.0, 500.0, (n, 2))
    z[:, 2] = rng.uniform(0.2, 5.0, n)
    z[:, 3] = rng.uniform(0.5, 80.0, n)
    mean, cov = np.zeros((n, 8)), np.zeros((n, 2, 2, 6))
    for i, zi in enumerate(z):
        mean[i], cov[i] = kf_init(zi)
    mean[:, 4:] = rng.normal(0.0, 2.0, (n, 4)) * [1, 1, 0.01, 0.1]
    for _ in range(rng.integers(0, 3)):
        mean, cov = ref.kf_predict(mean, cov)
        mean, cov = ref.kf_update(mean, cov, z + rng.normal(0.0, 1.0, (n, 4)) * [3, 3, 0.01, 1])
    if coupling == "rotated":  # a random share of the rows turned by the camera
        theta = rng.uniform(-0.2, 0.2)
        c, s = np.cos(theta), np.sin(theta)
        turned = rng.random(n) < 0.6
        m = Affine2x3(np.array([[c, -s, 1.0], [s, c, -2.0]]))
        mean[turned], cov[turned] = apply_cmc(mean[turned], cov[turned], m)
    elif coupling == "signed-zero":
        cov[..., 4:] = rng.choice((0.0, -0.0), cov[..., 4:].shape)
    if asymmetric:
        cov[:, 0, 1] *= 1.0 + rng.uniform(-0.3, 0.3, (n, 6))
        cov[:, 1, 0] *= 1.0 + rng.uniform(-0.3, 0.3, (n, 6))
    if clamp:
        rows = rng.random(n) < 0.5
        mean[rows, 2] = rng.choice(_CLAMPED, rows.sum())
        mean[rows, 3] = rng.choice(_CLAMPED, rows.sum())
    return mean, cov, z


def _laid_out(a, layout):
    """`a` as a read-only array, a strided view, or as it is."""
    if layout == "strided":
        big = np.full((2 * len(a), *a.shape[1:]), np.nan)
        big[::2] = a
        return big[::2]
    a = a.copy()
    if layout == "read-only":
        a.flags.writeable = False
    return a


def _same(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((0, 1, 7, 50)),
       coupling=st.sampled_from(("none", "rotated", "signed-zero")),
       asymmetric=st.booleans(), clamp=st.booleans(),
       layout=st.sampled_from(("contiguous", "read-only", "strided")))
def test_kernels_equal_frozen_copies_byte_for_byte(seed, n, coupling, asymmetric, clamp,
                                                   layout):
    rng = np.random.default_rng(seed)
    mean, cov, z = _stacks(rng, n, coupling, asymmetric, clamp)
    boxes = ref.means_to_boxes(mean)
    mean, cov, z, boxes = (_laid_out(a, layout) for a in (mean, cov, z, boxes))
    before = [a.tobytes() for a in (mean, cov, z, boxes)]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _same(boxes_to_measurements(boxes), ref.boxes_to_measurements(boxes))
        assert _same(means_to_boxes(mean), ref.means_to_boxes(mean))
        for got, want in zip(kf_predict(mean, cov), ref.kf_predict(mean, cov)):
            assert _same(got, want)
        for got, want in zip(kf_update(mean, cov, z), ref.kf_update(mean, cov, z)):
            assert _same(got, want)
    assert [a.tobytes() for a in (mean, cov, z, boxes)] == before


def test_signed_zero_cross_planes_take_the_gather():
    """Planes 4 and 5 holding -0.0 and +0.0 at transposed places sum to +0.0
    through the transpose's plane swap, and to -0.0 without it."""
    mean, cov = (a[None] for a in kf_init((10.0, 20.0, 1.0, 30.0)))
    cov[0, 1, 1, 4], cov[0, 1, 1, 5] = -0.0, 0.0
    for got, want in zip(kf_predict(mean, cov), ref.kf_predict(mean, cov)):
        assert _same(got, want)
    assert not np.signbit(kf_predict(mean, cov)[1][0, 1, 1, 4:]).any()
