"""The stacked Kalman filter and the table-backed Tracker against the frozen
per-track implementation in tracker_reference.py."""
from dataclasses import replace

import numpy as np
import pytest
import tracker_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import synthsim
from sartrack.assoc import Tracker, TrackerConfig
from sartrack.core import BBox, Detection
from sartrack.motion import Affine2x3, apply_cmc, kf_init, kf_predict, kf_update

_SEED = st.integers(0, 2**32 - 1)


def _measurements(rng, n):
    z = np.empty((n, 4))
    z[:, :2] = rng.uniform(-500.0, 500.0, (n, 2))
    z[:, 2] = rng.uniform(0.2, 5.0, n)
    z[:, 3] = rng.uniform(0.5, 80.0, n)
    return z


def _affine(rng, rotate):
    theta = rng.uniform(-0.2, 0.2) if rotate else 0.0
    c, s = np.cos(theta), np.sin(theta)
    return Affine2x3(np.array([[c, -s, rng.normal(0.0, 3.0)],
                              [s, c, rng.normal(0.0, 3.0)]]))


def _stack(states):
    return np.stack([s.mean for s in states]), np.stack([s.cov for s in states])


def _assert_rows_equal(states, mean, cov):
    assert mean.shape == (len(states), 8) and cov.shape == (len(states), 8, 8)
    for i, s in enumerate(states):
        assert np.array_equal(mean[i], s.mean)
        assert np.array_equal(cov[i], s.cov)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(1, 12), steps=st.integers(1, 15), rotate=st.booleans())
def test_batched_filter_equals_reference_row_by_row(seed, n, steps, rotate):
    """Each stacked call is compared from the same input states, so every
    step checks apply_cmc, kf_predict and kf_update on their own."""
    rng = np.random.default_rng(seed)
    states = [ref.kf_init(z) for z in _measurements(rng, n)]
    for z in _measurements(rng, n):
        mean, cov = kf_init(z)
        s = ref.kf_init(z)
        assert np.array_equal(mean, s.mean) and np.array_equal(cov, s.cov)
    for _ in range(steps):
        m = _affine(rng, rotate)
        want = ref.apply_cmc(states, m)
        _assert_rows_equal(want, *apply_cmc(*_stack(states), m))
        states = want
        want = [ref.kf_predict(s) for s in states]
        _assert_rows_equal(want, *kf_predict(*_stack(states)))
        states = want
        z = np.stack([s.mean[:4] for s in states]) + rng.normal(0.0, 1.0, (n, 4)) * [3, 3, 0.01, 1]
        want = [ref.kf_update(s, zi) for s, zi in zip(states, z)]
        _assert_rows_equal(want, *kf_update(*_stack(states), z))
        states = want


@settings(max_examples=40, deadline=None)
@given(seed=_SEED, n=st.integers(1, 12), rotate=st.booleans())
def test_batch_rows_equal_single_row_calls(seed, n, rotate):
    rng = np.random.default_rng(seed)
    rows = [kf_init(z) for z in _measurements(rng, n)]
    mean, cov = np.stack([m for m, _ in rows]), np.stack([c for _, c in rows])
    mean[:, 4:] = rng.normal(0.0, 2.0, (n, 4)) * [1, 1, 0.01, 0.1]
    z = _measurements(rng, n)
    m = _affine(rng, rotate)
    batch = {"cmc": apply_cmc(mean, cov, m), "predict": kf_predict(mean, cov)}
    batch["update"] = kf_update(*batch["predict"], z)
    for i in range(n):
        one = {"cmc": apply_cmc(mean[i:i + 1], cov[i:i + 1], m),
               "predict": kf_predict(mean[i:i + 1], cov[i:i + 1])}
        one["update"] = kf_update(*one["predict"], z[i:i + 1])
        for k, (b_mean, b_cov) in batch.items():
            assert np.array_equal(b_mean[i], one[k][0][0]), k
            assert np.array_equal(b_cov[i], one[k][1][0]), k


_SCORES = (0.05, 0.1, 0.3, 0.59, 0.6, 0.61, 0.9, 1.0)


def _scene(rng, n_targets, n_frames, n_classes, emb_dim, with_ma, with_cmc):
    """Constant-velocity targets with jitter and dropouts, plus clutter;
    scores straddle tau_low and tau_high. Returns ({frame: detections},
    {frame: Affine2x3 or None})."""
    def unit(v):
        return v / np.linalg.norm(v)

    pos = rng.uniform(0.0, 150.0, (n_targets, 2))
    vel = rng.normal(0.0, 2.0, (n_targets, 2))
    size = rng.uniform(4.0, 12.0, (n_targets, 2))
    cls = rng.integers(0, n_classes, n_targets)
    base = [unit(rng.normal(size=emb_dim)) for _ in range(n_targets)]
    dets, cmc = {}, {}
    for f in range(1, n_frames + 1):
        frame = []
        for k in range(n_targets):
            if rng.random() < 0.15:
                continue
            x, y = pos[k] + vel[k] * f + rng.normal(0.0, 0.3, 2)
            emb = None
            if emb_dim and rng.random() < 0.8:
                emb = unit(base[k] + rng.normal(0.0, 0.2, emb_dim))
            ma = float(rng.random()) if with_ma and rng.random() < 0.7 else None
            frame.append(Detection(f, BBox(x, y, *size[k]), float(rng.choice(_SCORES)),
                                   int(cls[k]), ma, emb))
        for _ in range(rng.poisson(1.0)):
            emb = unit(rng.normal(size=emb_dim)) if emb_dim else None
            box = BBox(*rng.uniform(0.0, 150.0, 2), *rng.uniform(3.0, 10.0, 2))
            frame.append(Detection(f, box, float(rng.choice(_SCORES)),
                                   int(rng.integers(0, n_classes)), None, emb))
        dets[f] = frame
        cmc[f] = (Affine2x3(np.array([[1.0, 0.0, rng.normal()], [0.0, 1.0, rng.normal()]]))
                  if with_cmc else None)
    return dets, cmc


def _assert_trackers_agree(dets, cmc, cfg, use_maa):
    """Step the array tracker and the frozen reference side by side; after
    every frame their emitted lists, live rows, appearance EMAs and Kalman
    state must be equal bit for bit, and so must the final trajectories."""
    new, old = Tracker(cfg, use_maa=use_maa), ref.Tracker(cfg, use_maa=use_maa)
    for f in sorted(dets):
        assert new.step(f, dets[f], cmc[f]) == old.step(f, dets[f], cmc[f])
        # Live rows agree in order, bookkeeping and Kalman state.
        live_old = [t for t in old.tracks if t.lifecycle.value != "removed"]
        assert ([(t.id, t.lifecycle.value, t.hits, t.age_since_update, t.v_ema)
                 for t in new.tracks] ==
                [(t.id, t.lifecycle.value, t.hits, t.age_since_update, t.v_ema)
                 for t in live_old])
        old_mean = np.array([t.kstate.mean for t in live_old]).reshape(-1, 8)
        old_cov = np.array([t.kstate.cov for t in live_old]).reshape(-1, 8, 8)
        assert np.array_equal(new.mean, old_mean) and np.array_equal(new.cov, old_cov)
        # The appearance EMA is the one place where batching could change bits.
        assert new.has_emb.tolist() == [t.ema_embedding is not None for t in live_old]
        for row, t in zip(new.emb, live_old):
            if t.ema_embedding is not None:
                assert np.array_equal(row, t.ema_embedding)
    assert new.trajectories() == old.trajectories()


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n_targets=st.integers(0, 6), n_frames=st.integers(1, 25),
       n_classes=st.integers(1, 3), emb_dim=st.sampled_from((0, 4, 8)),
       with_ma=st.booleans(), with_cmc=st.booleans(), use_maa=st.booleans(),
       n_init=st.integers(1, 3), max_age=st.integers(0, 5))
def test_tracker_equals_reference(seed, n_targets, n_frames, n_classes, emb_dim,
                                  with_ma, with_cmc, use_maa, n_init, max_age):
    rng = np.random.default_rng(seed)
    dets, cmc = _scene(rng, n_targets, n_frames, n_classes, emb_dim, with_ma, with_cmc)
    _assert_trackers_agree(dets, cmc, TrackerConfig(n_init=n_init, max_age=max_age), use_maa)


@pytest.mark.parametrize("use_maa", [True, False])
def test_tracker_equals_reference_on_synth_scene(use_maa):
    """A synthsim scene with 3 classes, flipping embeddings, clutter and a
    drifting camera that CMC compensates."""
    frames = 60
    scene = synthsim.generate_scene(synthsim.ScenarioConfig(
        seed=11, frames=frames, n_moving=12, width=256, height=256, speed_min=1.0,
        speed_max=4.0, appearance_flip_speed=3.0, p_toggle=0.05))
    raw = synthsim.perturb_detections(scene, synthsim.PerturbConfig(
        seed=12, jitter_sigma=0.2, p_fn=0.1, lambda_fp=2.0))
    steps = np.random.default_rng(13).normal(0.0, 1.0, (frames, 2))
    steps[0] = 0.0
    offsets = np.cumsum(steps, axis=0)
    dets, cmc = {}, {}
    for f in range(1, frames + 1):
        dx, dy = offsets[f - 1]
        dets[f] = [replace(d, bbox=BBox(d.bbox.x + dx, d.bbox.y + dy, d.bbox.w, d.bbox.h))
                   for d in raw.get(f, [])]
        cmc[f] = Affine2x3(np.array([[1.0, 0.0, steps[f - 1, 0]], [0.0, 1.0, steps[f - 1, 1]]]))
    assert len({d.class_id for ds in dets.values() for d in ds}) == 3
    assert sum(d.embedding is not None for ds in dets.values() for d in ds) > 0
    _assert_trackers_agree(dets, cmc, TrackerConfig(), use_maa)
