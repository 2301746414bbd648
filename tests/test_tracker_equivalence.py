"""The stacked Kalman filter and the table-backed Tracker against the frozen
per-track implementation in tracker_reference.py."""
import sys
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import tracker_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import assoc, synthsim
from sartrack.assoc import Tracker, TrackerConfig
from sartrack.core import BBox, Detection
from sartrack.motion import (_COL, _ROW, Affine2x3, apply_cmc, cov_to_dense, kf_init,
                             kf_predict, kf_update)

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
    return np.stack([s.mean for s in states]), np.stack([s.cov for s in states])[:, _ROW, _COL]


def _assert_rows_equal(states, mean, cov):
    assert mean.shape == (len(states), 8) and cov.shape == (len(states), 2, 2, 6)
    cov = cov_to_dense(cov)
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
        assert np.array_equal(mean, s.mean) and np.array_equal(cov_to_dense(cov), s.cov)
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


@pytest.mark.parametrize("rotate", [False, True])
def test_filter_state_equals_reference_over_500_rounds(rotate):
    """The stacked filter runs on its own state for 500 CMC -> predict ->
    update rounds of 30 rows, equal to the reference after every round. A
    per-axis filter that sums in another order drifts from the second
    round. With `rotate`, half the rows are rotated every round, so rows
    with and without cross terms share each predict and update."""
    rng = np.random.default_rng(21)
    z = _measurements(rng, 30)
    states = [ref.kf_init(zi) for zi in z]
    mean, cov = map(np.stack, zip(*map(kf_init, z)))
    for _ in range(500):
        m_rot, m_shift = _affine(rng, rotate), _affine(rng, False)
        states = ref.apply_cmc(states[:15], m_rot) + ref.apply_cmc(states[15:], m_shift)
        mean, cov = map(np.concatenate, zip(apply_cmc(mean[:15], cov[:15], m_rot),
                                            apply_cmc(mean[15:], cov[15:], m_shift)))
        states = [ref.kf_predict(s) for s in states]
        mean, cov = kf_predict(mean, cov)
        z = np.stack([s.mean[:4] for s in states]) + rng.normal(0.0, 1.0, (30, 4)) * [3, 3, 0.01, 1]
        states = [ref.kf_update(s, zi) for s, zi in zip(states, z)]
        mean, cov = kf_update(mean, cov, z)
        _assert_rows_equal(states, mean, cov)
    assert cov[:15, ..., 4:].any(axis=(1, 2, 3)).all() == rotate
    assert not cov[15:, ..., 4:].any()


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
    scores straddle tau_low and tau_high. With `with_cmc`, every frame's
    camera motion is a translation, rotated by up to 0.2 rad on about a
    third of the frames. Returns ({frame: detections}, {frame: Affine2x3 or
    None})."""
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
        cmc[f] = None
        if with_cmc:
            theta = rng.uniform(-0.2, 0.2) if rng.random() < 0.3 else 0.0
            c, s = np.cos(theta), np.sin(theta)
            cmc[f] = Affine2x3(np.array([[c, -s, rng.normal()], [s, c, rng.normal()]]))
    return dets, cmc


def _assert_trackers_agree(dets, cmc, cfg, use_maa):
    """Step the array tracker and the frozen reference side by side; after
    every frame their emitted lists, live rows, appearance EMAs and Kalman
    state must be equal bit for bit, and so must the final trajectories.
    The reference's `use_maa=False` is the array tracker at `tau_v = 0`.
    Returns the number of frames whose Kalman stack held both rows with
    cross terms and rows without."""
    new = Tracker(cfg if use_maa else replace(cfg, tau_v=0.0))
    old = ref.Tracker(cfg, use_maa=use_maa)
    mixed_stacks = 0
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
        assert np.array_equal(new.mean, old_mean)
        assert np.array_equal(cov_to_dense(new.cov), old_cov)
        coupled = new.cov[..., 4:].any(axis=(1, 2, 3))
        mixed_stacks += bool(coupled.any() and not coupled.all())
        # The appearance EMA is the one place where batching could change bits.
        assert new.has_emb.tolist() == [t.ema_embedding is not None for t in live_old]
        for row, t in zip(new.emb, live_old):
            if t.ema_embedding is not None:
                assert np.array_equal(row, t.ema_embedding)
    assert new.trajectories() == old.trajectories()
    return mixed_stacks


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


def test_tracker_equals_reference_with_rotated_cmc():
    """Tracks alive at a rotated camera motion carry cross terms from then
    on, while tracks spawned later have none; both share one stack."""
    rng = np.random.default_rng(4)
    dets, cmc = _scene(rng, 6, 25, 2, 4, True, True)
    assert _assert_trackers_agree(dets, cmc, TrackerConfig(n_init=2, max_age=3), True) > 0


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


def _look_scene(rng, n_targets, n_frames, emb_dim, n_classes):
    """Slow targets whose looks come and go by frame: each frame has no
    look, looks on its low-score detections only, or looks on a random
    share of its detections. Tracks spawned without a look later meet
    detections with one, so the motion gate alone decides whether they take
    it. Returns ({frame: detections}, {frame: None})."""
    def unit(v):
        return v / np.linalg.norm(v)

    pos = rng.uniform(0.0, 100.0, (n_targets, 2))
    vel = rng.normal(0.0, 1.0, (n_targets, 2))
    size = rng.uniform(4.0, 12.0, (n_targets, 2))
    cls = rng.integers(0, n_classes, n_targets)
    base = [unit(rng.normal(size=emb_dim)) for _ in range(n_targets)]
    dets = {}
    for f in range(1, n_frames + 1):
        mode = rng.choice(("none", "low", "some"))
        frame = []
        for k in range(n_targets):
            if rng.random() < 0.1:
                continue
            score = float(rng.choice(_SCORES))
            looks = score < 0.6 if mode == "low" else mode == "some" and rng.random() < 0.6
            emb = unit(base[k] + rng.normal(0.0, 0.2, emb_dim)) if looks else None
            ma = float(rng.uniform(0.0, 0.6)) if rng.random() < 0.7 else None
            x, y = pos[k] + vel[k] * f + rng.normal(0.0, 0.3, 2)
            frame.append(Detection(f, BBox(x, y, *size[k]), score, int(cls[k]), ma, emb))
        dets[f] = frame
    return dets, dict.fromkeys(dets)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n_targets=st.integers(1, 6), n_frames=st.integers(1, 25),
       emb_dim=st.sampled_from((2, 4)), n_classes=st.integers(1, 2),
       tau_v=st.sampled_from((TrackerConfig().tau_v, 0.0)), n_init=st.integers(1, 3))
def test_tracker_equals_reference_as_looks_come_and_go(seed, n_targets, n_frames, emb_dim,
                                                       n_classes, tau_v, n_init):
    rng = np.random.default_rng(seed)
    dets, cmc = _look_scene(rng, n_targets, n_frames, emb_dim, n_classes)
    _assert_trackers_agree(dets, cmc, TrackerConfig(n_init=n_init, tau_v=tau_v), True)


@pytest.mark.parametrize("tau_v", [TrackerConfig().tau_v, 0.0])
def test_tracker_equals_reference_on_a_scene_of_every_look_pattern(tau_v):
    """One fixed scene holds look-free frames, frames whose only looks are
    on low-score detections, and frames with high-score looks. Tracks
    spawned without a look take their first one only while the gate stays
    shut, so never at tau_v = 0."""
    dets, cmc = _look_scene(np.random.default_rng(8), 6, 40, 4, 2)
    patterns = {(any(d.embedding is not None for d in ds if d.score >= 0.6),
                 any(d.embedding is not None for d in ds if d.score < 0.6))
                for ds in dets.values()}
    assert {(False, False), (False, True), (True, True)} <= patterns
    cfg = TrackerConfig(tau_v=tau_v)
    tracker, first_looks = Tracker(cfg), 0
    for f in sorted(dets):
        lookless = set(tracker.ids[~tracker.has_emb].tolist())
        tracker.step(f, dets[f], cmc[f])
        first_looks += len(lookless & set(tracker.ids[tracker.has_emb].tolist()))
    assert (first_looks > 0) == (tau_v > 0)
    _assert_trackers_agree(dets, cmc, cfg, True)


def _returned_locals(run):
    """Call `run()`; returns (name, locals) of each `Tracker.step` and nested
    `assign` frame of sartrack.assoc as it returned, in order, with a copy
    of the tracker's class column then as "cls"."""
    seen = []

    def at_return(frame, event, arg):
        if event == "return":
            v = dict(frame.f_locals)
            seen.append((frame.f_code.co_name, {**v, "cls": v["self"].cls.copy()}))
        return at_return

    def at_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename == assoc.__file__ and code.co_name in ("step", "assign"):
            return at_return
        return None

    outer = sys.gettrace()
    sys.settrace(at_call)
    try:
        run()
    finally:
        sys.settrace(outer)
    return seen


def _paths(seen):
    """Count the fast paths of `Tracker.step` and their fallbacks that the
    traced frames took, checking each against the state that chose it."""
    paths = Counter()
    for name, v in seen:
        if name == "assign":
            if "cross" in v:
                paths["class mask, pairs forbidden"] += bool(v["cross"].any())
                paths["class mask, one-class detections"] += len(set(v["d_cls"].tolist())) == 1
            else:  # skipped only when the detections and live rows share one class
                paths["one class, no mask"] += 1
                assert len({*v["d_cls"].tolist(), *v["cls"].tolist()}) == 1
            continue
        pairs, matched, gates = v["pairs"], v["matched"], v["gates"]
        assert ("idle" in v) == (not matched.all())
        paths["idle rows aged" if "idle" in v else
              "all rows matched, no aging" if len(matched) else "no row"] += 1
        stages = len(pairs) - 1  # pairs[0] is the empty triple
        assert any(gates is p[2] for p in pairs) == (stages == 1)
        paths[("no stage", "one stage as it is")[stages] if stages < 2 else "stages joined"] += 1
        if not len(v["block"]):
            paths["empty frame, live rows" if len(matched) else "empty frame, no rows"] += 1
    return paths


def test_tracker_fast_paths_and_fallbacks_equal_reference():
    """One-class and mixed-class frames, one-class frames with live rows of
    another class, frames where every live row matched and frames with idle
    rows, one matching stage and several, and empty frames with and without
    live rows: each is taken, seen in the traced locals of `step` and
    `assign`, and equal to the reference."""
    scenes = []
    for seed, n_classes in ((5, 1), (6, 3)):
        dets, cmc = _scene(np.random.default_rng(seed), 6, 30, n_classes, 4, True, True)
        for f in (1, 12, 13, 20):
            dets[f] = []
        scenes.append((dets, cmc))
    # Each frame has one class, but the class switches under a live track.
    switch = {f: [Detection(f, BBox(10.0 + f, 10.0, 8.0, 8.0), 0.9, int(f > 3), None, None)]
              for f in range(1, 8)}
    scenes.append((switch, dict.fromkeys(switch)))
    paths = Counter()
    for dets, cmc in scenes:
        for cfg in (TrackerConfig(), TrackerConfig(n_init=1, max_age=1)):
            paths += _paths(_returned_locals(partial(_assert_trackers_agree, dets, cmc, cfg,
                                                     True)))
    for path in ("class mask, pairs forbidden", "class mask, one-class detections",
                 "one class, no mask", "all rows matched, no aging", "idle rows aged",
                 "one stage as it is", "stages joined", "empty frame, live rows",
                 "empty frame, no rows"):
        assert paths[path] > 0, path
