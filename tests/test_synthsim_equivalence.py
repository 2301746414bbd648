"""The three-pass scene generator and the one-loop detection perturbation
against the frozen versions in synthsim_reference.py, bit for bit."""
import dataclasses

import synthsim_reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sartrack.synthsim import PerturbConfig, ScenarioConfig, generate_scene, perturb_detections


def _either(corner, lo, hi):
    """A corner value or any float in [lo, hi]."""
    return st.one_of(st.just(corner), st.floats(lo, hi))


@st.composite
def _config(draw):
    size_min = draw(_either(8.0, 1.0, 10.0))
    size_max = size_min + draw(_either(0.0, 0.0, 8.0))
    side = st.integers(int(2 * size_max) + 1, 64)
    speed_min = draw(_either(0.0, 0.0, 6.0))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        frames=draw(st.one_of(st.just(1), st.integers(1, 12))),
        width=draw(side), height=draw(side),
        n_moving=draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 40))),
        n_static_occluders=draw(st.integers(0, 4)),
        speed_min=speed_min,
        # Up to 40 px per frame on a canvas of at most 64: targets bounce.
        speed_max=speed_min + draw(_either(0.0, 0.0, 34.0)),
        size_min=size_min, size_max=size_max,
        streak_gain=draw(_either(0.0, 0.0, 4.0)),
        noise_amplitude=draw(_either(0.0, 0.0, 2.0)),
        appearance_flip_speed=draw(st.floats(0.0, 10.0)),
        p_toggle=draw(st.one_of(st.sampled_from([0.0, 0.3, 1.0]), st.floats(0.0, 1.0))))


def _bits(d):
    """A Detection's fields, each with its type, and every float by its bits,
    so -0.0 is not 0.0."""
    b = d.bbox
    return (d.frame, type(d.frame), d.class_id, type(d.class_id),
            *((type(v), float.hex(v)) for v in (b.x, b.y, b.w, b.h, d.score, d.motion_awareness)))


def _assert_scenes_equal(got, want):
    assert len(got.frames) == len(want.frames)
    for a, b in zip(got.frames, want.frames):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert got.gt == want.gt
    assert got.embeddings.keys() == want.embeddings.keys()
    for k, b in want.embeddings.items():
        a = got.embeddings[k]
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), k
    assert got.velocities == want.velocities
    assert all(type(v) is float for v in got.velocities.values())
    assert got.classes == want.classes
    assert got.canvas == want.canvas


@settings(max_examples=150, deadline=None)
@given(_config())
@example(ScenarioConfig(seed=3, n_moving=0))
@example(ScenarioConfig(seed=4, frames=1, n_moving=1))
@example(ScenarioConfig(seed=5, n_moving=2, speed_min=0.0, speed_max=0.0))
@example(ScenarioConfig(seed=6, frames=30, n_moving=40, width=40, height=40, size_max=12,
                        size_min=4, speed_min=10.0, speed_max=30.0, p_toggle=0.3))
@example(ScenarioConfig(seed=7, n_static_occluders=0, noise_amplitude=0.0, streak_gain=0.0))
# Sub-pixel targets: one-sample streaks, and centres that round onto row H
# (two of them with a streak inside the canvas's columns).
@example(ScenarioConfig(seed=0, frames=8, n_moving=10, width=8, height=8, size_min=0.25,
                        size_max=0.75))
# Targets faster than the canvas is wide: streaks run past its left and right edges.
@example(ScenarioConfig(seed=9, frames=6, n_moving=12, width=48, height=48, size_min=4.0,
                        size_max=12.0, speed_min=10.0, speed_max=60.0, streak_gain=0.5))
# Moving targets without streaks.
@example(ScenarioConfig(seed=11, frames=6, n_moving=8, width=48, height=48, speed_max=20.0,
                        size_min=4.0, size_max=12.0, streak_gain=0.0))
# Every target toggles on its one later frame; on a single frame none draws a toggle.
@example(ScenarioConfig(seed=12, frames=2, n_moving=4, p_toggle=1.0))
@example(ScenarioConfig(seed=13, frames=1, n_moving=4, p_toggle=0.5))
def test_generate_scene_matches_frozen_reference(cfg):
    _assert_scenes_equal(generate_scene(cfg), ref.generate_scene(cfg))


@st.composite
def _scene_and_perturbation(draw):
    """A scene with at least one target, so every frame holds a ground-truth
    box and the frozen version walks the same frames, and a perturbation
    whose clutter fits the canvas."""
    cfg = draw(_config())
    cfg = dataclasses.replace(cfg, n_moving=max(cfg.n_moving, 1))
    clutter_cap = min(24.0, cfg.width, cfg.height)
    clutter_min = draw(st.floats(1.0, min(6.0, clutter_cap)))
    return cfg, PerturbConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        jitter_sigma=draw(_either(0.0, 0.01, 0.5)),
        p_fn=draw(st.sampled_from([0.0, 0.3, 1.0])),
        lambda_fp=draw(_either(0.0, 0.1, 4.0)),
        clutter_size_min=clutter_min,
        clutter_size_max=draw(st.floats(clutter_min, clutter_cap)))


@settings(max_examples=150, deadline=None)
@given(_scene_and_perturbation())
@example((ScenarioConfig(seed=2, frames=10, n_moving=1), PerturbConfig(seed=0, lambda_fp=3.0)))
@example((ScenarioConfig(seed=3, frames=20, n_moving=5),
          PerturbConfig(seed=1, jitter_sigma=0.2, p_fn=0.3, lambda_fp=2.0)))
# Sides up to about e**9 times their own, centres moved by up to 9 px.
@example((ScenarioConfig(seed=4, frames=10, n_moving=5),
          PerturbConfig(seed=2, jitter_sigma=3.0, lambda_fp=1.0)))
def test_perturb_detections_matches_frozen_reference(case):
    cfg, pert = case
    scene = generate_scene(cfg)
    got, want = perturb_detections(scene, pert), ref.perturb_detections(scene, pert)
    assert list(got) == list(want)
    for f, dets in want.items():
        assert len(got[f]) == len(dets), f
        for a, b in zip(got[f], dets):
            assert _bits(a) == _bits(b), f
            ea, eb = a.embedding, b.embedding
            assert (ea.shape, ea.dtype, ea.tobytes()) == (eb.shape, eb.dtype, eb.tobytes()), f
