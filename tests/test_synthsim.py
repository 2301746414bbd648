import numpy as np
import pytest

from sartrack.io import load_config
from sartrack.synthsim import (PerturbConfig, ScenarioConfig, SHADOW_VALUE,
                               STREAK_VALUE, generate_scene, perturb_detections)


def test_empty_scene_static_only():
    cfg = ScenarioConfig(seed=1, frames=5, n_moving=0, n_static_occluders=2,
                         noise_amplitude=0.0)
    scene = generate_scene(cfg)
    assert len(scene.gt) == 0
    for f in scene.frames:
        vals = set(np.unique(f))
        assert vals == {0.0, SHADOW_VALUE}
    # occluders are static: frames are identical
    np.testing.assert_array_equal(scene.frames[0], scene.frames[-1])


def test_zero_speed_no_streak_no_flip():
    cfg = ScenarioConfig(seed=2, frames=6, n_moving=1, n_static_occluders=0,
                         speed_min=0.0, speed_max=0.0, noise_amplitude=0.0)
    scene = generate_scene(cfg)
    for f in scene.frames:
        assert STREAK_VALUE not in f
    embs = [scene.embeddings[(1, fr)] for fr in range(1, 7)]
    for e in embs[1:]:
        np.testing.assert_array_equal(e, embs[0])


def test_streak_offset_matches_gain_times_speed():
    cfg = ScenarioConfig(seed=3, frames=8, width=200, height=200, n_moving=1,
                         n_static_occluders=0, speed_min=5.0, speed_max=5.0,
                         streak_gain=2.0, noise_amplitude=0.0)
    scene = generate_scene(cfg)
    by_frame = scene.gt.boxes_by_frame()
    for fi, img in enumerate(scene.frames, start=1):
        plane = img[:, :, 0]
        ys, xs = np.nonzero(plane == STREAK_VALUE)
        assert xs.size > 0
        streak_cx = xs.mean()
        (_, b), = by_frame[fi]
        assert abs((streak_cx - b.cx)) == pytest.approx(10.0, abs=0.5)


def test_determinism_bitwise():
    cfg = ScenarioConfig(seed=11, frames=6, n_moving=4, noise_amplitude=0.4)
    s1 = generate_scene(cfg)
    s2 = generate_scene(cfg)
    for a, b in zip(s1.frames, s2.frames):
        np.testing.assert_array_equal(a, b)
    assert s1.gt == s2.gt
    d1 = perturb_detections(s1, PerturbConfig(seed=5, jitter_sigma=0.1, p_fn=0.1, lambda_fp=2))
    d2 = perturb_detections(s2, PerturbConfig(seed=5, jitter_sigma=0.1, p_fn=0.1, lambda_fp=2))
    assert sorted(d1) == sorted(d2)
    for f in d1:
        assert len(d1[f]) == len(d2[f])
        for a, b in zip(d1[f], d2[f]):
            assert a.bbox == b.bbox and a.score == b.score


def test_embedding_flip_exactly_on_fast_frames():
    cfg = ScenarioConfig(seed=7, frames=40, n_moving=3, speed_min=2.0,
                         speed_max=3.0, appearance_flip_speed=1.0, p_toggle=0.2,
                         noise_amplitude=0.0)
    scene = generate_scene(cfg)
    by_id = scene.gt.by_id()
    dim = len(scene.embeddings[(1, 1)])
    for tid, seq in by_id.items():
        base = np.zeros(dim)
        base[(tid - 1) % dim] = 1.0
        frames = sorted(seq)
        for f in frames[1:]:
            prev_c = seq[f - 1].center()
            cur_c = seq[f].center()
            speed = float(np.hypot(cur_c[0] - prev_c[0], cur_c[1] - prev_c[1]))
            flipped = not np.array_equal(scene.embeddings[(tid, f)], base)
            assert flipped == (speed > cfg.appearance_flip_speed + 1e-9)
    # alternates are orthogonal to bases
    for tid in by_id:
        vecs = {tuple(scene.embeddings[(tid, f)]) for f in sorted(by_id[tid])}
        vecs = [np.array(v) for v in vecs]
        if len(vecs) == 2:
            assert abs(float(vecs[0] @ vecs[1])) < 1e-12


def test_gt_continuity_constant_velocity():
    cfg = ScenarioConfig(seed=9, frames=10, width=400, height=400, n_moving=2,
                         speed_min=3.0, speed_max=3.0, noise_amplitude=0.0)
    scene = generate_scene(cfg)
    for tid, seq in scene.gt.by_id().items():
        frames = sorted(seq)
        for f1, f2 in zip(frames, frames[1:]):
            c1, c2 = seq[f1].center(), seq[f2].center()
            step = float(np.hypot(c2[0] - c1[0], c2[1] - c1[1]))
            assert step == pytest.approx(3.0, abs=1e-9)


def test_velocities_normalized():
    cfg = ScenarioConfig(seed=10, frames=10, n_moving=3)
    scene = generate_scene(cfg)
    vals = list(scene.velocities.values())
    assert max(vals) == pytest.approx(1.0)
    assert min(vals) >= 0.0


def test_perturb_identity():
    cfg = ScenarioConfig(seed=4, frames=5, n_moving=3)
    scene = generate_scene(cfg)
    dets = perturb_detections(scene, PerturbConfig(seed=0))
    by_frame = scene.gt.boxes_by_frame()
    for f, ds in dets.items():
        gt_boxes = [b for _, b in by_frame[f]]
        assert [d.bbox for d in ds] == gt_boxes
        assert all(0.6 <= d.score <= 1.0 for d in ds)
        assert all(d.embedding is not None for d in ds)


def test_perturb_drop_all():
    cfg = ScenarioConfig(seed=4, frames=5, n_moving=3)
    scene = generate_scene(cfg)
    dets = perturb_detections(scene, PerturbConfig(seed=0, p_fn=1.0))
    assert all(len(ds) == 0 for ds in dets.values())


def test_perturb_clutter_rate():
    cfg = ScenarioConfig(seed=4, frames=100, n_moving=1)
    scene = generate_scene(cfg)
    dets = perturb_detections(scene, PerturbConfig(seed=1, p_fn=1.0, lambda_fp=3.0))
    total = sum(len(ds) for ds in dets.values())
    # Poisson(300): 3 sigma is ~52
    assert abs(total - 300) < 3 * np.sqrt(300)
    for ds in dets.values():
        for d in ds:
            assert 0.1 <= d.score <= 0.7
            assert d.motion_awareness == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(frames=0)
    with pytest.raises(ValueError):
        ScenarioConfig(speed_min=3, speed_max=2)
    with pytest.raises(ValueError):
        PerturbConfig(p_fn=1.5)
    for bad in ({"width": 30}, {"height": 39}, {"size_min": 0}, {"size_min": -1},
                {"p_toggle": 1.5}, {"p_toggle": -0.1}, {"seed": -1}):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad)
    assert ScenarioConfig(width=40, height=40, p_toggle=1.0).width == 40
    for bad in ({"clutter_size_min": 0}, {"clutter_size_min": -2},
                {"clutter_size_min": 30}, {"seed": -1}):
        with pytest.raises(ValueError):
            PerturbConfig(**bad)
    assert PerturbConfig(clutter_size_min=24).clutter_size_min == 24


def test_load_config_gives_each_class_its_keys(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("frames = 7\nspeed_max = 6\np_fn = 0.1\nseed = 3\n")
    cfg, pc = load_config(path, ScenarioConfig, PerturbConfig)
    assert cfg.frames == 7 and cfg.speed_max == 6.0
    assert pc.p_fn == 0.1
    assert cfg.seed == pc.seed == 3
