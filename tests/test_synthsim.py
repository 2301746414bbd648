import math
import re
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
import synthsim_reference as ref

from sartrack import synthsim
from sartrack.io import load_config
from sartrack.synthsim import (PerturbConfig, ScenarioConfig, SHADOW_VALUE,
                               STREAK_VALUE, _draw_segment, _paint_streaks, generate_scene,
                               perturb_detections)


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


def test_streaks_are_sampled_as_draw_segment_samples_them():
    """Streak samples follow np.linspace: the last one is x1 itself, where
    (n - 1) * step + x0 rounds to a neighbouring pixel (the first three
    pairs), and a streak under one pixel long is x0 alone."""
    pairs = [(8.344599731464047, 30.5), (-7.757929414732095, 5.5), (3.876856538297254, 25.5),
             (2.25, 2.75), (-3.0, 70.0), (60.5, 90.0)]
    rows = np.arange(len(pairs))
    got, want = np.zeros((len(pairs), 64)), np.zeros((len(pairs), 64))
    for r, (x0, x1) in enumerate(pairs):
        _draw_segment(want, x0, r, x1, r, STREAK_VALUE)
    x0, x1 = np.array(pairs).T
    _paint_streaks(got, np.full(got.shape, -1, dtype=np.int32), rows, x0, x1, rows)
    assert got.tobytes() == want.tobytes()


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


_SEQ_CFG = ScenarioConfig(seed=12, frames=7, n_moving=5, n_static_occluders=2, width=64,
                         height=48, size_min=4.0, size_max=12.0, p_toggle=0.2)


def test_frames_length_and_indexing():
    frames = generate_scene(_SEQ_CFG).frames
    assert isinstance(frames, Sequence) and len(frames) == 7
    first = frames[0]
    assert (first.shape, first.dtype) == ((48, 64, 1), np.float64)
    assert frames[-1].tobytes() == frames[6].tobytes()
    assert frames[-7].tobytes() == first.tobytes()
    assert frames[np.int64(3)].tobytes() == frames[3].tobytes()
    for bad in (7, -8):
        with pytest.raises(IndexError):
            frames[bad]


def test_frames_iteration_equals_indexing():
    frames = generate_scene(_SEQ_CFG).frames
    listed = list(frames)
    assert len(listed) == len(frames)
    for f, img in enumerate(listed):
        assert img.tobytes() == frames[f].tobytes()


def test_frames_match_frozen_reference_one_by_one():
    """Any frame rendered alone, in any order, is the frozen eager
    generator's frame bit for bit."""
    got, want = generate_scene(_SEQ_CFG).frames, ref.generate_scene(_SEQ_CFG).frames
    for f in (4, 0, 6, 2, 1, 5, 3):
        a, b = got[f], want[f]
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), f


def test_frames_access_returns_a_fresh_array():
    frames = generate_scene(_SEQ_CFG).frames
    before = frames[2].tobytes()
    img = frames[2]
    img[...] = 123.0
    after = frames[2]
    assert after.tobytes() == before
    assert not np.shares_memory(img, after)


def test_frames_iteration_does_not_hide_an_index_error(monkeypatch):
    """Sequence's default iteration ends at the first IndexError, so one
    raised while rendering would silently cut the frames short."""
    frames = generate_scene(_SEQ_CFG).frames

    def broken(*args):
        raise IndexError("inside rendering")

    monkeypatch.setattr(synthsim, "_paint_streaks", broken)
    with pytest.raises(IndexError, match="inside rendering"):
        list(frames)


def test_frames_slice_gives_a_list_of_fresh_frames():
    frames = generate_scene(_SEQ_CFG).frames
    got = frames[1:3]
    assert isinstance(got, list)
    assert [a.tobytes() for a in got] == [frames[1].tobytes(), frames[2].tobytes()]
    assert [a.tobytes() for a in frames[::-3]] == [frames[f].tobytes() for f in (6, 3, 0)]
    assert frames[5:2] == [] and len(frames[-100:100]) == len(frames)
    got[0][...] = 123.0
    assert frames[1:2][0].tobytes() != got[0].tobytes()


def test_rendering_many_wide_streaks_stays_within_a_few_frames():
    """1000 targets with 24-32 px streaks on a 64x64 canvas give about seven
    frames' worth of streak samples. They are drawn in chunks, so one render
    peaks near 6 times the frame's bytes; all samples at once took 37."""
    cfg = ScenarioConfig(seed=3, frames=1, n_moving=1000, width=64, height=64, size_min=24.0,
                         size_max=32.0, speed_min=1.0, speed_max=2.0, streak_gain=1.0)
    frames = generate_scene(cfg).frames
    tracemalloc.start()
    try:
        img = frames[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * img.nbytes, f"tracemalloc peak {peak} B, frame {img.nbytes} B"
    assert img.tobytes() == ref.generate_scene(cfg).frames[0].tobytes()


def test_generate_scene_memory_stays_bounded():
    """generate_scene keeps no frame: on perfbench's scene-e2e scenario
    (200 frames, 30 targets, 256x256) holding every float64 frame took a
    tracemalloc peak of 107.8 MB; rendering on access keeps it near 2.6 MB."""
    cfg = ScenarioConfig(seed=1, frames=200, n_moving=30, width=256, height=256,
                         speed_min=1.0, speed_max=4.0, appearance_flip_speed=3.0, p_toggle=0.05)
    tracemalloc.start()
    try:
        scene = generate_scene(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scene.frames) == 200
    assert peak <= 10 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


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


def test_perturb_clutter_on_every_frame_without_targets():
    """Clutter is Poisson(lambda_fp) per frame of the scene, also on frames
    that hold no ground-truth box."""
    scene = generate_scene(ScenarioConfig(seed=4, frames=200, n_moving=0))
    dets = perturb_detections(scene, PerturbConfig(seed=1, lambda_fp=3.0))
    assert list(dets) == list(range(1, 201))
    total = sum(len(ds) for ds in dets.values())
    # Poisson(600): 3 sigma is ~73
    assert abs(total - 600) < 3 * np.sqrt(600)
    for f, ds in dets.items():
        for d in ds:
            assert d.frame == f and 0.1 <= d.score <= 0.7
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
                {"clutter_size_min": 30}, {"seed": -1}, {"jitter_sigma": float("nan")},
                {"lambda_fp": float("nan")}):
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


@pytest.mark.parametrize("field", ["speed_min", "streak_gain", "noise_amplitude",
                                   "appearance_flip_speed"])
@pytest.mark.parametrize("value", [-1.0, -1e-9, float("nan")])
def test_scenario_config_rejects_negative_or_nan_rates(field, value):
    bad = {field: value, "speed_max": 4.0}
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**bad)
    assert getattr(ScenarioConfig(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("bad", [{"speed_max": float("nan")}, {"size_max": float("nan")},
                                 {"size_min": float("nan")}])
def test_scenario_config_rejects_nan_range_ends(bad):
    with pytest.raises(ValueError, match="empty speed or size range"):
        ScenarioConfig(**bad)


@pytest.mark.parametrize("field", ["speed_min", "speed_max", "size_min", "size_max",
                                   "streak_gain", "noise_amplitude", "appearance_flip_speed",
                                   "p_toggle"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_scenario_config_rejects_infinite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("bad,field", [
    ({"speed_max": 1e9 + 1}, "speed_max"),
    ({"speed_min": 1e308, "speed_max": 1e308}, "speed_max"),
    ({"size_max": 2e9, "width": 5 * 10**9, "height": 5 * 10**9}, "size_max"),
    ({"streak_gain": 1e308}, r"streak_gain \* speed_max"),
    ({"streak_gain": 2.6e8, "speed_max": 4.0}, r"streak_gain \* speed_max"),
])
def test_scenario_config_caps_motion_and_size(bad, field):
    with pytest.raises(ValueError, match=f"{field} must be <= 1000000000 px"):
        ScenarioConfig(**bad)


def test_scenario_config_accepts_values_at_the_caps():
    assert ScenarioConfig(speed_min=0.0, speed_max=1e9, streak_gain=1.0).speed_max == 1e9
    assert ScenarioConfig(streak_gain=1e308, speed_min=0.0, speed_max=0.0).streak_gain == 1e308
    # A 1e9 px target needs a canvas far above the frame bound below, so the
    # largest size_max that passes is half the short side of a 1 GiB frame.
    cfg = ScenarioConfig(size_max=4096.0, width=16384, height=8192)
    assert cfg.size_max == 4096.0


@pytest.mark.parametrize("width,height", [(10**9, 10**9), (16384, 8193), (11586, 11586)])
def test_scenario_config_bounds_the_frame_size(width, height):
    """One float64 frame may take at most 1 GiB, the limit lineops puts on
    its tables; a canvas past it is rejected before anything is allocated."""
    with pytest.raises(ValueError, match="float64 frame is above the 1073741824-byte limit"):
        ScenarioConfig(width=width, height=height)
    assert ScenarioConfig(width=16384, height=8192).height == 8192
    assert ScenarioConfig(width=11585, height=11585).width == 11585


@pytest.mark.parametrize("frames,n_moving,at_edge", [
    (10**9, 5, False), (2, 10**9, False), (684_785, 0, True), (62, 1000, True)])
def test_scenario_config_bounds_the_target_frames(frames, n_moving, at_edge):
    """A target-frame holds up to CELL_BYTES plus TARGET_VALUE_BYTES per value
    of its max(2, n_moving)-wide look (a frame without targets counts as one),
    so (n_moving + 1) * frames is capped at the 1 GiB budget; a config past it
    fails before any seed is spawned or array allocated. At the edge, the
    config one frame shorter passes; it is only constructed, which allocates
    nothing."""
    with pytest.raises(ValueError, match=re.escape(
            f"(n_moving + 1) * frames = {(n_moving + 1) * frames} target-frames")):
        ScenarioConfig(frames=frames, n_moving=n_moving)
    if at_edge:
        assert ScenarioConfig(frames=frames - 1, n_moving=n_moving).frames == frames - 1


@pytest.mark.parametrize("lambda_fp", [1e9, 322_639.0])
def test_perturb_bounds_the_expected_clutter(lambda_fp):
    """lambda_fp * frames expected clutter boxes, each CELL_BYTES plus
    CLUTTER_VALUE_BYTES per embedding value, must fit the 1 GiB budget: on a
    2-frame scene with 2-wide looks, 322,639 boxes a frame do not."""
    scene = generate_scene(ScenarioConfig(seed=4, frames=2, n_moving=1))
    with pytest.raises(ValueError, match=re.escape(f"lambda_fp * frames = {2 * lambda_fp:g}")):
        perturb_detections(scene, PerturbConfig(lambda_fp=lambda_fp))
