import itertools

import numpy as np
import pytest

from sartrack.assoc import (AssociationResult, Track, Tracker, TrackerConfig,
                            appearance_cost, hungarian, iou_cost, maa_fuse,
                            track_sequence)
from sartrack.core import BBox, Detection
from sartrack.metrics import clear_mot


def brute_force_assignment(cost):
    """Exhaustive minimum-cost one-to-one assignment total."""
    n, m = cost.shape
    best = 0.0 if min(n, m) == 0 else np.inf
    k = min(n, m)
    rows = range(n)
    for rsub in itertools.permutations(rows, k):
        for csub in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(rsub, csub))
            best = min(best, total)
    return best


def det(frame, x, y, w=4, h=4, score=0.9, class_id=0, ma=None, emb=None):
    return Detection(frame=frame, bbox=BBox(x, y, w, h), score=score,
                     class_id=class_id, motion_awareness=ma, embedding=emb)


def test_hungarian_hand_case():
    res = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]), np.inf)
    assert set(res.matches) == {(0, 1), (1, 0)}


def test_hungarian_diagonal():
    res = hungarian(np.array([[0.0, 9.0], [9.0, 0.0]]), np.inf)
    assert set(res.matches) == {(0, 0), (1, 1)}


def test_hungarian_threshold_demotion():
    res = hungarian(np.array([[0.9]]), 0.5)
    assert res.matches == ()
    assert res.unmatched_tracks == (0,)
    assert res.unmatched_detections == (0,)


def test_hungarian_empty():
    res = hungarian(np.zeros((0, 3)), 1.0)
    assert res.matches == () and res.unmatched_detections == (0, 1, 2)
    res = hungarian(np.zeros((2, 0)), 1.0)
    assert res.matches == () and res.unmatched_tracks == (0, 1)


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = rng.random((n, m))
        res = hungarian(cost, np.inf)
        total = sum(cost[r, c] for r, c in res.matches)
        assert total == pytest.approx(brute_force_assignment(cost), abs=1e-12)
        rows = [r for r, _ in res.matches]
        cols = [c for _, c in res.matches]
        assert len(rows) == len(set(rows)) and len(cols) == len(set(cols))


def test_iou_cost_values():
    a, b = BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)
    c = iou_cost([a], [a, BBox(10, 10, 2, 2), b])
    np.testing.assert_allclose(c, [[0.0, 1.0, 2 / 3]])


def test_appearance_cost_values():
    cfg = TrackerConfig()
    e1 = np.array([1.0, 0.0])
    t = Track(1, det(1, 0, 0, emb=e1), cfg)
    dets = [det(1, 0, 0, emb=e1), det(1, 0, 0, emb=-e1),
            det(1, 0, 0, emb=np.array([0.0, 1.0])), det(1, 0, 0)]
    c = appearance_cost([t], dets)
    np.testing.assert_allclose(c[0, :3], [0.0, 1.0, 0.5])
    assert np.isnan(c[0, 3])


def test_maa_fuse_full_discard_is_bitwise_iou():
    rng = np.random.default_rng(1)
    cfg = TrackerConfig()
    iou_c = rng.random((4, 5))
    app_c = rng.random((4, 5))
    out = maa_fuse(iou_c, app_c, np.ones(4), np.zeros(5), cfg)
    assert np.array_equal(out, iou_c)


def test_maa_fuse_blend_value():
    cfg = TrackerConfig(lambda_app=0.3)
    out = maa_fuse(np.array([[0.4]]), np.array([[0.8]]), [0.0], [0.0], cfg)
    assert out[0, 0] == pytest.approx(0.52)


def test_maa_fuse_missing_embeddings_fall_back():
    cfg = TrackerConfig()
    iou_c = np.array([[0.3, 0.7]])
    app_c = np.array([[np.nan, np.nan]])
    out = maa_fuse(iou_c, app_c, [0.0], [0.0, 0.0], cfg)
    assert np.array_equal(out, iou_c)


def test_maa_gate_invariance_property():
    rng = np.random.default_rng(2)
    cfg = TrackerConfig()
    for _ in range(100):
        n, m = rng.integers(1, 8, 2)
        iou_c = rng.random((n, m))
        app_c = rng.random((n, m))
        v_t = rng.random(n)
        v_d = rng.random(m)
        out = maa_fuse(iou_c, app_c, v_t, v_d, cfg)
        g = np.maximum(v_t[:, None], v_d[None, :])
        gated = g >= cfg.tau_v
        assert np.array_equal(out[gated], iou_c[gated])


def test_spawn_path_n_init_1():
    tracker = Tracker(TrackerConfig(n_init=1))
    out = tracker.step(1, [det(1, 10, 10)])
    assert len(out) == 1
    tid, b = out[0]
    assert tid == 1 and b == BBox(10, 10, 4, 4)


def test_stationary_persistence():
    dets = {f: [det(f, 10, 10)] for f in range(1, 11)}
    ts = track_sequence(dets)
    assert len(ts) == 1
    tid, seq = ts.tracks[0]
    assert [f for f, _ in seq] == list(range(1, 11))


def test_crossing_targets_keep_ids():
    # Two constant-velocity targets crossing mid-sequence; prediction
    # separates them even while boxes overlap.
    dets = {}
    for f in range(1, 21):
        x1 = 10.0 + 3.0 * (f - 1)
        x2 = 70.0 - 3.0 * (f - 1)
        dets[f] = [det(f, x1, 20, 6, 6), det(f, x2, 20, 6, 6)]
    ts = track_sequence(dets)
    assert len(ts) == 2
    by_id = ts.by_id()
    for tid, seq in by_id.items():
        xs = [seq[f].x for f in sorted(seq)]
        diffs = {round(b - a, 6) for a, b in zip(xs, xs[1:])}
        assert diffs in ({3.0}, {-3.0})


def test_mixed_frame_detections_rejected():
    tracker = Tracker()
    with pytest.raises(ValueError):
        tracker.step(1, [det(1, 0, 0), det(2, 5, 5)])


def test_ids_never_reused():
    tracker = Tracker(TrackerConfig(n_init=1, max_age=1))
    seen = set()
    rng = np.random.default_rng(3)
    for f in range(1, 30):
        dets = [det(f, float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
                for _ in range(rng.integers(0, 4))]
        for tid, _ in tracker.step(f, dets):
            seen.add(tid)
    ids = [t.id for t in tracker.tracks]
    assert len(ids) == len(set(ids))


def test_class_aware_matching():
    tracker = Tracker(TrackerConfig(n_init=1))
    tracker.step(1, [det(1, 10, 10, class_id=0)])
    out = tracker.step(2, [det(2, 10, 10, class_id=1)])
    # same place, different class: a second track spawns instead of a match
    assert {tid for tid, _ in out} == {2}


def test_determinism():
    rng = np.random.default_rng(4)
    dets = {}
    for f in range(1, 15):
        dets[f] = [det(f, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
                   for _ in range(3)]
    a = track_sequence(dets)
    b = track_sequence(dets)
    assert a == b


def test_lost_track_recovers_same_id():
    dets = {f: [det(f, 10 + 2 * f, 10)] for f in range(1, 16)}
    del dets[8]
    dets[8] = []
    ts = track_sequence(dets)
    assert len(ts) == 1


def test_removed_track_never_reemits():
    cfg = TrackerConfig(n_init=1, max_age=2)
    tracker = Tracker(cfg)
    tracker.step(1, [det(1, 10, 10)])
    for f in range(2, 7):
        tracker.step(f, [])
    out = tracker.step(7, [det(7, 10, 10)])
    assert out[0][0] == 2  # new id; the removed track stayed dead


def test_perfect_replay_is_bijective():
    rng = np.random.default_rng(5)
    gt_tracks = {}
    dets = {f: [] for f in range(1, 31)}
    for tid in range(1, 5):
        x, y = rng.uniform(20, 200, 2)
        vx, vy = rng.uniform(-2, 2, 2)
        seq = []
        for f in range(1, 31):
            b = BBox(x + vx * f, y + vy * f, 8, 8)
            seq.append((f, b))
            dets[f].append(Detection(frame=f, bbox=b, score=1.0))
        gt_tracks[tid] = seq
    from sartrack.core import TrajectorySet
    gt = TrajectorySet.build(sorted(gt_tracks.items()))
    pred = track_sequence(dets)
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred)
    assert mota == 1.0 and idsw == 0


def test_tracker_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(tau_low=0.7, tau_high=0.6)
    with pytest.raises(ValueError):
        TrackerConfig.from_dict({"bogus_key": "1"})
    for bad in ({"n_init": 0}, {"n_init": -1}, {"max_age": -1}, {"max_age": -5}):
        with pytest.raises(ValueError):
            TrackerConfig(**bad)
    assert TrackerConfig(n_init=1, max_age=0).max_age == 0
    cfg = TrackerConfig.from_dict({"tau_high": "0.7", "n_init": "3"})
    assert cfg.tau_high == 0.7 and cfg.n_init == 3
