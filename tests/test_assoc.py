import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack.assoc import (AssociationResult, Lifecycle, Tracker, TrackerConfig,
                            appearance_cost, hungarian, iou_cost, maa_fuse,
                            track_sequence)
from sartrack.core import BBox, Detection
from sartrack.io import load_config
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
    e1 = np.array([[1.0, 0.0]])
    d_emb = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    c = appearance_cost(e1, np.array([True]), d_emb, np.array([True, True, True, False]))
    np.testing.assert_allclose(c[0, :3], [0.0, 1.0, 0.5])
    assert np.isnan(c[0, 3])


@pytest.mark.parametrize("dim", [2, 8, 16, 64])
def test_appearance_cost_matches_per_pair_dot(dim):
    rng = np.random.default_rng(dim)
    t_emb = rng.normal(size=(7, dim))
    t_emb /= np.linalg.norm(t_emb, axis=1, keepdims=True)
    d_emb = rng.normal(size=(9, dim))
    d_emb /= np.linalg.norm(d_emb, axis=1, keepdims=True)
    t_has = np.arange(7) % 3 != 0
    d_has = np.arange(9) % 4 != 0
    c = appearance_cost(t_emb, t_has, d_emb, d_has)
    for i in range(7):
        for j in range(9):
            if not (t_has[i] and d_has[j]):
                assert np.isnan(c[i, j])
            else:
                want = (1.0 - float(np.dot(t_emb[i], d_emb[j]))) / 2.0
                assert abs(c[i, j] - want) <= 1e-12


def test_tracker_embeddings_follow_the_gate():
    """A track without an embedding takes its first one as it is; a match
    whose motion gate fires leaves the EMA alone; one below the gate mixes
    and renormalizes."""
    cfg = TrackerConfig(n_init=1, ema_alpha=0.5, v_ema_alpha=0.0)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    tracker = Tracker(cfg)
    tracker.step(1, [det(1, 10, 10, ma=0.0)])
    assert tracker.has_emb.tolist() == [False]
    tracker.step(2, [det(2, 10, 10, ma=0.0, emb=e1)])
    assert tracker.has_emb.tolist() == [True] and np.array_equal(tracker.emb[0], e1)
    tracker.step(3, [det(3, 10, 10, ma=0.9, emb=e2)])  # gate fires: frozen
    assert np.array_equal(tracker.emb[0], e1)
    tracker.step(4, [det(4, 10, 10, ma=0.0)])  # the track's v_ema drops back to 0
    assert np.array_equal(tracker.emb[0], e1)
    tracker.step(5, [det(5, 10, 10, ma=0.0, emb=e2)])
    np.testing.assert_allclose(tracker.emb[0], [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)


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


def test_unconfirmed_tracks_leave_the_track_list():
    # One isolated detection per frame: each spawns a tentative track that
    # dies unmatched on the next frame and can never be emitted.
    tracker = Tracker(TrackerConfig(n_init=2))
    ids = []
    for f in range(1, 2001):
        tracker.step(f, [det(f, 50.0 * f, 10)])
        assert len(tracker.tracks) <= 2
        ids.append(tracker.tracks[-1].id)
    assert ids == list(range(1, 2001))
    assert len(tracker.trajectories()) == 0


def test_trajectories_reject_a_repeated_frame():
    tracker = Tracker(TrackerConfig(n_init=1))
    tracker.step(1, [det(1, 10, 10)])
    tracker.step(1, [det(1, 10, 10)])
    with pytest.raises(ValueError, match="track 1 frames not strictly increasing"):
        tracker.trajectories()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 40),
       n_init=st.integers(1, 3), max_age=st.integers(0, 4), use_maa=st.booleans())
def test_tracker_invariants_on_random_streams(seed, n_frames, n_init, max_age, use_maa):
    rng = np.random.default_rng(seed)
    tracker = Tracker(TrackerConfig(n_init=n_init, max_age=max_age), use_maa=use_maa)
    seen: set[int] = set()
    removed: set[int] = set()
    for f in range(1, n_frames + 1):
        # A few slow walkers near a shared spot, so tracks meet, split and die.
        dets = [det(f, float(rng.normal(30, 8)), float(rng.normal(30, 8)),
                    score=float(rng.choice([0.05, 0.3, 0.7, 0.95])),
                    class_id=int(rng.integers(0, 2)),
                    ma=float(rng.random()) if rng.random() < 0.5 else None)
                for _ in range(rng.integers(0, 6))]
        out = tracker.step(f, dets)
        ids = [tid for tid, _ in out]
        assert len(ids) == len(set(ids))
        assert all(b in {d.bbox for d in dets} for _, b in out)
        assert not removed & set(ids)
        # `tracks` holds live rows only, one per row of every table column.
        assert all(t.lifecycle is not Lifecycle.REMOVED for t in tracker.tracks)
        for name in Tracker._COLUMNS:
            assert len(getattr(tracker, name)) == len(tracker.tracks)
        live = [t.id for t in tracker.tracks]
        assert len(live) == len(set(live))  # ids are unique among live rows
        assert not removed & set(live)  # an id that left never comes back
        seen |= set(live)
        removed |= seen - set(live)
    for _, seq in tracker.trajectories().tracks:
        frames = [fr for fr, _ in seq]
        assert all(a < b for a, b in zip(frames, frames[1:]))


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


def test_tracker_config_validation(tmp_path):
    with pytest.raises(ValueError):
        TrackerConfig(tau_low=0.7, tau_high=0.6)
    path = tmp_path / "cfg.txt"
    path.write_text("bogus_key = 1\n")
    with pytest.raises(ValueError):
        load_config(path, TrackerConfig)
    for bad in ({"n_init": 0}, {"n_init": -1}, {"max_age": -1}, {"max_age": -5}):
        with pytest.raises(ValueError):
            TrackerConfig(**bad)
    assert TrackerConfig(n_init=1, max_age=0).max_age == 0
    path.write_text("tau_high = 0.7\nn_init = 3\n")
    (cfg,) = load_config(path, TrackerConfig)
    assert cfg.tau_high == 0.7 and cfg.n_init == 3
