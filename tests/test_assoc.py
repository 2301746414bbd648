import itertools
from dataclasses import replace

import numpy as np
import pytest
import tracker_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import assoc
from sartrack.assoc import (Lifecycle, Tracker, TrackerConfig, appearance_cost,
                            hungarian, iou_cost, maa_fuse, motion_gate, track_sequence)
from sartrack.core import BBox, Detection
from sartrack.io import load_config
from sartrack.metrics import clear_mot
from sartrack.motion import Affine2x3


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
    rows, cols = hungarian(np.array([[1.0, 2.0], [2.0, 4.0]]), np.inf)
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]


def test_hungarian_diagonal():
    rows, cols = hungarian(np.array([[0.0, 9.0], [9.0, 0.0]]), np.inf)
    assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1]


def test_hungarian_threshold_demotion():
    # The cheaper assignment pairs (0, 1) and (1, 0); (1, 0) costs more
    # than max_cost, so only (0, 1) is kept.
    rows, cols = hungarian(np.array([[0.1, 0.2], [0.9, 5.0]]), 0.5)
    assert rows.tolist() == [0] and cols.tolist() == [1]
    rows, cols = hungarian(np.array([[0.9]]), 0.5)
    assert rows.size == cols.size == 0
    # A pair costing exactly max_cost is kept.
    rows, cols = hungarian(np.array([[0.5]]), 0.5)
    assert rows.tolist() == cols.tolist() == [0]


def test_hungarian_empty():
    for shape in ((0, 3), (2, 0)):
        rows, cols = hungarian(np.zeros(shape), 1.0)
        assert rows.size == cols.size == 0
        assert rows.dtype == cols.dtype == np.intp


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = rng.random((n, m))
        rows, cols = hungarian(cost, np.inf)
        assert cost[rows, cols].sum() == pytest.approx(brute_force_assignment(cost), abs=1e-12)
        assert len(rows) == len(cols) == min(n, m)
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        assert np.all(np.diff(rows) > 0)  # in row order


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


def test_maa_fuse_takes_the_callers_gate():
    rng = np.random.default_rng(3)
    cfg = TrackerConfig()
    iou_c, app_c = rng.random((3, 4)), rng.random((3, 4))
    v_t, v_d = rng.random(3), rng.random(4)
    gate = motion_gate(v_t, v_d, cfg)
    assert np.array_equal(maa_fuse(iou_c, app_c, v_t, v_d, cfg, gate),
                          maa_fuse(iou_c, app_c, v_t, v_d, cfg))
    # The given mask is used as it is, not rebuilt from the velocities.
    out = maa_fuse(iou_c, app_c, v_t, v_d, cfg, np.ones((3, 4), dtype=bool))
    assert np.array_equal(out, iou_c)


def test_step_builds_the_motion_gate_once(monkeypatch):
    """Stage 1 builds one gate per frame and hands it to both the cost
    blend and the appearance-EMA mask."""
    calls = []
    monkeypatch.setattr(assoc, "motion_gate",
                        lambda *a: calls.append(1) or motion_gate(*a))
    e = np.array([1.0, 0.0])
    tracker = Tracker(TrackerConfig(n_init=1))
    for f in range(1, 5):
        tracker.step(f, [det(f, 10, 10, ma=0.2, emb=e), det(f, 40, 40, ma=0.9, emb=e)])
    assert len(calls) == 3  # frames 2-4 reach stage 1


@pytest.mark.parametrize("case", ["no looks", "low-score looks", "tau_v = 0", "one look"])
def test_look_free_stage_1_builds_no_appearance_terms(monkeypatch, case):
    """Stage 1 builds the appearance cost, the gate and the blend only on a
    frame where a high-score detection has a look and tau_v > 0; every other
    frame is matched on its IoU cost alone."""
    calls = {name: 0 for name in ("iou_cost", "appearance_cost", "motion_gate", "maa_fuse")}

    def counted(name):
        fn = getattr(assoc, name)
        return lambda *a: calls.__setitem__(name, calls[name] + 1) or fn(*a)

    for name in calls:
        monkeypatch.setattr(assoc, name, counted(name))
    e = np.array([1.0, 0.0])
    tau_v = 0.0 if case == "tau_v = 0" else 0.5
    tracker = Tracker(TrackerConfig(n_init=1, tau_v=tau_v))
    for f in range(1, 5):
        high_emb = e if case == "tau_v = 0" or (case == "one look" and f == 3) else None
        low_emb = e if case == "low-score looks" else None
        tracker.step(f, [det(f, 10, 10, ma=0.2, emb=high_emb), det(f, 40, 40, ma=0.9),
                         det(f, 70, 70, score=0.3, emb=low_emb)])
    built = 1 if case == "one look" else 0
    assert calls == {"iou_cost": 3, "appearance_cost": built, "motion_gate": built,
                     "maa_fuse": built}


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


@pytest.mark.parametrize("n_init", [1, 2, 3])
def test_trajectories_keep_exactly_the_tracks_that_ever_confirmed(n_init):
    """Track 1 confirms, goes LOST and is removed past max_age: it is kept
    with its tentative frames. Track 2 is seen once and, unless n_init is 1,
    removed while tentative: dropped. Track 3 is seen n_init - 1 times at the
    end, so it is still tentative: dropped. The frozen reference agrees."""
    # Each frame's box corners; the three tracks lie far apart.
    seq = {1: [10, 100], 2: [10], 3: [10], 4: [], 5: [], 6: []}
    seq.update({f: [200] for f in range(7, 6 + n_init)})
    cfg = TrackerConfig(n_init=n_init, max_age=1)
    new, old = Tracker(cfg), ref.Tracker(cfg)
    lifecycles = []
    for f, corners in seq.items():
        dets = [det(f, x, x, 8, 8) for x in corners]
        assert new.step(f, dets) == old.step(f, dets)
        lifecycles.append({t.id: t.lifecycle for t in new.tracks}.get(1))
    assert lifecycles[2:5] == [Lifecycle.CONFIRMED, Lifecycle.LOST, None]
    assert [(t.id, t.lifecycle) for t in new.tracks] == (
        [] if n_init == 1 else [(3, Lifecycle.TENTATIVE)])
    want = [(1, [1, 2, 3])] + ([(2, [1])] if n_init == 1 else [])
    assert [(tid, [f for f, _ in boxes]) for tid, boxes in new.trajectories().tracks] == want
    assert new.trajectories() == old.trajectories()


def test_step_rejects_a_frame_that_does_not_follow():
    """A repeated or earlier frame is refused before it changes any state."""
    tracker = Tracker(TrackerConfig(n_init=1))
    tracker.step(1, [det(1, 10, 10)])
    tracker.step(3, [])
    for frame in (3, 2):
        with pytest.raises(ValueError, match=f"frame {frame} does not follow frame 3"):
            tracker.step(frame, [det(frame, 10, 10)])
    assert [(t.id, t.hits, t.age_since_update) for t in tracker.tracks] == [(1, 1, 1)]
    assert tracker.step(4, [det(4, 10, 10)]) == [(1, BBox(10, 10, 4, 4))]
    assert [[f for f, _ in seq] for _, seq in tracker.trajectories().tracks] == [[1, 4]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 40),
       n_init=st.integers(1, 3), max_age=st.integers(0, 4), maa=st.booleans())
def test_tracker_invariants_on_random_streams(seed, n_frames, n_init, max_age, maa):
    rng = np.random.default_rng(seed)
    cfg = TrackerConfig(n_init=n_init, max_age=max_age)
    tracker = Tracker(cfg if maa else replace(cfg, tau_v=0.0))
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


def test_track_sequence_steps_frames_without_detections():
    """A 10x10 target moving 6 px a frame, detected in frames 1-4 and 6-8,
    keeps one id: frame 5 still predicts it forward."""
    dets = {f: [det(f, 10 + 6 * f, 20, w=10, h=10)] for f in (1, 2, 3, 4, 6, 7, 8)}
    tset = track_sequence(dets)
    assert [(tid, [f for f, _ in seq]) for tid, seq in tset.tracks] == [
        (1, [1, 2, 3, 4, 6, 7, 8])]
    # Once no track is live the rest of a gap is skipped, so a huge gap is cheap.
    far = {1: [det(1, 10, 10)], 10**12: [det(10**12, 10, 10)]}
    assert len(track_sequence(far, cfg=TrackerConfig(n_init=1))) == 2


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 40),
       n_init=st.integers(1, 3), max_age=st.integers(0, 4))
def test_track_sequence_equals_stepping_every_frame(seed, n_frames, n_init, max_age):
    """On streams with empty frames and gaps longer than max_age, with CMC on
    some frames, track_sequence gives what a loop calling `step` on every
    frame gives."""
    rng = np.random.default_rng(seed)
    cfg = TrackerConfig(n_init=n_init, max_age=max_age)
    dets = {}
    for f in range(1, n_frames + 1):
        if rng.random() < 0.4:
            continue  # no detections, and often a run of such frames
        dets[f] = [det(f, float(rng.normal(30 + f, 4)), float(rng.normal(30, 4)),
                       score=float(rng.choice([0.3, 0.7, 0.95])))
                   for _ in range(rng.integers(1, 4))]
    cmc = {f: Affine2x3(np.array([[1.0, 0.0, rng.normal(0, 2)], [0.0, 1.0, rng.normal(0, 2)]]))
           for f in range(1, n_frames + 1) if rng.random() < 0.5}
    tracker = Tracker(cfg)
    for f in range(1, n_frames + 1):
        tracker.step(f, dets.get(f, []), cmc.get(f))
    assert track_sequence(dets, cmc, cfg) == tracker.trajectories()


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
