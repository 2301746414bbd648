import itertools

import metrics_reference as ref
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sartrack import metrics
from sartrack.core import BBox, TrajectorySet, iou
from sartrack.metrics import HOTA_ALPHAS, clear_mot, evaluate, hota, id_metrics


def traj(tracks):
    return TrajectorySet.build(tracks)


def line_track(tid, frames, x0=0.0, dx=10.0, y=0.0, w=4.0, h=4.0):
    return (tid, [(f, BBox(x0 + dx * (f - frames[0]), y, w, h)) for f in frames])


@pytest.fixture
def gt_simple():
    return traj([line_track(1, range(1, 5))])


def test_clear_perfect(gt_simple):
    mota, fp, fn, idsw, mt, ml = clear_mot(gt_simple, gt_simple)
    assert (mota, fp, fn, idsw) == (1.0, 0, 0, 0)
    assert mt == 1 and ml == 0


def test_clear_empty_pred(gt_simple):
    mota, fp, fn, idsw, mt, ml = clear_mot(gt_simple, traj([]))
    assert mota == 0.0 and fn == 4 and fp == 0 and idsw == 0
    assert ml == 1


def test_clear_empty_gt_is_error():
    with pytest.raises(ValueError):
        clear_mot(traj([]), traj([]))


def id_switch_fixture():
    """1 GT trajectory over 4 frames; pred matches all boxes but switches id
    after frame 2."""
    gt = traj([line_track(1, range(1, 5))])
    boxes = dict(gt.tracks[0][1])
    pred = traj([(7, [(1, boxes[1]), (2, boxes[2])]),
                 (8, [(3, boxes[3]), (4, boxes[4])])])
    return gt, pred


def test_clear_id_switch_fixture():
    gt, pred = id_switch_fixture()
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred)
    assert idsw == 1
    assert mota == pytest.approx(0.75)
    assert fp == 0 and fn == 0


def test_clear_relabel_consistent_no_switches():
    gt = traj([line_track(1, range(1, 9)), line_track(2, range(1, 9), y=50)])
    pred = traj([(41, gt.tracks[0][1]), (42, gt.tracks[1][1])])
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred)
    assert mota == 1.0 and idsw == 0


def test_id_metrics_perfect(gt_simple):
    assert id_metrics(gt_simple, gt_simple) == (1.0, 1.0, 1.0)


def test_id_metrics_switch_fixture():
    gt, pred = id_switch_fixture()
    idf1, idp, idr = id_metrics(gt, pred)
    # Best trajectory pairing keeps 2 boxes: IDTP=2, IDFP=2, IDFN=2.
    assert idf1 == pytest.approx(0.5)
    assert idp == pytest.approx(0.5)
    assert idr == pytest.approx(0.5)


def test_id_metrics_fresh_id_every_frame():
    frames = range(1, 4)
    gt = traj([line_track(1, frames)])
    boxes = dict(gt.tracks[0][1])
    pred = traj([(10 + f, [(f, boxes[f])]) for f in frames])
    idf1, idp, idr = id_metrics(gt, pred)
    # IDTP=1 under the best pairing: IDF1 = 2/(2+2+2) * ... = 1/3
    assert idf1 == pytest.approx(1 / 3)


def test_id_metrics_empty_both():
    assert id_metrics(traj([]), traj([])) == (1.0, 1.0, 1.0)


def brute_force_idtp(gt, pred, iou_thr=0.5):
    """Enumerate all trajectory pairings; maximize kept boxes."""
    from sartrack.core import iou
    gt_by = gt.by_id()
    pred_by = pred.by_id()
    gids, pids = list(gt_by), list(pred_by)

    def ov(g, p):
        return sum(1 for f in gt_by[g]
                   if f in pred_by[p] and iou([gt_by[g][f]], [pred_by[p][f]])[0, 0] >= iou_thr)

    best = 0
    k = min(len(gids), len(pids))
    for r in range(k + 1):
        for gsub in itertools.permutations(gids, r):
            for psub in itertools.combinations(pids, r):
                best = max(best, sum(ov(g, p) for g, p in zip(gsub, psub)))
    return best


def test_id_metrics_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for trial in range(10):
        gt_tracks, pred_tracks = [], []
        for tid in range(1, 4):
            frames = sorted(rng.choice(range(1, 8), size=4, replace=False))
            gt_tracks.append((tid, [(int(f), BBox(float(rng.uniform(0, 40)), 0, 5, 5))
                                    for f in frames]))
        for tid in range(10, 13):
            frames = sorted(rng.choice(range(1, 8), size=4, replace=False))
            pred_tracks.append((tid, [(int(f), BBox(float(rng.uniform(0, 40)), 0, 5, 5))
                                      for f in frames]))
        gt, pred = traj(gt_tracks), traj(pred_tracks)
        idtp = brute_force_idtp(gt, pred)
        idf1, _, _ = id_metrics(gt, pred)
        total = gt.num_boxes() + pred.num_boxes()
        assert idf1 == pytest.approx(2 * idtp / total)


def test_hota_perfect(gt_simple):
    h, deta, assa = hota(gt_simple, gt_simple)
    assert h == 1.0 and deta == 1.0 and assa == 1.0


def test_hota_empty_pred(gt_simple):
    h, deta, assa = hota(gt_simple, traj([]))
    assert h == 0.0 and deta == 0.0


def test_hota_empty_gt_error():
    with pytest.raises(ValueError):
        hota(traj([]), traj([(1, [(1, BBox(0, 0, 1, 1))])]))


def test_hota_two_frame_id_switch():
    b1, b2 = BBox(0, 0, 4, 4), BBox(10, 0, 4, 4)
    gt = traj([(1, [(1, b1), (2, b2)])])
    pred = traj([(5, [(1, b1)]), (6, [(2, b2)])])
    h, deta, assa = hota(gt, pred)
    # Exact overlap at every alpha: TP=2 always; each TP has
    # TPA=1, FNA=1, FPA=0 -> AssA = 0.5 at every alpha.
    assert deta == 1.0
    assert assa == pytest.approx(0.5)
    assert h == pytest.approx(0.5 ** 0.5)


def test_hota_deta_monotone_in_alpha():
    rng = np.random.default_rng(1)
    gt_tracks, pred_tracks = [], []
    for tid in range(1, 4):
        gt_tracks.append(line_track(tid, range(1, 6), y=20.0 * tid))
        pred_tracks.append((tid + 50, [
            (f, BBox(10.0 * (f - 1) + rng.uniform(-2, 2), 20.0 * tid + rng.uniform(-2, 2), 4, 4))
            for f in range(1, 6)]))
    gt, pred = traj(gt_tracks), traj(pred_tracks)
    gt_frames = gt.boxes_by_frame()
    pred_frames = pred.boxes_by_frame()
    # recompute DetA per alpha directly to check the sweep is nonincreasing
    from scipy.optimize import linear_sum_assignment
    from sartrack.core import iou
    detas = []
    for alpha in HOTA_ALPHAS:
        tp = 0
        for f in gt_frames:
            gf, pf = gt_frames[f], pred_frames.get(f, [])
            m = iou([gb for _, gb in gf], [pb for _, pb in pf])
            cost = np.where(m >= alpha, 1 - m, 1e9)
            rows, cols = linear_sum_assignment(cost)
            tp += sum(1 for r, c in zip(rows, cols) if cost[r, c] < 1e9)
        detas.append(tp / (gt.num_boxes() + pred.num_boxes() - tp))
    assert all(b <= a + 1e-12 for a, b in zip(detas, detas[1:]))


def test_adding_fp_never_helps():
    gt = traj([line_track(1, range(1, 6))])
    pred_clean = traj([(9, gt.tracks[0][1])])
    extra = (99, [(3, BBox(500, 500, 4, 4))])
    pred_fp = traj([(9, gt.tracks[0][1]), extra])
    m1, *_ = clear_mot(gt, pred_clean)
    m2, *_ = clear_mot(gt, pred_fp)
    assert m2 <= m1
    f1, _, _ = id_metrics(gt, pred_clean)
    f2, _, _ = id_metrics(gt, pred_fp)
    assert f2 <= f1


def test_evaluate_report_bounds():
    gt, pred = id_switch_fixture()
    rep = evaluate(gt, pred)
    for v in (rep.idf1, rep.idp, rep.idr, rep.hota, rep.deta, rep.assa):
        assert 0.0 <= v <= 1.0
    assert rep.mota <= 1.0


@pytest.mark.parametrize("iou_thr", [0.0, -1.0, 1.5, float("nan")])
@pytest.mark.parametrize("fn", [clear_mot, id_metrics, evaluate])
def test_iou_threshold_outside_unit_interval_is_error(fn, iou_thr):
    """Above 1 or NaN nothing can match; at or below 0 every pair can, even
    pairs that do not overlap."""
    gt, pred = id_switch_fixture()
    with pytest.raises(ValueError, match=r"iou_thr must be in \(0, 1\]"):
        fn(gt, pred, iou_thr)
    # Also when both sets are empty, which id_metrics scores without pairing.
    if fn is id_metrics:
        with pytest.raises(ValueError):
            fn(traj([]), traj([]), iou_thr)


def test_iou_threshold_one_is_accepted(gt_simple):
    assert clear_mot(gt_simple, gt_simple, 1.0)[:4] == (1.0, 0, 0, 0)
    assert id_metrics(gt_simple, gt_simple, 1.0) == (1.0, 1.0, 1.0)


_COORD = st.integers(0, 12)
_SIDE = st.integers(5, 10)


@st.composite
def trajectory_pairs(draw):
    """Random GT and prediction sets on integer boxes, so pairs overlap often
    and IoU values land exactly on the thresholds. Each prediction box is an
    exact copy of a GT box, a box at IoU exactly 0.3 or 0.5 to it, or a
    random box; a GT box gets up to two of them, under a small pool of
    prediction ids (id switches). Random false positives come on top."""
    n_frames = draw(st.integers(1, 6))
    frames_of = st.lists(st.integers(1, n_frames), min_size=1, max_size=n_frames, unique=True)
    gt_tracks, pred = [], {}

    def random_box():
        return BBox(draw(_COORD), draw(_COORD), draw(_SIDE), draw(_SIDE))

    for tid in range(1, draw(st.integers(0, 4)) + 1):
        seq = [(f, random_box()) for f in sorted(draw(frames_of))]
        gt_tracks.append((tid, seq))
        for f, b in seq:
            for kind in draw(st.lists(st.sampled_from(("copy", "edge", "random")), max_size=2)):
                if kind == "copy":
                    pb = b
                elif kind == "edge":
                    # Overlaps the last k of b's width inside a union 10 wide: IoU k/10.
                    k = draw(st.sampled_from((3, 5)))
                    pb = BBox(b.x + b.w - k, b.y, 10 - b.w + k, b.h)
                else:
                    pb = random_box()
                pred.setdefault(draw(st.integers(1, 3)), {}).setdefault(f, pb)
    for _ in range(draw(st.integers(0, 4))):
        pred.setdefault(draw(st.integers(1, 7)), {}).setdefault(
            draw(st.integers(1, n_frames)), random_box())
    return traj(gt_tracks), traj([(p, sorted(seq.items())) for p, seq in pred.items()])


@st.composite
def clustered_pairs(draw):
    """Random GT and prediction sets of up to 10 tracks each on continuous
    coordinates, with every box near one of a few centres, so that a frame
    often holds 2x2, 3x3 and larger overlap components."""
    n_frames = draw(st.integers(1, 4))
    centres = draw(st.lists(st.tuples(st.floats(0, 80), st.floats(0, 80)), min_size=1, max_size=3))
    frames_of = st.lists(st.integers(1, n_frames), min_size=1, max_size=n_frames, unique=True)

    def box():
        cx, cy = draw(st.sampled_from(centres))
        return BBox(cx + draw(st.floats(-5, 5)), cy + draw(st.floats(-5, 5)),
                    draw(st.floats(4, 12)), draw(st.floats(4, 12)))

    def tracks(first_id):
        return traj([(first_id + i, [(f, box()) for f in sorted(draw(frames_of))])
                     for i in range(draw(st.integers(0, 10)))])

    return tracks(1), tracks(101)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


_B = BBox(0, 0, 10, 4)


@pytest.mark.parametrize("iou_thr", [0.3, 0.5])
@settings(max_examples=300, deadline=None)
@given(st.one_of(trajectory_pairs(), clustered_pairs()))
# Pinned: in frame 2 the carried pairing sits at IoU exactly 0.5 while an
# exact copy under another id would win a fresh assignment.
@example(pair=(traj([(1, [(1, _B), (2, _B)])]),
               traj([(1, [(1, _B), (2, BBox(5, 0, 5, 4))]), (2, [(2, _B)])])))
def test_metrics_equal_frozen_scalar_reference(iou_thr, pair):
    gt, pred = pair
    assert _outcome(clear_mot, gt, pred, iou_thr) == _outcome(ref.clear_mot, gt, pred, iou_thr)
    assert id_metrics(gt, pred, iou_thr) == ref.id_metrics(gt, pred, iou_thr)
    assert _outcome(hota, gt, pred) == _outcome(ref.hota, gt, pred)


def _square(x, y=0):
    return BBox(x, y, 10, 10)


# One frame each, boxes 10 x 10 on one row unless noted. A gt box at x = 0
# and a prediction at x = 5 or -5 overlap by half: IoU 1/3 either way.
_COMPONENTS = {
    # Solved in numpy: a star's best pair, a 2x2 path's end pairs, the
    # diagonal of a 2x2 with more IoU (2/3 + 2/3 against 3/7 + 3/7).
    "star": ([_square(0)], [_square(5), _square(-4)]),
    "2x2-path": ([_square(0), _square(12)], [_square(5), _square(-4)]),
    "2x2": ([_square(0), _square(6)], [_square(2), _square(4)]),
    # Sent to the solver: a star with two equal pairs, a 2x2 whose diagonals
    # tie (all four pairs at 1/7), and a 3x3 chain.
    "star-tie": ([_square(0)], [_square(5), _square(-5)]),
    "2x2-tie": ([_square(0), _square(10)], [_square(5, -5), _square(5, 5)]),
    "3x3": ([_square(0), _square(6), _square(12)], [_square(2), _square(8), _square(14)]),
}


def _one_frame(boxes, first_id):
    """Each box as a track of its own over frames 1 and 2."""
    return traj([(first_id + i, [(1, b), (2, b)]) for i, b in enumerate(boxes)])


@pytest.mark.parametrize("name", _COMPONENTS)
def test_components_equal_frozen_reference(name, monkeypatch):
    """hota takes forced and clear optima without the solver, and solves a
    frame whole when a component ties or is larger than 2x2; every family
    scores as the reference does either way."""
    gt_boxes, pred_boxes = _COMPONENTS[name]
    gt, pred = _one_frame(gt_boxes, 1), _one_frame(pred_boxes, 11)
    for iou_thr in (0.1, 0.3, 0.5):
        assert clear_mot(gt, pred, iou_thr) == ref.clear_mot(gt, pred, iou_thr)
        assert id_metrics(gt, pred, iou_thr) == ref.id_metrics(gt, pred, iou_thr)
    calls, solve = [], metrics.linear_sum_assignment
    monkeypatch.setattr(metrics, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or solve(cost))
    assert hota(gt, pred) == ref.hota(gt, pred)
    solved = name.endswith("-tie") or name == "3x3"
    assert bool(calls) == solved
    assert all(shape == (len(gt_boxes), len(pred_boxes)) for shape in calls)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_overlap_pairs_are_the_positive_cells_of_each_frame(data):
    """The grid kernel finds every pair with IoU > 0, and no other, with
    core.iou's bits, at any scale of boxes and coordinates."""
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = data.draw(st.sampled_from([0.0, -1e6, 1e9]))
    coord = st.floats(-20, 20).map(lambda v: offset + scale * v)
    side = st.floats(0.5, 10).map(lambda v: scale * v)
    boxes = st.lists(st.tuples(st.integers(1, 3), st.builds(BBox, coord, coord, side, side)),
                     max_size=12)
    gt, pred = (traj([(i, [fb]) for i, fb in enumerate(data.draw(boxes))]) for _ in range(2))
    pairs = metrics._pairs(gt, pred)
    found = {(pairs.g_row[g], pairs.p_row[p]): v for g, p, v in zip(pairs.gi, pairs.pj, pairs.v)}
    want = {}
    for i, (_, [(f, a)]) in enumerate(gt.tracks):
        for j, (_, [(h, b)]) in enumerate(pred.tracks):
            v = iou([a], [b])[0, 0]
            if f == h and v > 0:
                want[i, j] = v
    assert found == want
