"""The metrics module against its frozen reference on whole scenes: every
golden scene that ships a gt.txt, scored against each of its res-*.txt, and
one 200-frame x 30-target scene tracked in memory, also with the two sets
cut to overlapping frame ranges, so that some frames have an empty side.
The hypothesis test in test_metrics.py draws at most 4 gt tracks over 6
frames, so it never sums AssA over many pairs, where the order of the sum
shows in the last bit."""
import functools

import make_goldens as mg
import metrics_reference as ref
import pytest

from sartrack import metrics, synthsim
from sartrack.assoc import track_sequence
from sartrack.core import TrajectorySet
from sartrack.io import parse_mot_file, records_to_trajectories


def _read(name):
    return records_to_trajectories(parse_mot_file(mg.GOLDEN_DIR / name))


@functools.cache
def _tracked_scene():
    """synth -> perturb -> track of a 200-frame x 30-target scene, as (gt, pred)."""
    scene = synthsim.generate_scene(synthsim.ScenarioConfig(
        seed=1, frames=200, n_moving=30, width=256, height=256, speed_min=1.0,
        speed_max=4.0, appearance_flip_speed=3.0, p_toggle=0.05))
    dets = synthsim.perturb_detections(scene, synthsim.PerturbConfig(
        seed=2, jitter_sigma=0.2, p_fn=0.1, lambda_fp=2.0))
    return scene.gt, track_sequence(dets)


def _frames_in(tset, first, last):
    """The boxes of tset on frames first..last."""
    cut = [(tid, [(f, b) for f, b in seq if first <= f <= last]) for tid, seq in tset.tracks]
    return TrajectorySet.build([(tid, seq) for tid, seq in cut if seq])


_GOLDEN_PAIRS = [(gt.name, res.name) for gt in sorted(mg.GOLDEN_DIR.glob("*.gt.txt"))
                 for res in sorted(mg.GOLDEN_DIR.glob(gt.name.replace("gt.txt", "res-*.txt")))]


@pytest.fixture(params=[*_GOLDEN_PAIRS, "tracked-200x30", "tracked-200x30-cut"], ids=str)
def scene_pair(request):
    if request.param == "tracked-200x30":
        return _tracked_scene()
    if request.param == "tracked-200x30-cut":
        # Frames 1-20 have no prediction and frames 181-200 no ground truth.
        gt, pred = _tracked_scene()
        return _frames_in(gt, 1, 180), _frames_in(pred, 21, 200)
    gt_name, res_name = request.param
    return _read(gt_name), _read(res_name)


def test_golden_scenes_are_found():
    assert {gt for gt, _ in _GOLDEN_PAIRS} == {"ablation.gt.txt", "determinism.gt.txt"}
    assert len(_GOLDEN_PAIRS) == 3


@pytest.mark.parametrize("iou_thr", [0.3, 0.5])
def test_whole_scene_equals_frozen_reference(scene_pair, iou_thr):
    gt, pred = scene_pair
    assert metrics.clear_mot(gt, pred, iou_thr) == ref.clear_mot(gt, pred, iou_thr)
    assert metrics.id_metrics(gt, pred, iou_thr) == ref.id_metrics(gt, pred, iou_thr)


def test_whole_scene_hota_equals_frozen_reference(scene_pair):
    gt, pred = scene_pair
    assert metrics.hota(gt, pred) == ref.hota(gt, pred)


def _counted(module, monkeypatch) -> list:
    """Count calls through module.linear_sum_assignment; returns the counter."""
    calls, solve = [], module.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(module, "linear_sum_assignment", counting)
    return calls


def _is_subsequence(ours, theirs) -> bool:
    rest = iter(theirs)
    return all(shape in rest for shape in ours)


@pytest.mark.parametrize("family", ["clear_mot", "id_metrics", "hota"])
def test_solver_calls_equal_frozen_reference(scene_pair, family, monkeypatch):
    """Each family solves only matrices that the reference solves, in the
    reference's order and with the same shapes, so never one with an empty
    side. clear_mot and hota take the components whose optimum is clear
    without the solver; id_metrics solves its one padded matrix as before."""
    gt, pred = scene_pair
    ours, theirs = _counted(metrics, monkeypatch), _counted(ref, monkeypatch)
    getattr(metrics, family)(gt, pred)
    getattr(ref, family)(gt, pred)
    assert _is_subsequence(ours, theirs)
    assert all(min(shape) > 0 for shape in ours)
    if family == "id_metrics":
        assert ours == theirs


def test_hota_solves_at_most_a_fifth_of_frozen_reference(monkeypatch):
    gt, pred = _tracked_scene()
    ours, theirs = _counted(metrics, monkeypatch), _counted(ref, monkeypatch)
    metrics.hota(gt, pred)
    ref.hota(gt, pred)
    assert 5 * len(ours) <= len(theirs)
