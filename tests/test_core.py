import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import sartrack
from metrics_reference import iou as scalar_iou
from sartrack.core import BBox, Detection, TrajectorySet, iou


def iou1(a, b):
    return iou([a], [b])[0, 0]


def test_iou_identical():
    b = BBox(3, 4, 5, 6)
    assert iou1(b, b) == 1.0


def test_iou_disjoint():
    assert iou1(BBox(0, 0, 1, 1), BBox(5, 5, 1, 1)) == 0.0


def test_iou_hand_case():
    # inter = 1x2 = 2, union = 4 + 4 - 2 = 6
    assert iou1(BBox(0, 0, 2, 2), BBox(1, 0, 2, 2)) == pytest.approx(1 / 3)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        b = BBox(*rng.uniform(0, 50, 2), *rng.uniform(1, 30, 2))
        v = iou1(a, b)
        assert v == iou1(b, a)
        assert 0.0 <= v <= 1.0


def test_iou_matrix_equals_scalar_formula_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n, m = rng.integers(0, 6, 2)
        a = [BBox(*rng.uniform(0, 30, 2), *rng.uniform(0.5, 20, 2)) for _ in range(n)]
        b = [BBox(*rng.uniform(0, 30, 2), *rng.uniform(0.5, 20, 2)) for _ in range(m)]
        a += b[:1]  # an exact copy scores exactly 1
        got = iou(a, b)
        assert got.shape == (len(a), m)
        want = np.array([[scalar_iou(x, y) for y in b] for x in a]).reshape(len(a), m)
        assert np.array_equal(got, want)


def test_bbox_rejects_degenerate():
    with pytest.raises(ValueError):
        BBox(0, 0, 0, 1)
    with pytest.raises(ValueError):
        BBox(0, 0, 1, -2)


def test_detection_validation():
    b = BBox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        Detection(frame=0, bbox=b, score=0.5)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=b, score=1.5)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=b, score=0.5, motion_awareness=2.0)
    with pytest.raises(ValueError):
        Detection(frame=1, bbox=b, score=0.5, embedding=np.array([3.0, 4.0]))
    d = Detection(frame=1, bbox=b, score=0.5, embedding=np.array([0.6, 0.8]))
    assert np.linalg.norm(d.embedding) == pytest.approx(1.0)


def test_trajectory_set_invariants():
    b = BBox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        TrajectorySet.build([(1, [(1, b)]), (1, [(2, b)])])
    with pytest.raises(ValueError):
        TrajectorySet.build([(1, [(2, b), (2, b)])])
    ts = TrajectorySet.build([(1, [(1, b), (3, b)]), (2, [(2, b)])])
    assert ts.num_boxes() == 3
    assert ts.frames() == [1, 2, 3]
    assert [tid for tid, _ in ts.boxes_by_frame()[1]] == [1]


def test_every_dataclass_is_frozen_and_slotted():
    """Value types are built per target per frame, so none may carry an
    instance dict."""
    classes = [cls for info in pkgutil.iter_modules(sartrack.__path__)
               for _, cls in inspect.getmembers(importlib.import_module(f"sartrack.{info.name}"),
                                                inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__ == f"sartrack.{info.name}"]
    assert {"BBox", "Detection", "MotRecord"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in vars(cls), cls
        assert not hasattr(object.__new__(cls), "__dict__"), cls
    b = BBox(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        object.__setattr__(b, "label", "car")
    assert dataclasses.replace(b, w=5) == BBox(1, 2, 5, 4)
    assert hash(b) == hash(BBox(1, 2, 3, 4))
