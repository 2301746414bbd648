import dataclasses
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import sartrack
from metrics_reference import iou as scalar_iou
from sartrack.core import BBox, Detection, TrajectorySet, as_xywh, iou, iou_of, to_detections


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


def _clipped_iou(a, b):
    """The IoU kernel as it read before it worked in place, with temporaries
    and `.clip(min=0.0)`."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    inter = ((np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)).clip(min=0.0)
             * (np.minimum(ay + ah, by + bh) - np.maximum(ay, by)).clip(min=0.0))
    return inter / (aw * ah + bw * bh - inter)


# Boxes that are disjoint, touch at an edge or a corner, nest, or repeat.
_EDGE_BOXES = [BBox(0, 0, 2, 2), BBox(2, 0, 2, 2), BBox(2, 2, 1, 1), BBox(0.5, 0.5, 1, 1),
               BBox(-3, -3, 10, 10), BBox(5, 5, 1, 1), BBox(0, 0, 2, 2), BBox(-2, 0, 2, 2)]


def test_iou_matrix_equals_scalar_formula_bitwise():
    rng = np.random.default_rng(3)
    cases = [(_EDGE_BOXES, _EDGE_BOXES)]
    for _ in range(200):
        n, m = rng.integers(0, 6, 2)
        a = [BBox(*rng.uniform(0, 30, 2), *rng.uniform(0.5, 20, 2)) for _ in range(n)]
        b = [BBox(*rng.uniform(0, 30, 2), *rng.uniform(0.5, 20, 2)) for _ in range(m)]
        cases.append((a + b[:1], b))  # an exact copy scores exactly 1
    for a, b in cases:
        got = iou(a, b)
        assert got.shape == (len(a), len(b))
        want = np.array([[scalar_iou(x, y) for y in b] for x in a]).reshape(len(a), len(b))
        assert np.array_equal(got, want)
        cols_a, cols_b = as_xywh(a).T, as_xywh(b).T
        assert np.array_equal(got, _clipped_iou(cols_a[:, :, None], cols_b))
    edges = iou(_EDGE_BOXES, _EDGE_BOXES)
    assert edges[0, 1] == edges[0, 2] == edges[0, 5] == 0.0  # disjoint or touching
    assert edges[0, 6] == 1.0 and edges[0, 3] == 0.25 and edges[0, 4] == 0.04


def test_iou_with_nan_boxes_equals_the_clipped_formula_bitwise():
    rng = np.random.default_rng(4)
    a = np.vstack([as_xywh(_EDGE_BOXES), rng.uniform(0.5, 20, (20, 4))])
    a[rng.random(a.shape) < 0.1] = np.nan
    got = iou(a, a[::-1])
    want = _clipped_iou(a.T[:, :, None], a[::-1].T)
    assert np.isnan(got).any() and not np.isnan(got).all()
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_iou_kernels_leave_read_only_inputs_unwritten():
    """iou and iou_of read their inputs and write only their own result:
    the frozen columns of a TrajectorySet go in as they are."""
    rng = np.random.default_rng(5)
    boxes = np.vstack([as_xywh(_EDGE_BOXES), rng.uniform(0.5, 20, (12, 4))])
    ts = TrajectorySet(np.arange(len(boxes)), np.ones(len(boxes), dtype=np.int64), boxes)
    assert not ts.boxes.flags.writeable
    before = ts.boxes.copy()
    cols = ts.boxes.T
    full = iou(ts.boxes, ts.boxes)
    assert np.array_equal(full, iou_of(cols[:, :, None], cols))
    # The 1-D pair columns and the empty inputs that metrics passes.
    gi, pj = np.array([0, 0, 3, 8, 19]), np.array([1, 6, 0, 8, 2])
    pairs = iou_of(cols[:, gi], cols[:, pj])
    assert pairs.shape == (5,) and np.array_equal(pairs, full[gi, pj])
    none = np.zeros(0, dtype=np.intp)
    assert iou_of(cols[:, none], cols[:, none]).shape == (0,)
    assert iou(ts.boxes[:0], ts.boxes).shape == (0, len(boxes))
    assert iou(ts.boxes, []).shape == (len(boxes), 0)
    assert np.array_equal(ts.boxes, before)
    # Integer rows are read as floats, not written into.
    ints = np.array([[0, 0, 2, 2], [1, 0, 2, 2]])
    assert np.array_equal(iou(ints, ints), iou(ints.astype(float), ints.astype(float)))


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


@pytest.mark.parametrize("step", [1, 2, 5])
def test_detection_norm_check_reports_the_linalg_norm(step):
    """On C-contiguous (step 1) and strided 1-D embeddings alike."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        emb = (rng.normal(size=30 * step) * 2.0)[::step]
        with pytest.raises(ValueError) as exc:
            Detection(frame=1, bbox=BBox(0, 0, 1, 1), score=0.5, embedding=emb)
        assert str(exc.value).endswith(f"got norm {float(np.linalg.norm(emb))}")


@pytest.mark.parametrize("emb", [np.array(1.0), np.array([[0.6, 0.8]]), np.ones((2, 3))])
def test_embedding_must_be_one_dimensional(emb):
    """An embedding of another shape fails as a Detection, before its norm
    is checked, not later in the tracker."""
    msg = f"embedding must be 1-D, got shape {emb.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        Detection(frame=1, bbox=BBox(0, 0, 1, 1), score=0.5, embedding=emb)


def _columns():
    """Five valid rows over frames 1, 1, 1, 2, 4: frame 1 mixes 3- and
    2-wide embeddings, and the last row has neither an embedding nor a
    motion awareness (NaN)."""
    rng = np.random.default_rng(0)
    emb = [v / np.linalg.norm(v) for v in rng.normal(size=(4, 3))]
    emb[2] = np.array([0.6, 0.8])
    return {"frame": [1, 1, 1, 2, 4],
            "boxes": np.array([[0, 0, 2, 3], [1.5, -2, 4, 1], [3, 3, 1, 1], [-1e9, 0, 1e-300, 2],
                               [0, 1, 2, 2]]),
            "score": [0.5, 1.0, 0.0, 0.25, 0.9], "class_id": [0, 3, 1, 2**63 - 1, 2],
            "ma": [0.25, 1.0, 0.0, 0.5, math.nan], "embeddings": emb + [None]}


def _row(cols, i) -> Detection:
    """Row i of the columns, built by the constructors."""
    ma = cols["ma"][i]
    return Detection(cols["frame"][i], BBox(*np.asarray(cols["boxes"][i]).tolist()),
                     cols["score"][i], cols["class_id"][i], None if math.isnan(ma) else ma,
                     cols["embeddings"][i])


def _fields(d: Detection) -> tuple:
    b = d.bbox
    return tuple((type(v), v) for v in (d.frame, b.x, b.y, b.w, b.h, d.score, d.class_id,
                                        d.motion_awareness))


def test_to_detections_equals_the_constructors():
    """Each Detection equals the one its constructors build, type and value,
    and holds the very embedding array it was given; a column given as a
    list gives its own objects, as a constructor keeps them."""
    cols = _columns()
    got = to_detections(**cols)
    assert len(got) == 5
    for i, d in enumerate(got):
        assert _fields(d) == _fields(_row(cols, i)), i
        assert d.embedding is cols["embeddings"][i], i
        assert d.score is cols["score"][i], i
    assert all(d.motion_awareness is m for d, m in zip(got[:4], cols["ma"]))
    assert to_detections([], np.empty((0, 4)), [], [], [], []) == []


def test_to_detections_keeps_the_constructors_embedding_conversion():
    """An embedding that is not a float64 array becomes the array the
    constructor keeps."""
    cols = _columns()
    cols["embeddings"][0] = [0.6, 0.8]
    cols["embeddings"][3] = np.array([0, 1])
    got = to_detections(**cols)
    for i in (0, 3):
        want = _row(cols, i).embedding
        assert (got[i].embedding.dtype, got[i].embedding.tolist()) == (want.dtype, want.tolist())
    assert cols["embeddings"][0] == [0.6, 0.8]  # the caller's list is left as it was


@pytest.mark.parametrize("field,value", [
    ("score", math.nan), ("score", -0.1), ("score", 1.5),
    ("class_id", 2**63), ("class_id", -1),
    ("ma", 1.5),
    ("embeddings", np.ones((2, 2)) / 2), ("embeddings", np.array([3.0, 4.0])),
    ("embeddings", np.array([0.0, 2.0, 0.0])),
    ("boxes", [0, 0, 0, 1]), ("boxes", [0, 0, math.nan, 1]), ("boxes", [0, 0, 1, -2]),
    ("frame", 0),
], ids=["score-nan", "score-low", "score-high", "class-2**63", "class-negative", "ma",
        "emb-2d", "emb-ragged-norm", "emb-norm", "side-zero", "side-nan", "side-negative",
        "frame"])
def test_to_detections_raises_the_constructors_error_at_the_first_bad_row(field, value):
    """One bad field gives the exact text its constructor raises, though a
    later row is bad too: in row 1, whose frame mixes embedding widths, and
    in row 3, alone in its frame."""
    for row in (1, 3):
        cols = _columns()
        cols["score"][4] = 2.0
        cols[field][row] = value
        with pytest.raises(ValueError) as want:
            _row(cols, row)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            to_detections(**cols)


def test_to_detections_rejects_columns_of_unequal_length():
    cols = _columns()
    cols["score"].pop()
    with pytest.raises(ValueError, match="columns of 5, 5, 4, 5, 5 and 5 rows"):
        to_detections(**cols)


def test_trajectory_set_invariants():
    b = BBox(0, 0, 1, 1)
    with pytest.raises(ValueError):
        TrajectorySet.build([(1, [(1, b)]), (1, [(2, b)])])
    with pytest.raises(ValueError, match="^track 2 has no boxes$"):
        TrajectorySet.build([(1, [(1, b)]), (2, [])])
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
