"""Shared domain types and box geometry.

Coordinates are continuous pixel units with a top-left origin and y growing
downward (MOTChallenge convention). Frame indices are 1-based.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from contextlib import suppress
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, is_not, itemgetter

import numpy as np

# Largest |x|, |y|, w or h of a box read from a file or drawn by the scene
# generator, in pixels: far beyond any frame, yet small enough that box
# areas, IoU and Kalman covariances stay finite.
COORD_MAX = 1e9


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box as (top-left x, top-left y, width, height)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box sides must be positive, got w={self.w} h={self.h}")

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    def center(self) -> tuple[float, float]:
        return (self.cx, self.cy)


_XYWH = attrgetter("x", "y", "w", "h")
_DTYPE, _FLOAT = attrgetter("dtype"), np.dtype(float)


def as_xywh(boxes) -> np.ndarray:
    """A sequence of BBox, or an array of (x, y, w, h) rows, as (N, 4)."""
    if isinstance(boxes, np.ndarray):
        return boxes.astype(float, copy=False).reshape(-1, 4)
    return np.fromiter(chain.from_iterable(map(_XYWH, boxes)), float).reshape(-1, 4)


_FILL_XYWH = tuple(BBox.__dict__[k].__set__ for k in ("x", "y", "w", "h"))


def _check_sides(boxes: np.ndarray) -> None:
    """Raise the first bad row's BBox error if a side is not positive."""
    ok = (boxes[:, 2] > 0) & (boxes[:, 3] > 0)
    if not ok.all():
        BBox(*boxes[np.argmin(ok)].tolist())


def to_bboxes(boxes: np.ndarray) -> list[BBox]:
    """The rows of an (N, 4) array of (x, y, w, h) as BBoxes. The sides are
    checked once for all rows, and each box is then filled in through its
    slots without running the check again (about four times faster)."""
    _check_sides(boxes)
    out = list(map(object.__new__, repeat(BBox, len(boxes))))
    for fill, col in zip(_FILL_XYWH, boxes.T.tolist()):
        deque(map(fill, out, col), maxlen=0)
    return out


def int_column(values) -> np.ndarray:
    """Exact ints as int64, or as an object array if one does not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of a column starts a run of equal values."""
    return np.r_[True, keys[1:] != keys[:-1]][:len(keys)]


def iou_of(a, b) -> np.ndarray:
    """Intersection-over-union of boxes given as (x, y, w, h) columns, where
    a's columns broadcast against b's; the one IoU formula."""
    (ax, ay, aw, ah), (bx, by, bw, bh) = a, b
    # Fresh result arrays are reused in place; the inputs are only read.
    iw = np.minimum(ax + aw, bx + bw)
    iw -= np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh)
    ih -= np.maximum(ay, by)
    inter = np.multiply(np.maximum(iw, 0.0, out=iw), np.maximum(ih, 0.0, out=ih), out=iw)
    union = np.add(aw * ah, bw * bh, out=ih)
    return np.divide(inter, np.subtract(union, inter, out=union), out=union)


def iou(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union of two box sets, each a sequence of
    BBox or an (N, 4) array of (x, y, w, h) rows; shape
    (len(boxes_a), len(boxes_b)), values in [0, 1]."""
    return iou_of(as_xywh(boxes_a).T[:, :, None], as_xywh(boxes_b).T)


def row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of an (N, D) array. Each row's own dot product
    equals a one-row np.linalg.norm bit for bit; np.linalg.norm(axis=1)
    can differ in the last bit."""
    return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]


@dataclass(frozen=True, slots=True)
class Detection:
    """One observed target in one frame.

    ``motion_awareness`` is the normalized per-target displacement magnitude
    emitted by an upstream detector; ``embedding`` is a unit-norm appearance
    vector. Both are optional.
    """

    frame: int
    bbox: BBox
    score: float
    class_id: int = 0
    motion_awareness: float | None = None
    embedding: np.ndarray | None = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame must be >= 1, got {self.frame}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0,1], got {self.score}")
        if not 0 <= self.class_id < 2**63:  # the tracker packs classes as int64
            raise ValueError(f"class_id must be in [0, 2**63 - 1], got {self.class_id}")
        if self.motion_awareness is not None and not 0.0 <= self.motion_awareness <= 1.0:
            raise ValueError(f"motion_awareness must be in [0,1], got {self.motion_awareness}")
        if self.embedding is not None:
            object.__setattr__(self, "embedding", _as_embedding(self.embedding))


def _as_embedding(emb) -> np.ndarray:
    """``emb`` as a Detection keeps it, a 1-D float array of unit norm (the
    same object if it is one already), or the error saying why it is not."""
    emb = np.asarray(emb, dtype=float)
    if emb.ndim != 1:
        raise ValueError(f"embedding must be 1-D, got shape {emb.shape}")
    flat = np.ascontiguousarray(emb)  # a strided dot sums in another order
    n = math.sqrt(flat.dot(flat))  # np.linalg.norm(emb), bit for bit
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"embedding must be unit norm, got norm {n}")
    return emb


def _embeddings_ok(frame: np.ndarray, embeddings: list) -> np.ndarray:
    """Whether each of ``embeddings`` passes Detection's check (None does).
    One that is not a float64 array is replaced by the array a Detection
    would keep. Each run of equal frames is stacked alone, so no more than
    one frame's vectors are copied at a time."""
    ok = np.ones(len(embeddings), dtype=bool)
    has = list(map(is_not, embeddings, repeat(None)))
    bounds = np.flatnonzero(run_starts(frame)).tolist() + [len(frame)]
    for a, b in zip(bounds, bounds[1:]):
        rows = list(compress(range(a, b), has[a:b]))
        vecs = list(map(embeddings.__getitem__, rows))
        if not vecs:
            continue
        # A ragged list does not stack, and only 1-D rows of one length stack to 2-D.
        stack = None
        if set(map(type, vecs)) == {np.ndarray} and set(map(_DTYPE, vecs)) == {_FLOAT}:
            with suppress(ValueError):
                stack = np.array(vecs)
        if stack is not None and stack.ndim == 2:
            # row_norms is the constructor's norm bit for bit; NaN passes there too.
            ok[rows] = ~(np.abs(row_norms(stack) - 1.0) > 1e-6)
            continue
        for i, v in zip(rows, vecs):
            try:
                embeddings[i] = _as_embedding(v)
            except ValueError:
                ok[i] = False
    return ok


_FILL_DETECTION = tuple(Detection.__dict__[k].__set__ for k in (
    "frame", "bbox", "score", "class_id", "motion_awareness", "embedding"))


def to_detections(frame, boxes, score, class_id, ma, embeddings) -> list[Detection]:
    """Detections from columns, equal to ``Detection(f, BBox(x, y, w, h), s,
    c, m, e)`` built row by row: ``frame`` and ``class_id`` ints, ``boxes``
    (N, 4) of (x, y, w, h), ``score``, ``ma`` (motion awareness, NaN for
    None) and ``embeddings`` (arrays or None). Both constructors' checks run
    once as masks, and the first bad row raises its own constructor's error.
    Each Detection is then filled through its slots: a column given as a
    list gives its own objects, as the constructor keeps them, and each
    embedding array is held itself. Embedding norms are checked one run of
    equal frames at a time, so list each frame's rows together."""
    given = [col if isinstance(col, list) else None for col in (frame, score, class_id, ma)]
    frame, class_id = int_column(frame), int_column(class_id)
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    score, ma = np.asarray(score, dtype=float), np.asarray(ma, dtype=float)
    embeddings = list(embeddings)
    if not len(frame) == len(boxes) == len(score) == len(class_id) == len(ma) == len(embeddings):
        raise ValueError(f"columns of {len(frame)}, {len(boxes)}, {len(score)}, "
                         f"{len(class_id)}, {len(ma)} and {len(embeddings)} rows")
    ok = _embeddings_ok(frame, embeddings)
    ok &= (boxes[:, 2] > 0) & (boxes[:, 3] > 0) & (score >= 0) & (score <= 1)
    absent = np.isnan(ma)
    ok &= absent | (ma >= 0) & (ma <= 1)
    ok &= np.asarray(frame >= 1, dtype=bool)
    # An int64 class id is below 2**63; an object column holds one beyond int64.
    ok &= (class_id >= 0 if class_id.dtype != object else
           np.array([0 <= c < 2**63 for c in class_id.tolist()], dtype=bool))
    if not ok.all():
        i = int(np.argmin(ok))
        Detection(int(frame[i]), BBox(*boxes[i].tolist()), score[i].item(), int(class_id[i]),
                  None if absent[i] else ma[i].item(), embeddings[i])
    frame, score, class_id, ma = (g if g is not None else col.tolist()
                                  for g, col in zip(given, (frame, score, class_id, ma)))
    if absent.any():
        ma = [None if a else m for a, m in zip(absent.tolist(), ma)]
    out = list(map(object.__new__, repeat(Detection, len(score))))
    for fill, col in zip(_FILL_DETECTION,
                         (frame, to_bboxes(boxes), score, class_id, ma, embeddings)):
        deque(map(fill, out, col), maxlen=0)
    return out


def embedding_dim_error(frame, index, dim, expected) -> ValueError:
    """The error for detection ``index`` of ``frame`` whose embedding has
    ``dim`` values where the first one seen had ``expected``."""
    return ValueError(f"frame {frame} detection {index}: embedding of dimension {dim}, "
                      f"expected {expected}")


class DetectionBlock(Sequence):
    """One frame's detections as columns: ``boxes`` (N, 4) of (x, y, w, h),
    ``score``, ``class_id`` (int64), ``ma`` (motion awareness, NaN where
    absent), and ``emb`` (N, D) with its mask ``has_emb`` (rows without an
    embedding are zero). Indexing builds each Detection when asked for;
    a block made by ``of`` hands back the Detections it was made from."""

    __slots__ = ("frame", "boxes", "score", "class_id", "ma", "emb", "has_emb", "_dets")

    def __init__(self, frame, boxes, score, class_id, ma, emb, has_emb, dets=None):
        self.frame, self.boxes, self.score, self.class_id = frame, boxes, score, class_id
        self.ma, self.emb, self.has_emb, self._dets = ma, emb, has_emb, dets

    @classmethod
    def of(cls, frame: int, dets) -> "DetectionBlock":
        """The columns of Detections that all belong to ``frame``; their
        embeddings must share one dimension."""
        dets = list(dets)
        rows = [(d.frame, d.class_id, d.embedding is not None, d.bbox.x, d.bbox.y, d.bbox.w,
                 d.bbox.h, d.score, np.nan if d.motion_awareness is None else d.motion_awareness)
                for d in dets]
        frames, cls_ids, has, *table = zip(*rows) if rows else [()] * 9
        if frames.count(frame) != len(rows):
            raise ValueError("detections from mixed frames")
        vecs = [d.embedding for d in compress(dets, has)]
        has = np.array(has, dtype=bool)
        emb = np.zeros((len(dets), len(vecs[0]) if vecs else 0))
        if vecs:
            for j, v in zip(np.flatnonzero(has).tolist(), vecs):
                if len(v) != emb.shape[1]:
                    raise embedding_dim_error(frame, j, len(v), emb.shape[1])
            emb[has] = vecs
        table = np.array(table, dtype=float)
        return cls(frame, table[:4].T, table[4], np.array(cls_ids, dtype=np.int64), table[5],
                   emb, has, dets)

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i) -> Detection:
        if self._dets is not None:
            return self._dets[i]
        i = range(len(self))[i]
        ma = self.ma[i].item()
        return Detection(self.frame, BBox(*self.boxes[i].tolist()), self.score[i].item(),
                         int(self.class_id[i]), None if math.isnan(ma) else ma,
                         self.emb[i] if self.has_emb[i] else None)

    def bboxes(self, idx) -> list[BBox]:
        """The boxes of the detections at ``idx``."""
        if self._dets is not None:
            return [self._dets[j].bbox for j in idx.tolist()]
        return to_bboxes(self.boxes[idx])

    def embeddings(self, dim: int) -> np.ndarray:
        """``emb`` as ``dim`` columns: zeros if the block has no embedding,
        else an error at its first one unless ``dim`` is its width."""
        if self.emb.shape[1] == dim:
            return self.emb
        if not self.has_emb.any():
            return np.zeros((len(self), dim))
        j = int(np.argmax(self.has_emb))
        raise embedding_dim_error(self.frame, j, self.emb.shape[1], dim)


class TrajectorySet(Sequence):
    """Finalized per-sequence tracking output as read-only columns, one row
    per box: ``ids``, ``frame`` (``int_column``s) and ``boxes`` (N, 4) of (x,
    y, w, h), grouped by track in the given order with frames strictly rising
    in each; the constructor checks that in bulk. The set is the sequence of
    its tracks, (id, ((frame, float box), ...)) each, built when indexed."""

    __slots__ = ("ids", "frame", "boxes", "_bounds")

    def __init__(self, ids=(), frame=(), boxes=()):
        ids, frame = int_column(ids), int_column(frame)
        boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        if not len(ids) == len(frame) == len(boxes):
            raise ValueError(f"{len(ids)} ids, {len(frame)} frames and {len(boxes)} boxes")
        first = run_starts(ids)
        starts = np.flatnonzero(first)
        if len(set(ids[starts].tolist())) != len(starts):
            raise ValueError("duplicate track ids")
        back = np.flatnonzero(~first[1:] & (frame[1:] <= frame[:-1]))
        if len(back):
            raise ValueError(f"track {ids[back[0]]} frames not strictly increasing")
        _check_sides(boxes)
        self.ids, self.frame, self.boxes = ids.view(), frame.view(), boxes.view()
        for col in (self.ids, self.frame, self.boxes):
            col.flags.writeable = False
        self._bounds = np.append(starts, len(ids))

    @classmethod
    def build(cls, tracks) -> "TrajectorySet":
        """The set of (track id, [(frame, BBox), ...]) pairs, each with a box."""
        tracks = [(int(tid), list(seq)) for tid, seq in tracks]
        if empty := [tid for tid, seq in tracks if not seq]:
            raise ValueError(f"track {empty[0]} has no boxes")
        if len({tid for tid, _ in tracks}) != len(tracks):
            raise ValueError("duplicate track ids")
        return cls([tid for tid, seq in tracks for _ in seq],
                   [int(f) for _, seq in tracks for f, _ in seq],
                   as_xywh([b for _, seq in tracks for _, b in seq]))

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, i) -> tuple[int, tuple[tuple[int, BBox], ...]]:
        i = range(len(self))[i]
        a, b = self._bounds[i:i + 2]
        return int(self.ids[a]), tuple(zip(self.frame[a:b].tolist(), to_bboxes(self.boxes[a:b])))

    def __eq__(self, other):
        if not isinstance(other, TrajectorySet):
            return NotImplemented
        return all(map(np.array_equal, (self.ids, self.frame, self.boxes),
                       (other.ids, other.frame, other.boxes)))

    def __repr__(self) -> str:
        return f"TrajectorySet(tracks={tuple(self)!r})"

    tracks = property(lambda self: self, doc="The set itself, as the sequence of its tracks.")

    def num_boxes(self) -> int:
        return len(self.ids)

    def frames(self) -> list[int]:
        return sorted(set(self.frame.tolist()))

    def boxes_by_frame(self) -> dict[int, list[tuple[int, BBox]]]:
        """frame -> list of (track id, box), frames ascending, tracks in order."""
        order = np.argsort(self.frame, kind="stable")
        rows = zip(self.frame[order].tolist(), self.ids[order].tolist(),
                   to_bboxes(self.boxes[order]))
        return {f: [(tid, b) for _, tid, b in run] for f, run in groupby(rows, itemgetter(0))}

    def by_id(self) -> dict[int, dict[int, BBox]]:
        return {tid: dict(seq) for tid, seq in self}
