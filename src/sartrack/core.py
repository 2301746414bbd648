"""Shared domain types and box geometry.

Coordinates are continuous pixel units with a top-left origin and y growing
downward (MOTChallenge convention). Frame indices are 1-based.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def as_xywh(boxes) -> np.ndarray:
    """A sequence of BBox, or an array of (x, y, w, h) rows, as (N, 4)."""
    if isinstance(boxes, np.ndarray):
        return boxes.reshape(-1, 4)
    return np.array([(r.x, r.y, r.w, r.h) for r in boxes], dtype=float).reshape(-1, 4)


def iou(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union of two box sets, each a sequence of
    BBox or an (N, 4) array of (x, y, w, h) rows; shape
    (len(boxes_a), len(boxes_b)), values in [0, 1]."""
    a, b = as_xywh(boxes_a), as_xywh(boxes_b)
    ix = (np.minimum((a[:, 0] + a[:, 2])[:, None], (b[:, 0] + b[:, 2])[None, :])
          - np.maximum(a[:, None, 0], b[None, :, 0])).clip(min=0.0)
    iy = (np.minimum((a[:, 1] + a[:, 3])[:, None], (b[:, 1] + b[:, 3])[None, :])
          - np.maximum(a[:, None, 1], b[None, :, 1])).clip(min=0.0)
    inter = ix * iy
    return inter / ((a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter)


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
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")
        if self.motion_awareness is not None and not 0.0 <= self.motion_awareness <= 1.0:
            raise ValueError(f"motion_awareness must be in [0,1], got {self.motion_awareness}")
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=float)
            n = float(np.linalg.norm(emb))
            if abs(n - 1.0) > 1e-6:
                raise ValueError(f"embedding must be unit norm, got norm {n}")
            object.__setattr__(self, "embedding", emb)


@dataclass(frozen=True, slots=True)
class TrajectorySet:
    """Finalized per-sequence tracking output.

    ``tracks`` maps each unique track id to its (frame, box) sequence with
    strictly increasing frames.
    """

    tracks: tuple[tuple[int, tuple[tuple[int, BBox], ...]], ...] = ()

    @classmethod
    def build(cls, tracks) -> "TrajectorySet":
        frozen = tuple((int(tid), tuple((int(f), b) for f, b in seq)) for tid, seq in tracks)
        if len({tid for tid, _ in frozen}) != len(frozen):
            raise ValueError("duplicate track ids")
        for tid, seq in frozen:
            if any(b[0] <= a[0] for a, b in zip(seq, seq[1:])):
                raise ValueError(f"track {tid} frames not strictly increasing")
        return cls(frozen)

    def __len__(self) -> int:
        return len(self.tracks)

    def num_boxes(self) -> int:
        return sum(len(seq) for _, seq in self.tracks)

    def frames(self) -> list[int]:
        return sorted({f for _, seq in self.tracks for f, _ in seq})

    def boxes_by_frame(self) -> dict[int, list[tuple[int, BBox]]]:
        """frame -> list of (track id, box), in track-id order."""
        out: dict[int, list[tuple[int, BBox]]] = {}
        for tid, seq in self.tracks:
            for f, b in seq:
                out.setdefault(f, []).append((tid, b))
        return {f: out[f] for f in sorted(out)}

    def by_id(self) -> dict[int, dict[int, BBox]]:
        return {tid: {f: b for f, b in seq} for tid, seq in self.tracks}

