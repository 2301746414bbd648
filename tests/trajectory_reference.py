"""Frozen reference for the equivalence tests: `core.TrajectorySet` as it
was when it held a tuple of (track id, ((frame, BBox), ...)) per track and
turned its boxes back into columns in `flat()`, kept verbatim apart from
this docstring and the imports. Test-only; do not change it to follow the
library.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from sartrack.core import BBox, as_xywh


@dataclass(frozen=True, slots=True)
class TrajectorySet:
    """Finalized per-sequence tracking output.

    ``tracks`` maps each unique track id to its (frame, box) sequence with
    strictly increasing frames.
    """

    tracks: tuple[tuple[int, tuple[tuple[int, BBox], ...]], ...] = ()
    _flat: "FlatBoxes | None" = field(default=None, init=False, repr=False, compare=False)

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

    def flat(self) -> "FlatBoxes":
        """Every box as columns, ordered by frame and then by row (a track's
        index in ``.tracks``); computed on the first call and kept."""
        if self._flat is None:
            seqs = [seq for _, seq in self.tracks]
            frame_of = [f for seq in seqs for f, _ in seq]
            frames = sorted(set(frame_of))
            pos = {f: i for i, f in enumerate(frames)}
            frame = np.array([pos[f] for f in frame_of], dtype=np.intp)
            order = np.argsort(frame, kind="stable")
            row = np.repeat(np.arange(len(seqs)), [len(seq) for seq in seqs])
            cols = as_xywh([b for seq in seqs for _, b in seq])[order].T.copy()
            object.__setattr__(self, "_flat", FlatBoxes(frames, frame[order], row[order], cols))
        return self._flat


class FlatBoxes(NamedTuple):
    """A TrajectorySet's boxes as columns, one entry per box."""

    frames: list[int]  # the distinct frames, ascending
    frame: np.ndarray  # each box's index into ``frames``
    row: np.ndarray  # each box's track index in ``TrajectorySet.tracks``
    cols: np.ndarray  # (4, N): each box's x, y, w and h

