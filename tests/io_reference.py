"""Frozen reference for the equivalence tests: the text parsers as they were
when each format had its own hand-written loop, kept verbatim apart from this
docstring, the merged imports, and the copies of the three config
`from_dict` methods (as functions), the synth command's unknown-key check and
the command line's proposal reader (which raised the command line's own
`DataError`, here `ValueError`). Config classes come from the library; the
MOT record class is a copy of `io.MotRecord` as it was when a parsed record
carried its `(path, line)` source.

At the end, the writers as they were before they were written in bulk:
`_fmt`, `MotRecord.render` (as a function of the record), `write_mot_file`
(calling that function), `write_embeddings` and `to_uint8`; then `write_pgm`
as it was before it also wrote PPM, and `write_scene`: the synth command's
file writing as it was when the command did it itself, calling the frozen
writers here and counting frames as `len(scene.frames)`.

Last, the line-by-line readers as they were before each format's checks
became masks over one table: `read_lines`, `parse_numbers`, `_NORM_MIN`,
`_MOT_INT_COLS`, the per-line MOT, embedding and camera-motion parsers
`_parse_mot_lines`, `_parse_embedding_lines` and `_parse_cmc_lines`, and
`parse_proposals` (here `parse_proposal_lines`), each calling the copies here.

Then the record grouping as it was when it built one object per record:
`records_to_detections` (one Detection and BBox per record, in per-frame
lists) and `records_to_trajectories` (one BBox per record, grouped in
dicts).

Test-only; do not change it to follow the library.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from sartrack.assoc import TrackerConfig
from sartrack.core import COORD_MAX, BBox, Detection, TrajectorySet
from sartrack.io import ParseError
from sartrack.lfa import Proposal
from sartrack.motion import Affine2x3
from sartrack.synthsim import PerturbConfig, ScenarioConfig


@dataclass(frozen=True, slots=True)
class MotRecord:
    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    conf: float
    class_id: int
    visibility: float
    motion_awareness: float | None = None
    # (path, line number) of a parsed record, so later checks can name it.
    source: tuple[str, int] | None = field(default=None, compare=False, repr=False)


def parse_mot_file(path) -> list[MotRecord]:
    """Records sorted by frame (stable); 9 or 10 comma-separated columns."""
    records = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) not in (9, 10):
                raise ParseError(path, line_no, f"expected 9 or 10 columns, got {len(fields)}")
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
            if not all(np.isfinite(vals)):
                raise ParseError(path, line_no, "non-finite value")
            frame = int(vals[0])
            if frame < 1:
                raise ParseError(path, line_no, f"frame must be >= 1, got {frame}")
            if vals[4] <= 0 or vals[5] <= 0:
                raise ParseError(path, line_no, f"nonpositive box size {vals[4]}x{vals[5]}")
            ma = vals[9] if len(vals) == 10 else None
            records.append(MotRecord(frame, int(vals[1]), vals[2], vals[3], vals[4],
                                     vals[5], vals[6], int(vals[7]), vals[8], ma))
    records.sort(key=lambda r: r.frame)
    return records


def parse_embeddings(path) -> dict[tuple[int, int], np.ndarray]:
    """Lines of `frame det_index v1 ... vd`; vectors are L2-normalized."""
    out: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                frame = int(fields[0])
                idx = int(fields[1])
                vec = np.array([float(f) for f in fields[2:]])
            except (ValueError, IndexError):
                raise ParseError(path, line_no, "malformed embedding line") from None
            if vec.size == 0 or not np.all(np.isfinite(vec)):
                raise ParseError(path, line_no, "empty or non-finite embedding")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(path, line_no,
                                 f"dimension {vec.size} != first dimension {dim}")
            n = np.linalg.norm(vec)
            if n == 0:
                raise ParseError(path, line_no, "zero embedding cannot be normalized")
            out[(frame, idx)] = vec / n
    return out


def parse_cmc_file(path) -> dict[int, Affine2x3]:
    """Lines of `frame r11 r12 tx r21 r22 ty`; missing frames mean identity."""
    out: dict[int, Affine2x3] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 7:
                raise ParseError(path, line_no, f"expected 7 fields, got {len(fields)}")
            try:
                frame = int(fields[0])
                v = [float(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(path, line_no, "non-numeric field") from None
            out[frame] = Affine2x3(np.array(v).reshape(2, 3))
    return out


def parse_config(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and `#` comments allowed."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, line_no, f"expected `key = value`, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


_INT_KEYS = {"n_init", "max_age"}
_SCN_INTS = {"seed", "frames", "width", "height", "n_moving", "n_static_occluders"}


def tracker_config_from_dict(d: dict) -> TrackerConfig:
    cls = TrackerConfig
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for k, v in d.items():
        kwargs[k] = int(v) if k in _INT_KEYS else float(v)
    return cls(**kwargs)


def scenario_config_from_dict(d: dict) -> ScenarioConfig:
    cls = ScenarioConfig
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for k, v in d.items():
        if k not in known:
            continue
        kwargs[k] = int(v) if k in _SCN_INTS else float(v)
    return cls(**kwargs)


def perturb_config_from_dict(d: dict) -> PerturbConfig:
    cls = PerturbConfig
    known = {f.name for f in fields(cls)}
    kwargs = {k: (int(v) if k == "seed" else float(v))
              for k, v in d.items() if k in known}
    return cls(**kwargs)


def load_synth_config(path) -> tuple[ScenarioConfig, PerturbConfig]:
    """The synth command's config handling."""
    conf = parse_config(path)
    known = {f.name for cls in (ScenarioConfig, PerturbConfig) for f in fields(cls)}
    unknown = sorted(set(conf) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    return scenario_config_from_dict(conf), perturb_config_from_dict(conf)


def parse_proposals(path) -> list[Proposal]:
    props = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) < 6:
                raise ValueError(f"{path}:{line_no}: expected x y w h v_hat f1...")
            try:
                vals = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric field") from None
            props.append(Proposal(BBox(*vals[:4]), np.array(vals[5:]), vals[4]))
    return props


def _fmt(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def render(self: MotRecord) -> str:
    parts = [str(self.frame), str(self.track_id),
             _fmt(self.x), _fmt(self.y), _fmt(self.w), _fmt(self.h),
             _fmt(self.conf), str(self.class_id), _fmt(self.visibility)]
    if self.motion_awareness is not None:
        parts.append(_fmt(self.motion_awareness))
    return ",".join(parts)


def write_mot_file(tset: TrajectorySet, path) -> None:
    """One line per box, frame-major, conf 1, class and visibility -1."""
    lines = []
    for frame, boxes in tset.boxes_by_frame().items():
        for tid, b in boxes:
            lines.append(render(MotRecord(frame, tid, b.x, b.y, b.w, b.h, 1, -1, -1)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def write_embeddings(emb: dict[tuple[int, int], np.ndarray], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for (frame, idx) in sorted(emb):
            vec = " ".join(_fmt(v) for v in emb[(frame, idx)])
            fh.write(f"{frame} {idx} {vec}\n")


def to_uint8(x: np.ndarray) -> np.ndarray:
    """Min-max normalize any real array to 8-bit."""
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(), x.max()
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.uint8)
    return np.round((x - lo) / (hi - lo) * 255).astype(np.uint8)


def write_pgm(img: np.ndarray, path) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_scene(scene, dets, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, frame in enumerate(scene.frames, start=1):
        write_pgm(to_uint8(frame[:, :, 0]), os.path.join(out_dir, f"{i:06d}.pgm"))
    gt_records = []
    for f, boxes in scene.gt.boxes_by_frame().items():
        for tid, b in boxes:
            gt_records.append(render(MotRecord(
                f, tid, b.x, b.y, b.w, b.h, 1, scene.classes[tid], 1,
                scene.velocities[(tid, f)])))
    with open(os.path.join(out_dir, "gt.txt"), "w") as fh:
        fh.write("\n".join(gt_records) + ("\n" if gt_records else ""))
    det_lines = []
    emb: dict[tuple[int, int], np.ndarray] = {}
    for f in sorted(dets):
        for idx, d in enumerate(dets[f]):
            b = d.bbox
            det_lines.append(render(MotRecord(
                f, -1, b.x, b.y, b.w, b.h, d.score, d.class_id, -1,
                d.motion_awareness)))
            if d.embedding is not None:
                emb[(f, idx)] = d.embedding
    with open(os.path.join(out_dir, "det.txt"), "w") as fh:
        fh.write("\n".join(det_lines) + ("\n" if det_lines else ""))
    write_embeddings(emb, os.path.join(out_dir, "emb.txt"))
    with open(os.path.join(out_dir, "cmc.txt"), "w") as fh:
        for f in range(1, len(scene.frames) + 1):
            fh.write(f"{f} 1 0 0 0 1 0\n")


# Smallest embedding norm whose squared sum is a normal float: below it the
# sum loses precision and the normalized vector can miss unit norm.
_NORM_MIN = math.sqrt(sys.float_info.min)


def read_lines(path):
    """Yield (line number, stripped text) for each nonblank line of an ASCII
    text file. A line holding a non-ASCII byte is a ParseError."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ParseError(path, line_no, "non-ASCII byte")
            line = line.strip()
            if line:
                yield line_no, line


def parse_numbers(path, line_no, fields, int_cols) -> list:
    """The fields as finite floats, except those at the indices in
    ``int_cols``, which must be integral (``3`` or ``3.0``) and become ints."""
    try:
        vals = [float(f) for f in fields]
    except ValueError as e:
        raise ParseError(path, line_no, f"non-numeric field: {e}") from None
    if not all(map(math.isfinite, vals)):
        raise ParseError(path, line_no, "non-finite value")
    for i in int_cols:
        if not vals[i].is_integer():
            raise ParseError(path, line_no, f"expected an integer, got {fields[i]!r}")
        try:
            vals[i] = int(fields[i])  # exact beyond 2**53
        except ValueError:
            vals[i] = int(vals[i])
    return vals


_MOT_INT_COLS = (0, 1, 7)


def _parse_mot_lines(path) -> list[MotRecord]:
    """``parse_mot_file`` line by line, for the files the bulk read declines;
    the source of its ``path:line: message`` errors."""
    records = []
    for line_no, line in read_lines(path):
        fields = line.split(",")
        if len(fields) not in (9, 10):
            raise ParseError(path, line_no, f"expected 9 or 10 columns, got {len(fields)}")
        vals = parse_numbers(path, line_no, fields, _MOT_INT_COLS)
        if vals[0] < 1:
            raise ParseError(path, line_no, f"frame must be >= 1, got {vals[0]}")
        if vals[4] <= 0 or vals[5] <= 0:
            raise ParseError(path, line_no, f"nonpositive box size {vals[4]}x{vals[5]}")
        if max(abs(vals[2]), abs(vals[3]), vals[4], vals[5]) > COORD_MAX:
            raise ParseError(path, line_no, f"box coordinate beyond {COORD_MAX:.0f} px")
        if len(vals) == 10 and not 0.0 <= vals[9] <= 1.0:
            raise ParseError(path, line_no, f"motion awareness must be in [0,1], got {vals[9]}")
        records.append(MotRecord(*vals, source=(path, line_no)))
    records.sort(key=lambda r: r.frame)
    return records


def _parse_embedding_lines(path) -> dict[tuple[int, int], np.ndarray]:
    """``parse_embeddings`` line by line, for the files the bulk read declines."""
    out: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(path, line_no, "expected `frame index v1 ... vd`")
        vals = parse_numbers(path, line_no, fields, (0, 1))
        if vals[0] < 1 or vals[1] < 0:
            raise ParseError(path, line_no,
                             f"need frame >= 1 and index >= 0, got {vals[0]} {vals[1]}")
        vec = np.array(vals[2:])
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(path, line_no, f"dimension {vec.size} != first dimension {dim}")
        with np.errstate(over="ignore"):
            n = np.linalg.norm(vec)
        if not _NORM_MIN <= n < math.inf:
            raise ParseError(path, line_no, f"embedding of norm {n} cannot be normalized")
        if (vals[0], vals[1]) in out:
            raise ParseError(path, line_no, f"repeated frame {vals[0]} index {vals[1]}")
        out[(vals[0], vals[1])] = vec / n
    return out


def _parse_cmc_lines(path) -> dict[int, Affine2x3]:
    """``parse_cmc_file`` line by line, for the files the bulk read declines."""
    out: dict[int, Affine2x3] = {}
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) != 7:
            raise ParseError(path, line_no, f"expected 7 fields, got {len(fields)}")
        vals = parse_numbers(path, line_no, fields, (0,))
        if vals[0] < 1:
            raise ParseError(path, line_no, f"frame must be >= 1, got {vals[0]}")
        if vals[0] in out:
            raise ParseError(path, line_no, f"repeated frame {vals[0]}")
        out[vals[0]] = Affine2x3(np.array(vals[1:]).reshape(2, 3))
    return out


def parse_proposal_lines(path) -> list[tuple[int, Proposal]]:
    """Lines of `x y w h v_hat f1 ... fk` (k >= 1), each paired with its line
    number so later errors can name it."""
    props = []
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) < 6:
            raise ParseError(path, line_no, "expected `x y w h v_hat f1 ...`")
        vals = parse_numbers(path, line_no, fields, ())
        try:
            props.append((line_no, Proposal(BBox(*vals[:4]), np.array(vals[5:]), vals[4])))
        except ValueError as e:
            raise ParseError(path, line_no, e) from None
    return props


def records_to_detections(records: list[MotRecord],
                          embeddings: dict | None = None) -> dict[int, list[Detection]]:
    """Group records into per-frame Detection lists; a record that makes no
    Detection is an error at its line.

    ``embeddings`` maps (frame, index within that frame) to a unit vector.
    """
    embeddings = embeddings or {}
    out: dict[int, list[Detection]] = {}
    for r in records:
        dets = out.setdefault(r.frame, [])
        try:
            dets.append(Detection(r.frame, BBox(r.x, r.y, r.w, r.h), min(max(r.conf, 0.0), 1.0),
                                  max(r.class_id, 0), r.motion_awareness,
                                  embeddings.get((r.frame, len(dets)))))
        except ValueError as e:
            raise (ParseError(*r.source, e) if r.source else e) from None
    return out


def records_to_trajectories(records: list[MotRecord]) -> TrajectorySet:
    """Group records by track id; a second box of one track in one frame is
    an error at that record's line."""
    tracks: dict[int, dict[int, BBox]] = {}
    for r in sorted(records, key=lambda r: r.frame):
        boxes = tracks.setdefault(r.track_id, {})
        if r.frame in boxes:
            msg = f"track {r.track_id} already has a box in frame {r.frame}"
            raise ParseError(*r.source, msg) if r.source else ValueError(msg)
        boxes[r.frame] = BBox(r.x, r.y, r.w, r.h)
    return TrajectorySet.build((tid, boxes.items()) for tid, boxes in sorted(tracks.items()))
