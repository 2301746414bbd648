"""File formats: MOTChallenge CSV (with an optional motion-awareness column),
embedding and camera-motion sidecars, proposal lists, flat key=value configs,
raw tensor files, and PGM/PPM images.

Every text input is ASCII and goes through ``read_lines`` and
``parse_numbers``, so a malformed line fails as ``path:line: message``.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
import struct
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from .core import BBox, Detection, TrajectorySet
from .lfa import Proposal
from .motion import Affine2x3

TENSOR_MAGIC = b"VSFM"

# Smallest embedding norm whose squared sum is a normal float: below it the
# sum loses precision and the normalized vector can miss unit norm.
_NORM_MIN = math.sqrt(sys.float_info.min)


class ParseError(ValueError):
    def __init__(self, path, line_no, msg):
        super().__init__(f"{path}:{line_no}: {msg}")
        self.path = str(path)
        self.line_no = line_no


def _fmt(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


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

    def render(self) -> str:
        parts = [str(self.frame), str(self.track_id),
                 _fmt(self.x), _fmt(self.y), _fmt(self.w), _fmt(self.h),
                 _fmt(self.conf), str(self.class_id), _fmt(self.visibility)]
        if self.motion_awareness is not None:
            parts.append(_fmt(self.motion_awareness))
        return ",".join(parts)

    def bbox(self) -> BBox:
        return BBox(self.x, self.y, self.w, self.h)


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

# Largest |x|, |y|, w or h of a MOT box, in pixels: far beyond any frame, yet
# small enough that box areas, IoU and Kalman covariances stay finite.
_COORD_MAX = 1e9


def parse_mot_file(path) -> list[MotRecord]:
    """Records sorted by frame (stable); 9 or 10 comma-separated columns."""
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
        if max(abs(vals[2]), abs(vals[3]), vals[4], vals[5]) > _COORD_MAX:
            raise ParseError(path, line_no, f"box coordinate beyond {_COORD_MAX:.0f} px")
        if len(vals) == 10 and not 0.0 <= vals[9] <= 1.0:
            raise ParseError(path, line_no, f"motion awareness must be in [0,1], got {vals[9]}")
        records.append(MotRecord(*vals, source=(path, line_no)))
    records.sort(key=lambda r: r.frame)
    return records


def records_to_detections(records: list[MotRecord],
                          embeddings: dict | None = None) -> dict[int, list[Detection]]:
    """Group records into per-frame Detection lists.

    ``embeddings`` maps (frame, index within that frame) to a unit vector.
    """
    embeddings = embeddings or {}
    out: dict[int, list[Detection]] = {}
    for r in records:
        idx = len(out.setdefault(r.frame, []))
        out[r.frame].append(Detection(
            frame=r.frame,
            bbox=r.bbox(),
            score=min(max(r.conf, 0.0), 1.0),
            class_id=max(r.class_id, 0),
            motion_awareness=r.motion_awareness,
            embedding=embeddings.get((r.frame, idx)),
        ))
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
        boxes[r.frame] = r.bbox()
    return TrajectorySet.build((tid, boxes.items()) for tid, boxes in sorted(tracks.items()))


def write_mot_file(tset: TrajectorySet, path) -> None:
    """One line per box, frame-major, conf 1, class and visibility -1."""
    lines = []
    for frame, boxes in tset.boxes_by_frame().items():
        for tid, b in boxes:
            lines.append(MotRecord(frame, tid, b.x, b.y, b.w, b.h, 1, -1, -1).render())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")


def parse_embeddings(path) -> dict[tuple[int, int], np.ndarray]:
    """Lines of `frame det_index v1 ... vd`; vectors are L2-normalized."""
    out: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(path, line_no, "expected `frame index v1 ... vd`")
        vals = parse_numbers(path, line_no, fields, (0, 1))
        vec = np.array(vals[2:])
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(path, line_no, f"dimension {vec.size} != first dimension {dim}")
        n = np.linalg.norm(vec)
        if not _NORM_MIN <= n < math.inf:
            raise ParseError(path, line_no, f"embedding of norm {n} cannot be normalized")
        out[(vals[0], vals[1])] = vec / n
    return out


def write_embeddings(emb: dict[tuple[int, int], np.ndarray], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for (frame, idx) in sorted(emb):
            vec = " ".join(_fmt(v) for v in emb[(frame, idx)])
            fh.write(f"{frame} {idx} {vec}\n")


def parse_cmc_file(path) -> dict[int, Affine2x3]:
    """Lines of `frame r11 r12 tx r21 r22 ty`; missing frames mean identity."""
    out: dict[int, Affine2x3] = {}
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) != 7:
            raise ParseError(path, line_no, f"expected 7 fields, got {len(fields)}")
        vals = parse_numbers(path, line_no, fields, (0,))
        out[vals[0]] = Affine2x3(np.array(vals[1:]).reshape(2, 3))
    return out


def parse_proposals(path) -> list[tuple[int, Proposal]]:
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


def load_config(path, *classes) -> tuple:
    """One instance of each dataclass in ``classes``, built from flat
    `key = value` lines (blank lines and `#` comments allowed).

    A key goes to every class that declares it and takes that field's type:
    int fields need integral numbers, float fields finite ones. Unknown and
    repeated keys are ParseErrors at their line; a class's own range check
    fails with the path in front.
    """
    known, int_keys = set(), set()
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            known.add(f.name)
            if hints[f.name] is int:
                int_keys.add(f.name)
    values: dict[str, int | float] = {}
    for line_no, line in read_lines(path):
        if line.startswith("#"):
            continue
        key, eq, text = line.partition("=")
        key = key.strip()
        if not eq:
            raise ParseError(path, line_no, f"expected `key = value`, got {line!r}")
        if key not in known:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        if key in values:
            raise ParseError(path, line_no, f"repeated key {key!r}")
        [values[key]] = parse_numbers(path, line_no, [text.strip()],
                                      (0,) if key in int_keys else ())
    try:
        return tuple(cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)
                            if f.name in values})
                     for cls in classes)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# Raw tensor format: magic, u32 H W C little-endian, then C planes of H*W
# float64 little-endian row-major.

def write_tensor(x: np.ndarray, path) -> None:
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    h, w, c = x.shape
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<III", h, w, c))
        fh.write(np.ascontiguousarray(x.transpose(2, 0, 1), dtype="<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    """An (H, W, C) float array. H, W and C must be at least 1, the file must
    hold the whole payload (checked before it is read) and every value must
    be finite; anything else is a ValueError naming the path."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != TENSOR_MAGIC:
            raise ValueError(f"{path}: bad tensor magic {magic!r}")
        header = fh.read(12)
        if len(header) < 12:
            raise ValueError(f"{path}: truncated tensor header")
        h, w, c = struct.unpack("<III", header)
        if min(h, w, c) < 1:
            raise ValueError(f"{path}: tensor dimensions must be >= 1, got {h}x{w}x{c}")
        nbytes = 8 * h * w * c
        if os.fstat(fh.fileno()).st_size - fh.tell() < nbytes:
            raise ValueError(f"{path}: truncated tensor payload")
        data = np.frombuffer(fh.read(nbytes), dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite value in tensor")
    return data.reshape(c, h, w).transpose(1, 2, 0).copy()


# One PGM header field: whitespace and `#` comments, then the field itself.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_pgm(path) -> np.ndarray:
    """Binary 8-bit PGM (P5) as a (H, W) uint8 array. Width and height must
    be at least 1; a bad header is a ValueError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, i = [], 0
    for _ in range(4):
        m = _PGM_FIELD.match(data, i)
        fields.append(m.group(1))
        i = m.end()
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    for f in fields[1:]:
        if not f.isdigit():
            raise ValueError(f"{path}: bad PGM header field {f[:16]!r}; expected "
                             f"`P5 width height 255` and one whitespace byte")
    w, h, maxval = map(int, fields[1:])
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM width and height must be >= 1, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM supported")
    pixels = np.frombuffer(data[i + 1:i + 1 + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w).copy()


def write_pgm(img: np.ndarray, path) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_ppm(img: np.ndarray, path) -> None:
    img = np.asarray(img, dtype=np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def to_uint8(x: np.ndarray) -> np.ndarray:
    """Min-max normalize any real array to 8-bit."""
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(), x.max()
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.uint8)
    return np.round((x - lo) / (hi - lo) * 255).astype(np.uint8)


def id_color(track_id: int) -> tuple[int, int, int]:
    """Deterministic, well-spread id -> RGB mapping (splitmix-style hash)."""
    z = (track_id * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z ^= z >> 31
    r = 64 + (z & 0xFF) * 3 // 4
    g = 64 + ((z >> 8) & 0xFF) * 3 // 4
    b = 64 + ((z >> 16) & 0xFF) * 3 // 4
    return (int(r), int(g), int(b))


def render_frame(canvas: np.ndarray, boxes: list[tuple[int, BBox]], path) -> None:
    """Overlay 1-pixel box outlines (color-hashed by id) on a grayscale
    canvas and write a binary PPM."""
    gray = np.asarray(canvas, dtype=np.uint8)
    h, w = gray.shape
    rgb = np.repeat(gray[:, :, None], 3, axis=2).copy()
    for tid, b in boxes:
        color = id_color(tid)
        x0 = max(0, round(b.x))
        y0 = max(0, round(b.y))
        x1 = min(w - 1, round(b.x + b.w) - 1)
        y1 = min(h - 1, round(b.y + b.h) - 1)
        if x1 < x0 or y1 < y0:
            continue
        rgb[y0, x0:x1 + 1] = color
        rgb[y1, x0:x1 + 1] = color
        rgb[y0:y1 + 1, x0] = color
        rgb[y0:y1 + 1, x1] = color
    write_ppm(rgb, path)
