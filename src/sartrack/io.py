"""File formats: MOTChallenge CSV (with an optional motion-awareness column),
embedding and camera-motion sidecars, proposal lists, flat key=value configs,
raw tensor files, and PGM/PPM images. `write_scene` lays a synthetic scene
out in these formats.

Every text input is ASCII. MOT, embedding, camera-motion and proposal files
become one table each, and each format's checks run once, as masks over it.
A plain file (only digits, ``+-.eE``, its delimiter, spaces and LF or CRLF
line ends) is read with one ``np.loadtxt``; any other, ``read_lines`` and
``parse_numbers`` tokenize line by line. The first bad line fails as
``path:line: message``.
"""
from __future__ import annotations

import dataclasses
import math
import os
import re
import struct
import sys
import typing
from dataclasses import dataclass
from itertools import accumulate, compress, groupby, repeat

import numpy as np

from .core import (COORD_MAX, BBox, Detection, DetectionBlock, TrajectorySet, as_xywh,
                   int_column, row_norms, run_starts)
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
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


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

    def render(self) -> str:
        parts = [str(self.frame), str(self.track_id),
                 _fmt(self.x), _fmt(self.y), _fmt(self.w), _fmt(self.h),
                 _fmt(self.conf), str(self.class_id), _fmt(self.visibility)]
        if self.motion_awareness is not None:
            parts.append(_fmt(self.motion_awareness))
        return ",".join(parts)


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


def _read_table(path, delimiter: str | None) -> tuple[list[int], np.ndarray] | None:
    """(line numbers, float rows) of the nonblank lines of a plain numeric
    file, every value finite; None for any other file. A plain file holds
    only digits, ``+-.eE``, the delimiter (None: runs of spaces), spaces and
    LF or CRLF line ends. On those bytes ``np.loadtxt`` reads the same
    numbers as ``float()``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if (data.translate(None, b"0123456789+-.eE \n\r" + (delimiter or "").encode())
            or data.count(b"\r") != data.count(b"\r\n")):
        return None
    lines = data.decode("ascii").replace("\r\n", "\n").split("\n")
    nonblank = list(map(str.strip, lines))
    line_nos = list(compress(range(1, len(lines) + 1), nonblank))
    if not line_nos:
        return None
    try:
        rows = np.loadtxt(list(compress(lines, nonblank)), delimiter=delimiter,
                          comments=None, ndmin=2)
    except ValueError:  # a field that is no number, or a changing column count
        return None
    if len(rows) != len(line_nos) or not np.isfinite(rows).all():
        return None
    return line_nos, rows


def _integral(cols: np.ndarray) -> bool:
    """Whether every value is an integer below 2**53 in magnitude: the float
    parse kept it exact, so ``int()`` of its text gives the same int."""
    return bool(np.all((cols == np.trunc(cols)) & (np.abs(cols) < 2.0**53)))


def _table(path, delimiter: str | None, int_cols, width_error, width: int) -> tuple:
    """A numeric text file as (line numbers, float rows padded with NaN to at
    least ``width`` columns, one ``int_column`` per column in ``int_cols``,
    the first tokenizing ParseError or None). ``width_error(n)``
    words what is wrong with a line of n fields, or is None.

    A plain file is read in bulk if its width passes and its int columns are
    ``_integral``. Any other goes through ``read_lines`` and ``parse_numbers``
    up to its first line that does not split into numbers; that error is
    kept for ``_check``, so a bad value on an earlier line is named first."""
    table = _read_table(path, delimiter)
    if table and width_error(table[1].shape[1]) is None and _integral(table[1][:, int_cols]):
        line_nos, rows = table
        ints, err = list(rows[:, int_cols].astype(np.int64).T), None
        if rows.shape[1] < width:
            rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=np.nan)
    else:
        line_nos, vals, err = [], [], None
        try:
            for line_no, line in read_lines(path):
                fields = line.split(delimiter)
                if msg := width_error(len(fields)):
                    raise ParseError(path, line_no, msg)
                vals.append(parse_numbers(path, line_no, fields, int_cols))
                line_nos.append(line_no)
        except ParseError as e:
            err = e
        n = max([width, *map(len, vals)])
        rows = np.array([v + [math.nan] * (n - len(v)) for v in vals], dtype=float).reshape(-1, n)
        ints = [int_column([v[i] for v in vals]) for i in int_cols]
    return line_nos, rows, ints, err


def _check(path, line_nos, err, checks) -> None:
    """Raise the first failing check of the first row that fails one, at its
    line, else ``err``. ``checks`` are (bad-row mask, row index -> message)
    pairs in line order. Every row precedes ``err``'s line and is tokenized
    before it is checked, so this is the error a line reader meets first."""
    fails = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if fails:
        i, k = min(fails)
        raise ParseError(path, line_nos[i], checks[k][1](i))
    if err is not None:
        raise err


def _repeats(keys: list) -> np.ndarray:
    """Whether each key equals an earlier one."""
    first: dict = {}
    return np.array([first.setdefault(k, i) != i for i, k in enumerate(keys)], dtype=bool)


class MotTable:
    """A MOT file's records as columns, sorted by frame (stable): ``frame``,
    ``track_id`` and ``class_id`` (``int_column``s), and views of ``cols``
    (N, 7): ``boxes`` (N, 4), ``conf``, ``visibility`` and ``ma`` (motion
    awareness, NaN where absent); ``path`` and each row's line in
    ``line_nos``, so the grouping can name a record."""

    __slots__ = ("frame", "track_id", "class_id", "boxes", "conf", "visibility", "ma",
                 "path", "line_nos")

    def __init__(self, frame, track_id, class_id, cols, path, line_nos):
        self.frame, self.track_id, self.class_id = frame, track_id, class_id
        self.boxes, self.conf, self.visibility, self.ma = cols[:, :4], *cols[:, 4:].T
        self.path, self.line_nos = path, line_nos

    def __len__(self) -> int:
        return len(self.conf)


def parse_mot_file(path) -> MotTable:
    """The records as a MotTable sorted by frame (stable); 9 or 10
    comma-separated columns."""
    line_nos, rows, (frame, tid, cls), err = _table(
        path, ",", (0, 1, 7), lambda n: None if n in (9, 10) else
        f"expected 9 or 10 columns, got {n}", 10)
    _check(path, line_nos, err, [
        (rows[:, 0] < 1, lambda i: f"frame must be >= 1, got {frame[i]}"),
        ((rows[:, 4] <= 0) | (rows[:, 5] <= 0),
         lambda i: f"nonpositive box size {rows[i, 4].item()}x{rows[i, 5].item()}"),
        (np.abs(rows[:, 2:6]).max(axis=1) > COORD_MAX,
         lambda i: f"box coordinate beyond {COORD_MAX:.0f} px"),
        ((rows[:, 9] < 0) | (rows[:, 9] > 1),
         lambda i: f"motion awareness must be in [0,1], got {rows[i, 9].item()}"),
    ])
    order = np.argsort(frame, kind="stable")
    cols = rows[np.ix_(order, [2, 3, 4, 5, 6, 8, 9])]
    return MotTable(frame[order], tid[order], cls[order], cols, path,
                    [line_nos[i] for i in order.tolist()])


class Embeddings(typing.NamedTuple):
    """An embedding file's lines as columns, in line order: ``frame`` and
    ``index`` (``int_column``s), unit vectors ``vecs`` (N, D), and ``path``."""
    frame: np.ndarray
    index: np.ndarray
    vecs: np.ndarray
    path: object


def records_to_detections(t: MotTable, emb: Embeddings | None = None) -> dict[int, DetectionBlock]:
    """Group a MotTable into one DetectionBlock per frame, in frame order,
    each row with the embedding whose (frame, index) names it: index i is the
    frame's i-th row. A class id the tracker cannot pack (>= 2**63) is an
    error at its line; then so is an embedding that names no row, the first
    in its file's order."""
    score = np.where(t.conf < 0.0, 0.0, t.conf)  # min(max(conf, 0), 1), -0.0 kept
    score = np.where(score > 1.0, 1.0, score)
    cls = np.where(t.class_id < 0, 0, t.class_id)
    _check(t.path, t.line_nos, None, [
        (cls >= 2**63, lambda i: f"class_id must be in [0, 2**63 - 1], got {cls[i]}")])
    cls = cls.astype(np.int64)
    starts = np.flatnonzero(run_starts(t.frame))
    emb_cols = np.zeros((len(t), 0 if emb is None else emb.vecs.shape[1]))
    has = np.zeros(len(t), dtype=bool)
    if emb is not None and len(emb.frame):
        # Each key's frame run, by one sorted search; a key past the last
        # frame lands on a pad whose frame (0) and count (0) match nothing.
        frames, counts = np.r_[t.frame[starts], 0], np.r_[np.diff(np.r_[starts, len(t)]), 0]
        run = np.searchsorted(frames[:-1], emb.frame)
        named = (frames[run] == emb.frame) & (emb.index < counts[run])
        if not named.all():
            k = int(np.argmin(named))
            raise ValueError(f"{emb.path}: frame {emb.frame[k]} index {emb.index[k]} "
                             f"names no detection in {t.path}")
        rows = starts[run] + emb.index.astype(np.int64)
        emb_cols[rows], has[rows] = emb.vecs, True
    boxes, ma = t.boxes.copy(), t.ma.copy()
    for col in (boxes, score, cls, ma, emb_cols, has):
        col.flags.writeable = False
    bounds = starts.tolist() + [len(t)]
    return {f: DetectionBlock(f, boxes[a:b], score[a:b], cls[a:b], ma[a:b], emb_cols[a:b], has[a:b])
            for f, a, b in zip(t.frame[starts].tolist(), bounds, bounds[1:])}


def records_to_trajectories(t: MotTable) -> TrajectorySet:
    """Group a MotTable by track id; a second box of one track in one frame
    is an error at that record's line (the first such record in frame
    order)."""
    order = np.lexsort((t.frame, t.track_id))  # stable: repeats keep their order
    tid, frame = t.track_id[order], t.frame[order]
    again = np.zeros(len(t), dtype=bool)
    again[order] = ~run_starts(tid) & ~run_starts(frame)
    _check(t.path, t.line_nos, None, [
        (again, lambda i: f"track {t.track_id[i]} already has a box in frame {t.frame[i]}")])
    return TrajectorySet(tid, frame, t.boxes[order])


def _fmt_column(values) -> list[str]:
    """``_fmt`` of each value. Each distinct value is formatted once (-0 as
    0), all of them through the repr of one list that holds the whole ones
    as ints, which saves a Python call per value."""
    values, index = np.unique(np.asarray(values, dtype=float), return_inverse=True)
    cells = values.tolist()
    whole = np.flatnonzero((values == np.trunc(values)) & (np.abs(values) < 1e15))
    for i, n in zip(whole.tolist(), values[whole].astype(np.int64).tolist()):
        cells[i] = n
    text = repr(cells)[1:-1].split(", ")
    return list(map(text.__getitem__, index.tolist()))


def _mot_text(frame, track_id, boxes, conf, class_id, visibility, ma=None) -> str:
    """The lines ``MotRecord.render`` gives for rows of columns, each ending
    in a newline. The int columns come as text, the others as numbers for
    ``_fmt_column``; a NaN in ``ma`` means no tenth field."""
    cols = [frame, track_id, *map(_fmt_column, np.asarray(boxes).T), _fmt_column(conf),
            class_id, _fmt_column(visibility)]
    lines = map(",".join, zip(*cols))
    if ma is not None:
        lines = map(str.__add__, lines, ["" if math.isnan(m) else "," + s
                                         for m, s in zip(ma.tolist(), _fmt_column(ma))])
    text = "\n".join(lines)
    return text + "\n" if text else text


def write_mot_file(tset: TrajectorySet, path) -> None:
    """One line per box, frame-major, conf 1, class and visibility -1."""
    order, n = np.argsort(tset.frame, kind="stable"), tset.num_boxes()
    text = _mot_text(map(str, tset.frame[order].tolist()), map(str, tset.ids[order].tolist()),
                     tset.boxes[order], np.ones(n), repeat("-1"), np.full(n, -1.0))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def parse_embeddings(path) -> Embeddings:
    """Lines of `frame det_index v1 ... vd`, one per key, as Embeddings in
    line order; vectors are L2-normalized. `det_index` is the 0-based
    position among that frame's detections."""
    line_nos, rows, (frame, idx), err = _table(
        path, None, (0, 1), lambda n: "expected `frame index v1 ... vd`" if n < 3 else None, 3)
    dims = np.count_nonzero(~np.isnan(rows), axis=1) - 2
    vecs = rows[:, 2:2 + (dims[0] if len(dims) else 0)]
    with np.errstate(over="ignore"):
        norms = row_norms(vecs)
    _check(path, line_nos, err, [
        ((rows[:, 0] < 1) | (rows[:, 1] < 0),
         lambda i: f"need frame >= 1 and index >= 0, got {frame[i]} {idx[i]}"),
        (dims != dims[:1], lambda i: f"dimension {dims[i]} != first dimension {dims[0]}"),
        (~((norms >= _NORM_MIN) & (norms < math.inf)),
         lambda i: f"embedding of norm {norms[i]} cannot be normalized"),
        (_repeats(list(zip(frame.tolist(), idx.tolist()))),
         lambda i: f"repeated frame {frame[i]} index {idx[i]}"),
    ])
    return Embeddings(frame, idx, vecs / norms[:, None], path)


def write_embeddings(emb: dict[tuple[int, int], np.ndarray], path) -> None:
    """`frame index v1 ... vd` lines in key order; vectors starting in one 4,096-value block
    (65,536 held far more memory) are one write, each distinct value formatted once (-0 as 0)."""
    keys = sorted(emb)
    vecs = [np.asarray(emb[k], float) for k in keys]
    starts = accumulate((v.size for v in vecs), initial=0)
    with open(path, "w", encoding="ascii") as fh:
        for _, chunk in groupby(zip(starts, keys, vecs), lambda row: row[0] // 4096):
            chunk = list(chunk)
            cells, c0 = _fmt_column(np.concatenate([v for _, _, v in chunk])), chunk[0][0]
            fh.write("".join(f"{f} {i} {' '.join(cells[c - c0:c - c0 + v.size])}\n"
                             for c, (f, i), v in chunk))


def write_scene(scene, dets: dict[int, list[Detection]], out_dir) -> None:
    """A `synthsim.Scene` and its detections in ``out_dir``: ``000001.pgm`` per
    frame, MOT ``gt.txt`` and ``det.txt``, ``emb.txt`` and identity ``cmc.txt``."""
    os.makedirs(out_dir, exist_ok=True)
    for i, frame in enumerate(scene.frames, start=1):
        write_pgm(to_uint8(frame[:, :, 0]), os.path.join(out_dir, f"{i:06d}.pgm"))
    order = np.argsort(scene.gt.frame, kind="stable")
    frames, tids = scene.gt.frame[order].tolist(), scene.gt.ids[order].tolist()
    ones = np.ones(len(tids))
    det = [d for f in sorted(dets) for d in dets[f]]
    text = {
        "gt.txt": _mot_text(map(str, frames), map(str, tids), scene.gt.boxes[order], ones,
                            [str(scene.classes[t]) for t in tids], ones,
                            np.array([scene.velocities[k] for k in zip(tids, frames)], float)),
        "det.txt": _mot_text([str(f) for f in sorted(dets) for _ in dets[f]], repeat("-1"),
                             as_xywh([d.bbox for d in det]), [d.score for d in det],
                             [str(d.class_id) for d in det], np.full(len(det), -1.0),
                             np.array([math.nan if d.motion_awareness is None else
                                       d.motion_awareness for d in det], float)),
        "cmc.txt": "".join(f"{f} 1 0 0 0 1 0\n" for f in range(1, len(scene.frames) + 1)),
    }
    for name, data in text.items():
        with open(os.path.join(out_dir, name), "w", encoding="ascii") as fh:
            fh.write(data)
    write_embeddings({(f, i): d.embedding for f in dets for i, d in enumerate(dets[f])
                      if d.embedding is not None}, os.path.join(out_dir, "emb.txt"))


def parse_cmc_file(path) -> dict[int, Affine2x3]:
    """Lines of `frame r11 r12 tx r21 r22 ty`, one per frame; missing frames mean identity."""
    line_nos, rows, (frame,), err = _table(
        path, None, (0,), lambda n: None if n == 7 else f"expected 7 fields, got {n}", 7)
    frame = frame.tolist()
    _check(path, line_nos, err, [
        (rows[:, 0] < 1, lambda i: f"frame must be >= 1, got {frame[i]}"),
        (_repeats(frame), lambda i: f"repeated frame {frame[i]}"),
    ])
    return dict(zip(frame, map(Affine2x3, rows[:, 1:].reshape(-1, 2, 3))))


def parse_proposals(path) -> list[tuple[int, Proposal]]:
    """Lines of `x y w h v_hat f1 ... fk` (k >= 1), each paired with its line
    number so later errors can name it."""
    line_nos, rows, _, err = _table(
        path, None, (), lambda n: "expected `x y w h v_hat f1 ...`" if n < 6 else None, 6)
    props = []
    for line_no, row in zip(line_nos, rows.tolist()):
        try:
            feature = np.array([v for v in row[5:] if not math.isnan(v)])
            props.append((line_no, Proposal(BBox(*row[:4]), feature, row[4])))
        except ValueError as e:
            raise ParseError(path, line_no, e) from None
    _check(path, line_nos, err, [])
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
    """Binary 8-bit image: an (H, W) array as PGM (P5), an (H, W, 3) one as
    PPM (P6)."""
    img = np.asarray(img, dtype=np.uint8)
    h, w, *c = img.shape
    if c not in ([], [3]):
        raise ValueError(f"expected an (H, W) or (H, W, 3) image, got shape {img.shape}")
    with open(path, "wb") as fh:
        fh.write(f"{'P6' if c else 'P5'}\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def to_uint8(x: np.ndarray) -> np.ndarray:
    """Min-max normalize any real array to 8-bit."""
    x = np.asarray(x, dtype=float)
    lo, hi = x.min(), x.max()
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.uint8)
    # (x - lo) / (hi - lo) * 255 in one buffer, rounded straight into the result.
    buf = np.subtract(x, lo)
    buf /= hi - lo
    buf *= 255
    return np.rint(buf, out=np.empty(x.shape, dtype=np.uint8), casting="unsafe")


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
    write_pgm(rgb, path)
