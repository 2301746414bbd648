"""MOT records as columns: `io.records_to_detections` and
`records_to_trajectories` on parsed tables and embeddings against their
frozen per-record copies in io_reference.py, fed the same rows through the
io_rows adapters (equal results, bits and types included, or the same first
error); the sorted join that places embeddings, at its edges; the column
line formatter against `MotRecord.render`; a Tracker fed `DetectionBlock`s
against one fed the blocks' Detections; no Detection, BBox or MotRecord
built on the way from det.txt to res.txt or by a grouping error; and no BBox
built by `sartrack eval` or by writing a tracker's trajectories."""
import math
import os
import re
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import io_reference as ref
import io_rows
import make_goldens as mg
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import cli, synthsim
from sartrack import io as sio
from sartrack.assoc import Tracker
from sartrack.core import BBox, Detection


def _detection(d):
    emb = None if d.embedding is None else (d.embedding.dtype, d.embedding.shape,
                                            d.embedding.tobytes())
    return repr((d.frame, d.bbox, d.score, d.class_id, d.motion_awareness)), emb


def _outcome(call):
    """A grouping's result as plain data that also sees float bits (-0.0)
    and int types, or its error's type and text."""
    try:
        out = call()
    except ValueError as e:
        return type(e), str(e)
    if isinstance(out, dict):
        return sorted((f, [_detection(d) for d in dets]) for f, dets in out.items())
    return repr(out.tracks)


def _ref_detections(table, emb):
    """io_reference's grouping of the table's records, then the check the
    command line made after it: an embedding that names no detection, the
    first in its file's order, is an error."""
    vecs = io_rows.embedding_dict(emb)
    dets = ref.records_to_detections(io_rows.records(table), vecs)
    for f, i in vecs:
        if i >= len(dets.get(f, ())):
            raise ValueError(f"{emb.path}: frame {f} index {i} names no detection in {table.path}")
    return dets


def _assert_groupings_agree(table, emb):
    """The column groupings of a parsed table (and Embeddings) agree with
    the frozen per-record versions fed its records (and vectors)."""
    assert (_outcome(lambda: sio.records_to_detections(table, emb))
            == _outcome(lambda: _ref_detections(table, emb)))
    assert (_outcome(lambda: sio.records_to_trajectories(table))
            == _outcome(lambda: ref.records_to_trajectories(io_rows.records(table))))


_FLOAT = st.one_of(st.floats(-50.0, 50.0, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]))
# Class ids beyond 2**53 are read by the line tokenizer, exactly.
_CLASS = st.sampled_from([-3, -1, 0, 2, 2**53 + 1, 2**63 - 1, 2**63, 2**64])


@st.composite
def _mot_file(draw):
    """MOT lines that parse, frames unsorted, (track, frame) pairs that may
    repeat, scores around [0, 1] and class ids on both sides of 2**63."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        cols = [draw(st.integers(1, 4)), draw(st.sampled_from([-1, 1, 2])), draw(_FLOAT),
                draw(_FLOAT), draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0)),
                draw(st.sampled_from([-0.5, -0.0, 0.0, 0.3, 1.0, 1.5])), draw(_CLASS),
                draw(_FLOAT)]
        if draw(st.booleans()):
            cols.append(draw(st.sampled_from([0.0, 0.25, 1.0])))
        lines.append(",".join(map(repr, cols)))
    return "".join(line + "\n" for line in lines)


# Embedding key parts: mostly within the frames `_mot_file` writes, some past
# them, some beyond int64.
_KEY = st.one_of(*[st.integers(1, 4)] * 4, st.sampled_from([5, 2**63, 2**64]))


@st.composite
def _emb_file(draw, dim):
    """emb.txt lines for distinct (frame, index) keys, with vectors of norm
    at least 0.5 for the parser to normalize."""
    lines = []
    for f, i in draw(st.lists(st.tuples(_KEY, _KEY.map(lambda k: k - 1)), max_size=8,
                              unique=True)):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        if np.linalg.norm(v) < 0.5:
            v[-1] = 1.0
        v *= draw(st.sampled_from([1.0, 1.0, 2.0]))
        lines.append(" ".join([str(f), str(i), *map(repr, v.tolist())]))
    return "".join(line + "\n" for line in lines)


def _parse(text, parse=sio.parse_mot_file):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(text)
    try:
        return parse(path)
    finally:
        os.unlink(path)


@settings(max_examples=150, deadline=None)
@given(_mot_file(), st.integers(1, 4).flatmap(_emb_file))
def test_parsed_records_group_as_before(text, emb_text):
    _assert_groupings_agree(_parse(text), _parse(emb_text, sio.parse_embeddings))


MOT = "1,-1,10,10,8,8,0.9,1,-1\n"


@pytest.mark.parametrize("text,match", [
    # A class id beyond the tracker's int64, read by the line tokenizer.
    (MOT + "1,-1,30,10,8,8,0.9,9223372036854775808,-1\n", r":2: class_id must be"),
    # A repeated (track, frame), named at its line in frame order.
    ("2,4,10,10,8,8,1,-1,-1\n1,4,10,10,8,8,1,-1,-1\n2,4,10,10,8,8,1,-1,-1\n",
     r":3: track 4 already has a box in frame 2"),
])
def test_pinned_errors_agree(text, match):
    table = _parse(text)
    _assert_groupings_agree(table, None)
    call = sio.records_to_trajectories if "track" in match else sio.records_to_detections
    with pytest.raises(sio.ParseError, match=match):
        call(table)


def test_class_id_error_precedes_an_embedding_naming_no_detection(tmp_path):
    det, emb = tmp_path / "det.txt", tmp_path / "emb.txt"
    det.write_text(MOT + "2,-1,30,10,8,8,0.9,9223372036854775808,-1\n")
    emb.write_text("1 5 1 0\n")
    table, vecs = sio.parse_mot_file(det), sio.parse_embeddings(emb)
    with pytest.raises(sio.ParseError, match=r"det.txt:2: class_id must be"):
        sio.records_to_detections(table, vecs)
    det.write_text(MOT)
    with pytest.raises(ValueError, match=r"emb.txt: frame 1 index 5 names no detection in "):
        sio.records_to_detections(sio.parse_mot_file(det), vecs)


# Frames 2 (two detections), 5 and 2**64; keys that name none of them.
GAPPED = "2,-1,10,10,8,8,0.9,0,-1\n5,-1,10,10,8,8,0.9,0,-1\n2,-1,30,10,8,8,0.9,0,-1\n" \
    f"{2**64},-1,10,10,8,8,0.9,0,-1\n"
ORPHANS = ["1 0", "3 0", "6 0", "2 2", "5 1", f"{2**63} 0", f"{2**64} 1", f"{2**64 + 1} 0",
           f"2 {2**63}", f"2 {2**64}", f"{2**64} {2**64}"]


@pytest.mark.parametrize("key", ORPHANS)
def test_an_embedding_naming_no_detection_fails(tmp_path, key):
    """Before the first frame, between two, after the last, an index equal
    to its frame's count, and keys beyond int64 on either side."""
    det, emb = tmp_path / "det.txt", tmp_path / "emb.txt"
    det.write_text(GAPPED)
    emb.write_text(f"2 1 0 1\n{key} 1 0\n5 0 1 1\n")
    table, vecs = sio.parse_mot_file(det), sio.parse_embeddings(emb)
    f, i = key.split()
    msg = f"{emb}: frame {f} index {i} names no detection in {det}"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        sio.records_to_detections(table, vecs)
    _assert_groupings_agree(table, vecs)


def test_embeddings_land_on_frames_beyond_int64(tmp_path):
    det, emb = tmp_path / "det.txt", tmp_path / "emb.txt"
    det.write_text(GAPPED)
    emb.write_text(f"{2**64} 0 3 4\n2 1 0 1\n5 0 1 1\n")
    table, vecs = sio.parse_mot_file(det), sio.parse_embeddings(emb)
    blocks = sio.records_to_detections(table, vecs)
    assert [b.has_emb.tolist() for b in blocks.values()] == [[False, True], [True], [True]]
    np.testing.assert_array_equal(blocks[2**64].emb, [[0.6, 0.8]])
    _assert_groupings_agree(table, vecs)


@pytest.mark.parametrize("scene", ["ablation", "determinism"])
def test_golden_embeddings_land_as_before(scene):
    """Every embedded row of a golden scene lands on the detection the
    frozen per-record grouping gives it."""
    table = sio.parse_mot_file(mg.GOLDEN_DIR / f"{scene}.det.txt")
    emb = sio.parse_embeddings(mg.GOLDEN_DIR / f"{scene}.emb.txt")
    blocks = sio.records_to_detections(table, emb)
    assert sum(int(b.has_emb.sum()) for b in blocks.values()) == len(emb.frame) > 0
    _assert_groupings_agree(table, emb)


# Embeddings of mixed dimension, across frames and within one.
MIXED = [({(1, 0): [1.0, 0.0], (2, 0): [0.0, 0.0, 1.0]}, "frame 2 detection 0"),
         ({(1, 0): [1.0, 0.0], (1, 1): [0.0, 0.0, 1.0]}, "frame 1 detection 1")]


@pytest.mark.parametrize("embeddings,where", MIXED)
def test_mixed_embedding_dimensions_fail_in_step(embeddings, where):
    tracker = Tracker()
    frames = {}
    for (f, i), v in sorted(embeddings.items()):
        frames.setdefault(f, []).append(Detection(f, BBox(10.0 + 20 * i, 10, 8, 8), 0.9,
                                                  embedding=np.array(v)))
    with pytest.raises(ValueError, match=f"^{where}: embedding of dimension 3, expected 2$"):
        for f, dets in sorted(frames.items()):
            tracker.step(f, dets)


_ROW_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-2**60, 2**60).map(float),
                       st.sampled_from([-0.0, 1e15, -1e15, 1e15 - 1, 0.5, 5e-324]))
_ROW_INT = st.one_of(st.integers(-5, 500), st.integers(-2**70, 2**70))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(sio.MotRecord, _ROW_INT, _ROW_INT, _ROW_FLOAT, _ROW_FLOAT, _ROW_FLOAT,
                          _ROW_FLOAT, _ROW_FLOAT, _ROW_INT, _ROW_FLOAT,
                          st.one_of(st.none(), _ROW_FLOAT)), max_size=12))
def test_column_lines_equal_render(records):
    ma = np.array([math.nan if r.motion_awareness is None else r.motion_awareness
                   for r in records], dtype=float)
    text = sio._mot_text([str(r.frame) for r in records], [str(r.track_id) for r in records],
                         np.array([(r.x, r.y, r.w, r.h) for r in records]).reshape(-1, 4),
                         [r.conf for r in records], [str(r.class_id) for r in records],
                         [r.visibility for r in records], ma)
    assert text == "".join(r.render() + "\n" for r in records)


@pytest.mark.parametrize("scene", ["ablation", "determinism"])
def test_tracker_on_blocks_equals_tracker_on_their_detections(scene):
    """The golden scene's blocks, and lists of the Detections they hold,
    give equal emitted lists every frame and equal trajectories."""
    embeddings = sio.parse_embeddings(mg.GOLDEN_DIR / f"{scene}.emb.txt")
    blocks = sio.records_to_detections(sio.parse_mot_file(mg.GOLDEN_DIR / f"{scene}.det.txt"),
                                       embeddings)
    on_blocks, on_lists = Tracker(), Tracker()
    emitted = 0
    for f in range(1, max(blocks) + 1):
        block = blocks.get(f, [])
        out = on_blocks.step(f, block)
        assert repr(out) == repr(on_lists.step(f, list(block)))
        emitted += len(out)
    assert emitted > 0 and sum(map(np.sum, (b.has_emb for b in blocks.values()))) > 0
    assert repr(on_blocks.trajectories()) == repr(on_lists.trajectories())


def _counting(built, owner, name, key):
    """Patch ``owner.name`` to count its calls under ``key`` in ``built``."""
    call = getattr(owner, name)

    def counted(*args, **kwargs):
        built[key] += 1
        return call(*args, **kwargs)
    return mock.patch.object(owner, name, counted)


def _scene(tmp_path):
    scene = synthsim.generate_scene(synthsim.ScenarioConfig(frames=12, n_moving=4, width=96,
                                                            height=96))
    sio.write_scene(scene, synthsim.perturb_detections(scene, synthsim.PerturbConfig()),
                    tmp_path)


def _box_counters(built):
    """Patches counting BBox.__init__ calls and `core.to_bboxes` calls in
    every module that looks it up."""
    return [_counting(built, BBox, "__init__", "BBox")] + [
        _counting(built, module, "to_bboxes", "to_bboxes")
        for name, module in list(sys.modules.items())
        if name.startswith("sartrack.") and hasattr(module, "to_bboxes")]


def test_track_builds_no_detection_or_record(tmp_path):
    """`sartrack track` reads det.txt, groups it, tracks and writes res.txt
    without one Detection or MotRecord: each is built only where a caller
    indexes a block. Parsing and grouping build no BBox either, and neither
    does a grouping that fails: a class id beyond int64, a repeated (track,
    frame), an embedding that names no detection."""
    _scene(tmp_path)
    (tmp_path / "class.txt").write_text(f"1,-1,10,10,8,8,0.9,1,-1\n1,-1,9,9,8,8,0.9,{2**63},-1\n")
    (tmp_path / "repeat.txt").write_text("1,4,10,10,8,8,1,-1,-1\n1,4,10,10,8,8,1,-1,-1\n")
    (tmp_path / "orphan.txt").write_text("1 99 1 0\n")
    built = Counter()
    with ExitStack() as stack:
        for patch in [_counting(built, Detection, "__init__", "Detection"),
                      _counting(built, sio.MotRecord, "__init__", "MotRecord"),
                      *_box_counters(built)]:
            stack.enter_context(patch)
        assert cli.main(["track", "--det", str(tmp_path / "det.txt"), "--emb",
                         str(tmp_path / "emb.txt"), "--cmc", str(tmp_path / "cmc.txt"),
                         "--out", str(tmp_path / "res.txt")]) == 0
        assert Path(tmp_path / "res.txt").read_text().count("\n") > 12
        assert built["Detection"] == built["MotRecord"] == 0
        built.clear()
        det = sio.parse_mot_file(tmp_path / "det.txt")
        sio.records_to_detections(det, sio.parse_embeddings(tmp_path / "emb.txt"))
        sio.records_to_trajectories(sio.parse_mot_file(tmp_path / "gt.txt"))
        with pytest.raises(sio.ParseError, match=r"class.txt:2: class_id must be"):
            sio.records_to_detections(sio.parse_mot_file(tmp_path / "class.txt"))
        with pytest.raises(sio.ParseError, match=r"repeat.txt:2: track 4 already has a box"):
            sio.records_to_trajectories(sio.parse_mot_file(tmp_path / "repeat.txt"))
        with pytest.raises(ValueError, match=r"orphan.txt: frame 1 index 99 names no detection"):
            sio.records_to_detections(det, sio.parse_embeddings(tmp_path / "orphan.txt"))
        assert built == {}
        list(sio.records_to_detections(det)[1])
    assert built["Detection"] > 0 and built["MotRecord"] == 0


def test_eval_and_writing_trajectories_build_no_bbox(tmp_path):
    """`sartrack eval`, and writing a tracker's trajectories after its run,
    read the trajectory columns without building a BBox."""
    _scene(tmp_path)
    blocks = sio.records_to_detections(sio.parse_mot_file(tmp_path / "det.txt"),
                                       sio.parse_embeddings(tmp_path / "emb.txt"))
    tracker = Tracker()
    emitted = sum(len(tracker.step(f, blocks[f])) for f in sorted(blocks))
    built = Counter()
    with ExitStack() as stack:
        for patch in _box_counters(built):
            stack.enter_context(patch)
        sio.write_mot_file(tracker.trajectories(), tmp_path / "res.txt")
        assert cli.main(["eval", "--gt", str(tmp_path / "gt.txt"), "--res",
                         str(tmp_path / "res.txt")]) == 0
        assert built == {}
        sio.records_to_trajectories(sio.parse_mot_file(tmp_path / "res.txt")).by_id()
    assert emitted > 0 and built["to_bboxes"] > 0
