"""MOT records as columns: `io.records_to_detections` and
`records_to_trajectories` against their frozen per-record copies in
io_reference.py (equal results, bits and types included, or the same first
error); the column line formatter against `MotRecord.render`; a Tracker fed
`DetectionBlock`s against one fed the blocks' Detections; no Detection or
MotRecord built on the way from det.txt to res.txt; and no BBox built by
`sartrack eval` or by writing a tracker's trajectories."""
import math
import os
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import io_reference as ref
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


def _assert_groupings_agree(records, embeddings):
    """The column versions on ``records`` (a table or a list) and on a plain
    list of its records agree with the frozen per-record versions."""
    want = _outcome(lambda: ref.records_to_detections(list(records), embeddings))
    for recs in (records, list(records)):
        assert _outcome(lambda: sio.records_to_detections(recs, embeddings)) == want
    want = _outcome(lambda: ref.records_to_trajectories(list(records)))
    for recs in (records, list(records)):
        assert _outcome(lambda: sio.records_to_trajectories(recs)) == want


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


@st.composite
def _embeddings(draw, dim):
    """(frame, index) -> vector for some of the first detections of frames
    1-4: unit vectors, with the odd one scaled off the unit sphere."""
    out = {}
    for key in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), max_size=8)):
        v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
        if np.linalg.norm(v) < 0.5:
            v[-1] = 1.0
        v = v / np.linalg.norm(v)
        out[key] = v * 1.5 if draw(st.integers(0, 5)) == 0 else v
    return out


def _parse(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(text)
    try:
        return sio.parse_mot_file(path)
    finally:
        os.unlink(path)


@settings(max_examples=150, deadline=None)
@given(_mot_file(), st.integers(1, 4).flatmap(_embeddings))
def test_parsed_records_group_as_before(text, embeddings):
    _assert_groupings_agree(_parse(text), embeddings)


def _mostly(valid, invalid):
    """Valid values four times as often as values a Detection or BBox refuses."""
    return st.one_of(*[st.sampled_from(valid)] * 4, st.sampled_from(invalid))


@st.composite
def _records(draw):
    """Hand-built records without a source, frames unsorted, including
    values no Detection or BBox takes."""
    return [sio.MotRecord(draw(_mostly([1, 2, 3, 4], [0])), draw(st.sampled_from([-1, 1, 2])),
                          draw(_FLOAT), draw(_FLOAT),
                          draw(_mostly([3.0, 0.5], [0.0, -1.0, math.nan])),
                          draw(_mostly([2.0, 1e-3], [0.0, math.nan])),
                          draw(_mostly([-0.0, 0.2, 2.0], [math.nan])), draw(_CLASS),
                          -1.0, draw(_mostly([None, 0.0, 0.75], [1.5, -0.25, math.nan])))
            for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=150, deadline=None)
@given(_records(), st.integers(1, 3).flatmap(_embeddings))
def test_hand_built_records_group_as_before(records, embeddings):
    _assert_groupings_agree(records, embeddings)


MOT = "1,-1,10,10,8,8,0.9,1,-1\n"


@pytest.mark.parametrize("text,embeddings,match", [
    # A class id beyond the tracker's int64, read by the line tokenizer.
    (MOT + "1,-1,30,10,8,8,0.9,9223372036854775808,-1\n", None, r":2: class_id must be"),
    # A vector off the unit sphere in a caller's dict.
    (MOT * 2, {(1, 1): np.array([0.6, 0.9])}, r":2: embedding must be unit norm"),
    # A repeated (track, frame), named at its line in frame order.
    ("2,4,10,10,8,8,1,-1,-1\n1,4,10,10,8,8,1,-1,-1\n2,4,10,10,8,8,1,-1,-1\n", None,
     r":3: track 4 already has a box in frame 2"),
])
def test_pinned_errors_agree(text, embeddings, match):
    records = _parse(text)
    _assert_groupings_agree(records, embeddings)
    call = sio.records_to_trajectories if "track" in match else (
        lambda r: sio.records_to_detections(r, embeddings))
    with pytest.raises(sio.ParseError, match=match):
        call(records)


def test_hand_built_records_fail_without_a_line():
    records = [sio.MotRecord(f, 1, 0, 0, w, 4, 1, 0, -1)
               for f, w in ((2, 4), (1, 4), (1, 0), (2, 4))]
    _assert_groupings_agree(records, None)
    with pytest.raises(ValueError, match="^box sides must be positive") as e:
        sio.records_to_detections(records)
    assert type(e.value) is ValueError
    with pytest.raises(ValueError, match="^track 1 already has a box in frame 1$"):
        sio.records_to_trajectories(records)
    # A motion awareness that is NaN, not None, is no absent value.
    records = [records[0], sio.MotRecord(2, 1, 9, 0, 4, 4, 1, 0, -1, math.nan)]
    _assert_groupings_agree(records, None)
    with pytest.raises(ValueError, match="^motion_awareness must be in"):
        sio.records_to_detections(records)


# Embeddings of mixed dimension, across frames and within one.
MIXED = [({(1, 0): [1.0, 0.0], (2, 0): [0.0, 0.0, 1.0]}, 2, "frame 2 detection 0"),
         ({(1, 0): [1.0, 0.0], (1, 1): [0.0, 0.0, 1.0]}, 2, "frame 1 detection 1")]


@pytest.mark.parametrize("embeddings,line,where", MIXED)
def test_mixed_embedding_dimensions_fail_at_the_record(embeddings, line, where):
    records = _parse("1,-1,10,10,8,8,0.9,0,-1\n" + ("2" if "frame 2" in where else "1")
                     + ",-1,30,10,8,8,0.9,0,-1\n")
    emb = {k: np.array(v) for k, v in embeddings.items()}
    with pytest.raises(sio.ParseError,
                       match=f":{line}: {where}: embedding of dimension 3, expected 2$"):
        sio.records_to_detections(records, emb)


@pytest.mark.parametrize("embeddings,line,where", MIXED)
def test_mixed_embedding_dimensions_fail_in_step(embeddings, line, where):
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


def test_track_builds_no_detection_or_record(tmp_path):
    """`sartrack track` reads det.txt, groups it, tracks and writes res.txt
    without one Detection or MotRecord: each is built only where a caller
    indexes a block or a table."""
    _scene(tmp_path)
    built = Counter()
    with (_counting(built, Detection, "__init__", "Detection"),
          _counting(built, sio.MotRecord, "__init__", "MotRecord")):
        assert cli.main(["track", "--det", str(tmp_path / "det.txt"), "--emb",
                         str(tmp_path / "emb.txt"), "--cmc", str(tmp_path / "cmc.txt"),
                         "--out", str(tmp_path / "res.txt")]) == 0
        assert Path(tmp_path / "res.txt").read_text().count("\n") > 12
        assert built == {}
        list(sio.records_to_detections(sio.parse_mot_file(tmp_path / "det.txt"))[1])
    assert built["Detection"] > 0 and built["MotRecord"] == 0


def _box_counters(built):
    """Patches counting BBox.__init__ calls and `core.to_bboxes` calls in
    every module that looks it up."""
    return [_counting(built, BBox, "__init__", "BBox")] + [
        _counting(built, module, "to_bboxes", "to_bboxes")
        for name, module in list(sys.modules.items())
        if name.startswith("sartrack.") and hasattr(module, "to_bboxes")]


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
