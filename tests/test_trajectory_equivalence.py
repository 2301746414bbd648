"""`core.TrajectorySet` as id, frame and box columns against its frozen
tuple-based copy in trajectory_reference.py: equal tracks, counts, frames
and per-frame and per-id views (types and float bits included, through
`repr`), and `io.write_mot_file` on the columns writing the bytes of the
frozen per-record writer in io_reference.py on the tuples. Ids come in no
particular order and frames reach beyond 2**63."""
import tempfile
from pathlib import Path

import io_reference
import pytest
import trajectory_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import io as sio
from sartrack.core import BBox, TrajectorySet

_ID = st.one_of(st.integers(-5, 60), st.integers(2**63 - 2, 2**64 + 2))
_FRAME = st.one_of(st.integers(1, 40), st.integers(2**63 - 3, 2**63 + 3))
_COORD = st.one_of(st.floats(-1e9, 1e9), st.sampled_from([-0.0, 0.0, 0.5, 1e15]))
_SIDE = st.one_of(st.floats(1e-3, 1e9), st.sampled_from([1.0, 2.5]))


@st.composite
def _tracks(draw):
    """(id, [(frame, BBox), ...]) per track: unique ids in drawn order,
    rising frames, float coordinates."""
    return [(tid, [(f, BBox(draw(_COORD), draw(_COORD), draw(_SIDE), draw(_SIDE)))
                   for f in sorted(draw(st.sets(_FRAME, min_size=1, max_size=5)))])
            for tid in draw(st.lists(_ID, unique=True, max_size=6))]


def _views(tset):
    return (repr(tuple(tset.tracks)), len(tset), tset.num_boxes(), repr(tset.frames()),
            repr(tset.boxes_by_frame()), repr(tset.by_id()))


@settings(max_examples=150, deadline=None)
@given(_tracks())
def test_columns_equal_the_tuples(tracks):
    new, old = TrajectorySet.build(tracks), ref.TrajectorySet.build(tracks)
    assert _views(new) == _views(old)
    assert tuple(new.tracks) == old.tracks
    assert TrajectorySet(new.ids, new.frame, new.boxes) == new
    with tempfile.TemporaryDirectory() as d:
        sio.write_mot_file(new, Path(d, "new.txt"))
        io_reference.write_mot_file(old, Path(d, "old.txt"))
        assert Path(d, "new.txt").read_bytes() == Path(d, "old.txt").read_bytes()


def test_int_boxes_come_back_as_floats():
    ts = TrajectorySet.build([(3, [(1, BBox(1, 2, 3, 4))])])
    assert tuple(ts.tracks) == ((3, ((1, BBox(1, 2, 3, 4)),)),)
    assert repr(ts) == "TrajectorySet(tracks=((3, ((1, BBox(x=1.0, y=2.0, w=3.0, h=4.0)),)),))"


@pytest.mark.parametrize("ids,frame,boxes,match", [
    ([1, 2, 1], [1, 1, 2], [[0, 0, 1, 1]] * 3, "^duplicate track ids$"),
    ([7, 7], [2, 2], [[0, 0, 1, 1]] * 2, "^track 7 frames not strictly increasing$"),
    ([7, 7], [3, 2**64], [[0, 0, 1, 1], [0, 0, 0, 1]], "^box sides must be positive"),
    ([7], [1, 2], [[0, 0, 1, 1]] * 2, "^1 ids, 2 frames and 2 boxes$"),
])
def test_constructor_checks_in_bulk(ids, frame, boxes, match):
    with pytest.raises(ValueError, match=match):
        TrajectorySet(ids, frame, boxes)


def test_columns_are_read_only():
    ts = TrajectorySet([5], [1], [[0, 0, 1, 1]])
    for col in (ts.ids, ts.frame, ts.boxes):
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 2
