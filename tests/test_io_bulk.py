"""MOT, embedding and camera-motion files, read in bulk or through the line
tokenizer, against frozen copies of the per-line parsers in io_reference.py:
each file gives equal results (float bits, int types and record sources
included) or the same ParseError text through both. Then the writers,
`io.write_scene` included, against their frozen copies there."""
import dataclasses
import os
import tempfile
from pathlib import Path
from unittest import mock

import io_reference as ref
import io_rows
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import io as sio
from sartrack import synthsim
from sartrack.core import BBox, TrajectorySet

GOLDEN = Path(__file__).parent / "golden"

# Each format: its public parser, the frozen per-line parser, and the field
# separator its lines use.
FORMATS = {
    "mot": (sio.parse_mot_file, ref._parse_mot_lines, ","),
    "emb": (sio.parse_embeddings, ref._parse_embedding_lines, " "),
    "cmc": (sio.parse_cmc_file, ref._parse_cmc_lines, " "),
}


def _snapshot(out):
    """A parse result as plain data whose equality also sees float bits,
    int types, key order and record sources; io's columns go through the
    io_rows adapters first."""
    if isinstance(out, sio.MotTable):
        out = io_rows.records(out)
    elif isinstance(out, sio.Embeddings):
        out = io_rows.embedding_dict(out)
    if isinstance(out, list):
        return [repr(dataclasses.astuple(r)) for r in out]
    return [(repr(k), np.asarray(getattr(v, "m", v)).shape,
             np.asarray(getattr(v, "m", v)).tobytes()) for k, v in out.items()]


def _run(parse, path):
    try:
        return _snapshot(parse(path))
    except sio.ParseError as e:
        return ("ParseError", str(e))


def both_paths(kind, data: bytes):
    """(public parser's result, per-line parser's result, whether the public
    parser took the bulk path, that is, never called the line reader) for a
    file holding ``data``."""
    parse, per_line, _ = FORMATS[kind]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.txt")
        Path(path).write_bytes(data)
        # The per-line parser's np.linalg.norm warns before it rejects a norm
        # that overflows.
        with np.errstate(over="ignore"):
            with mock.patch.object(sio, "read_lines", wraps=sio.read_lines) as spy:
                got = _run(parse, path)
            return got, _run(per_line, path), not spy.called


MOT = "1,-1,10,20,30,40,0.9,1,-1"
EMB = "1 0 0.6 0.8"
CMC = "1 1 0 0.5 0 1 -0.25"


def _lines(*lines, end="\n"):
    return "".join(line + end for line in lines).encode("utf-8")


# (format, file bytes, whether the bulk path takes the file)
PINNED = [
    # Bytes outside the plain set: the per-line parser decides.
    ("mot", _lines("1,-1,1_0,20,30,40,0.9,1,-1"), False),
    ("mot", _lines("1,-1,infinity,20,30,40,0.9,1,-1"), False),
    ("mot", _lines("1,-1,nan,20,30,40,0.9,1,-1"), False),
    ("mot", _lines("1,-1,１０,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(MOT + "\x0c", "2,-1,10,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(MOT, "\t", MOT), False),
    ("mot", b"1,-1,10,20,30,40,0.9,1,-1\r2,-1,10,20,30,40,0.9,1,-1\n", False),
    # A lone `\r` in a blank line is a line end to the per-line reader.
    ("mot", b"1,-1,10,20,30,40,0.9,1,-1\n \r \n2,-1,10,20,30,40,0.9,1,-1\n", False),
    ("emb", _lines("1 0 1_0 1"), False),
    ("emb", _lines("1\x0c0 0.6 0.8"), False),
    ("emb", b"1 0 0.6 0.8\r2 0 1 0\n", False),
    ("cmc", _lines("1 1 0 nan 0 1 0"), False),
    ("cmc", _lines("１ 1 0 0 0 1 0"), False),
    # Plain bytes that the checks turn back.
    ("mot", _lines("1,-1,1e400,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(f"1,{2**53 + 1},10,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(f"1,{2**53},10,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(MOT, MOT + ",0.5"), False),
    ("mot", _lines(MOT + ",1.5"), True),
    ("mot", _lines("1,-1,10,20,0,40,0.9,1,-1"), True),
    ("mot", _lines("0,-1,10,20,30,40,0.9,1,-1"), True),
    ("mot", _lines("1.5,-1,10,20,30,40,0.9,1,-1"), False),
    ("mot", _lines("1,-1,1000000001,20,30,40,0.9,1,-1"), True),
    ("mot", _lines("1,-1,10,20,30,40,0.9,1"), False),
    ("mot", _lines("1,-1,10,20,30,40,0.9,1,-1,"), False),
    ("mot", _lines("1e30,-1,10,20,30,40,0.9,1,-1"), False),
    ("mot", _lines("1,-1,10,20,30,40,0.9,-1e30,-1"), False),
    ("mot", _lines("1,-1,10 20,30,40,0.9,1,-1,0"), False),
    ("emb", _lines(EMB, "1 0 1 0"), True),
    ("emb", _lines("1 0 0 0"), True),
    ("emb", _lines("1 0 5e-324 0"), True),
    ("emb", _lines("1 0 1e-160 1e-160"), True),
    ("emb", _lines("1 0 1e200 1e200"), True),
    ("emb", _lines(EMB, "1 1 0.6"), False),
    ("emb", _lines("1 0"), False),
    ("emb", _lines("0 0 1 0"), True),
    ("emb", _lines("1 -1 1 0"), True),
    ("emb", _lines(f"{2**53 + 1} 0 1 0"), False),
    ("emb", _lines("1e30 0 1 0"), False),
    ("emb", _lines("1 1e30 1 0"), False),
    ("cmc", _lines(CMC, CMC), True),
    ("cmc", _lines("1 1 0 0 0 1"), False),
    ("cmc", _lines("3.5 1 0 0 0 1 0"), False),
    ("cmc", _lines("0 1 0 0 0 1 0"), True),
    ("cmc", _lines("1e30 1 0 0 0 1 0"), False),
    # A value check on an earlier line is named before a later line that does
    # not split into numbers, and a line that does not split before a later
    # value check; within a line, the first check in line order wins.
    ("mot", _lines(MOT, "0,-1,10,20,30,40,0.9,1,-1", "1,-1,x,20,30,40,0.9,1,-1"), False),
    ("mot", _lines(MOT, "1,-1,x,20,30,40,0.9,1,-1", "0,-1,10,20,30,40,0.9,1,-1"), False),
    ("emb", _lines(EMB, "1 -1 1 0 0"), False),
    ("cmc", _lines(CMC, CMC, "2 1 0 x 0 1 0"), False),
    # Plain files the bulk path reads.
    ("mot", _lines("+3,-1,10,20,30,40,0.9,1,-1", "3.0,+2,1e1,20,30,40,.9,1.0,-1"), True),
    ("mot", _lines("", "  ", MOT, "", " 2 , -1 , 10 ,20,30,40,0.9,1,-1 ", "   "), True),
    ("mot", _lines(MOT, "1,-1,-0,-0.0,30,40,0.9,1,-1", end="\r\n"), True),
    ("mot", _lines("2,-1,1,1,1,1,1,1,1,1", "1,-1,2,2,2,2,2,2,2,0"), True),
    ("mot", _lines(f"1,{2**53 - 1},-1e9,1e9,1e9,1e9,0.9,1,-1"), True),
    ("mot", (MOT + "\n" + MOT).encode(), True),
    ("emb", _lines("", EMB, " 1  1   3 4 ", "2 0 -0.0 1e-100"), True),
    ("emb", _lines("1 0 1e-153 0", "1 1 1e150 1e150"), True),
    ("emb", _lines(EMB, "1 1 1 2", end="\r\n"), True),
    ("cmc", _lines(CMC, "", "2.0 1 0 0 0 1 0", "+3 1e0 0 -1.5 0 1 .25"), True),
]


@pytest.mark.parametrize("kind,data,bulk", PINNED)
def test_pinned_files_agree_on_both_paths(kind, data, bulk):
    got, per_line, took_bulk = both_paths(kind, data)
    assert got == per_line
    assert took_bulk == bulk


def test_pinned_plain_files_keep_sources_and_types(tmp_path):
    path = tmp_path / "det.txt"
    path.write_bytes(_lines("+3,-1,10,20,30,40,0.9,1,-1", "", "3.0,+2,1e1,20,30,40,.9,1.0,-1"))
    t = sio.parse_mot_file(path)
    cols = (t.frame.tolist(), t.track_id.tolist(), t.class_id.tolist())
    assert cols == ([3, 3], [-1, 2], [1, 1])
    assert all(type(v) is int for col in cols for v in col)
    assert (t.path, t.line_nos) == (path, [1, 3])
    path.write_bytes(_lines(f"1,{2**53 + 1},10,20,30,40,0.9,1,-1"))
    assert sio.parse_mot_file(path).track_id.tolist() == [2**53 + 1]  # exact, per line


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.txt")), ids=lambda p: p.name)
def test_golden_files_take_the_bulk_path(path):
    kind = "emb" if path.name.endswith("emb.txt") else "mot"
    got, per_line, took_bulk = both_paths(kind, path.read_bytes())
    assert took_bulk and got == per_line


# Tokens a field is drawn from: numbers in many spellings, values the checks
# turn back, and bytes outside the plain set.
_TOKENS = ["0", "1", "-1", "+3", "3.0", "2", "17", "-0", "-0.0", ".5", "5.", "1e3", "1E-3",
           "0.1", "-2.5", "1e9", "1e10", "1e30", "1e400", "1e-320", "9007199254740993",
           "", "e", "-", "1.2.3", "1_0", "nan", "inf", "\x0c", "\t", "１", "1 2", " 4 "]
_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\n  \n"]


@st.composite
def _text_file(draw, sep, n_fields):
    lines = draw(st.lists(st.lists(st.sampled_from(_TOKENS), min_size=n_fields[0],
                                   max_size=n_fields[1]), max_size=6))
    out = [sep.join(fields) + draw(st.sampled_from(_ENDS)) for fields in lines]
    return "".join(out).encode("utf-8")


_INT = st.sampled_from(["1", "+2", "3.0", "7", "1e1", " 4 "])
_NUM = st.sampled_from(["0.25", "-0", "-1.5", ".5", "12.75", "1e1", "3"])
_POS = st.sampled_from(["0.25", ".5", "12.75", "1e1", "3"])
_UNIT = st.sampled_from(["0", "1", "0.5", "1.0", "-0"])
_MOT_COLS = [_INT, st.sampled_from(["-1", "2", "+5"]), _NUM, _NUM, _POS, _POS, _NUM, _INT, _NUM]


@st.composite
def _plain_valid_file(draw, kind):
    """A plain file of valid lines, though keys may repeat."""
    if kind == "mot":
        cols = _MOT_COLS + draw(st.sampled_from([[], [_UNIT]]))
        lines = draw(st.lists(st.tuples(*cols), max_size=8))
    elif kind == "emb":
        dim = draw(st.integers(1, 5))
        lines = draw(st.lists(st.tuples(_INT, st.sampled_from(["0", "1", "+2", "3.0"]),
                                        _POS, *[_NUM] * (dim - 1)), max_size=8))
    else:
        lines = draw(st.lists(st.tuples(_INT, *[_NUM] * 6), max_size=8))
    sep = FORMATS[kind][2]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(sep.join(fields) + end * draw(st.integers(1, 2)) for fields in lines).encode()


_SHAPES = {"mot": (8, 11), "emb": (1, 6), "cmc": (6, 8)}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FORMATS)).flatmap(
    lambda k: st.tuples(st.just(k), _text_file(FORMATS[k][2], _SHAPES[k]))))
def test_any_file_agrees_on_both_paths(case):
    kind, data = case
    got, per_line, _ = both_paths(kind, data)
    assert got == per_line


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FORMATS)).flatmap(
    lambda k: st.tuples(st.just(k), _plain_valid_file(k))))
def test_plain_files_agree_on_both_paths(case):
    kind, data = case
    got, per_line, took_bulk = both_paths(kind, data)
    assert got == per_line
    if data.strip() and per_line[0] != "ParseError":
        assert took_bulk


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_embedding_norms_are_one_row_norms(n, dim, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-100, 100, size=(n, 1))
    text = "".join(f"1 {i} " + " ".join(map(repr, v.tolist())) + "\n"
                   for i, v in enumerate(vecs))
    got, per_line, took_bulk = both_paths("emb", text.encode())
    assert took_bulk and got == per_line


def _proposals(data: bytes):
    """`parse_proposals` and its frozen per-line copy on a file holding
    ``data``, each as plain data or its ParseError text."""
    def run(parse, path):
        try:
            return [(n, repr(p.bbox), repr(p.v_hat), p.feature.tobytes()) for n, p in parse(path)]
        except sio.ParseError as e:
            return ("ParseError", str(e))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "props.txt")
        Path(path).write_bytes(data)
        return run(sio.parse_proposals, path), run(ref.parse_proposal_lines, path)


@pytest.mark.parametrize("data", [
    _lines("2 2 4 4 0.5 1 2", "", "1 1 4 4 1 3 4"),
    _lines("2 2 4 4 0.5 1", "1 1 0 4 0.5 1", "1 1 4 x 0.5 1"),
    _lines("2 2 4 4 0.5 1", "1 1 4 x 0.5 1", "1 1 4 4 1.5 1"),
    _lines("2 2 4 4 0.5 1 2", "1 1 4 4 0.5"),
    _lines("2 2 4 4 0.5 1 2", "1 1 4 4 0.5 1", end="\r\n"),
])
def test_pinned_proposal_files_agree_with_frozen_copy(data):
    got, per_line = _proposals(data)
    assert got == per_line


@settings(max_examples=100, deadline=None)
@given(_text_file(" ", (4, 8)))
def test_any_proposal_file_agrees_with_frozen_copy(data):
    got, per_line = _proposals(data)
    assert got == per_line


# The writers against their frozen copies.

_FMT_EDGES = [-0.0, 0.0, 1e15 - 1, -(1e15 - 1), 1e15, 1e16, 5e-324, 0.1, -1.0, 1.0, 2.5,
              123456789.0, 2.0**53, 1e300, -1e-300, 3, -7, True, np.float32(0.1),
              np.float64(-4.0), np.int64(12)]


@pytest.mark.parametrize("v", _FMT_EDGES, ids=repr)
def test_fmt_matches_frozen_copy(v):
    assert sio._fmt(v) == ref._fmt(v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-2**60, 2**60).map(float)))
def test_fmt_matches_frozen_copy_on_any_finite_float(v):
    assert sio._fmt(v) == ref._fmt(v)


def _same_file(write_new, write_old, obj) -> bool:
    with tempfile.TemporaryDirectory() as d:
        new, old = Path(d, "new.txt"), Path(d, "old.txt")
        write_new(obj, new)
        write_old(obj, old)
        return new.read_bytes() == old.read_bytes()


_VALUES = st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]),
                    st.sampled_from(_FMT_EDGES[:13]))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.dictionaries(
    st.tuples(st.integers(1, 300), st.integers(0, 40)),
    st.lists(_VALUES, min_size=d, max_size=d).map(np.array), max_size=12)))
def test_write_embeddings_matches_frozen_copy(emb):
    assert _same_file(sio.write_embeddings, ref.write_embeddings, emb)


def test_write_embeddings_takes_any_real_vector():
    emb = {(2, 0): [1, 0, 0], (1, 1): np.array([0.5, -0.0, 3], dtype=np.float32),
           (1, 0): (True, 1e15, 1e16)}
    assert _same_file(sio.write_embeddings, ref.write_embeddings, emb)
    assert _same_file(sio.write_embeddings, ref.write_embeddings, {})


_BOX = st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9), st.floats(1e-3, 1e9),
                 st.floats(1e-3, 1e9)).map(lambda t: BBox(*t))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-5, 2**40), st.dictionaries(st.integers(1, 50), _BOX,
                                                                min_size=1, max_size=5),
                      max_size=6))
def test_write_mot_file_matches_frozen_copy(tracks):
    tset = TrajectorySet.build((tid, sorted(boxes.items())) for tid, boxes in tracks.items())
    assert _same_file(sio.write_mot_file, ref.write_mot_file, tset)


@pytest.mark.parametrize("x", [
    np.full((4, 5), 3.25), np.zeros((2, 2)), np.arange(12).reshape(3, 4),
    np.array([[-1.0, 5.0], [0.5, 2.0]]), np.linspace(-1e300, 1e300, 7),
    np.array([0.0, 5e-324]), np.array([1.0, 1.0 + 2**-52, 1.0 + 2**-51]),
    np.random.default_rng(3).normal(size=(64, 48)),
    np.random.default_rng(4).uniform(-1, 5, size=(5, 6, 2)),
], ids=lambda x: f"{x.dtype}{x.shape}")
def test_to_uint8_matches_frozen_copy(x):
    got, want = sio.to_uint8(x), ref.to_uint8(x)
    assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
def test_to_uint8_matches_frozen_copy_on_any_values(values):
    x = np.array(values)
    assert sio.to_uint8(x).tobytes() == ref.to_uint8(x).tobytes()


@pytest.mark.parametrize("scn,pert,empty", [
    ({"n_moving": 0}, {"seed": 1, "lambda_fp": 2.0}, {"gt.txt"}),
    ({"n_moving": 3}, {"lambda_fp": 0.0, "p_fn": 1.0}, {"det.txt", "emb.txt"}),
    ({"seed": 5, "n_moving": 3}, {"seed": 6, "jitter_sigma": 0.2, "p_fn": 0.2, "lambda_fp": 1.5},
     set()),
], ids=["no-targets", "no-detections", "targets-and-clutter"])
def test_write_scene_matches_frozen_copy(tmp_path, scn, pert, empty):
    """io.write_scene writes every file byte for byte as the synth command
    did itself: a scene without targets gives an empty gt.txt, one without
    detections empty det.txt and emb.txt."""
    scene = synthsim.generate_scene(synthsim.ScenarioConfig(frames=4, width=64, height=64,
                                                            **scn))
    dets = synthsim.perturb_detections(scene, synthsim.PerturbConfig(**pert))
    sio.write_scene(scene, dets, tmp_path / "new")
    ref.write_scene(scene, dets, tmp_path / "old")
    new, old = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("new", "old"))
    assert new == old and len(new) == 4 + 4
    assert {name for name, data in new.items() if not data} == empty
