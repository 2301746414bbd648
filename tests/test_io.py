import math
import re
import tracemalloc

import numpy as np
import pytest

from sartrack.assoc import TrackerConfig
from sartrack.core import BBox, TrajectorySet
from sartrack.io import (MotRecord, ParseError, _fmt, id_color, load_config,
                         parse_cmc_file, parse_embeddings, parse_mot_file,
                         parse_proposals, read_pgm, read_tensor,
                         records_to_detections, records_to_trajectories,
                         render_frame, write_embeddings, write_mot_file, write_pgm,
                         write_tensor)


def test_parse_basic_nine_column(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,1,-1\n")
    t = parse_mot_file(p)
    assert len(t) == 1 and (t.path, t.line_nos) == (p, [1])
    assert t.frame.tolist() == [1] and t.track_id.tolist() == [-1]
    assert t.boxes.tolist() == [[10, 20, 30, 40]]
    assert t.conf.tolist() == [0.9] and t.class_id.tolist() == [1]
    assert t.visibility.tolist() == [-1] and math.isnan(t.ma[0])


def test_parse_ten_column(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,1,-1,0.7\n")
    assert parse_mot_file(p).ma.tolist() == [0.7]


def test_parse_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    t = parse_mot_file(p)
    assert len(t) == 0 and t.boxes.shape == (0, 4)


@pytest.mark.parametrize("line,fragment", [
    ("1,-1,a,20,30,40,0.9,1,-1", "non-numeric"),
    ("0,-1,10,20,30,40,0.9,1,-1", "frame"),
    ("1,-1,10,20,0,40,0.9,1,-1", "nonpositive"),
    ("1,-1,10,20,30,-4,0.9,1,-1", "nonpositive"),
    ("1,-1,10,20,30,40,0.9,1", "columns"),
    ("1,-1,10,20,30,40,0.9,1,-1,1.5", "motion awareness"),
    ("1,-1,10,20,30,40,0.9,1,-1,-0.1", "motion awareness"),
    ("2.5,-1,10,20,30,40,0.9,1,-1", "integer"),
    ("1,2.7,10,20,30,40,0.9,1,-1", "integer"),
    ("1,-1,10,20,30,40,0.9,1.5,-1", "integer"),
    ("1,-1,nan,20,30,40,0.9,1,-1", "non-finite"),
    ("1,-1,10,20,1e999,40,0.9,1,-1", "non-finite"),
    ("1,-1,10,20,30,40,0.9,1,-1\u00e9", "non-ASCII"),
    ("1,-1,1e308,10,1e308,10,0.9,0,-1", "beyond 1000000000 px"),
    ("1,-1,5,5,3e301,10,0.9,0,-1", "beyond 1000000000 px"),
    ("1,-1,1e200,10,1e200,1e200,0.9,0,-1", "beyond 1000000000 px"),
    ("1,-1,-1000000001,20,30,40,0.9,1,-1", "beyond 1000000000 px"),
    ("1,-1,10,20,30,1000000001,0.9,1,-1", "beyond 1000000000 px"),
])
def test_parse_rejects_malformed(tmp_path, line, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_mot_file(p)
    assert f"{p}:1:" in str(exc.value)
    assert fragment in str(exc.value)


def test_parse_accepts_coordinates_at_the_bound(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,-1e9,1e9,1e9,1e9,0.9,0,-1\n")
    assert parse_mot_file(p).boxes.tolist() == [[-1e9, 1e9, 1e9, 1e9]]


def test_write_single_track_line(tmp_path):
    ts = TrajectorySet.build([(3, [(1, BBox(1, 2, 3, 4))])])
    p = tmp_path / "out.txt"
    write_mot_file(ts, p)
    assert p.read_text() == "1,3,1,2,3,4,1,-1,-1\n"


def test_write_empty(tmp_path):
    p = tmp_path / "out.txt"
    write_mot_file(TrajectorySet.build([]), p)
    assert p.read_text() == ""


def test_write_parse_write_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    tracks = []
    for tid in range(1, 6):
        frames = sorted(rng.choice(range(1, 40), size=8, replace=False))
        tracks.append((tid, [(int(f), BBox(*rng.uniform(0.5, 90, 2), *rng.uniform(1, 30, 2)))
                             for f in frames]))
    ts = TrajectorySet.build(tracks)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_mot_file(ts, p1)
    write_mot_file(records_to_trajectories(parse_mot_file(p1)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_record_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        r = MotRecord(int(rng.integers(1, 500)), int(rng.integers(-1, 50)),
                      float(rng.uniform(-10, 500)), float(rng.uniform(-10, 500)),
                      float(rng.uniform(0.1, 100)), float(rng.uniform(0.1, 100)),
                      float(rng.uniform(0, 1)), int(rng.integers(-1, 3)),
                      float(rng.choice([-1.0, rng.uniform(0, 1)])),
                      None if rng.random() < 0.5 else float(rng.uniform(0, 1)))
        fields = r.render().split(",")
        back = MotRecord(int(float(fields[0])), int(float(fields[1])),
                         *[float(f) for f in fields[2:7]],
                         int(float(fields[7])), float(fields[8]),
                         float(fields[9]) if len(fields) == 10 else None)
        assert back == r


def test_records_to_detections_groups_and_embeds(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("2,-1,10,20,5,5,0.9,1,-1\n1,-1,1,1,5,5,0.8,0,-1\n1,-1,9,9,5,5,0.7,0,-1\n")
    e = tmp_path / "emb.txt"
    e.write_text("1 1 2 0\n")
    dets = records_to_detections(parse_mot_file(p), parse_embeddings(e))
    assert sorted(dets) == [1, 2]
    assert len(dets[1]) == 2
    assert dets[1][0].embedding is None
    np.testing.assert_array_equal(dets[1][1].embedding, [1.0, 0.0])


def test_parse_embeddings(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("2 1 0 1\n1 0 3 4\n")
    emb = parse_embeddings(p)
    assert (emb.frame.tolist(), emb.index.tolist(), emb.path) == ([2, 1], [1, 0], p)
    np.testing.assert_allclose(emb.vecs, [[0, 1], [0.6, 0.8]])


def _write_embeddings_reference(emb, path):
    """The line-by-line writer: one `_fmt` call per cell."""
    with open(path, "w", encoding="ascii") as fh:
        for f, i in sorted(emb):
            fh.write(f"{f} {i} {' '.join(map(_fmt, np.asarray(emb[f, i], float).tolist()))}\n")


# Cells where integer and repr formatting meet, signed zeros, the extremes.
_ADVERSARIAL = [-0.0, 0.0, 0.5, -0.5, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e16,
                float(2**53 + 2), 5e-324, -5e-324, 1e308, -1e308, math.nan, -math.nan,
                math.inf, -math.inf, 1.0, -1.0, 0.1, 123456789.0]


def _adversarial_rows():
    rng = np.random.default_rng(1)
    return {(f, i): rng.choice(_ADVERSARIAL, size=6)
            for f in rng.permutation(np.arange(1, 400)).tolist() for i in range(3)}


def _ragged_rows():
    rng = np.random.default_rng(2)
    return {(f, i): rng.choice(_ADVERSARIAL, size=int(rng.integers(0, 9)))
            for f in range(1, 300) for i in range(4)}


def _row_wider_than_a_chunk():
    rng = np.random.default_rng(3)
    wide = np.concatenate([rng.normal(size=9000), _ADVERSARIAL])
    return {(1, 0): [0.0, 1.0], (2, 0): wide, (2, 1): -wide, (3, 0): np.array([-0.0, 7.0])}


@pytest.mark.parametrize("rows", [_adversarial_rows, _ragged_rows, _row_wider_than_a_chunk])
def test_write_embeddings_matches_per_cell_formatting(tmp_path, rows):
    """Chunked writing, each distinct value formatted once, gives the bytes
    of formatting every cell alone."""
    emb = rows()
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    write_embeddings(emb, got)
    _write_embeddings_reference(emb, want)
    assert got.read_bytes() == want.read_bytes()


def test_write_embeddings_signed_zero_and_extremes(tmp_path):
    p = tmp_path / "emb.txt"
    write_embeddings({(2, 0): [0.0, -0.0, 1e15, 2.0**53 + 2], (1, 3): [-0.0, 5e-324, math.nan]}, p)
    assert p.read_text() == "1 3 0 5e-324 nan\n2 0 0 0 1000000000000000.0 9007199254740994.0\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_write_embeddings_streams_its_lines(tmp_path):
    """Wide vectors are written line by line: the write holds far less than
    the file it writes, so synth's peak does not grow with the width."""
    rng = np.random.default_rng(0)
    emb = {(f, i): rng.normal(size=2000) for f in range(1, 6) for i in range(20)}
    p = tmp_path / "emb.txt"
    tracemalloc.start()
    try:
        write_embeddings(emb, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert peak < size / 2, (peak, size)
    got = parse_embeddings(p)
    assert list(zip(got.frame.tolist(), got.index.tolist())) == sorted(emb)
    np.testing.assert_allclose(got.vecs[2 * 20 + 7], emb[3, 7] / np.linalg.norm(emb[3, 7]))


def test_parse_embeddings_errors(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1 0 3 4\n2 1 1 2 3\n")
    with pytest.raises(ParseError):
        parse_embeddings(p)
    for text in ("1 0 0 0\n", "1 0 1e-160 1e-160\n", "1 0 1e200 1e200\n",
                 "1 0.5 1 0\n", "1 0\n", "1 0 nan 1\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}:1:")):
            parse_embeddings(p)


def test_parse_embeddings_rejects_a_repeated_key(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1 0 3 4\n1 1 1 0\n\n1 0 0 1\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:4: repeated frame 1 index 0")):
        parse_embeddings(p)


@pytest.mark.parametrize("line", ["0 0 1 0", "-2 -5 1 0", "3 -1 1 0"])
def test_parse_embeddings_rejects_a_key_below_its_range(tmp_path, line):
    p = tmp_path / "emb.txt"
    p.write_text(f"1 0 1 0\n{line}\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:2: need frame >= 1 and index >= 0")):
        parse_embeddings(p)


@pytest.mark.parametrize("frame", ["0", "-4"])
def test_parse_cmc_rejects_a_frame_below_one(tmp_path, frame):
    p = tmp_path / "cmc.txt"
    p.write_text(f"1 1 0 0 0 1 0\n{frame} 1 0 5 0 1 0\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:2: frame must be >= 1, got {frame}")):
        parse_cmc_file(p)


def test_parse_cmc(tmp_path):
    p = tmp_path / "cmc.txt"
    p.write_text("1 1 0 5 0 1 -2\n")
    cmc = parse_cmc_file(p)
    np.testing.assert_allclose(cmc[1].t, [5, -2])
    assert 2 not in cmc
    for text in ("1 1 0 nan 0 1 0\n", "1 1 0 1e999 0 1 0\n", "1.5 1 0 0 0 1 0\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}:1:")):
            parse_cmc_file(p)


def test_parse_cmc_rejects_a_repeated_frame(tmp_path):
    p = tmp_path / "cmc.txt"
    p.write_text("1 1 0 0 0 1 0\n2 1 0 0 0 1 0\n1.0 1 0 5 0 1 0\n")
    with pytest.raises(ParseError, match=re.escape(f"{p}:3: repeated frame 1")):
        parse_cmc_file(p)


def test_parse_proposals(tmp_path):
    p = tmp_path / "props.txt"
    p.write_text("2 2 4 4 0.0 1 2\n\n10 10 4 4 1.0 3\n")
    [(l1, a), (l2, b)] = parse_proposals(p)
    assert (l1, l2) == (1, 3)
    assert (a.bbox, a.v_hat) == (BBox(2, 2, 4, 4), 0.0)
    np.testing.assert_array_equal(b.feature, [3.0])
    for text in ("1 1 4 4 0.5\n", "1 1 4 x 0.5 1\n", "1 1 0 4 0.5 1\n", "1 1 4 4 1.5 1\n"):
        p.write_text("2 2 4 4 0.0 1 2\n" + text)
        with pytest.raises(ParseError, match=re.escape(f"{p}:2:")):
            parse_proposals(p)


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("# comment\ntau_high = 0.7\nn_init=3\n")
    (cfg,) = load_config(p, TrackerConfig)
    assert (cfg.tau_high, cfg.n_init) == (0.7, 3) and type(cfg.n_init) is int
    p.write_text("no equals sign\n")
    with pytest.raises(ParseError):
        load_config(p, TrackerConfig)


@pytest.mark.parametrize("text,fragment", [
    ("tau_high = 0.7\nno_such_knob = 1\n", ":2: unknown key"),
    ("n_init = 2\n\nn_init = 3\n", ":3: repeated key"),
    ("n_init = 2.5\n", ":1: expected an integer"),
    ("tau_high = abc\n", ":1: non-numeric"),
    ("tau_high =\n", ":1: non-numeric"),
    ("tau_high = nan\n", ":1: non-finite"),
    ("tau_high = 1e999\n", ":1: non-finite"),
    ("# caf\u00e9\n", ":1: non-ASCII"),
    ("tau_high = 1.5\n", ": need 0 <= tau_low < tau_high <= 1"),
])
def test_load_config_errors_name_the_file(tmp_path, text, fragment):
    p = tmp_path / "cfg.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_config(p, TrackerConfig)
    assert str(exc.value).startswith(f"{p}{fragment}")


def test_load_config_int_fields_accept_float_spelling(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("n_init = 3.0\nmax_age = 1e2\nlambda_app = 0\n")
    (cfg,) = load_config(p, TrackerConfig)
    assert (cfg.n_init, cfg.max_age, cfg.lambda_app) == (3, 100, 0.0)
    assert type(cfg.n_init) is int and type(cfg.lambda_app) is float


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 7, 3))
    p = tmp_path / "t.vsfm"
    write_tensor(x, p)
    np.testing.assert_array_equal(read_tensor(p), x)
    assert p.read_bytes()[:4] == b"VSFM"


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (9, 6), dtype=np.uint8)
    p = tmp_path / "i.pgm"
    write_pgm(img, p)
    np.testing.assert_array_equal(read_pgm(p), img)


def test_write_pgm_writes_ppm_for_rgb_and_rejects_other_shapes(tmp_path):
    rgb = np.random.default_rng(4).integers(0, 256, (3, 5, 3), dtype=np.uint8)
    p = tmp_path / "i.ppm"
    write_pgm(rgb, p)
    assert p.read_bytes() == b"P6\n5 3\n255\n" + rgb.tobytes()
    for shape in ((3, 5, 4), (3, 5, 1), (15,)):
        with pytest.raises(ValueError):
            write_pgm(np.zeros(shape, dtype=np.uint8), tmp_path / "bad.pgm")


def test_pgm_header_comments_and_whitespace(tmp_path):
    """Fields may be split by any whitespace and `#` comments; the pixels
    start after exactly one whitespace byte, which may itself be pixel-like."""
    pixels = bytes([32, 10, 35, 7, 255, 0])
    p = tmp_path / "i.pgm"
    p.write_bytes(b"# lead\nP5\t# one\n3\r\n# two\n 2 #three\n255\n" + pixels)
    np.testing.assert_array_equal(read_pgm(p), np.frombuffer(pixels, np.uint8).reshape(2, 3))


def test_render_no_boxes_preserves_canvas(tmp_path):
    canvas = np.arange(64, dtype=np.uint8).reshape(8, 8)
    p = tmp_path / "o.ppm"
    render_frame(canvas, [], p)
    data = p.read_bytes()
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(8, 8, 3)
    for c in range(3):
        np.testing.assert_array_equal(pixels[:, :, c], canvas)


def test_render_same_id_same_color(tmp_path):
    assert id_color(7) == id_color(7)
    assert id_color(7) != id_color(8)


def test_render_golden_outline(tmp_path):
    canvas = np.zeros((8, 8), dtype=np.uint8)
    p = tmp_path / "o.ppm"
    render_frame(canvas, [(1, BBox(2, 1, 4, 5))], p)
    data = p.read_bytes()
    pixels = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8).reshape(8, 8, 3)
    color = np.array(id_color(1), dtype=np.uint8)
    # outline occupies rows 1..5, cols 2..5
    np.testing.assert_array_equal(pixels[1, 2:6], np.tile(color, (4, 1)))
    np.testing.assert_array_equal(pixels[5, 2:6], np.tile(color, (4, 1)))
    np.testing.assert_array_equal(pixels[1:6, 2], np.tile(color, (5, 1)))
    np.testing.assert_array_equal(pixels[1:6, 5], np.tile(color, (5, 1)))
    assert np.all(pixels[3, 3] == 0)  # interior untouched
