import re

import numpy as np
import pytest

from sartrack.assoc import TrackerConfig
from sartrack.core import BBox, TrajectorySet
from sartrack.io import (MotRecord, ParseError, id_color, load_config,
                         parse_cmc_file, parse_embeddings, parse_mot_file,
                         parse_proposals, read_pgm, read_tensor,
                         records_to_detections, records_to_trajectories,
                         render_frame, write_mot_file, write_pgm, write_tensor)


def test_parse_basic_nine_column(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,1,-1\n")
    [r] = parse_mot_file(p)
    assert r.frame == 1 and r.track_id == -1
    assert (r.x, r.y, r.w, r.h) == (10, 20, 30, 40)
    assert r.conf == 0.9 and r.class_id == 1
    assert r.motion_awareness is None


def test_parse_ten_column(tmp_path):
    p = tmp_path / "det.txt"
    p.write_text("1,-1,10,20,30,40,0.9,1,-1,0.7\n")
    [r] = parse_mot_file(p)
    assert r.motion_awareness == 0.7


def test_parse_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    assert parse_mot_file(p) == []


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
])
def test_parse_rejects_malformed(tmp_path, line, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        parse_mot_file(p)
    assert f"{p}:1:" in str(exc.value)
    assert fragment in str(exc.value)


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
    dets = records_to_detections(parse_mot_file(p), {(1, 1): np.array([1.0, 0.0])})
    assert sorted(dets) == [1, 2]
    assert len(dets[1]) == 2
    assert dets[1][0].embedding is None
    np.testing.assert_array_equal(dets[1][1].embedding, [1.0, 0.0])


def test_parse_embeddings(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("1 0 3 4\n2 1 0 1\n")
    emb = parse_embeddings(p)
    np.testing.assert_allclose(emb[(1, 0)], [0.6, 0.8])
    assert set(emb) == {(1, 0), (2, 1)}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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


def test_parse_cmc(tmp_path):
    p = tmp_path / "cmc.txt"
    p.write_text("1 1 0 5 0 1 -2\n")
    cmc = parse_cmc_file(p)
    np.testing.assert_allclose(cmc[1].apply((0, 0)), [5, -2])
    assert 2 not in cmc
    for text in ("1 1 0 nan 0 1 0\n", "1 1 0 1e999 0 1 0\n", "1.5 1 0 0 0 1 0\n"):
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}:1:")):
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
