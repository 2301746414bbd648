import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sartrack
from sartrack.cli import main
from sartrack.io import TENSOR_MAGIC, read_tensor, write_pgm, write_tensor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_perfect_sequence(path, frames=6, n=2):
    """A clean constant-velocity detection file that is its own ground truth."""
    det_lines, gt_lines = [], []
    for f in range(1, frames + 1):
        for tid in range(1, n + 1):
            x = 10.0 + 30 * tid + 2 * f
            y = 10.0 + 15 * tid
            det_lines.append(f"{f},-1,{x},{y},8,8,1,0,-1")
            gt_lines.append(f"{f},{tid},{x},{y},8,8,1,0,1")
    path.joinpath("det.txt").write_text("\n".join(det_lines) + "\n")
    path.joinpath("gt.txt").write_text("\n".join(gt_lines) + "\n")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_track_missing_required_flag(capsys, tmp_path):
    code, _, err = run(capsys, "track", "--det", "x.txt")
    assert code == 1


def test_track_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "track", "--det", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert "nope.txt" in err


def test_track_malformed_det_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,-1,10,20,30,40,0.9,1,-1\n2,-1,oops,0,5,5,0.9,1,-1\n")
    code, _, err = run(capsys, "track", "--det", str(bad),
                       "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert ":2:" in err


@pytest.mark.parametrize("lines", [
    ["1,-1,1e308,10,1e308,10,0.9,0,-1", "1,-1,5,5,3e301,10,0.9,0,-1"],
    [f"{f},-1,1e200,10,1e200,1e200,0.9,0,-1" for f in (1, 2, 3)],
])
def test_track_huge_box_names_line(capsys, tmp_path, lines):
    bad = tmp_path / "det.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "track", "--det", str(bad),
                       "--out", str(tmp_path / "out.txt"))
    assert code == 2
    assert err.startswith(f"sartrack: error: {bad}:1: box coordinate beyond")


def test_eval_huge_box_names_line(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt.write_text("1,1,5,5,4,4,1,0,1\n1,2,1e308,10,1e308,10,1,0,1\n")
    res.write_text(gt.read_text())
    code, _, err = run(capsys, "eval", "--gt", str(gt), "--res", str(res))
    assert code == 2
    assert err.startswith(f"sartrack: error: {gt}:2: box coordinate beyond")


def test_track_bad_config_key(capsys, tmp_path):
    write_perfect_sequence(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("no_such_knob = 1\n")
    code, _, err = run(capsys, "track", "--det", str(tmp_path / "det.txt"),
                       "--out", str(tmp_path / "out.txt"), "--config", str(cfg))
    assert code == 2


def test_track_then_eval_perfect(capsys, tmp_path):
    write_perfect_sequence(tmp_path)
    out = tmp_path / "res.txt"
    code, msg, _ = run(capsys, "track", "--det", str(tmp_path / "det.txt"),
                       "--out", str(out))
    assert code == 0 and out.exists()
    code, table, _ = run(capsys, "eval", "--gt", str(tmp_path / "gt.txt"),
                         "--res", str(out), "--tsv")
    assert code == 0
    header, values = table.strip().split("\n")
    row = dict(zip(header.split("\t"), values.split("\t")))
    assert row["MOTA"] == "1.000" and row["IDSW"] == "0"
    assert row["IDF1"] == "1.000" and row["HOTA"] == "1.000"


def test_track_maa_flag_accepted_both_ways(capsys, tmp_path):
    write_perfect_sequence(tmp_path)
    for mode in ("on", "off"):
        out = tmp_path / f"res_{mode}.txt"
        code, _, _ = run(capsys, "track", "--det", str(tmp_path / "det.txt"),
                         "--out", str(out), "--maa", mode)
        assert code == 0
    # clean detections with no embeddings: the gate has nothing to discard
    assert (tmp_path / "res_on.txt").read_bytes() == (tmp_path / "res_off.txt").read_bytes()


def test_eval_id_switch_fixture(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt.write_text("".join(f"{f},1,{10 * f},0,4,4,1,0,1\n" for f in range(1, 5)))
    res.write_text("1,7,10,0,4,4,1,-1,-1\n2,7,20,0,4,4,1,-1,-1\n"
                   "3,8,30,0,4,4,1,-1,-1\n4,8,40,0,4,4,1,-1,-1\n")
    code, table, _ = run(capsys, "eval", "--gt", str(gt), "--res", str(res), "--tsv")
    assert code == 0
    header, values = table.strip().split("\n")
    row = dict(zip(header.split("\t"), values.split("\t")))
    assert row["MOTA"] == "0.750"
    assert row["IDF1"] == "0.500"
    assert row["IDSW"] == "1"


def test_eval_empty_gt_is_data_error(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt.write_text("")
    res.write_text("1,1,0,0,4,4,1,-1,-1\n")
    code, _, err = run(capsys, "eval", "--gt", str(gt), "--res", str(res))
    assert code == 2
    assert "empty" in err


def test_eval_out_of_range_frames(capsys, tmp_path):
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt.write_text("1,1,0,0,4,4,1,0,1\n2,1,0,0,4,4,1,0,1\n")
    res.write_text("5,1,0,0,4,4,1,-1,-1\n")
    code, _, err = run(capsys, "eval", "--gt", str(gt), "--res", str(res))
    assert code == 2
    assert "range" in err
    assert str(gt) in err and str(res) in err


def test_eval_human_readable_aligned(capsys, tmp_path):
    write_perfect_sequence(tmp_path)
    code, table, _ = run(capsys, "eval", "--gt", str(tmp_path / "gt.txt"),
                         "--res", str(tmp_path / "gt.txt"))
    assert code == 0
    lines = table.strip().split("\n")
    assert len(lines) == 2
    assert "MOTA" in lines[0] and "AssA" in lines[0]


@pytest.fixture
def scenario_dir(capsys, tmp_path):
    cfg = tmp_path / "scenario.txt"
    cfg.write_text("seed = 5\nframes = 8\nn_moving = 3\nwidth = 96\nheight = 96\n"
                   "jitter_sigma = 0.1\np_fn = 0.05\nlambda_fp = 0.5\n")
    out = tmp_path / "scene"
    code, _, _ = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(out))
    assert code == 0
    return out


def test_synth_writes_expected_files(scenario_dir):
    names = {p.name for p in scenario_dir.iterdir()}
    assert {"gt.txt", "det.txt", "emb.txt", "cmc.txt"} <= names
    assert {f"{i:06d}.pgm" for i in range(1, 9)} <= names
    gt = scenario_dir.joinpath("gt.txt").read_text().strip().split("\n")
    assert all(len(line.split(",")) == 10 for line in gt)
    cmc = scenario_dir.joinpath("cmc.txt").read_text().strip().split("\n")
    assert len(cmc) == 8 and cmc[0] == "1 1 0 0 0 1 0"


def test_synth_track_eval_pipeline(capsys, scenario_dir, tmp_path):
    res = tmp_path / "res.txt"
    code, _, _ = run(capsys, "track", "--det", str(scenario_dir / "det.txt"),
                     "--out", str(res), "--emb", str(scenario_dir / "emb.txt"),
                     "--cmc", str(scenario_dir / "cmc.txt"))
    assert code == 0
    code, table, _ = run(capsys, "eval", "--gt", str(scenario_dir / "gt.txt"),
                         "--res", str(res), "--tsv")
    assert code == 0
    header, values = table.strip().split("\n")
    row = dict(zip(header.split("\t"), values.split("\t")))
    assert float(row["MOTA"]) <= 1.0


def test_synth_unknown_config_key_is_data_error(capsys, tmp_path):
    cfg = tmp_path / "scenario.txt"
    cfg.write_text("seed = 5\nframes = 8\nn_movign = 40\n")
    out = tmp_path / "scene"
    code, _, err = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(out))
    assert code == 2
    assert str(cfg) in err and "n_movign" in err
    assert not out.exists()


def test_synth_clutter_larger_than_canvas_is_data_error(capsys, tmp_path):
    cfg = tmp_path / "scenario.txt"
    cfg.write_text("frames = 2\nwidth = 64\nheight = 64\nsize_max = 10\n"
                   "lambda_fp = 3\nclutter_size_max = 100\n")
    code, _, err = run(capsys, "synth", "--config", str(cfg), "--out-dir", str(tmp_path / "s"))
    assert code == 2
    assert str(cfg) in err and "clutter_size_max" in err


def test_lineops_on_pgm(capsys, tmp_path):
    img = np.zeros((16, 16), dtype=np.uint8)
    img[8, :] = 255
    src = tmp_path / "in.pgm"
    write_pgm(img, src)
    out = tmp_path / "lo"
    code, _, _ = run(capsys, "lineops", "--in", str(src), "--out", str(out))
    assert code == 0
    a_soft = read_tensor(out / "a_soft.vsfm")
    assert a_soft.shape == (16, 16, 1)
    assert a_soft.sum() == pytest.approx(1.0)
    fused = read_tensor(out / "fused.vsfm")
    assert fused.shape == (16, 16, 1)
    assert (out / "a_soft.pgm").exists()


def test_lineops_on_tensor(capsys, tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "in.vsfm"
    write_tensor(rng.random((12, 12, 2)), src)
    out = tmp_path / "lo"
    code, _, _ = run(capsys, "lineops", "--in", str(src), "--out", str(out),
                     "--theta", "90", "--rho", "24", "--tau", "0.0")
    assert code == 0
    assert read_tensor(out / "a_soft.vsfm").shape == (12, 12, 2)


@pytest.mark.parametrize("flags,message", [
    (("--theta", "1000000000"), "(1000000000, 64, 64)"),
    (("--theta", "0"), "n_angles and n_rho must be >= 1"),
    (("--rho", "0"), "n_angles and n_rho must be >= 1"),
    (("--tau", "nan"), "tau must be finite"),
    (("--tau", "inf"), "tau must be finite"),
    (("--theta", "2", "--rho", "1000000000"), "(2, 1000000000, 1) needs 16000000000 bytes"),
])
def test_lineops_bad_bins_and_tau_are_data_errors(capsys, tmp_path, flags, message):
    src = tmp_path / "t.vsfm"
    write_tensor(np.zeros((64, 64, 1)), src)
    code, _, err = run(capsys, "lineops", "--in", str(src), "--out", str(tmp_path / "o"), *flags)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_lineops_truncated_tensor_header_is_data_error(capsys, tmp_path):
    src = tmp_path / "short.vsfm"
    src.write_bytes(b"VSFM\x01\x00")
    code, _, err = run(capsys, "lineops", "--in", str(src), "--out", str(tmp_path / "lo"))
    assert code == 2
    assert f"{src}: truncated tensor header" in err


def test_lfa_demo(capsys, tmp_path):
    a_soft = np.full((20, 20, 1), 1.0 / 400)
    src = tmp_path / "a.vsfm"
    write_tensor(a_soft, src)
    props = tmp_path / "props.txt"
    props.write_text("2 2 4 4 0.0 1 2\n10 10 4 4 1.0 3 4\n")
    out = tmp_path / "enh.txt"
    code, msg, _ = run(capsys, "lfa-demo", "--asoft", str(src),
                       "--proposals", str(props), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert all(len(line.split()) >= 6 for line in lines)
    props.write_text("2 2 4 4 0.0 1 2\n\n30 30 4 4 0.5 1 2\n")
    code, _, err = run(capsys, "lfa-demo", "--asoft", str(src),
                       "--proposals", str(props), "--out", str(out))
    assert code == 2
    assert f"{props}:3: center" in err and "outside" in err


def test_lfa_demo_bad_later_proposal_leaves_no_output(capsys, tmp_path):
    src = tmp_path / "a.vsfm"
    write_tensor(np.full((20, 20, 1), 1.0 / 400), src)
    props = tmp_path / "props.txt"
    props.write_text("2 2 4 4 0.0 1 2\n30 30 4 4 0.5 1 2\n")
    out = tmp_path / "enh.txt"
    code, _, err = run(capsys, "lfa-demo", "--asoft", str(src),
                       "--proposals", str(props), "--out", str(out))
    assert code == 2
    assert f"{props}:2: center" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--lambda-max", "nan"), ("--lambda-max", "inf"),
    ("--width", "nan"), ("--width", "inf"), ("--width", "0"), ("--height", "-5"),
])
def test_lfa_demo_bad_radius_inputs_are_data_errors(capsys, tmp_path, flag, value):
    src = tmp_path / "a.vsfm"
    write_tensor(np.full((20, 20, 1), 1.0 / 400), src)
    props = tmp_path / "props.txt"
    props.write_text("2 2 4 4 0.0 1 2\n")
    out = tmp_path / "enh.txt"
    code, _, err = run(capsys, "lfa-demo", "--asoft", str(src), "--proposals", str(props),
                       "--out", str(out), flag, value)
    name = {"--lambda-max": "lambda_max", "--width": "image_w", "--height": "image_h"}[flag]
    assert code == 2
    assert f"{name} must be positive and finite, got {float(value)}" in err
    assert not out.exists()


def test_render(capsys, scenario_dir, tmp_path):
    out = tmp_path / "vis"
    code, _, _ = run(capsys, "render", "--frames-dir", str(scenario_dir),
                     "--tracks", str(scenario_dir / "gt.txt"), "--out-dir", str(out))
    assert code == 0
    assert len(list(out.glob("*.ppm"))) == 8


def test_render_no_frames_is_data_error(capsys, tmp_path):
    empty = tmp_path / "frames"
    empty.mkdir()
    tracks = tmp_path / "t.txt"
    tracks.write_text("1,1,0,0,4,4,1,-1,-1\n")
    code, _, err = run(capsys, "render", "--frames-dir", str(empty),
                       "--tracks", str(tracks), "--out-dir", str(tmp_path / "o"))
    assert code == 2


_DUP = "1,1,0,0,10,10,1,-1,-1\n2,1,2,2,10,10,1,-1,-1\n1,1,5,5,10,10,1,-1,-1\n"
_OK = "1,1,0,0,10,10,1,-1,-1\n2,1,2,2,10,10,1,-1,-1\n"


@pytest.mark.parametrize("role", ["--gt", "--res", "render"])
def test_repeated_track_frame_names_file_and_line(capsys, tmp_path, role):
    dup, ok = tmp_path / "dup.txt", tmp_path / "ok.txt"
    dup.write_text(_DUP)
    ok.write_text(_OK)
    if role == "render":
        frames = tmp_path / "frames"
        frames.mkdir()
        write_pgm(np.zeros((16, 16), dtype=np.uint8), frames / "000001.pgm")
        argv = ["render", "--frames-dir", str(frames), "--tracks", str(dup),
                "--out-dir", str(tmp_path / "vis")]
    else:
        files = {"--gt": ok, "--res": ok, role: dup}
        argv = ["eval", "--gt", str(files["--gt"]), "--res", str(files["--res"])]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"{dup}:3: track 1 already has a box in frame 1" in err
    assert not (tmp_path / "vis").exists()


def test_render_non_numeric_frame_name_is_data_error(capsys, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    write_pgm(np.zeros((16, 16), dtype=np.uint8), frames / "000001.pgm")
    write_pgm(np.zeros((16, 16), dtype=np.uint8), frames / "abc.pgm")
    tracks = tmp_path / "t.txt"
    tracks.write_text(_OK)
    out = tmp_path / "vis"
    code, _, err = run(capsys, "render", "--frames-dir", str(frames),
                       "--tracks", str(tracks), "--out-dir", str(out))
    assert code == 2
    assert f"{frames / 'abc.pgm'}: frame files must be named by frame number" in err
    assert not out.exists()


def test_render_missing_frames_dir_leaves_no_output(capsys, tmp_path):
    tracks = tmp_path / "t.txt"
    tracks.write_text(_OK)
    out = tmp_path / "vis"
    code, _, err = run(capsys, "render", "--frames-dir", str(tmp_path / "nope"),
                       "--tracks", str(tracks), "--out-dir", str(out))
    assert code == 2
    assert str(tmp_path / "nope") in err
    assert not out.exists()


def test_render_bad_later_frame_leaves_no_output(capsys, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    write_pgm(np.zeros((16, 16), dtype=np.uint8), frames / "000001.pgm")
    (frames / "000002.pgm").write_bytes(b"P5\n12")
    tracks = tmp_path / "t.txt"
    tracks.write_text(_OK)
    out = tmp_path / "vis"
    code, _, err = run(capsys, "render", "--frames-dir", str(frames),
                       "--tracks", str(tracks), "--out-dir", str(out))
    assert code == 2
    assert str(frames / "000002.pgm") in err
    assert not out.exists()


def test_only_track_and_eval_load_scipy_optimize(tmp_path):
    """lineops, synth, lfa-demo and render run without importing the
    assignment solver, which costs SciPy's import time and memory."""
    script = f"""
import sys
import numpy as np
from sartrack.cli import main
from sartrack.io import write_pgm, write_tensor
d = {str(tmp_path)!r}
img = np.zeros((16, 16), dtype=np.uint8)
img[8, :] = 255
write_pgm(img, d + "/in.pgm")
write_tensor(np.full((20, 20, 1), 1.0 / 400), d + "/a.vsfm")
open(d + "/props.txt", "w").write("2 2 4 4 0.0 1 2\\n")
open(d + "/scn.txt", "w").write("frames = 2\\nn_moving = 2\\nwidth = 64\\nheight = 64\\n")
for argv in (["lineops", "--in", d + "/in.pgm", "--out", d + "/lo"],
             ["synth", "--config", d + "/scn.txt", "--out-dir", d + "/scene"],
             ["lfa-demo", "--asoft", d + "/a.vsfm", "--proposals", d + "/props.txt",
              "--out", d + "/enh.txt"],
             ["render", "--frames-dir", d + "/scene", "--tracks", d + "/scene/gt.txt",
              "--out-dir", d + "/vis"]):
    assert main(argv) == 0, argv
print("scipy.optimize" in sys.modules)
"""
    src_dir = os.path.dirname(os.path.dirname(sartrack.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


def _tensor_bytes(h, w, c, payload=b""):
    return TENSOR_MAGIC + struct.pack("<III", h, w, c) + payload


def _map_with(value, y, x):
    a = np.full((20, 20), 1.0 / 400)
    a[y, x] = value
    return _tensor_bytes(20, 20, 1, a.astype("<f8").tobytes())


# Each is exit 2 with a message that starts with the tensor's path. The
# proposal used with them is centered at (4, 4) with a 4 px pooling disk.
_BAD_TENSORS = {
    # 100000 x 100000 x 100 doubles: 8e12 bytes that the file does not hold.
    "huge-header": (_tensor_bytes(100000, 100000, 100), "truncated tensor payload"),
    "zero-dims": (_tensor_bytes(0, 0, 0), "tensor dimensions must be >= 1"),
    "zero-width": (_tensor_bytes(20, 0, 1), "tensor dimensions must be >= 1"),
    "nan": (_map_with(np.nan, 10, 10), "non-finite value in tensor"),
    "inf-inside-disk": (_map_with(np.inf, 4, 4), "non-finite value in tensor"),
    "inf-outside-disk": (_map_with(np.inf, 19, 19), "non-finite value in tensor"),
}

_BAD_PGMS = {
    "no-height": (b"P5\n12", "bad PGM header field b''"),
    "bad-width": (b"P5\nx 4\n255\n", "bad PGM header field b'x'"),
    "no-space-before-pixels": (b"P5\n4 4\n255" + bytes(range(100, 116)),
                               "bad PGM header field b'255defghijklmnop'"),
    "zero-width": (b"P5\n0 5\n255\n", "PGM width and height must be >= 1, got 0x5"),
}


def _bad_file_argv(tmp_path, command, content):
    """The argv that hands ``content`` to ``command``, and the file's path."""
    if command == "render":
        frames = tmp_path / "frames"
        frames.mkdir()
        bad = frames / "000001.pgm"
        tracks = tmp_path / "t.txt"
        tracks.write_text(_OK)
        argv = ["render", "--frames-dir", str(frames), "--tracks", str(tracks),
                "--out-dir", str(tmp_path / "vis")]
    elif command == "lfa-demo":
        bad = tmp_path / "a.vsfm"
        props = tmp_path / "props.txt"
        props.write_text("2 2 4 4 0.0 1 2\n")
        argv = ["lfa-demo", "--asoft", str(bad), "--proposals", str(props),
                "--out", str(tmp_path / "enh.txt")]
    else:
        bad = tmp_path / ("in.vsfm" if content.startswith(TENSOR_MAGIC) else "in.pgm")
        argv = ["lineops", "--in", str(bad), "--out", str(tmp_path / "lo")]
    bad.write_bytes(content)
    return argv, bad


@pytest.mark.parametrize("command,content,message", [
    pytest.param(cmd, *cases[name], id=f"{cmd}-{kind}-{name}")
    for kind, cmds, cases in (("tensor", ("lineops", "lfa-demo"), _BAD_TENSORS),
                              ("pgm", ("lineops", "render"), _BAD_PGMS))
    for cmd in cmds for name in cases
])
def test_bad_tensor_or_pgm_names_its_file(capsys, tmp_path, command, content, message):
    argv, bad = _bad_file_argv(tmp_path, command, content)
    # No reader may allocate what a header asks for before checking it.
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.startswith(f"sartrack: error: {bad}: {message}")
    assert peak < 1 << 20
    assert not (tmp_path / "lo").exists() and not (tmp_path / "enh.txt").exists()
