"""Mutation fuzzing of every text input: the command line exits 0 or 2, no
exception escapes, and every data error names the file that was mutated."""
import contextlib
import functools
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack.cli import main
from sartrack.io import load_config, write_tensor
from sartrack.synthsim import PerturbConfig, ScenarioConfig

VALID = {
    "det.txt": "".join(f"{f},-1,{10 + 3 * f},20,8,8,0.9,0,-1,0.2\n"
                       f"{f},-1,60,{40 + 2 * f},10,6,0.3,1,-1,0.8\n" for f in range(1, 6)),
    "gt.txt": "".join(f"{f},1,{10 + 3 * f},20,8,8,1,0,1\n"
                      f"{f},2,60,{40 + 2 * f},10,6,1,1,1\n" for f in range(1, 6)),
    "res.txt": "".join(f"{f},1,{11 + 3 * f},20,8,8,1,-1,-1\n"
                       f"{f},3,60,{41 + 2 * f},10,6,1,-1,-1\n" for f in range(1, 6)),
    "emb.txt": "".join(f"{f} 0 1 0.1 0\n{f} 1 0 1 0.25\n" for f in range(1, 6)),
    "cmc.txt": "".join(f"{f} 1 0 0.5 0 1 -0.25\n" for f in range(1, 6)),
    "tracker.txt": "# tracker\ntau_high = 0.6\nn_init = 2\nmax_age = 30\nlambda_app = 0.3\n",
    "props.txt": "2 2 4 4 0.0 1 2\n10 10 4 4 1.0 3 4\n",
    "synth.txt": "seed = 7\nframes = 5\nn_moving = 2\nwidth = 64\nheight = 64\n"
                 "size_max = 10\np_toggle = 0.1\np_fn = 0.1\nclutter_size_max = 12\n",
}

_TOKENS = [b",", b".", b"-", b"+", b"e", b"0", b"1", b"9", b" ", b"\n", b"=", b"#",
           b"nan", b"1e999", b"\xe9", b"\xff", b"inf"]

_REPEAT_LINE = "repeat line"

# One mutation: insert a token or delete 1-3 bytes at a position taken
# modulo the current length, or repeat the whole line at a position taken
# modulo the line count.
_MUTATION = st.tuples(st.integers(0, 10**6),
                      st.one_of(st.sampled_from(_TOKENS), st.integers(1, 3),
                                st.just(_REPEAT_LINE)))
_MUTATIONS = st.lists(_MUTATION, min_size=1, max_size=4)


def mutate(data: bytes, mutations) -> bytes:
    for pos, op in mutations:
        if op == _REPEAT_LINE:
            lines = data.splitlines(keepends=True)
            if lines:
                i = pos % len(lines)
                lines[i:i + 1] = [lines[i].rstrip(b"\n") + b"\n"] * 2
                data = b"".join(lines)
            continue
        i = pos % (len(data) + 1)
        data = data[:i] + op + data[i:] if isinstance(op, bytes) else data[:i] + data[i + op:]
    return data


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as d:
        for name, text in VALID.items():
            with open(os.path.join(d, name), "w", encoding="ascii") as fh:
                fh.write(text)
        write_tensor(np.full((20, 20, 1), 1.0 / 400), os.path.join(d, "a.vsfm"))
        yield d


def _commands(d):
    p = functools.partial(os.path.join, d)
    track = ["track", "--det", p("det.txt"), "--emb", p("emb.txt"), "--cmc", p("cmc.txt"),
             "--config", p("tracker.txt"), "--out", p("out.txt")]
    evaluate = ["eval", "--gt", p("gt.txt"), "--res", p("res.txt")]
    demo = ["lfa-demo", "--asoft", p("a.vsfm"), "--proposals", p("props.txt"),
            "--out", p("enhanced.txt")]
    return {"det.txt": track, "emb.txt": track, "cmc.txt": track, "tracker.txt": track,
            "gt.txt": evaluate, "res.txt": evaluate, "props.txt": demo}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("name", ["det.txt", "emb.txt", "cmc.txt", "tracker.txt",
                                  "gt.txt", "res.txt", "props.txt"])
def test_cli_survives_mutated_input(workdir, name):
    path = os.path.join(workdir, name)
    argv = _commands(workdir)[name]
    assert _run(argv) == (0, "")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_MUTATIONS)
    def check(mutations):
        with open(path, "wb") as fh:
            fh.write(mutate(VALID[name].encode("ascii"), mutations))
        code, err = _run(argv)
        assert code in (0, 2), err
        if code == 2:
            assert path in err, err

    try:
        check()
    finally:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(VALID[name])


def test_synth_config_survives_mutation(workdir):
    # Only load the config: a mutated `frames` or `width` could ask for a
    # huge render.
    path = os.path.join(workdir, "synth.txt")
    load_config(path, ScenarioConfig, PerturbConfig)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_MUTATIONS)
    def check(mutations):
        with open(path, "wb") as fh:
            fh.write(mutate(VALID["synth.txt"].encode("ascii"), mutations))
        try:
            load_config(path, ScenarioConfig, PerturbConfig)
        except ValueError as e:
            assert str(e).startswith(f"{path}:"), e

    try:
        check()
    finally:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(VALID["synth.txt"])
