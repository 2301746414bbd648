"""The shared line reader and typed config loader against the frozen
per-format parsers in io_reference.py: valid files parse to equal results.
The sidecars differ on purpose in one way: a repeated key is an error at its
line, where the reference kept the last line."""
import os
import re
import tempfile

import io_reference as ref
import io_rows
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sartrack import io as sio
from sartrack.assoc import TrackerConfig
from sartrack.synthsim import PerturbConfig, ScenarioConfig

_FORMATS = st.sampled_from([repr, "{:.3f}".format, "{:g}".format, "{:e}".format,
                            lambda v: f" {v!r} "])


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def _num(draw, lo, hi):
    return draw(_FORMATS)(draw(_floats(lo, hi)))


@st.composite
def _int(draw, lo, hi, float_spelling):
    i = draw(st.integers(lo, hi))
    forms = [str(i), f"+{i}" if i >= 0 else str(i)]
    if float_spelling:
        forms += [f"{i}.0", f" {i} "]
    return draw(st.sampled_from(forms))


@st.composite
def _file(draw, lines):
    """Join lines with one line ending, with blank lines sprinkled in."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "\t"])))
        out.append(line)
    return newline.join(out) + draw(st.sampled_from(["", newline]))


def _mot_line():
    cols = [_int(1, 500, True), _int(-1, 100, True), _num(-1e4, 1e4), _num(-1e4, 1e4),
            _num(0.01, 1e4), _num(0.01, 1e4), _num(-1.0, 2.0), _int(-1, 5, True),
            _num(-1.0, 1.0)]
    ten = cols + [_num(0.0, 1.0)]
    return st.one_of(st.tuples(*cols), st.tuples(*ten)).map(",".join)


_NONTINY = _floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


@st.composite
def _emb_file(draw):
    dim = draw(st.integers(1, 6))
    vec = st.lists(_NONTINY, min_size=dim, max_size=dim).filter(lambda v: any(v))
    lines = draw(st.lists(st.tuples(_int(1, 500, False), _int(0, 50, False), vec),
                          max_size=12))
    fmt = draw(_FORMATS)
    out = []
    for f, i, v in lines:
        vals = [fmt(x) for x in v]
        if not any(float(x) for x in vals):  # rounded to zero: no direction to keep
            vals[0] = "1"
        out.append(" ".join([f, i] + vals))
    return draw(_file(out))


def _cmc_line():
    return st.tuples(_int(1, 500, False), *[_num(-1e3, 1e3)] * 6).map(" ".join)


def _proposal_line():
    head = [_num(-100.0, 100.0), _num(-100.0, 100.0), _num(0.01, 100.0), _num(0.01, 100.0),
            _num(0.0, 1.0)]
    return st.tuples(st.tuples(*head), st.lists(_num(-10.0, 10.0), min_size=1, max_size=4)
                     ).map(lambda t: " ".join(list(t[0]) + t[1]))


# Each value range contains the other fields' defaults, so every draw is a
# configuration both the old and the new code accept.
_TRACKER_VALUES = {
    "tau_high": _num(0.6, 1.0), "tau_low": _num(0.0, 0.1),
    "match_thresh_stage1": _num(0.0, 1.0), "match_thresh_stage2": _num(0.0, 1.0),
    "n_init": _int(1, 10, False), "max_age": _int(0, 100, False),
    "lambda_app": _num(0.0, 1.0), "tau_v": _num(0.0, 1.0),
    "ema_alpha": _num(0.0, 1.0), "v_ema_alpha": _num(0.0, 1.0),
}
_SYNTH_VALUES = {
    "seed": _int(0, 2**70, False), "frames": _int(1, 100, False),
    "width": _int(40, 512, False), "height": _int(40, 512, False),
    "n_moving": _int(0, 50, False), "n_static_occluders": _int(0, 10, False),
    "speed_min": _num(0.0, 2.0), "speed_max": _num(4.0, 10.0),
    "size_min": _num(0.5, 10.0), "size_max": _num(10.0, 20.0),
    "streak_gain": _num(0.0, 5.0), "noise_amplitude": _num(0.0, 1.0),
    "appearance_flip_speed": _num(0.0, 5.0), "p_toggle": _num(0.0, 1.0),
    "jitter_sigma": _num(0.0, 1.0), "p_fn": _num(0.0, 1.0), "lambda_fp": _num(0.0, 5.0),
    "clutter_size_min": _num(0.5, 6.0), "clutter_size_max": _num(24.0, 30.0),
}


@st.composite
def _config_file(draw, values):
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    lines = []
    for k in keys:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["# comment", "#k = v"])))
        sep = draw(st.sampled_from([" = ", "=", "  =\t"]))
        lines.append(f"{k}{sep}{draw(values[k]).strip()}")
    return draw(_file(lines))


def _write(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    return path


def _both(text, new, old):
    path = _write(text)
    try:
        return new(path), old(path)
    finally:
        os.unlink(path)


@settings(max_examples=60, deadline=None)
@given(st.lists(_mot_line(), max_size=15).flatmap(_file))
def test_mot_files_parse_as_before(text):
    new, old = _both(text, sio.parse_mot_file, ref.parse_mot_file)
    new = io_rows.records(new)
    assert new == old
    assert all(type(v) is int for r in new for v in (r.frame, r.track_id, r.class_id))


def _rejects_first_repeat(text, n_keys, parse) -> bool:
    """Whether two lines share their leading `n_keys` integer fields (the
    key); if so, `parse` must fail at the first line that repeats a key."""
    seen = set()
    for line_no, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        key = tuple(map(int, line.split()[:n_keys]))
        if key and key in seen:
            path = _write(text)
            try:
                with pytest.raises(sio.ParseError, match=f"^{re.escape(path)}:{line_no}: repeated"):
                    parse(path)
            finally:
                os.unlink(path)
            return True
        seen.add(key)
    return False


@settings(max_examples=60, deadline=None)
@given(_emb_file())
def test_embedding_files_parse_as_before(text):
    if _rejects_first_repeat(text, 2, sio.parse_embeddings):
        return
    new, old = _both(text, sio.parse_embeddings, ref.parse_embeddings)
    new = io_rows.embedding_dict(new)
    assert list(new) == list(old)
    assert all(np.array_equal(new[k], old[k]) and new[k].dtype == old[k].dtype for k in old)


@settings(max_examples=50, deadline=None)
@given(st.lists(_cmc_line(), max_size=12).flatmap(_file))
def test_cmc_files_parse_as_before(text):
    if _rejects_first_repeat(text, 1, sio.parse_cmc_file):
        return
    new, old = _both(text, sio.parse_cmc_file, ref.parse_cmc_file)
    assert list(new) == list(old)
    assert all(np.array_equal(new[k].m, old[k].m) for k in old)


@settings(max_examples=50, deadline=None)
@given(st.lists(_proposal_line(), max_size=8).flatmap(_file))
def test_proposal_files_parse_as_before(text):
    new, old = _both(text, sio.parse_proposals, ref.parse_proposals)
    assert len(new) == len(old)
    for (_, a), b in zip(new, old):
        assert (a.bbox, a.v_hat) == (b.bbox, b.v_hat)
        assert np.array_equal(a.feature, b.feature)


@settings(max_examples=60, deadline=None)
@given(_config_file(_TRACKER_VALUES))
def test_tracker_configs_load_as_before(text):
    (new,), old = _both(text, lambda p: sio.load_config(p, TrackerConfig),
                        lambda p: ref.tracker_config_from_dict(ref.parse_config(p)))
    assert new == old
    assert type(new.n_init) is int and type(new.max_age) is int


@settings(max_examples=60, deadline=None)
@given(_config_file(_SYNTH_VALUES))
def test_synth_configs_load_as_before(text):
    new, old = _both(text, lambda p: sio.load_config(p, ScenarioConfig, PerturbConfig),
                     ref.load_synth_config)
    assert new == old
