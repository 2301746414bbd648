"""End-to-end outputs against the golden files in tests/golden/, which
make_goldens.py writes. A change that is meant to keep outputs bitwise
unchanged must pass these as they are."""
import sys

import make_goldens as mg
import numpy as np
import pytest

from sartrack.io import read_tensor


def _golden(name) -> bytes:
    return (mg.GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("scene", sorted(mg.SCENES))
def test_scene_outputs_match_goldens(scene, tmp_path):
    """The kept synth files, res.txt of every kept `--maa` mode and its eval
    TSV at IoU 0.5 and 0.3, byte for byte."""
    for name, data in mg.scene_outputs(scene, tmp_path).items():
        assert data == _golden(name), name


def test_lineops_outputs_match_goldens(tmp_path):
    """Synth reproduces the frame byte for byte. On the golden frame,
    `lineops` gives the golden maps to 1e-12 relative, with the same argmax
    per channel: numpy builds may differ in the last bit of `exp`. Values
    below the smallest normal float carry fewer bits, so an absolute
    tolerance of that size covers them."""
    assert mg.lineops_frame(tmp_path) == _golden(mg.LINEOPS_FRAME)
    out = mg.lineops_outputs(mg.GOLDEN_DIR / mg.LINEOPS_FRAME, tmp_path)
    for t in mg.LINEOPS_TENSORS:
        got, want = read_tensor(out / t), read_tensor(mg.GOLDEN_DIR / f"lineops.{t}")
        assert got.shape == want.shape, t
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=sys.float_info.min, err_msg=t)
        flat_got, flat_want = got.reshape(-1, got.shape[2]), want.reshape(-1, want.shape[2])
        assert np.array_equal(flat_got.argmax(axis=0), flat_want.argmax(axis=0)), t
