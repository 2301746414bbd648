"""Frozen reference for the equivalence tests: the text parsers as they were
when each format had its own hand-written loop, kept verbatim apart from this
docstring, the merged imports, and the copies of the three config
`from_dict` methods (as functions), the synth command's unknown-key check and
the command line's proposal reader (which raised the command line's own
`DataError`, here `ValueError`). Record and config classes come from the
library. Test-only; do not change it to follow the library.
"""
from __future__ import annotations

from dataclasses import fields

import numpy as np

from sartrack.assoc import TrackerConfig
from sartrack.core import BBox
from sartrack.io import MotRecord, ParseError
from sartrack.lfa import Proposal
from sartrack.motion import Affine2x3
from sartrack.synthsim import PerturbConfig, ScenarioConfig


def parse_mot_file(path) -> list[MotRecord]:
    """Records sorted by frame (stable); 9 or 10 comma-separated columns."""
    records = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) not in (9, 10):
                raise ParseError(path, line_no, f"expected 9 or 10 columns, got {len(fields)}")
            try:
                vals = [float(f) for f in fields]
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric field in {line!r}") from None
            if not all(np.isfinite(vals)):
                raise ParseError(path, line_no, "non-finite value")
            frame = int(vals[0])
            if frame < 1:
                raise ParseError(path, line_no, f"frame must be >= 1, got {frame}")
            if vals[4] <= 0 or vals[5] <= 0:
                raise ParseError(path, line_no, f"nonpositive box size {vals[4]}x{vals[5]}")
            ma = vals[9] if len(vals) == 10 else None
            records.append(MotRecord(frame, int(vals[1]), vals[2], vals[3], vals[4],
                                     vals[5], vals[6], int(vals[7]), vals[8], ma))
    records.sort(key=lambda r: r.frame)
    return records


def parse_embeddings(path) -> dict[tuple[int, int], np.ndarray]:
    """Lines of `frame det_index v1 ... vd`; vectors are L2-normalized."""
    out: dict[tuple[int, int], np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                frame = int(fields[0])
                idx = int(fields[1])
                vec = np.array([float(f) for f in fields[2:]])
            except (ValueError, IndexError):
                raise ParseError(path, line_no, "malformed embedding line") from None
            if vec.size == 0 or not np.all(np.isfinite(vec)):
                raise ParseError(path, line_no, "empty or non-finite embedding")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(path, line_no,
                                 f"dimension {vec.size} != first dimension {dim}")
            n = np.linalg.norm(vec)
            if n == 0:
                raise ParseError(path, line_no, "zero embedding cannot be normalized")
            out[(frame, idx)] = vec / n
    return out


def parse_cmc_file(path) -> dict[int, Affine2x3]:
    """Lines of `frame r11 r12 tx r21 r22 ty`; missing frames mean identity."""
    out: dict[int, Affine2x3] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 7:
                raise ParseError(path, line_no, f"expected 7 fields, got {len(fields)}")
            try:
                frame = int(fields[0])
                v = [float(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(path, line_no, "non-numeric field") from None
            out[frame] = Affine2x3(np.array(v).reshape(2, 3))
    return out


def parse_config(path) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and `#` comments allowed."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, line_no, f"expected `key = value`, got {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


_INT_KEYS = {"n_init", "max_age"}
_SCN_INTS = {"seed", "frames", "width", "height", "n_moving", "n_static_occluders"}


def tracker_config_from_dict(d: dict) -> TrackerConfig:
    cls = TrackerConfig
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for k, v in d.items():
        kwargs[k] = int(v) if k in _INT_KEYS else float(v)
    return cls(**kwargs)


def scenario_config_from_dict(d: dict) -> ScenarioConfig:
    cls = ScenarioConfig
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for k, v in d.items():
        if k not in known:
            continue
        kwargs[k] = int(v) if k in _SCN_INTS else float(v)
    return cls(**kwargs)


def perturb_config_from_dict(d: dict) -> PerturbConfig:
    cls = PerturbConfig
    known = {f.name for f in fields(cls)}
    kwargs = {k: (int(v) if k == "seed" else float(v))
              for k, v in d.items() if k in known}
    return cls(**kwargs)


def load_synth_config(path) -> tuple[ScenarioConfig, PerturbConfig]:
    """The synth command's config handling."""
    conf = parse_config(path)
    known = {f.name for cls in (ScenarioConfig, PerturbConfig) for f in fields(cls)}
    unknown = sorted(set(conf) - known)
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {unknown}")
    return scenario_config_from_dict(conf), perturb_config_from_dict(conf)


def parse_proposals(path) -> list[Proposal]:
    props = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) < 6:
                raise ValueError(f"{path}:{line_no}: expected x y w h v_hat f1...")
            try:
                vals = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric field") from None
            props.append(Proposal(BBox(*vals[:4]), np.array(vals[5:]), vals[4]))
    return props
