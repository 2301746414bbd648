"""Synthetic video-SAR scenario generator.

Moving targets render as dark shadow rectangles with a bright streak
displaced along the azimuth (horizontal) axis proportionally to their speed;
static occluders render as fixed dark line segments. Per-target appearance
embeddings flip to an "alias" vector (the next target's base vector) while
the target moves fast, mimicking the shadow/scatterer look transition that
breaks naive appearance association.

All randomness flows from numpy's SeedSequence: the scenario seed is split
into one child stream per concern (target init, per-target motion phases,
per-frame noise, perturbation), so generation is bitwise reproducible and
each frame is rendered alone, when it is accessed.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import COORD_MAX, Detection, TrajectorySet, to_detections
from .lfa import normalize_velocities
from .lineops import BIN_TABLE_MAX_BYTES

CLASS_NAMES = ("car", "ship", "airplane")

SHADOW_VALUE = -1.0
STREAK_VALUE = 5.0

# Memory budget per target-frame or clutter box, and per value of its embedding
# (max(2, n_moving) wide) for a target and for clutter: `synth`'s tracemalloc
# peaks over generate, perturb and io.write_scene were about 1.1 KB, 13 B, 50 B.
CELL_BYTES, TARGET_VALUE_BYTES, CLUTTER_VALUE_BYTES = 1536, 16, 64


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int = 0
    frames: int = 50
    width: int = 256
    height: int = 256
    n_moving: int = 5
    n_static_occluders: int = 3
    speed_min: float = 2.0
    speed_max: float = 4.0
    size_min: float = 10.0
    size_max: float = 20.0
    streak_gain: float = 2.0
    noise_amplitude: float = 0.5
    appearance_flip_speed: float = 1.0
    p_toggle: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.n_moving < 0 or self.n_static_occluders < 0:
            raise ValueError("counts must be >= 0")
        cells = (self.n_moving + 1) * self.frames
        if cells * (CELL_BYTES + TARGET_VALUE_BYTES * max(2, self.n_moving)) > BIN_TABLE_MAX_BYTES:
            raise ValueError(f"(n_moving + 1) * frames = {cells} target-frames would hold "
                             f"more than {BIN_TABLE_MAX_BYTES} bytes")
        for name in ("speed_min", "speed_max", "size_min", "size_max", "streak_gain",
                     "noise_amplitude", "appearance_flip_speed", "p_toggle"):
            if math.isinf(getattr(self, name)):  # NaN fails the checks below
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("speed_min", "streak_gain", "noise_amplitude", "appearance_flip_speed"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # Targets move, grow and streak by at most COORD_MAX pixels, the
        # bound io puts on a box read from a file.
        for name, value in (("speed_max", self.speed_max), ("size_max", self.size_max),
                            ("streak_gain * speed_max", self.streak_gain * self.speed_max)):
            if value > COORD_MAX:
                raise ValueError(f"{name} must be <= {COORD_MAX:.0f} px, got {value}")
        if not (self.speed_min <= self.speed_max and self.size_min <= self.size_max):
            raise ValueError("empty speed or size range")
        if self.size_min <= 0:
            raise ValueError(f"size_min must be > 0, got {self.size_min}")
        if min(self.width, self.height) < 2 * self.size_max:
            raise ValueError(f"width and height must be >= 2 * size_max = {2 * self.size_max}, "
                             f"got {self.width}x{self.height}")
        # Frames are rendered one at a time, so one float64 frame bounds memory.
        if self.width * self.height * 8 > BIN_TABLE_MAX_BYTES:
            raise ValueError(f"a {self.width}x{self.height} float64 frame is above the "
                             f"{BIN_TABLE_MAX_BYTES}-byte limit")
        if not 0.0 <= self.p_toggle <= 1.0:
            raise ValueError(f"p_toggle must be in [0,1], got {self.p_toggle}")


@dataclass(frozen=True, slots=True)
class PerturbConfig:
    seed: int = 0
    jitter_sigma: float = 0.0
    p_fn: float = 0.0
    lambda_fp: float = 0.0
    clutter_size_min: float = 6.0
    clutter_size_max: float = 24.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.p_fn <= 1.0:
            raise ValueError("p_fn must be in [0,1]")
        if not (self.jitter_sigma >= 0 and self.lambda_fp >= 0):  # NaN fails too
            raise ValueError("jitter_sigma and lambda_fp must be >= 0")
        if not 0.0 < self.clutter_size_min <= self.clutter_size_max:
            raise ValueError("need 0 < clutter_size_min <= clutter_size_max, got "
                             f"{self.clutter_size_min} and {self.clutter_size_max}")


@dataclass(frozen=True, slots=True)
class Scene:
    frames: Sequence[np.ndarray]  # (H, W, 1) float64 maps
    gt: TrajectorySet
    embeddings: dict[tuple[int, int], np.ndarray]  # (track id, frame) -> unit vec
    velocities: dict[tuple[int, int], float]       # (track id, frame) -> normalized v
    canvas: tuple[int, int]                        # (width, height)
    classes: dict[int, int]                        # track id -> class id


def _reflect(pos: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    """Bounce a coordinate off [lo, hi], flipping its velocity on contact."""
    if pos < lo:
        return 2 * lo - pos, -vel
    if pos > hi:
        return 2 * hi - pos, -vel
    return pos, vel


def _draw_segment(img: np.ndarray, x0: float, y0: float, x1: float, y1: float, value: float):
    n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
    xs = np.round(np.linspace(x0, x1, n)).astype(int)
    ys = np.round(np.linspace(y0, y1, n)).astype(int)
    keep = (xs >= 0) & (xs < img.shape[1]) & (ys >= 0) & (ys < img.shape[0])
    img[ys[keep], xs[keep]] = value


def _paint_streaks(img: np.ndarray, owner: np.ndarray, t: np.ndarray, x0: np.ndarray,
                   x1: np.ndarray, row: np.ndarray):
    """Targets t's horizontal streaks as `_draw_segment` samples them, save where a
    later rectangle covers (owner > t); a chunk holds <= a quarter frame of samples."""
    hh, ww = img.shape
    n = np.abs(x1 - x0).astype(np.int64) + 1
    # np.linspace's own arithmetic: sample i is i * step + x0, the last is x1.
    step = (x1 - x0) / np.maximum(n - 1, 1)
    per = max(1, hh * ww // 4 // int(n.max(initial=1)))  # targets per chunk
    for s in (slice(lo, lo + per) for lo in range(0, len(n), per)):
        k, ends = n[s], np.cumsum(n[s])
        xs = (np.arange(ends[-1]) - np.repeat(ends - k, k)) * np.repeat(step[s], k)
        xs += np.repeat(x0[s], k)
        xs[(ends - 1)[k > 1]] = x1[s][k > 1]
        np.rint(xs, out=xs)
        keep = (xs >= 0) & (xs < ww)
        pix = xs[keep].astype(np.int64) + np.repeat(row[s] * ww, k)[keep]
        pix = pix[owner.reshape(-1)[pix] <= np.repeat(t[s], k)[keep]]
        img.reshape(-1)[pix] = STREAK_VALUE


class Frames(Sequence):
    """A scene's frames as a read-only sequence of (H, W, 1) float64 maps.

    Each access (a slice gives a list) renders a fresh array: the frame's own noise,
    the occluders, then every target's rectangle and streak as if in target order."""

    def __init__(self, cfg: ScenarioConfig, cx: np.ndarray, cy: np.ndarray,
                 speed: np.ndarray, sizes: list[tuple[float, float]], occluded: np.ndarray,
                 noise: list[np.random.SeedSequence]):
        self._cfg, self._cx, self._cy, self._speed = cfg, cx, cy, speed
        self._rw, self._rh = np.array(sizes, dtype=float).reshape(-1, 2).T / 2  # half sizes
        self._occluded, self._noise = np.flatnonzero(occluded), noise

    def __len__(self) -> int:
        return len(self._noise)

    def __iter__(self):  # Sequence's own would end quietly at an IndexError from rendering
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, f: int | slice) -> np.ndarray | list[np.ndarray]:
        if isinstance(f, slice):
            return [self[i] for i in range(len(self))[f]]
        f, cfg = range(len(self))[f], self._cfg  # IndexError out of range
        hh, ww = cfg.height, cfg.width
        img = np.random.default_rng(self._noise[f]).random((hh, ww))
        img *= cfg.noise_amplitude  # the bits of uniform(0, a), zeros at a = 0
        img.reshape(-1)[self._occluded] = SHADOW_VALUE
        x, y, v, rw, rh = self._cx[:, f], self._cy[:, f], self._speed[:, f], self._rw, self._rh
        # np.rint rounds half to even, as `round` does; off the canvas, a slice is empty.
        bounds = np.clip(np.rint([x - rw, x + rw, y - rh, y + rh]), 0, [[ww], [ww], [hh], [hh]])
        owner = np.full((hh, ww), -1, dtype=np.int32)  # last target whose rectangle covers
        for i, (a, b, c, d) in enumerate(zip(*bounds.astype(int).tolist())):
            img[c:d, a:b] = SHADOW_VALUE
            owner[c:d, a:b] = i
        t = np.flatnonzero((v > 0) & (cfg.streak_gain > 0) & (np.rint(y) >= 0) & (np.rint(y) < hh))
        mid = x[t] + cfg.streak_gain * v[t]
        _paint_streaks(img, owner, t, mid - rw[t], mid + rw[t], np.rint(y[t]).astype(int))
        return img[:, :, None]


def generate_scene(cfg: ScenarioConfig) -> Scene:
    """Deterministic scene: frames, ground truth, embeddings, velocities.

    Two passes over the same draws: simulate fills (n_moving, frames)
    arrays of centre x, centre y and current speed one target at a time,
    and label builds the rest from them. `Frames` renders each frame from
    the same arrays when it is accessed."""
    ss = np.random.SeedSequence(cfg.seed)
    ss_targets, ss_motion, ss_noise, ss_occ = ss.spawn(4)
    rng_t = np.random.default_rng(ss_targets)
    rng_occ = np.random.default_rng(ss_occ)
    motion_rngs = [np.random.default_rng(s) for s in ss_motion.spawn(cfg.n_moving)]

    n, frames = cfg.n_moving, cfg.frames
    cx, cy, speed_now = np.zeros((3, n, frames))
    sizes, classes = [], {}
    # Per target: width, height, centre x, centre y, speed and heading.
    lo = [cfg.size_min, cfg.size_min, cfg.size_max, cfg.size_max, cfg.speed_min, 0.0]
    hi = [cfg.size_max, cfg.size_max, cfg.width - cfg.size_max, cfg.height - cfg.size_max,
          cfg.speed_max, 2 * math.pi]
    for i, rng in enumerate(motion_rngs):
        w, h, x, y, speed, ang = rng_t.uniform(lo, hi).tolist()
        sizes.append((w, h))
        classes[i + 1] = int(rng_t.integers(0, len(CLASS_NAMES)))
        dx, dy, moving = math.cos(ang), math.sin(ang), True
        # One draw per frame after the first, the stream of one call each.
        toggles = ((rng.random(frames - 1) < cfg.p_toggle).tolist() if cfg.p_toggle > 0
                   else [False] * (frames - 1))
        xs, ys, vs = [x], [y], [speed]
        for toggle in toggles:
            if toggle:
                moving = not moving
            if moving:
                x, dx = _reflect(x + speed * dx, dx, w / 2, cfg.width - w / 2)
                y, dy = _reflect(y + speed * dy, dy, h / 2, cfg.height - h / 2)
            xs.append(x)
            ys.append(y)
            vs.append(speed if moving else 0.0)
        cx[i], cy[i], speed_now[i] = xs, ys, vs

    occluded = np.zeros((cfg.height, cfg.width), dtype=bool)
    for _ in range(cfg.n_static_occluders):
        x0, y0, length, ang = rng_occ.uniform(
            [0, 0, cfg.size_max, 0], [cfg.width, cfg.height, 3 * cfg.size_max, math.pi]).tolist()
        _draw_segment(occluded, x0, y0, x0 + length * math.cos(ang),
                      y0 + length * math.sin(ang), True)

    w, h = np.reshape(sizes, (n, 2)).T[:, :, None]
    gt = TrajectorySet(np.repeat(np.arange(1, n + 1), frames), np.tile(np.arange(1, frames + 1), n),
                       np.stack(np.broadcast_arrays(cx - w / 2, cy - h / 2, w, h), axis=-1))
    keys = list(zip(gt.ids.tolist(), gt.frame.tolist()))
    # Distance moved since the previous frame, 0 on the first. math.hypot per
    # element: np.hypot can differ from it in the last bit.
    moved = np.zeros((n, frames))
    moved[:, 1:] = np.reshape(list(map(math.hypot, np.diff(cx).ravel().tolist(),
                                       np.diff(cy).ravel().tolist())), (n, frames - 1))
    velocities = dict(zip(keys, normalize_velocities(moved).ravel().tolist())) if n else {}
    # A target moving faster than the flip speed shows the next target's look.
    looks = list(np.eye(max(2, n)))
    flipped = speed_now > cfg.appearance_flip_speed
    look = (np.arange(n)[:, None] + flipped) % len(looks)
    embeddings = dict(zip(keys, map(looks.__getitem__, look.ravel().tolist())))
    frames_out = Frames(cfg, cx, cy, speed_now, sizes, occluded, ss_noise.spawn(cfg.frames))
    return Scene(frames_out, gt, embeddings, velocities, (cfg.width, cfg.height), classes)


def _log_jitter(sides: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """exp(log(side) + noise) per element through math's log and exp (numpy's
    can differ in the last bit). An exponent above 709 stops at exp(709),
    a side far beyond any box bound, instead of overflowing."""
    logs = np.fromiter(map(math.log, memoryview(sides)), float, len(sides)) + noise
    return np.fromiter(map(math.exp, memoryview(np.minimum(logs, 709.0))), float, len(sides))


def _jitter(boxes: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """(x, y, w, h) rows with their centres (BBox.cx's x + w / 2.0) moved by
    noise columns 0 and 1 and their log sides by columns 2 and 3."""
    x, y, w, h = boxes.T
    cx, cy = x + w / 2.0, y + h / 2.0
    if noise is not None:
        cx += noise[:, 0]
        cy += noise[:, 1]
        w, h = _log_jitter(w, noise[:, 2]), _log_jitter(h, noise[:, 3])
    return np.stack([cx - w / 2, cy - h / 2, w, h], axis=1)


def perturb_detections(scene: Scene, cfg: PerturbConfig) -> dict[int, list[Detection]]:
    """Detector surrogate: drop, jitter, and clutter the ground truth.

    Every frame of the scene gets its kept targets, then Poisson(lambda_fp)
    clutter boxes. Matched detections carry the (possibly flipped) embedding
    and the normalized ground-truth velocity as motion awareness; clutter
    carries a random embedding and motion awareness 0. The draws come frame
    by frame in that order and fill columns; the target boxes are jittered
    as columns, and `to_detections` builds every Detection at the end. A
    jittered box with a zero side or a coordinate beyond COORD_MAX px is a
    ValueError naming its frame.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    width, height = scene.canvas
    dim = len(next(iter(scene.embeddings.values()))) if scene.embeddings else 4
    boxes = cfg.lambda_fp * len(scene.frames)
    if boxes * (CELL_BYTES + CLUTTER_VALUE_BYTES * dim) > BIN_TABLE_MAX_BYTES:
        raise ValueError(f"lambda_fp * frames = {boxes:g} clutter boxes would hold more "
                         f"than {BIN_TABLE_MAX_BYTES} bytes")
    n_frames, sigma = len(scene.frames), cfg.jitter_sigma
    order = np.argsort(scene.gt.frame, kind="stable")
    # Frame f's ground truth is order[bounds[f - 1]:bounds[f]].
    bounds = np.searchsorted(scene.gt.frame[order], np.arange(1, n_frames + 2)).tolist()
    tids = scene.gt.ids[order].tolist()
    # Per ground-truth row: whether it is kept, and its jitter of centre x,
    # centre y, log w and log h.
    kept = np.zeros(len(order), dtype=bool)
    noise = np.zeros((len(order) if sigma > 0 else 0, 4))
    # Per detection, in draw order: each frame's kept targets, then its clutter.
    score, classes, ma, looks = [], [], [], []
    clutter, counts = [], []  # clutter boxes; per frame, kept targets and clutter boxes
    for f in range(1, n_frames + 1):
        start = len(score)
        for r in range(bounds[f - 1], bounds[f]):
            if rng.random() < cfg.p_fn:
                continue
            kept[r] = True
            if sigma > 0:
                noise[r] = rng.normal(0, sigma, 4)
            tid = tids[r]
            score.append(rng.uniform(0.6, 1.0))
            classes.append(scene.classes[tid])
            ma.append(scene.velocities[tid, f])
            looks.append(scene.embeddings[tid, f])
        counts += (len(score) - start, int(rng.poisson(cfg.lambda_fp)))
        for _ in range(counts[-1]):
            w = rng.uniform(cfg.clutter_size_min, cfg.clutter_size_max)
            h = rng.uniform(cfg.clutter_size_min, cfg.clutter_size_max)
            cx = rng.uniform(w / 2, width - w / 2)
            cy = rng.uniform(h / 2, height - h / 2)
            vec = rng.normal(size=dim)
            vec /= np.linalg.norm(vec)
            clutter.append((cx - w / 2, cy - h / 2, w, h))
            score.append(rng.uniform(0.1, 0.7))
            classes.append(int(rng.integers(0, len(CLASS_NAMES))))
            ma.append(0.0)
            looks.append(vec)

    per_frame = np.reshape(counts, (n_frames, 2)).sum(axis=1)
    frame = np.repeat(np.arange(1, n_frames + 1), per_frame)
    target = np.repeat(np.tile([True, False], n_frames), counts)
    xywh = np.empty((len(score), 4))
    xywh[target] = _jitter(scene.gt.boxes[order[kept]], noise[kept] if sigma > 0 else None)
    xywh[~target] = np.reshape(clutter, (-1, 4))
    # io would refuse to read back a side of 0 or a coordinate beyond COORD_MAX.
    ok = ~target | (xywh[:, 2] > 0) & (xywh[:, 3] > 0) & (np.abs(xywh).max(axis=1) <= COORD_MAX)
    if sigma > 0 and not ok.all():
        raise ValueError(f"frame {frame[np.argmin(ok)]}: jitter_sigma = {sigma} draws "
                         f"a box with a zero side or a coordinate beyond {COORD_MAX:.0f} px")
    dets = to_detections(frame, xywh, score, classes, ma, looks)
    ends = np.cumsum(per_frame).tolist()
    return dict(zip(range(1, n_frames + 1), map(dets.__getitem__, map(slice, [0] + ends, ends))))
