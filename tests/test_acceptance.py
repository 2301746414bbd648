"""Acceptance suite: one test per release criterion.

Each test records a single `[PASS]`/`[FAIL]` line; conftest.py echoes the
collected lines in the terminal summary so criterion status is visible in
any run log.
"""
import itertools
import time
from dataclasses import replace

import numpy as np

from sartrack.assoc import (Tracker, TrackerConfig, hungarian, maa_fuse,
                            track_sequence)
from sartrack.cli import main as cli_main
from sartrack.core import BBox, Detection, TrajectorySet
from sartrack.lfa import LfaConfig, Proposal, adaptive_radius, enhance_proposal
from sartrack.lineops import lffm, radon_backproject, radon_forward, soft_normalize
from sartrack.metrics import clear_mot, evaluate
from sartrack.synthsim import (PerturbConfig, ScenarioConfig, generate_scene,
                               perturb_detections)


RESULTS: list[str] = []


def _report(name, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    RESULTS.append(line)
    print(line)
    assert ok, name


def test_radon_adjointness():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        x = rng.standard_normal((16, 16, 2))
        y = rng.standard_normal((24, 23, 2))
        lhs = float((radon_forward(x, 24, 23) * y).sum())
        rhs = float((x * radon_backproject(y, -np.inf, 16, 16)).sum())
        bound = 1e-9 * np.linalg.norm(x) * np.linalg.norm(y)
        ok = ok and abs(lhs - rhs) < bound
    elapsed = time.perf_counter() - t0
    _report(f"radon adjointness (200 pairs, {elapsed:.2f}s < 2s)",
            ok and elapsed < 2.0)


def test_per_angle_mass_conservation():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        h, w = rng.integers(4, 20, 2)
        x = rng.standard_normal((h, w, 2))
        y = radon_forward(x, int(rng.integers(3, 30)), int(rng.integers(4, 40)))
        totals = x.sum(axis=(0, 1))
        ok = ok and np.all(np.abs(y.sum(axis=1) - totals) < 1e-9)
    _report("per-angle mass conservation (100 maps, 1e-9)", ok)


def _make_streak(rng, size=32, amplitude=5.0, noise=1.0):
    img = rng.uniform(0, noise, (size, size))
    theta = rng.uniform(0, np.pi)
    cx = rng.uniform(size * 0.3, size * 0.7)
    cy = rng.uniform(size * 0.3, size * 0.7)
    half = size * 0.4
    n = int(4 * half)
    xs = np.round(cx + np.cos(theta) * np.linspace(-half, half, n)).astype(int)
    ys = np.round(cy + np.sin(theta) * np.linspace(-half, half, n)).astype(int)
    keep = (xs >= 0) & (xs < size) & (ys >= 0) & (ys < size)
    img[ys[keep], xs[keep]] = amplitude
    mask = np.zeros((size, size), dtype=bool)
    mask[ys[keep], xs[keep]] = True
    return img[:, :, None], mask


def test_a_soft_normalization():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(20):
        img, _ = _make_streak(rng)
        _, a = lffm(img)
        ok = ok and abs(float(a.sum()) - 1.0) < 1e-9
    for _ in range(20):
        a = soft_normalize(rng.standard_normal((11, 7, 3)) * 30)
        ok = ok and np.all(np.abs(a.sum(axis=(0, 1)) - 1.0) < 1e-9)
    _report("line-intensity map per-channel normalization (1e-9)", ok)


def test_streak_localization():
    rng = np.random.default_rng(103)
    hits = 0
    for _ in range(100):
        img, mask = _make_streak(rng)
        _, a = lffm(img)
        hits += bool(mask.flat[int(np.argmax(a[:, :, 0]))])
    _report(f"streak localization ({hits}/100 on-streak, need >= 95)", hits >= 95)


def _oracle_assignment_total(cost):
    n, m = cost.shape
    if min(n, m) == 0:
        return 0.0
    c = cost if n <= m else cost.T
    k = c.shape[0]
    return min(sum(c[i, p[i]] for i in range(k))
               for p in itertools.permutations(range(c.shape[1]), k))


def test_hungarian_oracle():
    rng = np.random.default_rng(104)
    ok = True
    for _ in range(1000):
        n, m = rng.integers(1, 6, 2)
        cost = rng.random((int(n), int(m)))
        total = sum(cost[r, c] for r, c in zip(*hungarian(cost, np.inf)))
        ok = ok and abs(total - _oracle_assignment_total(cost)) < 1e-12
    _report("assignment equals exhaustive minimum (1000 matrices, n,m <= 5)", ok)


def test_metrics_oracles():
    rng = np.random.default_rng(105)
    gt_tracks, dets = [], {f: [] for f in range(1, 31)}
    for tid in range(1, 6):
        x, y = rng.uniform(20, 200, 2)
        vx, vy = rng.uniform(-2, 2, 2)
        seq = []
        for f in range(1, 31):
            b = BBox(x + vx * f, y + vy * f, 8, 8)
            seq.append((f, b))
            dets[f].append(Detection(frame=f, bbox=b, score=1.0))
        gt_tracks.append((tid, seq))
    gt = TrajectorySet.build(gt_tracks)
    rep = evaluate(gt, track_sequence(dets))
    perfect = (rep.mota == 1.0 and rep.idf1 == 1.0 and rep.hota == 1.0
               and rep.idsw == 0)

    boxes = [BBox(10.0 * f, 0, 4, 4) for f in range(1, 5)]
    gt2 = TrajectorySet.build([(1, list(enumerate(boxes, start=1)))])
    pred2 = TrajectorySet.build([(7, [(1, boxes[0]), (2, boxes[1])]),
                                 (8, [(3, boxes[2]), (4, boxes[3])])])
    rep2 = evaluate(gt2, pred2)
    fixture = rep2.mota == 0.750 and rep2.idf1 == 0.500
    _report("metrics oracles (perfect replay 1.0; id-switch fixture 0.750/0.500)",
            perfect and fixture)


def test_maa_gate_invariance():
    rng = np.random.default_rng(106)
    cfg = TrackerConfig()
    ok = True
    for _ in range(200):
        n, m = rng.integers(1, 9, 2)
        iou_c = rng.random((int(n), int(m)))
        app_c = rng.random((int(n), int(m)))
        v_t, v_d = rng.random(int(n)), rng.random(int(m))
        out = maa_fuse(iou_c, app_c, v_t, v_d, cfg)
        gated = np.maximum(v_t[:, None], v_d[None, :]) >= cfg.tau_v
        ok = ok and np.array_equal(out[gated], iou_c[gated])
    _report("motion gate bitwise invariance (200 random matrices)", ok)


def _ablation_scenario(seed):
    scn = ScenarioConfig(seed=seed, frames=50, n_moving=10, n_static_occluders=0,
                         width=110, height=110, speed_min=1.0, speed_max=4.0,
                         size_min=8, size_max=14, appearance_flip_speed=3.0,
                         p_toggle=0.3, noise_amplitude=0.0)
    scene = generate_scene(scn)
    dets = perturb_detections(scene, PerturbConfig(seed=seed + 1000,
                                                   jitter_sigma=0.15,
                                                   p_fn=0.2, lambda_fp=0.5))
    return scene, dets


def test_maa_ablation():
    t0 = time.perf_counter()
    cfg = TrackerConfig(tau_v=0.75)
    on = off = 0
    for seed in range(20):
        scene, dets = _ablation_scenario(seed)
        for use_maa in (True, False):
            pred = track_sequence(dets, cfg=cfg if use_maa else replace(cfg, tau_v=0.0))
            idsw = clear_mot(scene.gt, pred)[3]
            if use_maa:
                on += idsw
            else:
                off += idsw
    elapsed = time.perf_counter() - t0
    reduction = 1.0 - on / off if off else 0.0
    _report(f"appearance-gating ablation (IDSW {on} vs {off}, "
            f"{100 * reduction:.0f}% reduction, {elapsed:.1f}s < 10s)",
            on < off and reduction >= 0.30 and elapsed < 10.0)


def test_adaptive_radius():
    cfg = LfaConfig(image_w=200.0, image_h=160.0, lambda_max=0.4)
    b = BBox(30, 40, 12, 9)
    r_min = 12.0
    cx, cy = b.center()
    r_max = 0.4 * max(cx, 200.0 - cx, cy, 160.0 - cy)
    endpoints = (adaptive_radius(b, 0.0, cfg) == r_min
                 and adaptive_radius(b, 1.0, cfg) == r_max)
    grid = [adaptive_radius(b, v, cfg) for v in np.linspace(0.0, 1.0, 101)]
    monotone = all(a <= c for a, c in zip(grid, grid[1:]))
    _report("adaptive radius endpoints exact and monotone over 101-point grid",
            endpoints and monotone)


def test_pooling_reach_sensitivity_harness():
    scene, dets = _ablation_scenario(0)
    a_soft = np.full((110, 110, 1), 1.0 / (110 * 110))
    ok = True
    for lambda_max in (0.2, 0.4, 0.6):
        cfg = LfaConfig(image_w=110.0, image_h=110.0, lambda_max=lambda_max)
        for d in dets[1]:
            p = Proposal(d.bbox, np.zeros(1), d.motion_awareness or 0.0)
            en = enhance_proposal(p, a_soft, cfg)
            ok = ok and np.all(np.isfinite(en.feature))
        rep = evaluate(scene.gt, track_sequence(dets, cfg=TrackerConfig(tau_v=0.75)))
        RESULTS.append(f"  lambda_max={lambda_max}: MOTA {rep.mota:.3f} "
                       f"IDF1 {rep.idf1:.3f} HOTA {rep.hota:.3f}")
        ok = ok and np.isfinite(rep.mota) and 0.0 <= rep.hota <= 1.0
    _report("pooling-reach sensitivity harness at {0.2, 0.4, 0.6} runs clean", ok)


def test_throughput():
    dets = {}
    rng = np.random.default_rng(107)
    centers = rng.uniform(50, 1950, (50, 2))
    for f in range(1, 1001):
        dets[f] = [Detection(frame=f, bbox=BBox(cx + 0.5 * f, cy, 12, 12), score=0.9)
                   for cx, cy in centers]
    t0 = time.perf_counter()
    out = track_sequence(dets)
    elapsed = time.perf_counter() - t0
    _report(f"throughput: 1000 frames x 50 detections in {elapsed:.2f}s < 5s",
            elapsed < 5.0 and out.num_boxes() > 0)


def test_pipeline_determinism(tmp_path, capsys):
    cfg = tmp_path / "scenario.txt"
    cfg.write_text("seed = 42\nframes = 30\nn_moving = 5\nwidth = 128\nheight = 128\n"
                   "jitter_sigma = 0.1\np_fn = 0.1\nlambda_fp = 0.5\n")
    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        assert cli_main(["synth", "--config", str(cfg), "--out-dir", str(d)]) == 0
        assert cli_main(["track", "--det", str(d / "det.txt"),
                         "--emb", str(d / "emb.txt"), "--cmc", str(d / "cmc.txt"),
                         "--out", str(d / "res.txt")]) == 0
        capsys.readouterr()
        assert cli_main(["eval", "--gt", str(d / "gt.txt"),
                         "--res", str(d / "res.txt"), "--tsv"]) == 0
        report = capsys.readouterr().out
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        outputs.append((files, report))
    _report("pipeline determinism: identical seeds give byte-identical outputs",
            outputs[0] == outputs[1])
