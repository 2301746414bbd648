"""The benchmark's workloads: seeded inputs, one timed pass, output oracles.

Each workload builds its inputs from the seed alone and calls only public
functions of the sartrack modules. A pass is one unit of user-visible work:
tracking a whole sequence, one synth -> io -> track -> eval pipeline, or
line-feature enhancement of one frame at each size. `warm_up` makes the
first call, whose lazy set-up is counted in setup_s. `execute` marks the
end of each segment of the pass (a frame, a pipeline stage) on the laps it
is given and returns its outputs; pass i runs input i % `inputs`.
`check` judges the outputs after the timed part, so checking never counts
as program time. `reference` is the calibration kernel with the workload's
instruction mix (see harness.Calibrator).
"""
from __future__ import annotations

import os
import time

import numpy as np

from sartrack import assoc, lfa, lineops, metrics, synthsim
from sartrack import io as sio
from sartrack.core import BBox, Detection


# Each reference kernel's time on a quiet host (2-vCPU Intel Xeon VM);
# calibrated timings read as if the host ran at that speed.
INTERPRETER_REFERENCE_S = 1.2e-3
BULK_REFERENCE_S = 1.0e-3


def interpreter_reference() -> float:
    """Float formatting and parsing in pure Python: the calibration kernel
    for workloads bound by the interpreter (Tracker.step, io, metrics)."""
    lines = [",".join(repr(i + 0.5 * k) for k in range(6)) for i in range(300)]
    return sum(float(x) for line in lines for x in line.split(","))


def bulk_reference() -> float:
    """Bin accumulation and a gather over a 256x256 map: the calibration
    kernel for workloads bound by numpy array passes (lineops, lfa)."""
    idx = (np.arange(256 * 256) * 7919) % 363
    acc = np.bincount(idx, weights=np.linspace(0.0, 1.0, idx.size), minlength=363)
    return float(acc[idx].sum())


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _wrap_tracker(tracer) -> None:
    """Spans for the motion and association layers, bound where assoc looks
    them up."""
    tracer.wrap(assoc, "kf_predict", span="motion.predict")
    tracer.wrap(assoc, "kf_update", span="motion.update")
    tracer.wrap(assoc, "apply_cmc", span="motion.cmc")
    tracer.wrap(assoc, "kf_init", work=lambda a, r: {"assoc.tracks_created": 1})
    tracer.wrap(assoc, "iou_cost", span="assoc.cost",
                work=lambda a, r: {"assoc.cost_cells": r.size})
    tracer.wrap(assoc, "appearance_cost", span="assoc.cost")
    tracer.wrap(assoc, "maa_fuse", span="assoc.cost")
    tracer.wrap(assoc, "hungarian", span="assoc.assign")
    tracer.wrap(assoc.Tracker, "step", span="assoc.step",
                work=lambda a, r: {"assoc.live_tracks_max": sum(
                    t.lifecycle is not assoc.Lifecycle.REMOVED for t in a[0].tracks)})
    tracer.wrap(assoc.Tracker, "trajectories", span="assoc.trajectories")


class DenseTrack:
    """The acceptance throughput case: 1000 frames x 50 detections, one
    class, all high-score, no embeddings and no camera motion."""

    name = "dense-track"
    tail_q = 99.0
    inputs = 1
    reference = staticmethod(interpreter_reference)
    reference_s = INTERPRETER_REFERENCE_S
    frames = 1000
    targets = 50

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(50, 1950, (self.targets, 2))
        self.dets = {f: [Detection(frame=f, bbox=BBox(cx + 0.5 * f, cy, 12, 12), score=0.9)
                         for cx, cy in centers]
                     for f in range(1, self.frames + 1)}

    def warm_up(self) -> None:
        assoc.Tracker().step(1, self.dets[1])

    def install(self, tracer) -> None:
        _wrap_tracker(tracer)

    def install_counters(self, tracer) -> bool:
        return False

    def execute(self, i: int, tr, laps):
        tracker = assoc.Tracker()
        emitted = 0
        for f in range(1, self.frames + 1):
            emitted += len(tracker.step(f, self.dets[f]))
            laps.lap(frame=True)
        traj = tracker.trajectories()
        laps.lap()
        return traj, emitted

    def check(self, output) -> list[str]:
        traj, _ = output
        errors = []
        if len(traj) != self.targets:
            errors.append(f"{len(traj)} tracks, expected {self.targets}")
        target_of = {d.bbox: k for k, d in enumerate(self.dets[1])}
        seen = set()
        for tid, seq in traj.tracks:
            if len(seq) != self.frames or seq[0][0] != 1:
                errors.append(f"track {tid} has {len(seq)} boxes from frame {seq[0][0]}")
                continue
            k = target_of.get(seq[0][1])
            if k is None or k in seen:
                errors.append(f"track {tid} does not start on a distinct target")
                continue
            seen.add(k)
            if any(b != self.dets[f][k].bbox for f, b in seq):
                errors.append(f"track {tid} leaves target {k} (identity switch or box change)")
        return errors

    def layer_stats(self, output) -> dict[str, float]:
        return {"assoc.emitted_per_det": output[1] / (self.frames * self.targets)}


class SceneE2E:
    """synthsim generate + perturb -> io write and parse -> Tracker.step
    with CMC -> io round trip of the result -> CLEAR, identity and HOTA."""

    name = "scene-e2e"
    tail_q = 95.0
    inputs = 1
    reference = staticmethod(interpreter_reference)
    reference_s = INTERPRETER_REFERENCE_S
    frames = 200
    # Camera drift per frame, in pixels per axis; translation only.
    drift_sigma = 1.0

    def __init__(self, seed: int, out_dir: str):
        s_scene, s_pert, s_drift = _seeds(seed, 3)
        self.scn = synthsim.ScenarioConfig(
            seed=s_scene, frames=self.frames, n_moving=30, width=256, height=256,
            speed_min=1.0, speed_max=4.0, appearance_flip_speed=3.0, p_toggle=0.05)
        self.pert = synthsim.PerturbConfig(seed=s_pert, jitter_sigma=0.2, p_fn=0.1,
                                           lambda_fp=2.0)
        steps = np.random.default_rng(s_drift).normal(0.0, self.drift_sigma, (self.frames, 2))
        steps[0] = 0.0
        self.steps = steps
        self.offsets = np.cumsum(steps, axis=0)
        self.dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.first_output = None

    def warm_up(self) -> None:
        """Nothing on this path is built lazily."""

    def install(self, tracer) -> None:
        _wrap_tracker(tracer)
        tracer.wrap(synthsim, "generate_scene", span="synthsim.generate")
        tracer.wrap(synthsim, "perturb_detections", span="synthsim.perturb")
        tracer.wrap(metrics, "clear_mot", span="metrics.clear")
        tracer.wrap(metrics, "id_metrics", span="metrics.id")
        tracer.wrap(metrics, "hota", span="metrics.hota")

    def install_counters(self, tracer) -> bool:
        tracer.count(metrics, "iou", "metrics.iou_calls")
        tracer.count(metrics, "linear_sum_assignment", "metrics.lsa_calls")
        return True

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _write(self, scene, dets) -> tuple[list, int]:
        det_lines, gt_lines, emb = [], [], {}
        for f in sorted(dets):
            dx, dy = self.offsets[f - 1]
            for idx, d in enumerate(dets[f]):
                b = d.bbox
                det_lines.append(sio.MotRecord(f, -1, b.x + dx, b.y + dy, b.w, b.h, d.score,
                                               d.class_id, -1, d.motion_awareness).render())
                if d.embedding is not None:
                    emb[(f, idx)] = d.embedding
        for f, boxes in scene.gt.boxes_by_frame().items():
            dx, dy = self.offsets[f - 1]
            for tid, b in boxes:
                gt_lines.append(sio.MotRecord(f, tid, b.x + dx, b.y + dy, b.w, b.h, 1,
                                              scene.classes[tid], 1,
                                              scene.velocities[(tid, f)]).render())
        for name, lines in (("det.txt", det_lines), ("gt.txt", gt_lines)):
            with open(self._path(name), "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
        sio.write_embeddings(emb, self._path("emb.txt"))
        with open(self._path("cmc.txt"), "w", encoding="ascii") as fh:
            for f, (tx, ty) in enumerate(self.steps, start=1):
                fh.write(f"{f} 1 0 {float(tx)!r} 0 1 {float(ty)!r}\n")
        images = []
        for f, frame in enumerate(scene.frames, start=1):
            img = sio.to_uint8(frame[:, :, 0])
            sio.write_pgm(img, self._path(f"{f:06d}.pgm"))
            images.append(img)
        names = ["det.txt", "gt.txt", "emb.txt", "cmc.txt"] + [
            f"{f:06d}.pgm" for f in range(1, len(scene.frames) + 1)]
        return images, sum(os.path.getsize(self._path(n)) for n in names)

    def execute(self, i: int, tr, laps):
        scene = synthsim.generate_scene(self.scn)
        generated = synthsim.perturb_detections(scene, self.pert)
        laps.lap()
        with tr.span("io.write"):
            images, written = self._write(scene, generated)
        laps.lap()
        with tr.span("io.parse"):
            det_records = sio.parse_mot_file(self._path("det.txt"))
            dets = sio.records_to_detections(det_records, sio.parse_embeddings(self._path("emb.txt")))
            cmc = sio.parse_cmc_file(self._path("cmc.txt"))
            gt_records = sio.parse_mot_file(self._path("gt.txt"))
            gt = sio.records_to_trajectories(gt_records)
            read_back = [sio.read_pgm(self._path(f"{f:06d}.pgm"))
                         for f in range(1, len(images) + 1)]
        laps.lap()

        tracker = assoc.Tracker()
        emitted = []
        for f in range(1, self.frames + 1):
            emitted.append(tracker.step(f, dets.get(f, []), cmc.get(f)))
            laps.lap(frame=True)
        pred = tracker.trajectories()

        with tr.span("io.write"):
            sio.write_mot_file(pred, self._path("res.txt"))
            written += os.path.getsize(self._path("res.txt"))
        with tr.span("io.parse"):
            res_records = sio.parse_mot_file(self._path("res.txt"))
            pred_read = sio.records_to_trajectories(res_records)
        laps.lap()

        mota = metrics.clear_mot(gt, pred_read)[0]
        laps.lap()
        idf1 = metrics.id_metrics(gt, pred_read)[0]
        laps.lap()
        hota = metrics.hota(gt, pred_read)[0]
        laps.lap()
        return {
            "scene": scene, "generated": generated, "images": images, "read_back": read_back,
            "dets": dets, "gt": gt, "pred": pred, "pred_read": pred_read, "emitted": emitted,
            "scores": (hota, idf1, mota),
            "io_bytes": 2 * written,
            "io_records": len(det_records) + len(gt_records) + len(res_records),
        }

    def check(self, out) -> list[str]:
        errors = []
        n_generated = sum(len(v) for v in out["generated"].values())
        n_parsed = sum(len(v) for v in out["dets"].values())
        if n_parsed != n_generated:
            errors.append(f"parsed {n_parsed} detections, wrote {n_generated}")
        if out["gt"].num_boxes() != out["scene"].gt.num_boxes():
            errors.append("ground truth changed in the io round trip")
        if any(not np.array_equal(a, b) for a, b in zip(out["images"], out["read_back"])):
            errors.append("PGM frames changed in the io round trip")
        for f, frame_out in enumerate(out["emitted"], start=1):
            ids = [tid for tid, _ in frame_out]
            if len(ids) != len(set(ids)):
                errors.append(f"frame {f}: duplicate track ids")
            inputs = {d.bbox for d in out["dets"].get(f, [])}
            if any(b not in inputs for _, b in frame_out):
                errors.append(f"frame {f}: emitted a box that is not an input box")
        for tid, seq in out["pred"].tracks:
            frames = [f for f, _ in seq]
            if any(b <= a for a, b in zip(frames, frames[1:])):
                errors.append(f"track {tid}: frames not strictly increasing")
        if out["pred_read"].by_id() != out["pred"].by_id():
            errors.append("tracks changed in the io round trip")
        hota, idf1, mota = out["scores"]
        if not (0.0 < hota <= 1.0 and 0.0 < idf1 <= 1.0 and mota <= 1.0):
            errors.append(f"scores out of range: HOTA {hota} IDF1 {idf1} MOTA {mota}")
        signature = (tuple(map(tuple, out["emitted"])), out["scores"])
        if self.first_output is None:
            self.first_output = signature
        elif signature != self.first_output:
            errors.append("output differs from the first repetition")
        return errors

    def layer_stats(self, out) -> dict[str, float]:
        n_dets = sum(len(v) for v in out["dets"].values())
        hota, idf1, mota = out["scores"]
        return {
            "assoc.emitted_per_det": sum(map(len, out["emitted"])) / n_dets,
            "synthsim.detections": sum(len(v) for v in out["generated"].values()),
            "io.bytes": out["io_bytes"],
            "io.records": out["io_records"],
            "metrics.hota": hota, "metrics.idf1": idf1, "metrics.mota": mota,
        }


class LffmFrames:
    """synthsim frames at 256x256 and 512x512 through lineops.lffm, then
    lfa.enhance_proposal for every ground-truth box with its normalized
    velocity as v_hat. The per-frame operation is one frame of each size."""

    name = "lffm-frames"
    tail_q = 75.0
    # Forty distinct frames per size: enough frame keys for ten beyond p75.
    inputs = 40
    reference = staticmethod(bulk_reference)
    reference_s = BULK_REFERENCE_S
    # (side, targets): equal target density, so the larger map is four
    # times the work and its bin tables leave the caches.
    sizes = ((256, 12), (512, 48))

    def __init__(self, seed: int, out_dir: str):
        self.images, self.proposals, self.cfgs = {}, {}, {}
        t0 = time.perf_counter()
        for (n, targets), s in zip(self.sizes, _seeds(seed, len(self.sizes))):
            scene = synthsim.generate_scene(synthsim.ScenarioConfig(
                seed=s, frames=self.inputs, n_moving=targets, width=n, height=n))
            by_frame = scene.gt.boxes_by_frame()
            self.images[n] = scene.frames
            self.proposals[n] = [
                [lfa.Proposal(b, np.zeros(1), scene.velocities[(tid, f)]) for tid, b in by_frame[f]]
                for f in range(1, self.inputs + 1)]
            self.cfgs[n] = lfa.LfaConfig(image_w=float(n), image_h=float(n))
        self.generate_s = time.perf_counter() - t0
        self.cold_s = {}

    def warm_up(self) -> None:
        """The first call at each size builds lineops' bin tables; users of
        one-shot `sartrack lineops` pay it on every invocation."""
        for n, _ in self.sizes:
            t0 = time.perf_counter()
            self._frame(n, 0)
            self.cold_s[n] = time.perf_counter() - t0

    def install(self, tracer) -> None:
        tracer.wrap(lineops, "lffm", span="lineops.lffm")
        tracer.wrap(lineops, "radon_forward", span="lineops.radon_fwd",
                    work=lambda a, r: {"lineops.radon_accum_computed": a[1] * np.asarray(a[0]).size})
        tracer.wrap(lineops, "radon_backproject", span="lineops.radon_back")
        tracer.wrap(lineops, "soft_normalize", span="lineops.softmax")
        tracer.wrap(lineops, "gated_fuse", span="lineops.fuse")
        tracer.wrap(lfa, "enhance_proposal", span="lfa.enhance",
                    work=lambda a, r: {"lfa.proposals": 1})
        tracer.wrap(lfa, "adaptive_radius", work=lambda a, r: {"lfa.radius_px_sum": r})

    def install_counters(self, tracer) -> bool:
        return False

    def _frame(self, n: int, k: int):
        z, a_soft = lineops.lffm(self.images[n][k])
        pooled = [lfa.enhance_proposal(p, a_soft, self.cfgs[n]).feature
                  for p in self.proposals[n][k]]
        return z, a_soft, pooled

    def execute(self, i: int, tr, laps):
        outs, per_size = [], {}
        for n, _ in self.sizes:
            t = time.perf_counter()
            outs.append(self._frame(n, i % self.inputs))
            per_size[n] = time.perf_counter() - t
        laps.lap(frame=True)
        return outs, per_size

    def check(self, out) -> list[str]:
        errors = []
        for z, a_soft, pooled in out[0]:
            n = a_soft.shape[0]
            sums = a_soft.sum(axis=(0, 1))
            if np.any(np.abs(sums - 1.0) > 1e-9):
                errors.append(f"{n}x{n}: a_soft channel sums {sums.tolist()} are not 1 within 1e-9")
            if not (np.all(np.isfinite(z)) and np.all(np.isfinite(a_soft))):
                errors.append(f"{n}x{n}: non-finite lffm output")
            if not all(np.all(np.isfinite(f)) for f in pooled):
                errors.append(f"{n}x{n}: non-finite pooled feature")
        return errors

    def layer_stats(self, out) -> dict[str, float]:
        stats = {"synthsim.generate_s": self.generate_s}
        for n, _ in self.sizes:
            stats[f"lineops.frame_{n}_s"] = out[1][n]
            stats[f"lineops.cold_{n}_s"] = self.cold_s[n]
        return stats


WORKLOADS = {w.name: w for w in (DenseTrack, SceneE2E, LffmFrames)}
