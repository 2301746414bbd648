"""Seeded benchmark of the sartrack pipeline.

    python3 perfbench/run.py --workload dense-track --seed 1 --seconds 20 --trace 0

Run from the repository root (the program is imported from ./src). With
--trace 0 it prints the end-to-end metrics, calibrated against a reference
kernel timed alongside (harness.Calibrator); with --trace 1 it alternates
untraced and traced passes on the same inputs and prints the raw per-layer
metrics, the tracing overhead and the share of wall time left to harness
glue. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
An operation is one pass; it fails when a call raises or an output check
fails. Exit status is 0 after a completed measurement, 1 for an unknown
workload, 2 when the program cannot be found or imported, 3 when the
harness self-test fails or the metric tables disagree with BENCHMARK.json,
and 4 when no pass succeeded.
"""
from __future__ import annotations

import os

# Single-threaded numeric libraries: pinned before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import selftest  # noqa: E402
from harness import (Calibrator, Laps, NullTracer, Tracer, median, percentile,  # noqa: E402
                     tail_supported)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_CALIBRATION_SAMPLES = 20

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
}

# Span name -> (self-time metric, call-count metric or None).
SPAN_METRICS = {
    "motion.predict": ("motion.predict_s", "motion.predict_calls"),
    "motion.update": ("motion.update_s", "motion.update_calls"),
    "motion.cmc": ("motion.cmc_s", "motion.cmc_calls"),
    "assoc.cost": ("assoc.cost_s", None),
    "assoc.assign": ("assoc.assign_s", "assoc.assign_calls"),
    "assoc.step": ("assoc.step_self_s", None),
    "assoc.trajectories": ("assoc.trajectories_s", None),
    "metrics.clear": ("metrics.clear_s", None),
    "metrics.id": ("metrics.id_s", None),
    "metrics.hota": ("metrics.hota_s", None),
    "synthsim.generate": ("synthsim.generate_s", None),
    "synthsim.perturb": ("synthsim.perturb_s", None),
    "io.write": ("io.write_s", None),
    "io.parse": ("io.parse_s", None),
    "lineops.lffm": ("lineops.lffm_self_s", None),
    "lineops.radon_fwd": ("lineops.radon_fwd_s", None),
    "lineops.radon_back": ("lineops.radon_back_s", None),
    "lineops.softmax": ("lineops.softmax_s", None),
    "lineops.fuse": ("lineops.fuse_s", None),
    "lfa.enhance": ("lfa.enhance_s", None),
}

PER_LAYER = {name: "s" for name, _ in SPAN_METRICS.values()}
PER_LAYER.update({calls: "count" for _, calls in SPAN_METRICS.values() if calls})
PER_LAYER.update({
    "assoc.cost_cells": "count",
    "assoc.emitted_per_det": "ratio",
    "assoc.tracks_created": "count",
    "assoc.live_tracks_max": "count",
    "metrics.iou_calls": "count",
    "metrics.lsa_calls": "count",
    "metrics.hota": "score",
    "metrics.idf1": "score",
    "metrics.mota": "score",
    "synthsim.detections": "count",
    "io.bytes": "B",
    "io.records": "count",
    "lineops.radon_accum_computed": "count",
    "lfa.proposals": "count",
    "lfa.radius_px_mean": "px",
    "lineops.frame_256_s": "s",
    "lineops.frame_512_s": "s",
    "lineops.cold_256_s": "s",
    "lineops.cold_512_s": "s",
    "trace.overhead_pct": "%",
    "trace.glue_pct": "%",
    "trace.spans": "count",
})


def check_declared_metrics() -> list[str]:
    """The metric names and units printed must be the ones BENCHMARK.json
    declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path} is missing"]
    spec = json.loads(path.read_text())
    bad = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != table:
            bad.append(f"{key} in BENCHMARK.json differs from run.py: "
                       f"{sorted(set(declared.items()) ^ set(table.items()))}")
    return bad


def _fail(code: int, msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


class Pass:
    __slots__ = ("index", "traced", "wall", "laps", "stats", "errors")

    def __init__(self, index: int, traced: bool, laps: Laps):
        self.index = index
        self.traced = traced
        self.wall = 0.0
        self.laps = laps
        self.stats: dict[str, float] = {}
        self.errors: list[str] = []


def run_pass(wl, index: int, tracer: Tracer | None, cal: Calibrator | None) -> Pass:
    """Execute one pass (traced when a tracer is given), then check it.

    Outputs are dropped after the check and garbage is collected before the
    pass, so passes do not slow down as earlier results pile up.
    """
    p = Pass(index, tracer is not None, Laps(cal))
    tr = tracer if tracer is not None else NullTracer()
    output = None
    gc.collect()
    if tracer is not None:
        tracer.run_id = index
        wl.install(tracer)
        root = tracer.open("pass")
    t0 = time.perf_counter()
    try:
        output = wl.execute(index, tr, p.laps)
    except Exception:  # a failed operation; measuring goes on
        p.errors.append(traceback.format_exc())
    p.wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.unwrap_all()
        tracer.stack.clear()
    if not p.errors:
        try:
            p.errors = wl.check(output)
            p.stats = wl.layer_stats(output)
        except Exception:
            p.errors.append(traceback.format_exc())
    return p


def measure(wl, seconds: float, tracer: Tracer | None, cal: Calibrator | None) -> list[Pass]:
    """Run passes for about `seconds`; with a tracer, odd passes are traced.
    A pass starts only if it is expected to end within the window, once
    every input has run (untraced) or two passes have (traced); past four
    times the window it stops regardless."""
    passes: list[Pass] = []
    minimum = 2 if tracer is not None else max(2, wl.inputs)
    t_start = time.perf_counter()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        passes.append(run_pass(wl, i, tracer if traced else None, cal))
        elapsed = time.perf_counter() - t_start
        if (len(passes) >= minimum and elapsed + passes[-1].wall > seconds) or elapsed > 4 * seconds:
            return passes


def frame_means(passes: list[Pass], inputs: int) -> list[float]:
    """Each frame (input, position) timed as the mean over its repeats."""
    by_key: dict[tuple[int, int], list[float]] = {}
    for p in passes:
        for pos, t in enumerate(p.laps.frames):
            by_key.setdefault((p.index % inputs, pos), []).append(t)
    return [sum(v) / len(v) for v in by_key.values()]


def end_to_end(passes: list[Pass], setup_s: float, wl, cal: Calibrator) -> dict[str, float]:
    """Every timing of the passes is divided by the run's calibration factor
    (see harness.Calibrator); means keep that division exact when the host's
    speed changes within the run. setup_s comes calibrated already."""
    ok = [p for p in passes if not p.errors]
    if not ok:
        return {}
    k = cal.factor()
    frames = frame_means(ok, wl.inputs)
    if not tail_supported(len(frames), wl.tail_q):
        print(f"perfbench: {len(frames)} frames, fewer than ten beyond p{wl.tail_q:g}",
              file=sys.stderr)
    n_frames = sum(len(p.laps.frames) for p in ok)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": sum(sum(p.laps.times) for p in ok) / len(ok) / k,
        "fps": n_frames / sum(sum(p.laps.frames) for p in ok) * k,
        "frame_ms_p50": 1e3 * median(frames) / k,
        "frame_ms_tail": 1e3 * percentile(frames, wl.tail_q) / k,
    }


def per_layer(passes: list[Pass], tracer: Tracer, counted: Pass | None) -> dict[str, float]:
    traced = [p for p in passes if p.traced and not p.errors]
    plain = [p for p in passes if not p.traced and not p.errors and p is not counted]
    rows = []
    for p in traced:
        selfs, calls, root_s = tracer.run_totals(p.index)
        row = dict.fromkeys(PER_LAYER, 0.0)
        for span, (time_key, calls_key) in SPAN_METRICS.items():
            row[time_key] = selfs.get(span, 0.0)
            if calls_key:
                row[calls_key] = calls.get(span, 0)
        counts = tracer.run_counts(p.index)
        for key, value in counts.items():
            if key in row:
                row[key] = value
        if counts.get("lfa.proposals"):
            row["lfa.radius_px_mean"] = counts["lfa.radius_px_sum"] / counts["lfa.proposals"]
        row.update(p.stats)
        if counted is not None:
            row.update(tracer.run_counts(counted.index))
        row["trace.glue_pct"] = 100.0 * selfs.get("pass", 0.0) / p.wall
        row["trace.spans"] = sum(calls.values())
        # Self times plus harness glue must account for the pass's wall time.
        if abs(sum(selfs.values()) - p.wall) > 0.01 * p.wall or abs(root_s - p.wall) > 0.01 * p.wall:
            p.errors.append(f"pass {p.index}: span self times {sum(selfs.values()):.6f}s do not "
                            f"account for wall {p.wall:.6f}s")
        rows.append(row)
    if not rows:
        return {}
    out = {k: median(r[k] for r in rows) for k in PER_LAYER}
    base = sum(p.wall for p in plain) / len(plain)
    out["trace.overhead_pct"] = 100.0 * (sum(p.wall for p in traced) / len(traced) - base) / base
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sartrack" / "__init__.py").is_file():
        return _fail(2, f"no program to measure: {ROOT / 'src' / 'sartrack'} is missing")
    failures = selftest.run() + check_declared_metrics()
    if failures:
        return _fail(3, "self-check failed: " + "; ".join(failures))

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as e:
        return _fail(2, f"cannot import the program: {e}")
    import_s = time.perf_counter() - t0
    import sartrack
    if Path(sartrack.__file__).resolve().parent != ROOT / "src" / "sartrack":
        return _fail(2, f"imported sartrack from {sartrack.__file__}, not from ./src")
    if args.workload not in workloads.WORKLOADS:
        return _fail(1, f"unknown workload {args.workload!r}; "
                        f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    out_dir = OUT / args.workload
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(args.seed, str(out_dir))
        setup_times.append(time.perf_counter() - t)
    t = time.perf_counter()
    wl.warm_up()
    setup_s = import_s + median(setup_times) + (time.perf_counter() - t)
    # Set-up ran seconds before the passes, so it gets its own calibration.
    setup_cal = Calibrator(cls.reference, cls.reference_s, interval=0.0)
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        setup_cal.maybe_sample()
    setup_s /= setup_cal.factor()

    tracer = Tracer() if args.trace else None
    # Traced runs report raw per-layer times, so they take no calibration samples.
    cal = None if args.trace else Calibrator(cls.reference, cls.reference_s)
    passes = measure(wl, args.seconds, tracer, cal)
    if args.trace:
        counted = None
        if wl.install_counters(tracer):
            tracer.run_id = len(passes)
            counted = run_pass(wl, len(passes), None, None)
            tracer.unwrap_all()
            passes.append(counted)
        values = per_layer(passes, tracer, counted)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        values = end_to_end(passes, setup_s, wl, cal)
        units = END_TO_END

    failed = sum(1 for p in passes if p.errors)
    for p in passes:
        for e in p.errors:
            print(f"perfbench: pass {p.index} failed: {e}", file=sys.stderr)
    if not values:
        return _fail(4, "no successful pass to measure")
    n_frames = sum(len(p.laps.frames) for p in passes if not p.traced)
    calibration = "" if cal is None else f" calibration factor={cal.factor():.4f} ({len(cal.samples)} samples)"
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} untraced frames={n_frames}"
          f" tail=p{cls.tail_q:g}{calibration}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
