"""Self-test of the harness arithmetic: percentiles, the tail-percentile
rule and span self time. The benchmark runs it before measuring; run it
alone with `python3 perfbench/selftest.py`.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
import types

import harness
from harness import (END, NAME, START, Calibrator, Laps, Tracer, percentile, samples_beyond,
                     self_times, tail_supported)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def run() -> list[str]:
    """Return one message per failed check (empty when all pass)."""
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(what)

    # Percentiles: linear interpolation between order statistics.
    expect(percentile([3, 1, 2, 5, 4], 50) == 3, "median of 1..5 is 3")
    expect(_close(percentile(range(1, 11), 90), 9.1), "p90 of 1..10 is 9.1")
    expect(percentile([7.0], 99) == 7.0, "percentile of one sample is that sample")
    expect(percentile([1, 2], 0) == 1 and percentile([1, 2], 100) == 2, "p0/p100 are min/max")
    data = [0.3, 1.7, 0.2, 9.0, 4.4, 2.2, 5.1, 0.9, 3.3, 7.7, 6.0]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    expect(all(_close(a, b) for a, b in zip((q1, q2, q3), (percentile(data, q) for q in (25, 50, 75)))),
           "quartiles agree with statistics.quantiles(method='inclusive')")
    try:
        percentile([], 50)
        bad.append("percentile of no samples raises")
    except ValueError:
        pass

    # Tail rule: at least ten samples beyond the reported percentile.
    for n, q, ok in ((1000, 99, True), (999, 99, False), (200, 95, True), (199, 95, False),
                     (100, 90, True), (99, 90, False), (40, 75, True), (39, 75, False)):
        expect(tail_supported(n, q) is ok, f"tail rule n={n} p{q} -> {ok}")
    expect(samples_beyond(1000, 99) == 10 and samples_beyond(10, 50) == 5, "samples beyond")

    # Calibration: timings divided by the reference kernel's slowdown.
    cal = Calibrator(lambda: None, nominal_s=1.0, interval=0.0)
    cal.samples = [2.0, 4.0]
    expect(cal.factor() == 3.0, "calibration factor is mean sample / nominal")
    laps = Laps(Calibrator(lambda: time.sleep(0.01), nominal_s=0.01, interval=0.0))
    laps.lap()
    laps.lap(frame=True)
    expect(len(laps.calibrator.samples) == 2 and laps.is_frame == [False, True]
           and laps.frames == laps.times[1:] and max(laps.times) < 0.01,
           "laps exclude the calibration samples taken between them")

    # Self time: duration minus the union of direct children, clipped to the parent.
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 3.5, 6.0, 0, 0],   # overlaps a: union of a and c is [1, 6]
        ["d", 9.0, 11.0, 0, 0],  # runs past root: only [9, 10] counts
    ]
    selfs = self_times(spans)
    expect(all(_close(s, e) for s, e in zip(selfs, [4.0, 2.0, 1.0, 2.5, 2.0])),
           f"self times {selfs} != [4, 2, 1, 2.5, 2]")

    # A traced call nests under the open span and the run's self times add
    # up to its root span.
    fake = types.SimpleNamespace(leaf=lambda x: x * 2)
    original = fake.leaf
    tr = Tracer()
    tr.run_id = 3
    root = tr.open("pass")
    tr.wrap(fake, "leaf", span="leaf", work=lambda a, r: {"leaf.items": a[0], "leaf.peak_max": r})
    with tr.span("outer"):
        fake.leaf(2)
        fake.leaf(5)
    tr.close(root)
    tr.unwrap_all()
    expect(fake.leaf is original, "unwrap restores the original function")
    by_name, calls, root_s = tr.run_totals(3)
    expect(calls == {"pass": 1, "outer": 1, "leaf": 2}, f"span counts {calls}")
    expect(_close(sum(by_name.values()), root_s), "self times add up to the root span")
    expect(tr.run_counts(3) == {"leaf.items": 7.0, "leaf.peak_max": 10.0}, f"counts {tr.run_counts(3)}")
    expect(tr.spans[1][NAME] == "outer" and tr.spans[2][harness.PARENT] == 1, "parent links")
    expect(all(s[END] >= s[START] for s in tr.spans), "spans end after they start")
    return bad


if __name__ == "__main__":
    failures = run()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    sys.exit(1 if failures else 0)
