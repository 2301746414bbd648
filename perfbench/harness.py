"""Harness arithmetic and in-memory span tracing for the sartrack benchmark.

Standard library only, so that importing it loads neither numpy nor the
program under test (the run script pins thread counts before those load).
"""
from __future__ import annotations

import math
import time
from collections import defaultdict

# Spans are lists [name, start, end, parent index, run id]; a run is one pass.
NAME, START, END, PARENT, RUN = range(5)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between order
    statistics (the method numpy uses by default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the q-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def tail_supported(n: int, q: float, need: int = 10) -> bool:
    """A tail percentile is reported only with at least `need` samples
    beyond it."""
    return samples_beyond(n, q) >= need


class Calibrator:
    """Times a fixed reference kernel at most every `interval` seconds.

    On a shared host the speed available to this process drifts with other
    tenants' load, by up to 1.9x over minutes for interpreter-bound code.
    A kernel with the workload's instruction mix, sampled evenly through
    the run, slows down with it, so dividing timings by `factor` reports
    them at the host speed where the kernel takes `nominal_s`.
    """

    def __init__(self, kernel, nominal_s: float, interval: float = 0.25):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.interval = interval
        self.samples: list[float] = []
        self.due = 0.0

    def maybe_sample(self) -> None:
        if time.perf_counter() < self.due:
            return
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.due = t1 + self.interval

    def factor(self) -> float:
        return sum(self.samples) / len(self.samples) / self.nominal_s


class Laps:
    """Times of consecutive segments of one pass; together they tile it,
    except for the calibration samples taken between segments."""

    __slots__ = ("times", "is_frame", "calibrator", "_t")

    def __init__(self, calibrator: Calibrator | None = None):
        self.times: list[float] = []
        self.is_frame: list[bool] = []
        self.calibrator = calibrator
        self._t = time.perf_counter()

    def lap(self, frame: bool = False) -> None:
        """End the current segment; `frame` marks a per-frame operation."""
        now = time.perf_counter()
        self.times.append(now - self._t)
        self.is_frame.append(frame)
        if self.calibrator is not None:
            self.calibrator.maybe_sample()
            now = time.perf_counter()
        self._t = now

    @property
    def frames(self) -> list[float]:
        return [t for t, f in zip(self.times, self.is_frame) if f]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][START], s[START]), min(spans[c][END], s[END]))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in used by untraced passes: a span costs one call."""

    def span(self, name):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


class Tracer:
    """Keeps spans and per-run counts in memory until the run ends.

    Layer functions are wrapped by rebinding the attribute their caller looks
    up (for example ``assoc.kf_predict``), so no program file changes.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, owner, attr: str, span: str | None = None, work=None) -> None:
        """Rebind owner.attr so each call records a span named `span` (if
        given) and adds the amounts `work(args, result)` returns; keys ending
        in "_max" keep the largest amount instead of the sum."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    tracer.close(idx)
            if work is not None:
                for key, amount in work(args, result).items():
                    k = (tracer.run_id, key)
                    if key.endswith("_max"):
                        tracer.counts[k] = max(tracer.counts[k], amount)
                    else:
                        tracer.counts[k] += amount
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Rebind owner.attr to count calls only (for hot scalar functions)."""
        fn = getattr(owner, attr)
        counts = self.counts
        tracer = self

        def counted(*args, **kwargs):
            counts[(tracer.run_id, key)] += 1
            return fn(*args, **kwargs)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, counted)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def run_totals(self, run_id: int) -> tuple[dict[str, float], dict[str, int], float]:
        """(self seconds by span name, span count by name, root duration)
        for one run; the run's root span is its first span."""
        idx = [i for i, s in enumerate(self.spans) if s[RUN] == run_id]
        sub = [list(self.spans[i]) for i in idx]
        remap = {old: new for new, old in enumerate(idx)}
        for s in sub:
            s[PARENT] = remap.get(s[PARENT], -1)
        selfs = self_times(sub)
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, st in zip(sub, selfs):
            by_name[s[NAME]] += st
            calls[s[NAME]] += 1
        root = sub[0][END] - sub[0][START] if sub else 0.0
        return dict(by_name), dict(calls), root

    def run_counts(self, run_id: int) -> dict[str, float]:
        return {k: v for (r, k), v in self.counts.items() if r == run_id}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run,index,parent,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{s[RUN]},{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r}\n")
