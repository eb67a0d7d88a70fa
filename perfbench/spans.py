"""In-memory span records for the benchmark.

A span is one stage of a run: {id, run_id, name, parent, wall_s, cpu_s,
peak_rss_mb, counters}.  Stage spans (set-up, solve) are
always recorded.  Layer spans, around calls into the package modules, are
recorded only while tracing, so an untraced solve runs the program with
nothing wrapped; there the end of each layer call only marks a step of the
stage, and the stage span keeps its step times under "steps" and the
calibrations timed between them under "calibrations".  The same record is
meant for the program's own metrics output
later, so a regression can be followed from the benchmark into a
layer.
"""

from __future__ import annotations

import inspect
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from calibrate import CAL_EVERY_S, scaled_steps


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0


class Recorder:
    """Collects the spans of one run, nested by the span open at entry."""

    def __init__(self, run_id: str, calibrate=None):
        self.run_id = run_id
        self.tracing = False
        self.spans: list[dict] = []
        self._open: list[int] = []
        # untraced root stages time calibrate() just outside their ends
        # and, at most every calibrate_every_s, between two steps, inside
        # the stage's wall_s but in none of its steps
        self.calibrate = calibrate
        self.calibrate_every_s = CAL_EVERY_S
        self._steps: list[float] = []
        self._calibrations: list[list] = []
        self._step_start = self._calibrated_at = 0.0

    @contextmanager
    def stage(self, name: str, **counters):
        """Record a span around the block; yields its counter dict."""
        span = {
            "id": len(self.spans),
            "run_id": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "counters": dict(counters),
        }
        root = span["parent"] is None
        if root:
            self._steps, self._calibrations = [], []
            self._calibration_point()
        self.spans.append(span)
        self._open.append(span["id"])
        w0 = self._step_start = time.perf_counter()
        c0 = time.process_time()
        try:
            yield span["counters"]
        finally:
            c1 = time.process_time()
            w1 = time.perf_counter()
            self._open.pop()
            span.update(wall_s=w1 - w0, cpu_s=c1 - c0, peak_rss_mb=peak_rss_mb())
            if root:
                self._steps.append(w1 - self._step_start)
                self._calibration_point()
                span["steps"] = self._steps
                if self._calibrations:
                    span["calibrations"] = self._calibrations

    def mark(self) -> None:
        """End a step of the open root stage here.  Every run of one stage
        marks the same sequence of steps."""
        if not self._open:
            return
        now = time.perf_counter()
        self._steps.append(now - self._step_start)
        self._step_start = now
        if now - self._calibrated_at >= self.calibrate_every_s and self._calibration_point():
            self._step_start = time.perf_counter()

    def _calibration_point(self) -> bool:
        """Time calibrate() before step len(self._steps), if calibrating."""
        if self.calibrate is None or self.tracing:
            return False
        self._calibrations.append([len(self._steps), self.calibrate()])
        self._calibrated_at = time.perf_counter()
        return True

    def layer(self, name: str):
        """A layer span while tracing; otherwise a block with a throwaway
        counter dict that marks a step at its end."""
        if self.tracing:
            return self.stage(name)
        return _Step(self)

    def wrap(self, fn, name: str, count):
        """fn with each call inside a layer span.  count(result, arguments)
        returns the call's counters, arguments being fn's bound parameters."""
        signature = inspect.signature(fn)

        def timed(*args, **kwargs):
            with self.layer(name) as counters:
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counters.update(count(result, bound.arguments))
            return result

        return timed

    @contextmanager
    def patched(self, owner, attr: str, name: str, count):
        """While tracing, route owner.attr through a layer span for the
        duration of the block; reaches calls made inside the program."""
        if not self.tracing:
            yield
            return
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, count))
        try:
            yield
        finally:
            setattr(owner, attr, original)


class _Step:
    """An untraced layer block: yields a throwaway counter dict and marks a
    step when it ends."""

    __slots__ = ("rec",)

    def __init__(self, rec):
        self.rec = rec

    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        self.rec.mark()


def step_median_sum(spans: list[dict], scaled: bool = True) -> float:
    """Sum over step positions of the median over spans of that step's
    time, scaled to the reference speed where the span was calibrated
    (unless scaled is False): the stage's median time with each step's
    outliers taken out on their own."""
    steps = [
        scaled_steps(s) if scaled and "calibrations" in s else s["steps"] for s in spans
    ]
    if len({len(x) for x in steps}) != 1:
        raise ValueError("stages marked different numbers of steps")
    return sum(statistics.median(column) for column in zip(*steps))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Wall time of each span minus the wall time of its child spans.  Spans
    open and close on one stack in one thread, so siblings never overlap
    and every child lies inside its parent."""
    out = {s["id"]: s["wall_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["wall_s"]
    return out


def root_of(spans: list[dict]) -> dict[int, int]:
    """Id of the outermost enclosing span of every span."""
    root = {}
    for s in spans:  # parents are opened, hence listed, before children
        root[s["id"]] = s["id"] if s["parent"] is None else root[s["parent"]]
    return root


def layer_totals(spans: list[dict], roots: list[int]) -> list[dict]:
    """Per root span: summed wall, CPU and self time and counters of every
    span name below it."""
    selfs = self_times(spans)
    root = root_of(spans)
    totals = {r: defaultdict(lambda: defaultdict(float)) for r in roots}
    for s in spans:
        r = root[s["id"]]
        if r not in totals or s["id"] == r:
            continue
        t = totals[r][s["name"]]
        t["wall_s"] += s["wall_s"]
        t["cpu_s"] += s["cpu_s"]
        t["self_s"] += selfs[s["id"]]
        for key, value in s["counters"].items():
            t[key] += value
    return [totals[r] for r in roots]


def median_over(per_root: list[dict], name: str, key: str) -> float:
    """Median over roots of one layer quantity, 0 for roots without it."""
    if not per_root:
        return 0.0
    return statistics.median(
        t[name][key] if name in t else 0.0 for t in per_root
    )
