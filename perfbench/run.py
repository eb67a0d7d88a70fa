#!/usr/bin/env python3
"""Benchmark of the murmurations package, one workload per process.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run from the root of a checkout; the package is imported from ./src.  For
--seconds the run repeats rounds of set-ups (building the tables) and a
solve (from tables ready to checked outputs).  Each call into the package
ends a step; a calibration kernel timed between steps scales each step to
a reference machine speed, and a time is the sum over steps of each step's
median (see calibrate.py and README.md).  With --trace 1 each round adds a
traced solve: its layer spans give the per-layer numbers, and the traced
solve minus the untraced one is the tracing overhead.

stdout: a summary, a `record` line with the full JSON record (provenance,
samples, diagnostics, spans), and last the result line
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs each
workload in a fresh process and prints their summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import calibrate
from provenance import provenance
from spans import Recorder, layer_totals, median_over, peak_rss_mb, step_median_sum

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference" / "figure.json"
WORKLOAD_NAMES = ("figure", "measure", "oracle")

# name -> unit; the times are step_median_sum over the run's set-ups or
# untraced solves, the sum over their steps (one per call into the package)
# of each step's median time
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}

# name -> (span name, quantity, unit): median over set-ups plus median over
# traced solves of the quantity summed over the spans of that name
PER_LAYER = {
    "arith.factor_sieve_s": ("arith.factor_sieve", "wall_s", "s"),
    "classnum.sieve_s": ("classnum.sieve", "wall_s", "s"),
    "classnum.sieve_bound": ("classnum.sieve", "sieve_bound", "count"),
    "classnum.cache_write_s": ("classnum.cache_write", "wall_s", "s"),
    "classnum.cache_bytes": ("classnum.cache_write", "cache_bytes", "bytes"),
    "classnum.cache_read_s": ("classnum.cache_read", "wall_s", "s"),
    "classnum.disc_table_s": ("classnum.disc_table", "wall_s", "s"),
    "classnum.psi_bar_s": ("classnum.psi_bar", "wall_s", "s"),
    "classnum.psi_bar_residues": ("classnum.psi_bar", "psi_bar_residues", "count"),
    "trace.l1_array_s": ("trace.l1_array", "wall_s", "s"),
    "trace.l1_entries": ("trace.l1_array", "l1_entries", "count"),
    "trace.trace_hecke_s": ("trace.trace_hecke", "wall_s", "s"),
    "trace.traces": ("trace.trace_hecke", "traces", "count"),
    "qexp.oracle_s": ("qexp.oracle", "wall_s", "s"),
    "qexp.oracle_calls": ("qexp.oracle", "oracle_calls", "count"),
    "murmur.series_s": ("murmur.series", "wall_s", "s"),
    "murmur.series_cpu_s": ("murmur.series", "cpu_s", "s"),
    "murmur.points": ("murmur.series", "points", "count"),
    "murmur.elliptic_terms": ("murmur.series", "elliptic_terms", "count"),
    "murmur.curve_s": ("murmur.curve", "wall_s", "s"),
    "nu.rational_s": ("nu.rational", "wall_s", "s"),
    "nu.rational_q": ("nu.rational", "rational_q", "count"),
    "nu.fourier_s": ("nu.fourier", "wall_s", "s"),
    "nu.fourier_terms": ("nu.fourier", "fourier_terms", "count"),
    "nu.jump_s": ("nu.jump", "wall_s", "s"),
    "nu.circle_self_s": ("nu.circle", "self_s", "s"),
    "nu.circle_terms": ("nu.circle", "circle_terms", "count"),
    "window.hat_s": ("window.hat", "wall_s", "s"),
    "window.hat_cpu_s": ("window.hat", "cpu_s", "s"),
    "window.hat_points": ("window.hat", "hat_points", "count"),
    "window.hat_cos_evals": ("window.hat", "hat_cos_evals", "count"),
}
# derived per-layer metrics, computed in per_layer_metrics
DERIVED = {
    "murmur.elliptic_terms_per_s": "1/s",
    "tracing.solve_traced_s": "s",
    "tracing.solve_untraced_s": "s",
    "tracing.overhead_s": "s",
    "tracing.layer_self_s": "s",
    "tracing.unaccounted_s": "s",
}


def _roots(spans, name, traced=None):
    return [
        s for s in spans
        if s["parent"] is None and s["name"] == name
        and (traced is None or s["counters"].get("traced") == traced)
    ]


def end_to_end_metrics(spans, rss_mb: float) -> dict:
    return {
        "setup_s": step_median_sum(_roots(spans, "setup")),
        "solve_s": step_median_sum(_roots(spans, "solve", traced=False)),
        "peak_rss_mb": rss_mb,
    }


def wall_metrics(spans) -> dict:
    """The end-to-end times before scaling to the reference speed."""
    return {
        "setup_wall_s": step_median_sum(_roots(spans, "setup"), scaled=False),
        "solve_wall_s": step_median_sum(_roots(spans, "solve", traced=False), scaled=False),
    }


def per_layer_metrics(spans) -> dict:
    setups = layer_totals(spans, [s["id"] for s in _roots(spans, "setup")])
    traced_roots = _roots(spans, "solve", traced=True)
    solves = layer_totals(spans, [s["id"] for s in traced_roots])
    out = {}
    for metric, (name, key, _) in PER_LAYER.items():
        out[metric] = median_over(setups, name, key) + median_over(solves, name, key)
    series_s = out["murmur.series_s"]
    out["murmur.elliptic_terms_per_s"] = (
        out["murmur.elliptic_terms"] / series_s if series_s > 0 else 0.0
    )
    traced = statistics.median(s["wall_s"] for s in traced_roots)
    # the untraced steps leave out the calibrations timed between them
    untraced = wall_metrics(spans)["solve_wall_s"]
    # spans of one solve nest, so the self times of the layer spans add up
    # to the time the solve spent inside the package
    layer_self = statistics.median(
        sum(t["self_s"] for t in per_root.values()) for per_root in solves
    )
    out["tracing.solve_traced_s"] = traced
    out["tracing.solve_untraced_s"] = untraced
    out["tracing.overhead_s"] = traced - untraced
    out["tracing.layer_self_s"] = layer_self
    out["tracing.unaccounted_s"] = untraced - layer_self
    return out


def _load_package():
    """Import murmurations from this checkout's src, or exit 2."""
    if not (SRC / "murmurations" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'murmurations'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import murmurations

    if Path(murmurations.__file__).resolve().parent != (SRC / "murmurations").resolve():
        print(f"error: murmurations imported from {murmurations.__file__}", file=sys.stderr)
        raise SystemExit(2)


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS

    if name == "figure":
        return WORKLOADS[name](seed=seed, reference=json.loads(REFERENCE.read_text()))
    return WORKLOADS[name](seed=seed)


def measure(wl, seconds: float, tracing: bool, run_id: str):
    """Run rounds until seconds have gone since the start, never starting a
    round that would end past them if it took as long as the last one, but
    always at least one.  A round is wl.setup_reps set-ups, then one
    untraced solve, then a traced one when tracing; set-ups are spread over
    the run so that they see the same machine as the solves.  Returns the
    recorder and the outcome of every solve."""
    rec = Recorder(run_id, calibrate=calibrate)
    start = time.perf_counter()
    outcomes = []
    # the oracle's class-number cache goes in a directory under the checkout
    # root, removed at the end, so a run writes nowhere outside the checkout
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        while True:
            t0 = time.perf_counter()
            for _ in range(wl.setup_reps):
                state = None  # release the previous tables before rebuilding
                rec.tracing = tracing
                with rec.stage("setup"):
                    state = wl.setup(rec, Path(tmp))
            for traced in (False, True) if tracing else (False,):
                rec.tracing = traced
                with rec.stage("solve", traced=traced):
                    outcomes.append(wl.solve(state, rec))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
    rec.tracing = False
    return rec, outcomes


def run_one(args) -> int:
    _load_package()
    wl = make_workload(args.workload, args.seed)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    rec, outcomes = measure(wl, args.seconds, bool(args.trace), run_id)
    rss = peak_rss_mb()

    attempted = sum(len(o.checks) for o in outcomes)
    failed_names = sorted({name for o in outcomes for name in o.failed})
    failed = sum(len(o.failed) for o in outcomes)
    e2e = end_to_end_metrics(rec.spans, rss)
    diagnostics = {
        **wall_metrics(rec.spans),
        "solve_cpu_s": statistics.median(
            s["cpu_s"] for s in _roots(rec.spans, "solve", traced=False)
        ),
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    for key in ("nu_gap_max", "ref_dev_max"):
        values = [o.diagnostics[key] for o in outcomes if key in o.diagnostics]
        if values:
            diagnostics[key] = max(values)
    if args.trace:
        metrics = per_layer_metrics(rec.spans)
        units = {m: u for m, (_, _, u) in PER_LAYER.items()} | DERIVED
    else:
        metrics, units = e2e, END_TO_END

    roots = [s for s in rec.spans if s["parent"] is None]
    last = roots[-1]["id"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_id": run_id,
        "provenance": provenance(ROOT, SRC, args.seed),
        "samples": {
            "setup_s": [s["wall_s"] for s in _roots(rec.spans, "setup")],
            "solve_s": [s["wall_s"] for s in _roots(rec.spans, "solve", traced=False)],
            "solve_cpu_s": [s["cpu_s"] for s in _roots(rec.spans, "solve", traced=False)],
            "solve_traced_s": [s["wall_s"] for s in _roots(rec.spans, "solve", traced=True)],
        },
        "end_to_end": e2e,
        "diagnostics": diagnostics,
        "failed_checks": failed_names,
        "metrics": metrics,
        # every root span, and the spans of the last solve
        "spans": [s for s in rec.spans if s["parent"] is None or s["id"] > last],
    }

    solves = len(record["samples"]["solve_s"])
    traced_solves = len(record["samples"]["solve_traced_s"])
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(record['samples']['setup_s'])} set-ups, {solves} untraced and "
        f"{traced_solves} traced solves"
    )
    for name, value in {**e2e, **diagnostics, **(metrics if args.trace else {})}.items():
        unit = END_TO_END.get(name) or units.get(name) or ("s" if name.endswith("_s") else "")
        print(f"  {name:30s} {value:.6g} {unit}")
    if failed_names:
        print("  failed checks: " + ", ".join(failed_names))
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints their summaries."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
