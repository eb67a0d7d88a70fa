"""Tests of the benchmark itself: tiny runs of every workload, the reference
comparison, the self-time arithmetic and the command-line contract."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from calibrate import CAL_REF_S, scaled_steps  # noqa: E402

run._load_package()

from spans import Recorder, layer_totals, median_over, self_times, step_median_sum  # noqa: E402
from workloads import WORKLOADS, Figure, Measure, Oracle  # noqa: E402

TINY = {
    "figure": lambda: Figure(K=1000.0, H=60.0, grid_points=20, q_max=300, setup_reps=1),
    "measure": lambda: Measure(
        intervals=2, nu_terms=2000, fourier_terms=5000, jump_q_max=500,
        circle_x=20.0, setup_reps=1,
    ),
    "oracle": lambda: Oracle(
        K=300.0, H=30.0, oracle_n_max=40, oracle_samples=4, big_k=100,
        big_n_max=20, psi_m_max=20, psi_samples=3, setup_reps=1,
    ),
}

# layers each workload must reach; the others it leaves alone by design
REACHED = {
    "figure": ["arith.factor_sieve_s", "classnum.sieve_s", "trace.l1_array_s",
               "murmur.series_s", "murmur.curve_s", "nu.rational_s"],
    "measure": ["arith.factor_sieve_s", "nu.rational_s", "nu.fourier_s", "nu.jump_s",
                "nu.circle_self_s", "window.hat_s", "window.hat_cos_evals"],
    "oracle": ["arith.factor_sieve_s", "classnum.cache_write_s", "classnum.cache_read_s",
               "classnum.psi_bar_s", "trace.trace_hecke_s", "qexp.oracle_s",
               "murmur.series_s"],
}
UNREACHED = {
    "figure": ["window.hat_s", "qexp.oracle_s"],
    "measure": ["classnum.sieve_s", "trace.l1_array_s", "trace.trace_hecke_s",
                "murmur.series_s", "qexp.oracle_s"],
    "oracle": ["nu.rational_s", "window.hat_s"],
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_traced_run(name):
    rec, outcomes = run.measure(TINY[name](), seconds=0.01, tracing=True, run_id=name)
    assert len(outcomes) == 2  # one untraced and one traced solve
    assert all(o.checks and not o.failed for o in outcomes)
    e2e = run.end_to_end_metrics(rec.spans, rss_mb=1.0)
    assert set(e2e) == set(run.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    layers = run.per_layer_metrics(rec.spans)
    assert set(layers) == set(run.PER_LAYER) | set(run.DERIVED)
    assert all(layers[m] > 0 for m in REACHED[name])
    assert all(layers[m] == 0 for m in UNREACHED[name])
    # the untraced solve recorded no layer spans
    untraced = [s["id"] for s in rec.spans if s["counters"].get("traced") is False]
    assert not any(s["parent"] in untraced for s in rec.spans)


def test_corrupted_reference_fails():
    fig = TINY["figure"]()
    rec = Recorder("ref")
    state = fig.setup(rec, None)
    fig.reference = fig.solve(state, rec).diagnostics["outputs"]
    clean = fig.solve(state, rec)
    assert not clean.failed and clean.diagnostics["ref_dev_max"] == 0.0

    fig.reference["r"]["1"][7] *= 1.0 + 1e-8
    fig.reference["den_total"]["0"] *= 1.0 - 1e-8
    corrupt = fig.solve(state, rec)
    assert sorted(corrupt.failed) == ["reference.den0", "reference.r1"]
    assert math.isclose(corrupt.diagnostics["ref_dev_max"], 1e-8, rel_tol=1e-3)
    fail_frac = len(corrupt.failed) / len(corrupt.checks)
    assert fail_frac > 0


def test_stored_reference_matches_figure_sizes():
    ref = json.loads(run.REFERENCE.read_text())
    fig = Figure()
    assert (ref["K"], ref["H"], ref["grid_points"], ref["q_max"]) == (
        fig.K, fig.H, fig.grid_points, fig.q_max
    )
    assert len(ref["r"]["0"]) == len(ref["r"]["1"]) == len(ref["nu"]) == fig.grid_points


def _span(i, parent, wall, name="x", **counters):
    return {"id": i, "parent": parent, "name": name, "wall_s": wall, "cpu_s": 0.0,
            "counters": counters}


def test_self_time_arithmetic():
    spans = [
        _span(0, None, 10.0, "solve"),
        _span(1, 0, 3.0, "a", n=2),
        _span(2, 1, 1.0, "b"),
        _span(3, 0, 2.5, "a", n=3),
        _span(4, 3, 0.5, "b"),
        _span(5, 0, 1.0, "c"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.5, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.0})
    (per_root,) = layer_totals(spans, [0])
    assert per_root["a"]["wall_s"] == pytest.approx(5.5)
    assert per_root["a"]["self_s"] == pytest.approx(4.0)
    assert per_root["b"]["self_s"] == pytest.approx(1.5)
    assert per_root["a"]["n"] == 5
    assert median_over([per_root, {}], "a", "n") == 2.5


def test_recorder_nests_and_skips_layers_when_untraced():
    rec = Recorder("r")
    with rec.stage("solve"):
        with rec.layer("hidden") as c:
            c["n"] = 1
    rec.tracing = True
    with rec.stage("solve"):
        with rec.layer("outer"):
            with rec.layer("inner") as c:
                c["n"] = 1
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("solve", None), ("solve", None), ("outer", 1), ("inner", 2)]
    for s in rec.spans:
        assert s["run_id"] == "r" and s["wall_s"] >= 0 and s["peak_rss_mb"] > 0


def test_untraced_layers_mark_steps_that_add_up_to_the_stage():
    rec = Recorder("r")
    for _ in range(3):
        with rec.stage("solve"):
            for _ in range(4):
                with rec.layer("x"):
                    pass
            rec.mark()
    assert len(rec.spans) == 3
    for s in rec.spans:
        assert len(s["steps"]) == 6
        assert sum(s["steps"]) == pytest.approx(s["wall_s"], rel=1e-9, abs=1e-12)


def test_calibrations_sit_between_steps_and_scale_them():
    speeds = iter([1.0, 2.0, 3.0, 4.0])
    rec = Recorder("r", calibrate=lambda: CAL_REF_S * next(speeds))
    rec.calibrate_every_s = 0.0
    with rec.stage("solve"):
        with rec.layer("x"):
            pass
        rec.mark()
    (span,) = rec.spans
    assert [k for k, _ in span["calibrations"]] == [0, 1, 2, 3]
    assert len(span["steps"]) == 3 and sum(span["steps"]) <= span["wall_s"]
    # step i scales by the median of the two calibrations before it and
    # the two after it: speeds (1, 2, 3), (1, 2, 3, 4) and (2, 3, 4)
    t = span["steps"]
    assert scaled_steps(span) == pytest.approx([t[0] / 2.0, t[1] / 2.5, t[2] / 3.0])
    span["calibrations"] = [[0, CAL_REF_S], [3, 3 * CAL_REF_S]]
    assert scaled_steps(span) == pytest.approx([t / 2.0 for t in span["steps"]])


def test_step_median_sum():
    # each step's outlier is taken out on its own: medians 2 and 3
    spans = [{"steps": [1.0, 5.0]}, {"steps": [9.0, 2.0]}, {"steps": [2.0, 3.0]}]
    assert step_median_sum(spans) == 5.0
    with pytest.raises(ValueError):
        step_median_sum([{"steps": [1.0]}, {"steps": [1.0, 2.0]}])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    units = {m: u for m, (_, _, u) in run.PER_LAYER.items()} | run.DERIVED
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
