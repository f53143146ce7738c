"""Schema smoke test of the benchmark's own files and output; it never asserts a timing.

Run from the root of a checkout: ``python -m pytest -q perfbench/test_schema.py``.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _rationale():
    with open(os.path.join(HERE, "rationale.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END_UNITS
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layers == run.PER_LAYER_UNITS
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in list(run.END_TO_END_UNITS.values()) + list(layers.values()))
    assert all(m["better"] in ("lower", "higher") for m in bench["end_to_end"] + bench["per_layer"])


def test_rationale_covers_every_workload_and_metric():
    rationale = _rationale()
    assert set(rationale["workloads"]) == set(run.WORKLOADS)
    assert set(rationale["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert set(rationale["per_layer"]) == set(run.PER_LAYER_UNITS)
    for entry in rationale["per_layer"].values():
        assert entry["definition"] and entry["source"] in ("spans", "probe", "untraced repetition")


def _synthetic_spans():
    # name, start_ns, end_ns, parent, size
    return [
        ["verify.run_full_suite", 0, 1000, -1, 0],
        ["fs_metric.metric_numeric", 100, 600, 0, 0],
        ["evolution.state_at", 150, 250, 1, 16],
        ["spin_ops.ising_pair_sums", 160, 170, 2, 0],
        ["evolution.tangent_states", 300, 500, 1, 0],
        ["analytic.metric_closed_form", 700, 800, 0, 0],
    ]


def test_end_to_end_output_schema():
    reps = [{"wall_s": 2.0, "points": 100, "setup": [0.5, 0.6], "peak_rss_mb": 90.0, "timings": {}}] * 3
    metrics = run.end_to_end_metrics(reps)
    assert list(metrics) == list(run.END_TO_END_UNITS)
    for name, m in metrics.items():
        assert m["unit"] == run.END_TO_END_UNITS[name] and isinstance(m["value"], float)


def test_per_layer_output_schema():
    summary = tracing.SpanSummary([_synthetic_spans()])
    probes = dict.fromkeys(
        ["import_s", "total_spin_s", "total_spin_rss_mb", "field_hamiltonian_s", "field_first_call_s"], 1.0
    )
    metrics = run.per_layer_metrics(summary, probes, {}, 19584, 0.1)
    assert list(metrics) == list(run.PER_LAYER_UNITS)
    for name, m in metrics.items():
        assert m["unit"] == run.PER_LAYER_UNITS[name]
        assert isinstance(m["value"], int if m["unit"] == "count" else (int, float))
    assert metrics["fs_metric.metric_numeric.calls"]["value"] == 1
    assert metrics["evolution.amplitudes_per_point"]["value"] == 16


def test_self_time_subtracts_child_spans():
    summary = tracing.SpanSummary([_synthetic_spans()])
    assert summary.self_ns["verify"] == 1000 - 500 - 100
    assert summary.self_ns["fs_metric"] == 500 - 100 - 200
    assert summary.self_ns["evolution"] == 100 - 10 + 200
    assert summary.total_s("verify.run_full_suite") == 1000 / 1e9


def test_p99_needs_ten_samples_beyond_it():
    assert tracing.percentile_us(list(range(999)), 0.99) == 0.0
    assert tracing.percentile_us(list(range(1000)), 0.99) > 0.0
    assert tracing.percentile_us([], 0.5) == 0.0


def test_traced_worker_writes_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    code = (
        "import sys; sys.path.insert(0, {here!r}); import tracing;"
        "t = tracing.Tracer('smoke'); n = tracing.install(t);"
        "from spinmanifold import fs_metric; from spinmanifold.evolution import CoordinatePoint;"
        "from spinmanifold.spin_ops import SpinSystem;"
        "fs_metric.metric_numeric(SpinSystem(2, 1), CoordinatePoint(0.3, 0.1, 0.2));"
        "t.dump({out!r}); print(n)"
    ).format(here=HERE, out=str(spans_path))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) > 0
    names = {s[0] for s in tracing.load_spans(str(spans_path))}
    assert {"fs_metric.metric_numeric", "evolution.state_at", "evolution.tangent_states"} <= names
    assert all(n.split(".", 1)[0] in tracing.LAYERS for n in names)


def test_finiteness_gate_counts_what_the_deviation_tracker_lets_through(monkeypatch):
    import numpy as np
    import worker
    from spinmanifold import verify

    for name in ("add", "add_arrays"):  # restored after the test
        monkeypatch.setattr(verify._Deviation, name, getattr(verify._Deviation, name))
    seen = worker.finiteness_gate(verify)
    dev = verify._Deviation()
    dev.add(1.0, 1.0)
    dev.add_arrays(np.array([1.0, np.nan]), np.array([1.0, 1.0]))
    assert dev.result("nan", "2 points", 1e-9).passed  # the defect the gate is there for
    assert seen == {"values": 4, "non_finite": 2}


def test_runner_refuses_a_directory_without_the_package(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "verify_suite", "--seed", "1", "--seconds", "1"]) == 2
