"""spinmanifold benchmark: one workload per run, every repetition in a fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

Workloads (``rationale.json`` records why each was chosen):

- ``verify_suite``: ``run_full_suite()`` on its default grids;
- ``oracle_ladder``: oracle metric points up the (N, 2s) ladder to d=4096,
  plus field-dressed points at d=1024;
- ``cli_closed_form``: six closed-form CLI commands, each a fresh process.

Load shape: a closed loop with one caller.  Repetitions run one after
another, each in a fresh single-threaded process (BLAS and OpenMP pinned to
one thread), until ``--seconds`` is used up; each is followed by set-up-only
processes.  Times are reported as the fastest repetition or sample, memory
as the median.  ``--trace 1`` instead makes one traced repetition, one
untraced repetition and the probes of the layers the workload exercises,
and reports the per-layer metrics.  Every output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cli_checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("verify_suite", "oracle_ladder", "cli_closed_form")
#: The worker task whose set-up each workload pays: cli_closed_form's is the import.
SETUP_TASK = {"verify_suite": "verify_suite", "oracle_ladder": "oracle_ladder", "cli_closed_form": "import"}

#: Thread pinning for every process the benchmark starts, and for itself.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

MIN_REPS = 3
SETUP_ONLY_PER_REP = 2
SETUP_FILL_MARGIN_S = 2.0
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150.0
SCRATCH = ".perfbench_run"

END_TO_END_UNITS = {
    "wall_s": "s",
    "oracle_points_per_s": "points/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LADDER_TAGS = ("N4_2s1", "N3_2s3", "N6_2s1", "N10_2s1", "N12_2s1", "N10_2s1_field")

PER_LAYER_UNITS = {
    "import.spinmanifold_s": "s",
    "spin_ops.total_spin_cold_s.N12_2s1": "s",
    "spin_ops.total_spin_peak_rss_mb.N12_2s1": "MB",
    "spin_ops.field_hamiltonian_s.N10_2s1": "s",
    "spin_ops.self_s": "s",
    "evolution.self_s": "s",
    "evolution.state_at.calls": "count",
    "evolution.tangent_states.calls": "count",
    "evolution.tangent_states.p50_us": "us",
    "evolution.tangent_states.p99_us": "us",
    "evolution.field_first_call_s.N10_2s1": "s",
    "evolution.amplitudes_per_point": "amplitudes",
    "fs_metric.self_s": "s",
    "fs_metric.metric_numeric.calls": "count",
    "fs_metric.metric_numeric.p50_us": "us",
    "fs_metric.metric_numeric.p99_us": "us",
    **{f"fs_metric.metric_numeric_warm_ms.{t}": "ms" for t in LADDER_TAGS},
    "fs_metric.metric_numeric_cold_s.N12_2s1": "s",
    "fs_metric.energy_uncertainty.p50_us": "us",
    "analytic.self_s": "s",
    "analytic.calls": "count",
    "analytic.metric_closed_form_field.p50_us": "us",
    "analytic.curvature_integral_s": "s",
    "verify.self_s": "s",
    "verify.metric_equivalence_s": "s",
    "verify.speed_uncertainty_s": "s",
    "verify.topology_s": "s",
    "verify.section7_s": "s",
    "verify.points": "count",
    **{f"cli.{name}_s": "s" for name, _ in cli_checks.commands(0)},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Child:
    """A finished child process: exit code, wall time, peak RSS and its JSON result."""

    def __init__(self, argv, env, stdout_path):
        with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
            self.t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.monotonic() - self.t_spawn
            proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(stdout_path) as fh:
            self.stdout = fh.read()

    def result(self) -> dict:
        """The worker's JSON result; empty when it failed before printing one."""
        lines = self.stdout.strip().splitlines()
        if self.exit_code != 0 or not lines:
            return {}
        try:
            return json.loads(lines[-1])
        except ValueError:
            return {}


class Bench:
    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.scratch = os.path.join(root, SCRATCH)
        self.env = dict(os.environ, **PINNED, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.attempted = 0
        self.failed = 0
        self._n = 0
        self.checker = cli_checks.Checker(seed)

    def _path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.scratch, f"{self._n:04d}-{stem}")

    def op(self, ok: bool):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def worker(self, task: str, *extra: str, spans: str = None) -> tuple:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), task, "--seed", str(self.seed)]
        if spans:
            argv += ["--spans", spans]
        argv += extra
        child = Child(argv, self.env, self._path(task))
        result = child.result()
        if not result:
            self.op(False)
        else:
            self.attempted += result["attempted"]
            self.failed += result["failed"]
        return child, result

    def setup_samples(self, task: str) -> list:
        samples = []
        for _ in range(SETUP_ONLY_PER_REP):
            child, result = self.worker(task, "--setup-only")
            if result:
                samples.append(result["t_first_op"] - child.t_spawn)
        return samples

    # -- one untraced repetition per workload -------------------------------------

    def rep_worker(self, task: str) -> dict:
        child, result = self.worker(task)
        if not result:
            return {}
        return {
            "wall_s": result["wall_s"],
            "points": result["points"],
            "setup": [result["t_first_op"] - child.t_spawn],
            "peak_rss_mb": child.peak_rss_mb,
            "timings": result.get("timings", {}),
        }

    def rep_cli(self) -> dict:
        walls, rss, points = {}, [], 0
        for name, argv in self.checker.commands:
            code = "import sys; from spinmanifold.cli import main; sys.exit(main())"
            child = Child([sys.executable, "-c", code, *argv], self.env, self._path(name))
            ok = self.checker.check(name, child.exit_code, child.stdout)
            self.op(ok)
            points += self.checker.rows(name) if ok else 0
            walls[name] = child.wall_s
            rss.append(child.peak_rss_mb)
        return {
            "wall_s": sum(walls.values()),
            "points": points,
            "setup": [],
            "peak_rss_mb": max(rss),
            "timings": walls,
        }

    def rep(self, workload: str) -> dict:
        return self.rep_cli() if workload == "cli_closed_form" else self.rep_worker(workload)

    # -- layer probes, each in a fresh process --------------------------------------

    def probes(self, workload: str):
        """The probes of the layers a workload exercises; None when one failed."""
        if workload == "cli_closed_form":
            imports = [r.get("import_s") for _, r in (self.worker("import") for _ in range(IMPORT_PROBES))]
            return {"import_s": _median(imports)} if all(imports) else None
        if workload == "oracle_ladder":
            total_spin, ts = self.worker("total_spin_N12")
            _, fh = self.worker("field_hamiltonian_N10")
            _, ff = self.worker("field_first_call_N10")
            if not (ts and fh and ff):
                return None
            return {
                "total_spin_s": ts["wall_s"],
                "total_spin_rss_mb": total_spin.peak_rss_mb,
                "field_hamiltonian_s": fh["wall_s"],
                "field_first_call_s": ff["field_first_call_s"],
            }
        return {}

    # -- traced repetition ---------------------------------------------------------

    def traced(self, workload: str):
        """One traced repetition: (span lists, traced wall_s, oracle points)."""
        span_lists, wall, points = [], 0.0, 0
        if workload == "cli_closed_form":
            for name, argv in self.checker.commands:
                spans, out = self._path(name + ".spans"), self._path(name + ".out")
                child, result = self.worker("cli_main", "--stdout", out, "--", *argv, spans=spans)
                if not result:
                    return None
                with open(out) as fh:
                    self.op(self.checker.check(name, result["exit_code"], fh.read()))
                wall += child.wall_s
                span_lists.append(tracing.load_spans(spans))
        else:
            spans = self._path(workload + ".spans")
            child, result = self.worker(workload, spans=spans)
            if not result:
                return None
            wall, points = result["wall_s"], result["points"]
            span_lists.append(tracing.load_spans(spans))
        return span_lists, wall, points


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(reps: list) -> dict:
    """The end-to-end metrics over a run's repetitions.

    Times are the fastest repetition (set-up: the fastest sample).  On a
    shared host, interference only ever adds time, in phases that last
    tens of seconds, so the minimum estimates the program's own cost far
    more steadily than the median does (see rationale.json).  Memory does
    not depend on the host and is the median.
    """
    values = {
        "wall_s": min(r["wall_s"] for r in reps),
        "oracle_points_per_s": max(r["points"] / r["wall_s"] for r in reps),
        "setup_s": min(s for r in reps for s in r["setup"]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(summary, probes: dict, timings: dict, verify_points: int, overhead_s: float) -> dict:
    """Every per-layer metric from the span summary, the probes and the untraced timings."""
    s = summary
    values = {
        "import.spinmanifold_s": probes.get("import_s", 0.0),
        "spin_ops.total_spin_cold_s.N12_2s1": probes.get("total_spin_s", 0.0),
        "spin_ops.total_spin_peak_rss_mb.N12_2s1": probes.get("total_spin_rss_mb", 0.0),
        "spin_ops.field_hamiltonian_s.N10_2s1": probes.get("field_hamiltonian_s", 0.0),
        "spin_ops.self_s": s.layer_self_s("spin_ops"),
        "evolution.self_s": s.layer_self_s("evolution"),
        "evolution.state_at.calls": s.count("evolution.state_at"),
        "evolution.tangent_states.calls": s.count("evolution.tangent_states"),
        "evolution.tangent_states.p50_us": s.p50_us("evolution.tangent_states"),
        "evolution.tangent_states.p99_us": s.p99_us("evolution.tangent_states"),
        "evolution.field_first_call_s.N10_2s1": probes.get("field_first_call_s", 0.0),
        "evolution.amplitudes_per_point": s.amplitudes_per_point(),
        "fs_metric.self_s": s.layer_self_s("fs_metric"),
        "fs_metric.metric_numeric.calls": s.count("fs_metric.metric_numeric"),
        "fs_metric.metric_numeric.p50_us": s.p50_us("fs_metric.metric_numeric"),
        "fs_metric.metric_numeric.p99_us": s.p99_us("fs_metric.metric_numeric"),
        **{
            f"fs_metric.metric_numeric_warm_ms.{t}": timings.get(f"metric_numeric_warm_ms.{t}", 0.0)
            for t in LADDER_TAGS
        },
        "fs_metric.metric_numeric_cold_s.N12_2s1": timings.get("metric_numeric_cold_s.N12_2s1", 0.0),
        "fs_metric.energy_uncertainty.p50_us": s.p50_us("fs_metric.energy_uncertainty"),
        "analytic.self_s": s.layer_self_s("analytic"),
        "analytic.calls": sum(n for name, n in s.calls.items() if name.startswith("analytic.")),
        "analytic.metric_closed_form_field.p50_us": s.p50_us("analytic.metric_closed_form_field"),
        "analytic.curvature_integral_s": s.total_s("analytic.curvature_integral"),
        "verify.self_s": s.layer_self_s("verify"),
        "verify.metric_equivalence_s": s.total_s("verify.run_metric_equivalence"),
        "verify.speed_uncertainty_s": s.total_s("verify.run_speed_uncertainty_identity"),
        "verify.topology_s": s.total_s("verify.run_topology_suite"),
        "verify.section7_s": s.total_s("verify.run_section7_vectors"),
        "verify.points": verify_points,
        **{f"cli.{name}_s": timings.get(name, 0.0) for name, _ in cli_checks.commands(0)},
        "cli.self_s": s.layer_self_s("cli"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def run_untraced(bench: Bench, workload: str, seconds: float) -> dict:
    reps, started = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        rep = bench.rep(workload)
        if not rep:
            break
        rep["setup"] += bench.setup_samples(SETUP_TASK[workload])
        if not rep["setup"]:
            break
        reps.append(rep)
        rep_s = time.monotonic() - t0
        if len(reps) >= MIN_REPS and time.monotonic() - started + rep_s > seconds:
            break
    if not reps:
        return {}
    # The time too short for another repetition buys further set-up samples.
    while time.monotonic() - started + SETUP_FILL_MARGIN_S < seconds:
        reps[-1]["setup"] += bench.setup_samples(SETUP_TASK[workload])
    for r in reps:
        print(f"rep: wall_s={r['wall_s']:.4f} setup_s={min(r['setup']):.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} points={r['points']}")
    print(f"repetitions: {len(reps)}, set-up samples: {sum(len(r['setup']) for r in reps)}")
    return end_to_end_metrics(reps)


def run_traced(bench: Bench, workload: str) -> dict:
    """Per-layer metrics of one workload; those of layers it never calls read 0."""
    traced = bench.traced(workload)
    if traced is None:
        return {}
    span_lists, traced_wall, traced_points = traced
    untraced = bench.rep(workload)
    probes = bench.probes(workload)
    if not untraced or probes is None:
        return {}
    return per_layer_metrics(
        tracing.SpanSummary(span_lists),
        probes,
        untraced["timings"],
        traced_points if workload == "verify_suite" else 0,
        traced_wall - untraced["wall_s"],
    )


def environment(seed: int) -> dict:
    """Machine, toolchain and pinning facts for the record, read-only."""
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
            "thread_pinning": PINNED}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
        with open("/proc/meminfo") as fh:
            info["mem_total_kb"] = int(next(l for l in fh if l.startswith("MemTotal")).split()[1])
    except (OSError, StopIteration, ValueError):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinmanifold benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinmanifold", "__init__.py")):
        print("error: src/spinmanifold not found; run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, os.path.join(root, "src"))

    bench = Bench(root, args.seed)
    shutil.rmtree(bench.scratch, ignore_errors=True)
    os.makedirs(bench.scratch)
    try:
        if args.trace:
            metrics = run_traced(bench, args.workload)
        else:
            metrics = run_untraced(bench, args.workload, args.seconds)
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
    if not metrics:
        print("error: a repetition or probe produced no result", file=sys.stderr)
        return 1
    print("environment:", json.dumps(environment(args.seed), sort_keys=True))
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"fail_ratio: {ratio:g} ({bench.failed} failed of {bench.attempted} ops_attempted)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
