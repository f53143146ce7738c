"""One fresh-process task of the benchmark: a workload repetition or a layer probe.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py <task> --seed N [--setup-only] [--spans PATH]

Tasks are ``verify_suite``, ``oracle_ladder``, ``cli_main`` (one CLI
command run in-process, its arguments after ``--``), ``import``,
``total_spin_N12``, ``field_hamiltonian_N10`` and ``field_first_call_N10``.
For ``cli_main``, ``--stdout PATH`` names the file for the command's output.
The last line of standard output is one JSON object.  ``t_first_op`` is a
``time.monotonic()`` reading, a clock shared by all processes on the host,
so the parent can measure set-up from the moment it started this process.
With ``--setup-only`` the task stops right before its first timed
operation.  With ``--spans`` the package is traced (see ``tracing.py``) and
the spans are written to PATH at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import resource
import statistics
import sys
import time

#: verify's pass rule: absolute deviation under the floor, or relative under tol.
ABS_FLOOR = 1e-12
REL_TOL = 1e-9

#: (N, 2s) rungs of the oracle ladder, smallest Hilbert space first.
LADDER = ((4, 1), (3, 3), (6, 1), (10, 1), (12, 1))
LADDER_WARM_CALLS = 20
FIELD_RUNG = (10, 1)
FIELD_DIRECTIONS = 2
FIELD_CALLS_PER_DIRECTION = 10

VERIFY_CHECKS = 17


def agrees(a: float, b: float) -> bool:
    """True when a and b agree under verify's rule; False for any non-finite value."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    dev = abs(a - b)
    return dev <= ABS_FLOOR or dev / max(abs(a), abs(b), ABS_FLOOR) <= REL_TOL


def all_agree(xs, ys) -> bool:
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(agrees(float(x), float(y)) for x, y in zip(xs, ys))


def tag(n: int, two_s: int) -> str:
    return f"N{n}_2s{two_s}"


class Task:
    """Result fields shared by every task; ``begin`` marks the first timed op."""

    def __init__(self):
        self.out = {"attempted": 0, "failed": 0, "points": 0}

    def begin(self, setup_only: bool):
        self.out["t_first_op"] = time.monotonic()
        if setup_only:
            self.finish()
            raise SystemExit(0)
        self._t0 = time.perf_counter()

    def end(self):
        self.out["wall_s"] = time.perf_counter() - self._t0

    def op(self, ok: bool, points: int = 0):
        self.out["attempted"] += 1
        self.out["failed"] += 0 if ok else 1
        self.out["points"] += points if ok else 0

    def finish(self):
        self.out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(self.out))


def _grid_points(entry) -> int:
    words = entry.grid.split()
    return int(words[0]) if len(words) == 2 and words[1] == "points" else 0


def finiteness_gate(verify) -> dict:
    """Count the non-finite values the report's deviation tracker is given.

    ``_Deviation`` lets a NaN through: ``max`` keeps the old value and
    ``dev > floor`` is False, so a NaN deviation leaves the check passing.
    Both of its entry points are wrapped (``add_arrays`` stops calling
    ``add`` once it is vectorised), and the counts are returned live.
    """
    import numpy as np

    seen = {"values": 0, "non_finite": 0}
    cls = verify._Deviation
    add, add_arrays = cls.add, cls.add_arrays

    def checked_add(self, a, b):
        seen["values"] += 1
        if not (math.isfinite(a) and math.isfinite(b)):
            seen["non_finite"] += 1
        return add(self, a, b)

    def checked_add_arrays(self, a, b):
        seen["values"] += 1
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            seen["non_finite"] += 1
        return add_arrays(self, a, b)

    cls.add, cls.add_arrays = checked_add, checked_add_arrays
    return seen


def verify_suite(task: Task, args):
    from spinmanifold import verify

    seen = finiteness_gate(verify)
    task.begin(args.setup_only)
    report = verify.run_full_suite()
    task.end()
    clean = seen["non_finite"] == 0 and seen["values"] > 0
    task.out["non_finite_values"] = seen["non_finite"]
    entries = list(report.entries)
    for entry in entries:
        finite = math.isfinite(entry.max_abs) and math.isfinite(entry.max_rel)
        task.op(bool(entry.passed) and finite and clean, _grid_points(entry))
    if len(entries) != VERIFY_CHECKS:
        task.op(False)


def ladder_inputs(seed: int):
    """Seed-drawn (theta, phi, chi) per rung and field directions at the field rung."""
    rng = random.Random(seed)
    rungs = []
    for n, two_s in LADDER:
        points = [
            (rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi))
            for _ in range(1 + LADDER_WARM_CALLS)
        ]
        rungs.append((n, two_s, points))
    fields = []
    for _ in range(FIELD_DIRECTIONS):
        ratio = rng.uniform(0.5, 2.0)
        direction = (rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2 * math.pi))
        points = [
            (rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2.0))
            for _ in range(FIELD_CALLS_PER_DIRECTION)
        ]
        fields.append((ratio, direction, points))
    return rungs, fields


def oracle_ladder(task: Task, args):
    from spinmanifold import analytic, fs_metric
    from spinmanifold.evolution import CoordinatePoint
    from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

    rungs, fields = ladder_inputs(args.seed)
    systems = [SpinSystem(n, two_s) for n, two_s, _ in rungs]
    field_sys = SpinSystem(*FIELD_RUNG)
    field_cfgs = [FieldConfig(r, Direction(*d)) for r, d, _ in fields]
    timings = {}

    def point(sys, theta, phi, chi, fld=None):
        t0 = time.perf_counter()
        num = fs_metric.metric_numeric(sys, CoordinatePoint(theta, phi, chi), fld)
        elapsed = time.perf_counter() - t0
        if fld is None:
            ref = analytic.metric_closed_form(sys, theta)
        else:
            ref = analytic.metric_closed_form_field(sys, theta, phi, fld)
        task.op(all_agree(num.components.ravel(), ref.components.ravel()), 1)
        return elapsed

    task.begin(args.setup_only)
    for sys, (n, two_s, points) in zip(systems, rungs):
        cold = point(sys, *points[0])
        warm = [point(sys, *p) for p in points[1:]]
        timings[f"metric_numeric_cold_s.{tag(n, two_s)}"] = cold
        timings[f"metric_numeric_warm_ms.{tag(n, two_s)}"] = 1e3 * statistics.median(warm)
    field_warm = []
    for fld, (_, _, points) in zip(field_cfgs, fields):
        point(field_sys, *points[0], fld)  # pays this direction's eigendecomposition
        field_warm.extend(point(field_sys, *p, fld) for p in points[1:])
    task.end()
    timings[f"metric_numeric_warm_ms.{tag(*FIELD_RUNG)}_field"] = 1e3 * statistics.median(field_warm)
    task.out["timings"] = timings


def cli_main(task: Task, args):
    """One CLI command in-process (traced runs), stdout to ``--stdout``."""
    from spinmanifold import cli

    task.begin(args.setup_only)
    with open(args.stdout, "w") as fh, contextlib.redirect_stdout(fh):
        code = cli.main(args.argv)
    task.end()
    task.out["exit_code"] = code


def import_probe(task: Task, args):
    t0 = time.perf_counter()
    import spinmanifold  # noqa: F401

    task.out["import_s"] = time.perf_counter() - t0
    task.begin(args.setup_only)
    task.end()


def total_spin_probe(task: Task, args):
    """Cold sum_j S_j^y at N=12, s=1/2 (d=4096)."""
    from spinmanifold.spin_ops import SpinSystem, total_spin_operator

    sys = SpinSystem(12, 1)
    task.begin(args.setup_only)
    op = total_spin_operator(sys, "y")
    task.end()
    mat = op.matrix
    task.op(mat.shape == (sys.dim, sys.dim) and bool(abs(mat[1, 0] - 0.5j) < 1e-15))


def field_inputs(seed: int):
    rng = random.Random(seed ^ 0x5EED)
    return [(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0.0, 2 * math.pi)) for _ in range(2)]


def field_hamiltonian_probe(task: Task, args):
    """Cold H = 2J sum S^z S^z + h sum S.n' at N=10, s=1/2 (d=1024)."""
    import numpy as np
    from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem, build_field_hamiltonian

    sys = SpinSystem(10, 1)
    fld = FieldConfig(1.0, Direction(*field_inputs(args.seed)[0]))
    task.begin(args.setup_only)
    ham = build_field_hamiltonian(sys, fld)
    task.end()
    task.op(bool(np.allclose(ham.matrix, ham.matrix.conj().T, rtol=0.0, atol=1e-12)))


def field_first_call_probe(task: Task, args):
    """First field tangent_states for a new direction minus the median warm call.

    The first direction pays the dense operator builds too; the second pays
    only what is new per direction, the generator's eigendecomposition.
    """
    import numpy as np
    from spinmanifold.evolution import CoordinatePoint, tangent_states
    from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

    sys = SpinSystem(10, 1)
    first, second = (FieldConfig(1.0, Direction(*d)) for d in field_inputs(args.seed))
    rng = random.Random(args.seed)
    points = [CoordinatePoint(rng.uniform(0.05, 3.0), rng.uniform(0.0, 6.0), rng.uniform(0.0, 2.0)) for _ in range(12)]

    def timed(fld, pt):
        t0 = time.perf_counter()
        tang = tangent_states(sys, pt, fld)
        elapsed = time.perf_counter() - t0
        task.op(all(bool(np.all(np.isfinite(v))) for v in (tang.d_theta, tang.d_phi, tang.d_chi)))
        return elapsed

    task.begin(args.setup_only)
    timed(first, points[0])
    warm = statistics.median(timed(first, pt) for pt in points[1:-1])
    new_direction = timed(second, points[-1])
    task.end()
    task.out["field_first_call_s"] = new_direction - warm


TASKS = {
    "verify_suite": verify_suite,
    "oracle_ladder": oracle_ladder,
    "cli_main": cli_main,
    "import": import_probe,
    "total_spin_N12": total_spin_probe,
    "field_hamiltonian_N10": field_hamiltonian_probe,
    "field_first_call_N10": field_first_call_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=sorted(TASKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the package and write spans here")
    parser.add_argument("--stdout", help="cli_main: file for the command's output")
    argv = sys.argv[1:] if argv is None else list(argv)
    command = []
    if "--" in argv:  # cli_main: the command's own arguments follow "--"
        split = argv.index("--")
        argv, command = argv[:split], argv[split + 1:]
    args = parser.parse_args(argv)
    args.argv = command
    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.Tracer(run_id=f"{args.task}-{args.seed}")
        tracing.install(tracer)
    task = Task()
    try:
        TASKS[args.task](task, args)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    task.finish()
    return 0


if __name__ == "__main__":
    sys.exit(main())
