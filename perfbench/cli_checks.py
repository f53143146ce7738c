"""The cli_closed_form workload: its command sequence and output checks.

Every command's output is compared with the closed forms of
``spinmanifold.analytic`` recomputed in the benchmark's own process, under
verify's rule (absolute deviation at most 1e-12 or relative at most 1e-9).
The sweeps below restate the CLI's presets, so a change to a preset's
meaning shows up as a failed check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from worker import agrees

#: curve label, N, 2s of the fig1/fig3 presets
FIGURE_CURVES = (("N2_s1/2", 2, 1), ("N3_s1", 3, 2), ("N6_s3/2", 6, 3), ("N9_s2", 9, 4))
SAMPLES = 200  # the CLI's default --samples
SCAN_STEPS = 61  # field-optimize --scan-direction grid per angle


def commands(seed: int):
    """(name, argv) of the command sequence; the seed draws J and the angles."""
    rng = random.Random(seed)
    j = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 8.0)
    theta, theta_p = rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.2, math.pi - 0.2)
    phi, phi_p = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi)
    return [
        ("curvature_fig1", ["curvature", "--preset", "fig1"]),
        ("speed_fig3", ["speed", "--preset", "fig3"]),
        ("curvature_vs_speed", ["curvature-vs-speed", "--n", "4", "--two-s", "1", "--j", repr(j)]),
        ("curvature_fig6", ["curvature", "--preset", "fig6"]),
        (
            "field_optimize_scan",
            ["field-optimize", "--scan-direction", "--h-over-j", "1", "--theta", repr(theta),
             "--phi", repr(phi), "--theta-prime", repr(theta_p), "--phi-prime", repr(phi_p)],
        ),
        ("verify_topology", ["verify", "--only", "topology"]),
    ]


def _argv_value(argv, flag: str) -> float:
    return float(argv[argv.index(flag) + 1])


def _thetas(include_poles: bool):
    import numpy as np

    thetas = np.linspace(0.0, math.pi, SAMPLES)
    return [float(t) for t in (thetas if include_poles else thetas[1:-1])]


def _expected_curvature_fig1():
    from spinmanifold import analytic
    from spinmanifold.spin_ops import SpinSystem

    rows = []
    for label, n, two_s in FIGURE_CURVES:
        sys = SpinSystem(n, two_s, 1.0)
        for t in _thetas(n == 2 and two_s == 1):
            rows.append((t, analytic.scalar_curvature(sys, t), label))
    return ["theta", "R", "curve"], rows


def _expected_speed_fig3():
    from spinmanifold import analytic
    from spinmanifold.spin_ops import SpinSystem

    rows = []
    for label, n, two_s in FIGURE_CURVES:
        sys = SpinSystem(n, two_s, 1.0)
        rows.extend((t, analytic.speed_closed_form(sys, t), label) for t in _thetas(True))
    return ["theta", "v", "curve"], rows


def _expected_curvature_vs_speed(j: float):
    import numpy as np
    from spinmanifold import analytic
    from spinmanifold.spin_ops import SpinSystem

    sys = SpinSystem(4, 1, j)
    ext = analytic.speed_extrema(sys)
    rows = []
    for branch, lo in (("upper", 0.0), ("lower", ext.v_half_pi)):
        for v in np.linspace(lo, ext.v_max, SAMPLES // 2):
            rows.append((float(v), analytic.curvature_from_speed(sys, float(v), branch), branch))
    return ["v", "R", "branch"], rows


def _expected_curvature_fig6():
    from spinmanifold import analytic
    from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

    sys = SpinSystem(6, 3, 1.0)
    g_thth = sys.n_sites * sys.s / 2.0
    rows = []
    for ratio in (0.0, 3.0, 10.0):
        label = f"hJ{ratio:g}"
        fld = FieldConfig(ratio, Direction(0.0, 0.0))

        def profile(theta, fld=fld):
            return analytic.metric_closed_form_field(sys, theta, 0.0, fld).g_chi_chi

        for t in _thetas(False):
            if ratio == 0.0:
                r = analytic.scalar_curvature(sys, t)
            else:
                r = analytic.curvature_numeric_from_profile(g_thth, profile, t)
            rows.append((t, r, label))
    return ["theta", "R", "curve"], rows


def _check_csv(text: str, header, rows) -> bool:
    got = list(csv.reader(io.StringIO(text)))
    if not got or got[0] != header or len(got) - 1 != len(rows):
        return False
    for line, want in zip(got[1:], rows):
        if len(line) != len(want):
            return False
        for cell, value in zip(line, want):
            if isinstance(value, str):
                if cell != value:
                    return False
            elif not agrees(float(cell), value):
                return False
    return True


def _check_field_optimize(text: str, argv) -> bool:
    import numpy as np
    from spinmanifold import analytic
    from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

    theta, phi = _argv_value(argv, "--theta"), _argv_value(argv, "--phi")
    direction = Direction(_argv_value(argv, "--theta-prime"), _argv_value(argv, "--phi-prime"))
    sys = SpinSystem(4, 1, 1.0)
    record = json.loads(text)
    opt = analytic.min_speed_field(sys, theta, phi, direction)
    ok = (
        agrees(record["h_over_j_min"], opt.ratio)
        and agrees(record["v_min"], opt.v_min)
        and record["reduction_applied"] == opt.reduction_applied
    )
    speeds = []
    for tp in np.linspace(0.0, math.pi, SCAN_STEPS):
        for pp in np.linspace(0.0, 2.0 * math.pi, SCAN_STEPS, endpoint=False):
            fld = FieldConfig(1.0, Direction(float(tp), float(pp)))
            g = analytic.metric_closed_form_field(sys, theta, phi, fld)
            speeds.append((math.sqrt(max(g.g_chi_chi, 0.0)), float(tp), float(pp)))
    scan = record["scan"]
    for key, best in (("min", min(speeds, key=lambda r: r[0])), ("max", max(speeds, key=lambda r: r[0]))):
        got = scan[key]
        ok = (
            ok
            and agrees(got["v"], best[0])
            and agrees(got["theta_prime"], best[1])
            and agrees(got["phi_prime"], best[2])
        )
    return ok and scan["h_over_j"] == 1.0


def _verify_topology_table() -> str:
    from spinmanifold import verify

    return verify.run_full_suite(only="topology").format_table() + "\n"


class Checker:
    """Expected outputs for one seed, computed once and reused for every repetition."""

    def __init__(self, seed: int):
        self.commands = commands(seed)
        self._expected = {}

    def rows(self, name: str) -> int:
        """Output rows (or records) the command is checked on."""
        return {"field_optimize_scan": 1, "verify_topology": 4}.get(name) or len(self._table(name)[1])

    def _table(self, name: str):
        if name not in self._expected:
            argv = dict(self.commands)[name]
            build = {
                "curvature_fig1": _expected_curvature_fig1,
                "speed_fig3": _expected_speed_fig3,
                "curvature_vs_speed": lambda: _expected_curvature_vs_speed(_argv_value(argv, "--j")),
                "curvature_fig6": _expected_curvature_fig6,
                "verify_topology": lambda: (None, _verify_topology_table()),
            }[name]
            self._expected[name] = build()
        return self._expected[name]

    def check(self, name: str, exit_code: int, text: str) -> bool:
        """True when the command exited 0 and every output value is as expected."""
        if exit_code != 0:
            return False
        try:
            if name == "field_optimize_scan":
                return _check_field_optimize(text, dict(self.commands)[name])
            header, expected = self._table(name)
            if name == "verify_topology":
                lines = text.splitlines()
                rows_pass = [line.endswith(" PASS") for line in lines[1:-1]]
                return text == expected and rows_pass == [True] * 4 and lines[-1] == "overall: PASS"
            return _check_csv(text, header, expected)
        except (ValueError, KeyError, TypeError):
            return False
