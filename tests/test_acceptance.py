"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so a `pytest -s` run doubles as an
acceptance report.  Every criterion compares the exact Hilbert-space
oracle against the closed forms (or the published worked numbers).
"""

import math

import numpy as np
import pytest

from spinmanifold import analytic
from spinmanifold.analytic import (
    ManifoldSpec,
    angular_defect,
    curvature_from_speed,
    curvature_numeric_from_profile,
    gauss_bonnet_euler,
    metric_closed_form,
    scalar_curvature,
    speed_closed_form,
    speed_extrema,
    thermo_limit,
)
from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem
from spinmanifold.verify import SweepGrid, run_oracle_checks, run_section7_vectors

ZERO_FIELD_SYSTEMS = [
    SpinSystem(2, 1),
    SpinSystem(3, 2),
    SpinSystem(4, 1),
    SpinSystem(2, 3),
    SpinSystem(3, 3),
]


def report(label, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'}: {label}" + (f" ({detail})" if detail else ""))
    assert passed, label


def field_grid():
    fields = [
        FieldConfig(1.0, Direction(float(tp), float(pp)))
        for tp in np.linspace(0.0, math.pi, 8)
        for pp in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    ]
    return SweepGrid(
        theta=np.array([0.4, 1.1, 2.3]),
        phi=np.array([0.7, 2.9, 5.1]),
        chi=np.array([0.0, 0.9]),
        fields=fields,
    )


class TestAcceptance:
    def test_1_metric_equivalence_zero_field(self):
        worst = 0.0
        for sys in ZERO_FIELD_SYSTEMS:
            res, _ = run_oracle_checks(sys, SweepGrid.default(sys), tol=1e-9)
            worst = max(worst, res.max_rel)
            assert res.passed, res.name
        report(
            "metric oracle equals closed form, zero field, 5 systems, 27x8x8 grid",
            worst <= 1e-9,
            f"max rel {worst:.2e}",
        )

    def test_2_metric_equivalence_with_field(self):
        res, _ = run_oracle_checks(SpinSystem(4, 2), field_grid(), tol=1e-9)
        report(
            "metric oracle equals dressed closed form, N=4 s=1 h/J=1, 8x8 directions",
            res.passed,
            f"max rel {res.max_rel:.2e}",
        )

    def test_3_methane_numbers(self):
        sys = SpinSystem(4, 1, coupling_j=-6.2)
        v_max = speed_extrema(sys).v_max
        r_waist = scalar_curvature(sys, math.pi / 2)
        ok = abs(v_max - 10.19) <= 0.005 and r_waist == pytest.approx(-8.0, abs=1e-12)
        report(
            "methane cluster: v_max = 10.19 Hz +- 0.005 and R(pi/2) = -8",
            ok,
            f"v_max={v_max:.4f}, R={r_waist:.12g}",
        )

    def test_4_topology(self):
        worst = 0.0
        expected_defects = {(2, 1): 0.0, (3, 2): -4 * math.pi, (4, 1): -8 * math.pi,
                            (6, 3): -56 * math.pi}
        for (n, two_s), defect in expected_defects.items():
            spec = ManifoldSpec.for_system(SpinSystem(n, two_s))
            worst = max(worst, abs(gauss_bonnet_euler(spec) - 2.0))
            assert angular_defect(spec) == pytest.approx(defect, rel=1e-12)
        report(
            "Euler characteristic 2 within 1e-3 and analytic angular defects, 4 systems",
            worst <= 1e-3,
            f"max |euler - 2| = {worst:.2e}",
        )

    def test_5_section7_worked_vectors(self):
        res = run_section7_vectors(tol=1e-9)
        report(
            "worked field speeds sqrt(19/2) and sqrt(67/2) via closed form and oracle",
            res.passed,
            f"max rel {res.max_rel:.2e}",
        )

    def test_6_speed_uncertainty_identity(self):
        worst = 0.0
        for sys in ZERO_FIELD_SYSTEMS:
            _, res = run_oracle_checks(sys, SweepGrid.default(sys), tol=1e-9)
            worst = max(worst, res.max_rel)
            assert res.passed, res.name
        _, res = run_oracle_checks(SpinSystem(4, 2), field_grid(), tol=1e-9)
        worst = max(worst, res.max_rel)
        report(
            "speed equals gamma * energy uncertainty on all grids including field",
            res.passed and worst <= 1e-9,
            f"max rel {worst:.2e}",
        )

    def test_7_curvature_cross_checks(self):
        worst_profile = 0.0
        worst_speed = 0.0
        for sys in ZERO_FIELD_SYSTEMS:
            g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2.0
            profile = lambda t: metric_closed_form(sys, t).g_chi_chi
            ext = speed_extrema(sys)
            for theta in np.linspace(0.1, math.pi - 0.1, 60):
                theta = float(theta)
                ref = scalar_curvature(sys, theta)
                num = curvature_numeric_from_profile(g_thth, profile, theta)
                worst_profile = max(worst_profile, abs(num - ref))
                if min(abs(theta - ext.theta_max),
                       abs(theta - (math.pi - ext.theta_max))) < 1e-3:
                    continue
                branch = (
                    "upper"
                    if theta < ext.theta_max or theta > math.pi - ext.theta_max
                    else "lower"
                )
                via_speed = curvature_from_speed(sys, speed_closed_form(sys, theta), branch)
                worst_speed = max(
                    worst_speed, abs(via_speed - ref) / max(abs(ref), 1e-9)
                )
        report(
            "curvature from the metric profile (1e-6) and from the speed map (1e-9)",
            worst_profile <= 1e-6 and worst_speed <= 1e-9,
            f"profile {worst_profile:.2e}, speed {worst_speed:.2e}",
        )

    def test_8_thermodynamic_limit(self):
        big = SpinSystem(10**4, 1)
        r_err = abs(analytic.curvature_min(big) - (-16.0))
        t_err = abs(speed_extrema(big).theta_max - math.pi / 4)
        assert thermo_limit(SpinSystem(4, 1)).curvature_equator == pytest.approx(-16.0)
        report(
            "rescaled waist curvature -> -16 and theta_max -> pi/4 at N = 10^4",
            r_err <= 1e-2 and t_err <= 1e-3,
            f"|R+16|={r_err:.2e}, |theta_max-pi/4|={t_err:.2e}",
        )
