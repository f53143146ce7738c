import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from spinmanifold import analytic
from spinmanifold.analytic import (
    DegenerateDirection,
    ManifoldSpec,
    OutOfRange,
    SingularPoint,
    angular_defect,
    chi_max_for,
    curvature_from_speed,
    curvature_min,
    curvature_numeric_from_profile,
    gauss_bonnet_euler,
    metric_closed_form,
    metric_closed_form_field,
    min_speed_field,
    scalar_curvature,
    special_case_speed,
    speed_closed_form,
    speed_extrema,
    thermo_limit,
)
from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem, occupation_basis
from spinmanifold.verify import TOPOLOGY_SYSTEMS

METHANE = SpinSystem(4, 1, coupling_j=-6.2)


class TestClosedFormMetric:
    def test_two_spin_half_equator(self):
        g = metric_closed_form(SpinSystem(2, 1), math.pi / 2)
        assert np.allclose(
            np.diag(g.components), [0.5, 0.5, 0.25]
        )
        assert g.components[1, 2] == pytest.approx(0.0)

    def test_pole_values(self):
        sys = SpinSystem(5, 2, gamma=1.5)
        g = metric_closed_form(sys, 0.0)
        assert g.components[1, 1] == 0.0
        assert g.g_chi_chi == 0.0
        assert g.components[1, 2] == 0.0
        assert g.components[0, 0] == pytest.approx(sys.gamma**2 * 5 * 1 / 2)

    def test_methane_equator_chi_component(self):
        assert metric_closed_form(METHANE, math.pi / 2).g_chi_chi == pytest.approx(1.5)


class TestFieldMetric:
    def test_zero_ratio_reduces(self):
        sys = SpinSystem(3, 2)
        fld = FieldConfig(0.0, Direction(1.0, 2.0))
        a = metric_closed_form_field(sys, 0.8, 1.1, fld).components
        b = metric_closed_form(sys, 0.8).components
        assert np.abs(a - b).max() < 1e-14

    @pytest.mark.parametrize("tp,pp_off", [(0.3, 0.0), (1.2, 1.1), (2.4, 4.0)])
    def test_equator_chi_component_formula(self, tp, pp_off):
        sys = SpinSystem(4, 2)
        phi = 0.7
        fld = FieldConfig(1.6, Direction(tp, phi + pp_off))
        g = metric_closed_form_field(sys, math.pi / 2, phi, fld)
        n, s, r = sys.n_sites, sys.s, fld.ratio_h_over_j
        expected = (n * s / 2) * (
            (n - 1) * s + r**2 * (1 - math.sin(tp) ** 2 * math.cos(pp_off) ** 2)
        )
        assert g.g_chi_chi == pytest.approx(expected, rel=1e-12)

    def test_section7_maximum_case(self):
        phi = 0.4
        fld = FieldConfig(1.0, Direction(math.pi / 4, phi - math.pi))
        g = metric_closed_form_field(SpinSystem(4, 2), math.pi / 4, phi, fld)
        assert g.g_chi_chi == pytest.approx(67 / 2, rel=1e-12)


class TestScalarCurvature:
    def test_methane_waist(self):
        assert scalar_curvature(METHANE, math.pi / 2) == pytest.approx(-8.0)

    def test_methane_pole_limit_value(self):
        with pytest.raises(SingularPoint):
            scalar_curvature(METHANE, 0.0)
        with pytest.raises(SingularPoint, match="curvature undefined at theta=3.14"):
            scalar_curvature(METHANE, np.array([1.0, math.pi]))
        # the formula limit at theta -> 0 is 7 (smooth away from the tip)
        assert scalar_curvature(METHANE, 1e-9) == pytest.approx(7.0, abs=1e-6)

    def test_smooth_sphere_case(self):
        sys = SpinSystem(2, 1)
        assert scalar_curvature(sys, math.pi / 2) == pytest.approx(0.0)
        scalar_curvature(sys, 0.0)  # endpoints allowed for N=2, s=1/2
        assert np.all(np.isfinite(scalar_curvature(sys, np.array([0.0, math.pi]))))

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.4])
    def test_symmetry_about_waist(self, theta):
        sys = SpinSystem(6, 3)
        assert scalar_curvature(sys, theta) == pytest.approx(
            scalar_curvature(sys, math.pi - theta), rel=1e-12
        )

    def test_minimum_formula(self):
        assert curvature_min(METHANE) == pytest.approx(-8.0)
        assert curvature_min(SpinSystem(2, 1)) == pytest.approx(0.0)
        assert curvature_min(SpinSystem(4, 1)) == pytest.approx(
            scalar_curvature(SpinSystem(4, 1), math.pi / 2)
        )

    def test_large_n_limit(self):
        assert curvature_min(SpinSystem(10**6, 1)) == pytest.approx(-16.0, abs=1e-4)


class TestCurvatureFromProfile:
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 2), (6, 3)])
    def test_matches_closed_form(self, n, two_s):
        sys = SpinSystem(n, two_s)
        g_thth = sys.gamma**2 * n * sys.s / 2

        def profile(theta):
            return metric_closed_form(sys, theta).g_chi_chi

        for theta in np.linspace(0.1, math.pi - 0.1, 40):
            num = curvature_numeric_from_profile(g_thth, profile, float(theta))
            assert abs(num - scalar_curvature(sys, float(theta))) < 1e-6

    def test_constant_profile_is_flat(self):
        assert curvature_numeric_from_profile(1.0, lambda t: 2.5, 1.0) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_field_along_z_shifts_concavity(self):
        # J > 0 with the field along +z pushes the waist to larger theta
        sys = SpinSystem(6, 3, coupling_j=1.0)
        fld = FieldConfig(3.0, Direction(0.0, 0.0))
        g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2

        def profile(theta):
            return metric_closed_form_field(sys, theta, 0.0, fld).g_chi_chi

        thetas = np.linspace(0.15, math.pi - 0.15, 301)
        values = [curvature_numeric_from_profile(g_thth, profile, float(t)) for t in thetas]
        assert thetas[int(np.argmin(values))] > math.pi / 2 + 0.05

    def test_rejects_nonpositive_profile(self):
        with pytest.raises(ValueError):
            curvature_numeric_from_profile(1.0, lambda t: -1.0, 1.0)
        # NaN is not > 0 either: a NaN theta or profile value fails the same guard
        with pytest.raises(ValueError, match="must be positive"):
            curvature_numeric_from_profile(1.0, lambda t: 2.5 + 0.0 * t, math.nan)
        with pytest.raises(ValueError, match="must be positive"):
            curvature_numeric_from_profile(1.0, lambda t: math.nan, 1.0)


class TestTopology:
    def test_chi_max_rules(self):
        assert chi_max_for(1) == pytest.approx(2 * math.pi)
        assert chi_max_for(2) == pytest.approx(math.pi)
        fld = FieldConfig(1.5, Direction(0.0), rational_ratio=(3, 2))
        assert chi_max_for(1, fld) == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("polar", [0.0, math.pi])
    def test_chi_max_for_field_along_either_sign_of_z(self, polar):
        fld = FieldConfig(1.0, Direction(polar), rational_ratio=(1, 1))
        assert chi_max_for(1, fld) == 2 * math.pi
        # integer s and odd p: pi * q leaves the odd-M states with a sign of -1
        assert chi_max_for(2, FieldConfig(1.5, Direction(polar), (3, 2))) == 4 * math.pi
        assert chi_max_for(2, FieldConfig(-2.0, Direction(polar), (-2, 1))) == math.pi

    def test_chi_max_against_the_oracle_period(self):
        # at zero field U(chi) = exp(-2i chi G) with G diagonal and 4G an integer on every
        # occupation row, each of which carries amplitude at generic theta: the states
        # first return up to a phase at chi = pi / g, g the gcd of G's differences, that
        # is 4 pi / gcd(4G - 4G_0), exact in integers
        doubled = set()
        for n, two_s in itertools.product(range(2, 10), range(1, 10)):
            steps = 4 * occupation_basis(SpinSystem(n, two_s)).ising_pair_sums
            steps -= steps[0]
            assert np.array_equal(steps, np.round(steps))
            period = Fraction(4, math.gcd(*steps.astype(np.int64).tolist()))  # in units of pi
            cover = Fraction(chi_max_for(two_s) / math.pi) / period
            assert cover in (1, 2), (n, two_s)
            if cover == 2:
                doubled.add((n, two_s))
        # twice the minimal period for the 20 systems with odd N and half-integer s
        assert doubled == {(n, two_s) for n in (3, 5, 7, 9) for two_s in (1, 3, 5, 7, 9)}

    def test_chi_max_along_z_against_the_oracle_period(self):
        # a field along +-z with h/J = p/q keeps G diagonal, and 4q G = 4q Sum S^z_i S^z_j
        # + 2p cos(theta') Sum S^z is an integer on every occupation row: the states first
        # return up to a phase at chi = pi / g, that is 4q pi / gcd(4qG - 4qG_0), exact in
        # integers; chi_max_for is that period or twice it, compared with tolerance 0
        ratios = [(1, 1), (3, 2), (-2, 1), (5, 3), (10, 1)]
        doubled, cases = set(), 0
        for n, two_s in itertools.product(range(2, 8), range(1, 6)):
            basis = occupation_basis(SpinSystem(n, two_s))
            for (p, q), polar in itertools.product(ratios, (0.0, math.pi)):
                steps = 4 * q * basis.ising_pair_sums
                steps += 2 * p * round(math.cos(polar)) * basis.total_z
                assert np.array_equal(steps, np.round(steps))
                steps = steps.astype(np.int64) - int(steps[0])
                period = Fraction(4 * q, math.gcd(*steps.tolist()))  # in units of pi
                chi_max = chi_max_for(two_s, FieldConfig(p / q, Direction(polar), (p, q)))
                covers = [k for k in (1, 2) if chi_max == float(k * period) * math.pi]
                assert covers, (n, two_s, p, q, polar)
                cases += 1
                if covers == [2]:
                    doubled.add((n, two_s, p, q, polar))
        assert cases == 300
        # 72 cases at twice the period, each at half-integer s with odd q and N + p odd
        # (h/J = 1 and 5/3 at even N, -2 and 10 at odd N), and none at h/J = 3/2
        assert doubled == {
            (n, two_s, p, q, polar)
            for n, two_s in itertools.product(range(2, 8), (1, 3, 5))
            for (p, q), polar in itertools.product(ratios, (0.0, math.pi))
            if q % 2 == 1 and (n + p) % 2 == 1
        }
        assert len(doubled) == 72

    def test_chi_max_rejects_irrational_and_generic(self):
        with pytest.raises(ValueError):
            chi_max_for(1, FieldConfig(math.sqrt(2), Direction(0.0)))
        with pytest.raises(ValueError):
            chi_max_for(1, FieldConfig(0.5, Direction(1.0), rational_ratio=(1, 2)))

    def test_manifold_spec_validation(self):
        with pytest.raises(ValueError):
            ManifoldSpec(SpinSystem(2, 1), 3.0)

    @pytest.mark.parametrize("chi_max", [math.inf, math.nan])
    def test_manifold_spec_rejects_non_finite_period(self, chi_max):
        with pytest.raises(ValueError, match="is not a positive multiple of the base period"):
            ManifoldSpec(SpinSystem(2, 1), chi_max)

    def test_angular_defects(self):
        assert angular_defect(ManifoldSpec.for_system(SpinSystem(2, 1))) == pytest.approx(0.0)
        assert angular_defect(ManifoldSpec.for_system(SpinSystem(3, 2))) == pytest.approx(
            -4 * math.pi
        )
        assert angular_defect(ManifoldSpec.for_system(SpinSystem(4, 1))) == pytest.approx(
            -8 * math.pi
        )

    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 2), (4, 1), (6, 3)])
    def test_euler_characteristic_is_two(self, n, two_s):
        euler = gauss_bonnet_euler(ManifoldSpec.for_system(SpinSystem(n, two_s)))
        assert euler == pytest.approx(2.0, abs=1e-3)

    def test_smooth_sphere_pure_integral(self):
        spec = ManifoldSpec.for_system(SpinSystem(2, 1))
        assert analytic.curvature_integral(spec) == pytest.approx(4 * math.pi, rel=1e-6)


def _boundary_term(spec: ManifoldSpec, eps: float) -> float:
    """Exact curvature integral by Gauss-Bonnet on the surface of revolution.

    With f = g_chichi(theta), K sqrt(g) = -(sqrt f)'' / sqrt(g_thth), so the
    integral over [eps, pi - eps] x [0, chi_max] is
    chi_max [(sqrt f)'(eps) - (sqrt f)'(pi - eps)] / sqrt(g_thth).
    """
    sys = spec.sys
    n, s, g2 = sys.n_sites, sys.s, sys.gamma**2
    a = 2.0 * s * (n - 1)
    c = g2 * n * (n - 1) * s**2

    def d_sqrt_f(theta):
        u = math.sin(theta) ** 2
        f = c * u * (a - (a - 0.5) * u)
        df = c * (a - 2.0 * (a - 0.5) * u) * math.sin(2.0 * theta)
        return df / (2.0 * math.sqrt(f))

    g_thth = g2 * n * s / 2.0
    return spec.chi_max * (d_sqrt_f(eps) - d_sqrt_f(math.pi - eps)) / math.sqrt(g_thth)


LARGE_SYSTEMS = [SpinSystem(n, two_s) for n, two_s in [(20, 5), (200, 20), (1000, 1), (5000, 40)]]


class TestCurvatureQuadrature:
    @pytest.mark.parametrize(
        "sys,rel",
        [(sys, 1e-12) for sys in TOPOLOGY_SYSTEMS] + [(sys, 1e-10) for sys in LARGE_SYSTEMS],
        ids=lambda v: f"N{v.n_sites}_2s{v.two_s}" if isinstance(v, SpinSystem) else f"{v:g}",
    )
    def test_matches_boundary_term(self, sys, rel):
        spec = ManifoldSpec.for_system(sys)
        exact = _boundary_term(spec, 1e-4)
        assert analytic.curvature_integral(spec) == pytest.approx(exact, rel=rel, abs=0.0)

    def test_rule_is_exact_on_a_polynomial(self):
        val, err = analytic._adaptive_gauss_legendre(lambda x: 7.0 * x**30 - x**3, -1.0, 2.0)
        exact = 7.0 * (2.0**31 + 1.0) / 31.0 - (2.0**4 - 1.0) / 4.0
        assert val == pytest.approx(exact, rel=1e-14)
        assert err <= 1e-13 * abs(exact)

    def test_non_integrable_integrand_raises(self):
        with pytest.raises(RuntimeError, match="unresolved"):
            analytic._adaptive_gauss_legendre(lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0)


class TestSpeed:
    def test_poles_are_stationary(self):
        sys = SpinSystem(3, 2)
        assert speed_closed_form(sys, 0.0) == 0.0
        assert speed_closed_form(sys, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_two_spin_half_equator(self):
        assert speed_closed_form(SpinSystem(2, 1), math.pi / 2) == pytest.approx(0.5)

    def test_methane_maximum(self):
        ext = speed_extrema(METHANE)
        assert speed_closed_form(METHANE, ext.theta_max) == pytest.approx(10.19, abs=0.005)

    def test_methane_extrema_values(self):
        ext = speed_extrema(METHANE)
        assert ext.theta_max == pytest.approx(math.asin(math.sqrt(0.6)), abs=1e-12)
        assert ext.v_max == pytest.approx(10.19, abs=0.005)
        assert ext.v_half_pi == pytest.approx(7.59, abs=0.005)
        assert ext.v_min == 0.0

    def test_two_spin_half_single_maximum(self):
        ext = speed_extrema(SpinSystem(2, 1))
        assert ext.theta_max == pytest.approx(math.pi / 2)
        assert ext.v_max == pytest.approx(0.5)
        assert ext.v_max == ext.v_half_pi

    @pytest.mark.parametrize("n,two_s", [(3, 2), (4, 1), (6, 3), (9, 4)])
    def test_extrema_against_numeric_maximization(self, n, two_s):
        sys = SpinSystem(n, two_s, coupling_j=1.0)
        ext = speed_extrema(sys)
        res = minimize_scalar(
            lambda t: -speed_closed_form(sys, t),
            bounds=(1e-3, math.pi / 2),
            method="bounded",
            options={"xatol": 1e-12},
        )
        # location accuracy is sqrt(machine eps) at a quadratic maximum
        assert res.x == pytest.approx(ext.theta_max, abs=1e-6)
        assert -res.fun == pytest.approx(ext.v_max, rel=1e-10)

    def test_thermodynamic_theta_max(self):
        assert speed_extrema(SpinSystem(10**4, 1)).theta_max == pytest.approx(
            math.pi / 4, abs=1e-3
        )


class TestCurvatureFromSpeed:
    def test_branches_meet_at_maximum(self):
        ext = speed_extrema(METHANE)
        upper = curvature_from_speed(METHANE, ext.v_max, "upper")
        lower = curvature_from_speed(METHANE, ext.v_max, "lower")
        assert upper == pytest.approx(16 / 3, rel=1e-9)
        assert lower == pytest.approx(16 / 3, rel=1e-9)

    def test_endpoints(self):
        ext = speed_extrema(METHANE)
        assert curvature_from_speed(METHANE, 0.0, "upper") == pytest.approx(7.0)
        assert curvature_from_speed(METHANE, ext.v_half_pi, "lower") == pytest.approx(-8.0)

    def test_out_of_range(self):
        ext = speed_extrema(METHANE)
        with pytest.raises(OutOfRange):
            curvature_from_speed(METHANE, ext.v_max * 1.01, "upper")
        with pytest.raises(OutOfRange):
            curvature_from_speed(METHANE, ext.v_half_pi * 0.9, "lower")
        with pytest.raises(ValueError):
            curvature_from_speed(METHANE, 1.0, "middle")

    @pytest.mark.parametrize("n,two_s", [(3, 2), (4, 1), (6, 3)])
    def test_composition_recovers_curvature(self, n, two_s):
        sys = SpinSystem(n, two_s, coupling_j=1.0)
        ext = speed_extrema(sys)
        for theta in np.linspace(0.05, math.pi - 0.05, 80):
            theta = float(theta)
            if min(abs(theta - ext.theta_max), abs(theta - (math.pi - ext.theta_max))) < 1e-3:
                continue
            branch = (
                "upper"
                if theta < ext.theta_max or theta > math.pi - ext.theta_max
                else "lower"
            )
            v = speed_closed_form(sys, theta)
            assert curvature_from_speed(sys, v, branch) == pytest.approx(
                scalar_curvature(sys, theta), rel=1e-9, abs=1e-9
            )


class TestThermoLimit:
    def test_waist_curvature_limit(self):
        assert curvature_min(SpinSystem(10**4, 1)) == pytest.approx(-16.0, abs=1e-2)
        assert thermo_limit(SpinSystem(4, 1)).curvature_equator == pytest.approx(-16.0)

    def test_large_s_line_range(self):
        values = [thermo_limit(SpinSystem(n, 1)).curvature_large_s_line for n in range(2, 40)]
        assert values[0] == pytest.approx(-8.0)
        assert all(-16.0 < v <= -8.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_equator_speed_value(self):
        lim = thermo_limit(SpinSystem(4, 1, coupling_j=1.0))
        assert lim.v_half_pi == pytest.approx(1 / (2 * math.sqrt(2)))
        assert lim.theta_max == pytest.approx(math.pi / 4)

    def test_speed_divergence_profile(self):
        lim = thermo_limit(SpinSystem(4, 2, coupling_j=1.0))
        assert lim.v_max(100) == pytest.approx(1.0 * 1.0 * math.sqrt(100 / 2))
        assert lim.speed(math.pi / 4, 100) == pytest.approx(lim.v_max(100))
        assert lim.speed(math.pi / 2, 100) == pytest.approx(0.0, abs=1e-12)


class TestMinSpeedField:
    def test_equator_needs_no_field(self):
        sys = SpinSystem(4, 2)
        res = min_speed_field(sys, math.pi / 2, 0.3, Direction(0.6, 0.3))
        assert res.ratio == pytest.approx(0.0, abs=1e-12)
        assert res.v_min == pytest.approx(speed_extrema(sys).v_half_pi)

    def test_quarter_pi_reduction_case(self):
        res = min_speed_field(SpinSystem(4, 2), math.pi / 4, 0.0, Direction(math.pi, 0.0))
        assert res.ratio == pytest.approx(3 * math.sqrt(2), rel=1e-12)
        assert res.v_min == pytest.approx(math.sqrt(6) / 2, rel=1e-12)
        assert res.reduction_applied

    @pytest.mark.parametrize("theta", np.linspace(0.2, math.pi - 0.2, 7))
    def test_reduced_minimum_formula(self, theta):
        # phi' = phi makes the second scalar product vanish
        sys = SpinSystem(3, 2)
        res = min_speed_field(sys, float(theta), 0.7, Direction(2.8, 0.7))
        n, s = sys.n_sites, sys.s
        expected = s * math.sqrt(n * (n - 1) / 2) * math.sin(theta) ** 2
        assert res.reduction_applied
        assert res.v_min == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("theta,tp,pp", [(0.6, 1.0, 2.0), (1.9, 2.2, 0.5)])
    def test_ratio_minimizes_quadratic(self, theta, tp, pp):
        # g_chichi is quadratic in h/J; check the three-point parabola vertex
        sys = SpinSystem(4, 2)
        phi = 1.1
        direction = Direction(tp, pp)
        res = min_speed_field(sys, theta, phi, direction)

        def g_cc(r):
            return metric_closed_form_field(
                sys, theta, phi, FieldConfig(r, direction)
            ).g_chi_chi

        y0, y1, y2 = g_cc(-1.0), g_cc(0.0), g_cc(1.0)
        vertex = (y0 - y2) / (2 * (y0 - 2 * y1 + y2))
        assert res.ratio == pytest.approx(vertex, abs=1e-10)
        assert abs(sys.coupling_j) * sys.gamma * math.sqrt(g_cc(res.ratio)) == pytest.approx(
            res.v_min, rel=1e-9
        )

    def test_degenerate_direction(self):
        # theta = 0 with the field along z: both scalar products vanish
        with pytest.raises(DegenerateDirection):
            min_speed_field(SpinSystem(3, 2), 0.0, 0.0, Direction(0.0, 0.0))

    @pytest.mark.parametrize("theta", [7.0, -0.1, math.pi + 1e-9, math.nan])
    def test_rejects_theta_outside_zero_pi(self, theta):
        with pytest.raises(ValueError, match=r"theta must be in \[0, pi\]"):
            min_speed_field(SpinSystem(4, 2), theta, 0.0, Direction(3.14, 0.0))


class TestSpecialCaseSpeed:
    def test_pole_aligned_field_freezes_state(self):
        fld = FieldConfig(2.0, Direction(0.0, 0.0))
        assert special_case_speed(SpinSystem(3, 2), "pole", fld) == pytest.approx(0.0)

    def test_pole_transverse_field_is_maximal(self):
        sys = SpinSystem(3, 2)
        fld = FieldConfig(2.0, Direction(math.pi / 2, 1.0))
        expected = 2.0 * math.sqrt(sys.n_sites * sys.s / 2)
        assert special_case_speed(sys, "pole", fld) == pytest.approx(expected)

    def test_equator_minimum(self):
        sys = SpinSystem(4, 2)
        phi = 0.8
        fld = FieldConfig(1.5, Direction(math.pi / 2, phi))
        expected = sys.s * math.sqrt(sys.n_sites * (sys.n_sites - 1) / 2)
        assert special_case_speed(sys, "equator", fld, phi) == pytest.approx(expected)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            special_case_speed(SpinSystem(2, 1), "waist", FieldConfig(1.0, Direction(0.0)))


_NAN_THETAS = np.array([0.3, math.nan])
_FIELD = FieldConfig(1.0, Direction(0.7, 0.3))


@pytest.mark.parametrize(
    "call,error,message",
    [
        # np.linalg.LinAlgError is a ValueError too, so each case names its message
        (lambda: metric_closed_form(METHANE, math.nan), ValueError, "not finite"),
        (lambda: metric_closed_form(METHANE, _NAN_THETAS), ValueError, "not finite"),
        (
            lambda: analytic.metric_closed_form_field_array(METHANE, _NAN_THETAS, 0.2, 1.0, 0.7),
            ValueError,
            "not finite",
        ),
        (
            lambda: analytic.metric_closed_form_field_array(METHANE, 0.3, 0.2, math.inf, 0.7),
            ValueError,
            "h/J must be finite",
        ),
        (lambda: scalar_curvature(METHANE, math.nan), ValueError, "theta must be finite"),
        (lambda: scalar_curvature(SpinSystem(2, 1), _NAN_THETAS), ValueError, "theta must be finite"),
        (lambda: speed_closed_form(METHANE, math.nan), ValueError, "theta must be finite"),
        (lambda: speed_closed_form(METHANE, _NAN_THETAS), ValueError, "theta must be finite"),
        (lambda: curvature_from_speed(METHANE, math.nan, "upper"), OutOfRange, "v=nan"),
        (lambda: curvature_from_speed(METHANE, _NAN_THETAS, "lower"), OutOfRange, "v=nan"),
        (lambda: min_speed_field(METHANE, 0.5, math.nan, _FIELD.direction), ValueError, "phi"),
        (lambda: min_speed_field(METHANE, 0.5, math.inf, _FIELD.direction), ValueError, "phi"),
        (lambda: special_case_speed(METHANE, "equator", _FIELD, math.nan), ValueError, "phi"),
        (lambda: special_case_speed(METHANE, "equator", _FIELD, -math.inf), ValueError, "phi"),
    ],
    ids=[
        "metric_nan_theta",
        "metric_array_nan_theta",
        "metric_field_array_nan_theta",
        "metric_field_array_inf_ratio",
        "curvature_nan_theta",
        "curvature_smooth_case_nan_theta",
        "speed_nan_theta",
        "speed_array_nan_theta",
        "curvature_from_speed_nan_v",
        "curvature_from_speed_array_nan_v",
        "min_speed_field_nan_phi",
        "min_speed_field_inf_phi",
        "special_case_speed_nan_phi",
        "special_case_speed_inf_phi",
    ],
)
def test_non_finite_input_is_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("form", [scalar_curvature, speed_closed_form])
@pytest.mark.parametrize(
    "sys,theta,shown",
    [
        (SpinSystem(4, 1), 7.0, "7.0"),
        (SpinSystem(4, 1), -0.1, "-0.1"),
        (SpinSystem(4, 1), np.array([0.5, math.pi + 1e-9, 7.0]), repr(math.pi + 1e-9)),
        # the smooth case admits the poles, but nothing past them
        (SpinSystem(2, 1), np.array([0.0, math.pi, -math.pi]), repr(-math.pi)),
    ],
    ids=["past_pi", "below_zero", "array", "smooth_case"],
)
def test_theta_outside_zero_pi_is_rejected(form, sys, theta, shown):
    with pytest.raises(ValueError) as exc:
        form(sys, theta)
    assert not isinstance(exc.value, SingularPoint)
    assert str(exc.value) == f"theta must be in [0, pi], got {shown}"


def test_curvature_integral_checks_no_range(monkeypatch):
    # its panels never reach a pole, so the range check is never run on them
    calls = []
    monkeypatch.setattr(analytic, "_require_polar", lambda theta: calls.append(theta))
    assert gauss_bonnet_euler(ManifoldSpec.for_system(SpinSystem(4, 1))) == pytest.approx(2.0)
    assert calls == []
