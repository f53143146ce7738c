"""The closed forms over arrays against stacked scalar calls, bit for bit.

A float and an array argument run through the same numpy operations, so
the two must agree exactly (``np.array_equal``, no tolerance) on every
system (gamma = 1 and gamma != 1), theta grid (poles included), phi grid
and field below.  The golden CLI outputs rest on a further condition:
that numpy's sin, cos, sqrt and float_power round as libm's do on the
host that recorded them (the README's Conventions section);
``test_numpy_rounds_like_math`` names that condition when it fails.
"""

import math

import numpy as np
import pytest

from spinmanifold import analytic, fs_metric
from spinmanifold.analytic import (
    OutOfRange,
    SingularPoint,
    curvature_from_speed,
    curvature_numeric_from_profile,
    metric_closed_form,
    metric_closed_form_field,
    metric_closed_form_field_array,
    scalar_curvature,
    speed_closed_form,
    speed_extrema,
)
from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

SYSTEMS = [
    SpinSystem(2, 1),
    SpinSystem(3, 2),
    SpinSystem(6, 3),
    SpinSystem(9, 4, coupling_j=-6.2),
    SpinSystem(5, 3, gamma=1.37),
]

#: poles, an even sweep and off-grid points
THETAS = np.concatenate(
    [[0.0, math.pi], np.linspace(0.0, math.pi, 41), np.random.default_rng(3).uniform(0, math.pi, 40)]
)
PHIS = np.array([0.0, 0.9, 2.5, 5.9])

#: h/J = 0, along +z, along -z, off-axis
FIELDS = [
    FieldConfig(0.0, Direction(1.2, 0.4)),
    FieldConfig(3.0, Direction(0.0, 0.0)),
    FieldConfig(1.5, Direction(math.pi, 0.3)),
    FieldConfig(1.5, Direction(1.1, 0.4)),
    FieldConfig(-0.7, Direction(2.3, 5.0)),
]


SYS_IDS = [f"N{s.n_sites}_2s{s.two_s}" for s in SYSTEMS]
FIELD_IDS = ["hJ0", "plus_z", "minus_z", "off_axis", "off_axis_negative"]


@pytest.mark.parametrize("sys", SYSTEMS, ids=SYS_IDS)
class TestAgainstScalar:
    def test_metric(self, sys):
        expected = np.array([metric_closed_form(sys, float(t)).components for t in THETAS])
        assert np.array_equal(metric_closed_form(sys, THETAS).components, expected)

    @pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
    def test_field_metric_on_theta_phi_plane(self, sys, fld):
        d = fld.direction
        got = metric_closed_form_field_array(
            sys, THETAS[:, None], PHIS, fld.ratio_h_over_j, d.polar, d.azimuth
        )
        expected = np.array(
            [
                [metric_closed_form_field(sys, float(t), float(p), fld).components for p in PHIS]
                for t in THETAS
            ]
        )
        assert got.shape == (THETAS.size, PHIS.size, 3, 3)
        assert np.array_equal(got, expected)

    def test_field_metric_on_direction_grid(self, sys):
        polar = np.linspace(0.0, math.pi, 13)
        azimuth = np.linspace(0.0, 2 * math.pi, 11, endpoint=False)
        got = metric_closed_form_field_array(sys, 0.8, 2.1, 1.3, polar[:, None], azimuth)
        expected = np.array(
            [
                [
                    metric_closed_form_field(
                        sys, 0.8, 2.1, FieldConfig(1.3, Direction(float(tp), float(pp)))
                    ).components
                    for pp in azimuth
                ]
                for tp in polar
            ]
        )
        assert np.array_equal(got, expected)

    def test_speed(self, sys):
        expected = np.array([speed_closed_form(sys, float(t)) for t in THETAS])
        assert np.array_equal(speed_closed_form(sys, THETAS), expected)

    def test_curvature(self, sys):
        inner = THETAS[(THETAS > 0.0) & (THETAS < math.pi)]
        expected = np.array([scalar_curvature(sys, float(t)) for t in inner])
        assert np.array_equal(scalar_curvature(sys, inner), expected)

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_curvature_from_speed(self, sys, branch):
        ext = speed_extrema(sys)
        low = 0.0 if branch == "upper" else ext.v_half_pi
        speeds = np.linspace(low, ext.v_max, 57)
        expected = np.array([curvature_from_speed(sys, float(v), branch) for v in speeds])
        assert np.array_equal(curvature_from_speed(sys, speeds, branch), expected)

    @pytest.mark.parametrize("fld", FIELDS[1:3], ids=FIELD_IDS[1:3])
    def test_profile_curvature(self, sys, fld):
        g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2.0
        d = fld.direction
        inner = np.linspace(0.0, math.pi, 61)[1:-1]

        def scalar_profile(theta):
            return metric_closed_form_field(sys, theta, 0.9, fld).g_chi_chi

        def array_profile(theta):
            g = metric_closed_form_field_array(
                sys, theta, 0.9, fld.ratio_h_over_j, d.polar, d.azimuth
            )
            return g[..., 2, 2]

        expected = np.array(
            [curvature_numeric_from_profile(g_thth, scalar_profile, float(t)) for t in inner]
        )
        got = curvature_numeric_from_profile(g_thth, array_profile, inner)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("n_theta", [5, 3, 2])
@pytest.mark.parametrize("fld", [None] + FIELDS[:4], ids=["none"] + FIELD_IDS[:4])
def test_g_chi_chi_of_a_stack_is_each_metrics_entry(n_theta, fld):
    # a stack's g_chi_chi is entry (2, 2) of each of its metrics, the float call's bits,
    # not row 2 of its third metric (nor an IndexError below three metrics)
    sys = SpinSystem(4, 1)
    thetas = np.linspace(0.3, 2.9, n_theta)

    def metric(theta, phi=0.9):
        if fld is None:
            return metric_closed_form(sys, theta)
        return metric_closed_form_field(sys, theta, phi, fld)

    assert type(metric(0.7).g_chi_chi) is np.float64
    expected = np.array([[metric(t, p).g_chi_chi for p in PHIS.tolist()] for t in thetas.tolist()])
    column, grid = metric(thetas), metric(thetas[:, None], PHIS)  # grid: (n_theta, 1) at no field
    for g, want in ((column, expected[:, 1]), (grid, expected[:, : grid.components.shape[1]])):
        assert np.array_equal(g.g_chi_chi, g.components[..., 2, 2])
        assert g.g_chi_chi.tobytes() == want.tobytes()


class TestShapesAndErrors:
    def test_scalar_theta_gives_one_matrix(self):
        g = metric_closed_form(SpinSystem(3, 2), np.array(0.7)).components
        assert g.shape == (3, 3)
        assert np.array_equal(g, metric_closed_form(SpinSystem(3, 2), 0.7).components)

    def test_empty_grid(self):
        sys = SpinSystem(4, 2)
        assert metric_closed_form_field_array(sys, np.array([]), 0.1, 1.0, 0.0, 0.0).shape == (0, 3, 3)
        assert scalar_curvature(sys, np.array([])).shape == (0,)

    def test_azimuth_is_reduced_like_direction(self):
        sys = SpinSystem(4, 2)
        got = metric_closed_form_field_array(sys, 0.7, 0.2, 1.0, 1.1, -2.0)
        expected = metric_closed_form_field(sys, 0.7, 0.2, FieldConfig(1.0, Direction(1.1, -2.0)))
        assert np.array_equal(got, expected.components)

    @pytest.mark.parametrize("pole", [0.0, math.pi])
    def test_any_pole_is_singular(self, pole):
        thetas = np.array([0.3, 1.2, pole, 2.0])
        with pytest.raises(SingularPoint, match=f"theta={pole}"):
            scalar_curvature(SpinSystem(3, 2), thetas)

    def test_smooth_sphere_admits_poles(self):
        sys = SpinSystem(2, 1)
        thetas = np.array([0.0, 1.0, math.pi])
        expected = np.array([scalar_curvature(sys, float(t)) for t in thetas])
        assert np.array_equal(scalar_curvature(sys, thetas), expected)

    def test_out_of_range_per_branch(self):
        sys = SpinSystem(4, 1, coupling_j=-6.2)
        ext = speed_extrema(sys)
        with pytest.raises(OutOfRange, match="outside"):
            curvature_from_speed(sys, np.array([0.0, ext.v_max * 1.01]), "upper")
        with pytest.raises(OutOfRange, match="outside"):
            curvature_from_speed(sys, np.array([-0.1, ext.v_max]), "lower")
        with pytest.raises(OutOfRange, match="v_half_pi"):
            curvature_from_speed(sys, np.array([ext.v_max, ext.v_half_pi * 0.9]), "lower")
        # the upper branch covers [0, v_max], below v_half_pi included
        curvature_from_speed(sys, np.array([0.0, ext.v_half_pi * 0.9]), "upper")
        with pytest.raises(ValueError, match="branch"):
            curvature_from_speed(sys, np.array([1.0]), "middle")

    def test_zero_coupling_is_rejected(self):
        with pytest.raises(ValueError, match="J = 0"):
            curvature_from_speed(SpinSystem(4, 1, coupling_j=0.0), 0.0, "upper")
        with pytest.raises(ValueError, match="J = 0"):
            curvature_from_speed(SpinSystem(4, 1, coupling_j=0.0), np.array([0.0]), "upper")

    def test_each_stack_is_validated_once(self, monkeypatch):
        # every closed-form stack passes the oracle's symmetry/PSD check
        seen = []
        check = analytic._validated_metrics

        def counted(g):
            seen.append(g.shape)
            return check(g)

        for module in (fs_metric, analytic):
            monkeypatch.setattr(module, "_validated_metrics", counted)
        metric_closed_form(SpinSystem(3, 2), THETAS)
        metric_closed_form_field_array(SpinSystem(3, 2), THETAS[:, None], PHIS, 1.0, 0.4, 0.0)
        assert seen == [(THETAS.size, 3, 3), (THETAS.size, PHIS.size, 3, 3)]


def test_numpy_rounds_like_math():
    # the condition every exact comparison in this module rests on
    x = np.random.default_rng(11).uniform(-7.0, 7.0, 20000)
    for name, f_np, f_math in (("sin", np.sin, math.sin), ("cos", np.cos, math.cos)):
        assert np.array_equal(f_np(x), [f_math(t) for t in x.tolist()]), name
    y = np.abs(x)
    assert np.array_equal(np.sqrt(y), [math.sqrt(t) for t in y.tolist()]), "sqrt"
    assert np.array_equal(np.float_power(x, 2.0), [t**2 for t in x.tolist()]), "float_power"


class TestScalarPath:
    def test_floats_give_floats(self):
        sys = SpinSystem(4, 2)
        ext = speed_extrema(sys)
        for value in (
            scalar_curvature(sys, 0.7),
            speed_closed_form(sys, 0.7),
            curvature_from_speed(sys, 0.5 * ext.v_max, "upper"),
        ):
            assert type(value) is float

    def test_zero_field_g_phi_chi_keeps_its_product_order(self):
        # gamma^2 leads the product, so gamma != 1 gives the same bits as
        # the left-to-right product of the formula
        sys = SpinSystem(5, 3, gamma=1.37)
        n, s, g2 = sys.n_sites, sys.s, sys.gamma**2
        for t in np.random.default_rng(5).uniform(0.0, math.pi, 200).tolist():
            expected = g2 * n * (n - 1) * s**2 * math.cos(t) * math.sin(t) ** 2
            assert metric_closed_form(sys, t).components[1, 2] == expected
