import math
import tracemalloc

import numpy as np
import pytest

from spinmanifold.analytic import metric_closed_form
from spinmanifold.evolution import (
    CoordinatePoint,
    _family_vectors,
    _generator_spectrum,
    state_at,
    tangent_states,
)
from spinmanifold.fs_metric import (
    MetricTensor,
    distance_along_evolution,
    energy_uncertainties,
    metric_numeric,
    speed_numeric,
)
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    _occupation_basis,
    build_field_hamiltonian,
    product_to_occupation,
)

METHANE = SpinSystem(4, 1, coupling_j=-6.2)


def product_state(sys, point, field=None):
    """state_at's occupation-basis vector gathered into the product basis."""
    rows, weights = product_to_occupation(sys)
    return state_at(sys, point, field).amplitudes[rows] * weights


def energy_uncertainty(ham, psi):
    return float(energy_uncertainties(ham, psi))


def assemble_metric(gamma, psi, vecs):
    """Eq.-style assembly from arbitrary state / tangent vectors."""
    overlaps = [np.vdot(psi, v) for v in vecs]
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            g[i, j] = (np.vdot(vecs[i], vecs[j]) - np.conj(overlaps[i]) * overlaps[j]).real
    return gamma**2 * g


class TestMetricTensor:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MetricTensor(np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            MetricTensor(-np.eye(3))

    def test_component_accessors(self):
        g = MetricTensor(np.diag([1.0, 2.0, 3.0]))
        assert g.components[0, 0] == 1.0
        assert g.components[1, 1] == 2.0
        assert g.g_chi_chi == 3.0
        assert g.components[0, 2] == 0.0


class TestMetricNumeric:
    def test_two_spin_half_equator(self):
        g = metric_numeric(SpinSystem(2, 1), CoordinatePoint(math.pi / 2, 0.0, 0.0))
        assert g.components[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert g.components[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert g.g_chi_chi == pytest.approx(0.25, abs=1e-12)
        assert g.components[1, 2] == pytest.approx(0.0, abs=1e-12)

    def test_pole_components_vanish(self):
        g = metric_numeric(SpinSystem(3, 2), CoordinatePoint(0.0, 0.4, 1.1))
        assert g.components[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert g.g_chi_chi == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 2), (4, 1)])
    def test_matches_closed_form(self, n, two_s):
        sys = SpinSystem(n, two_s, coupling_j=0.7, gamma=math.sqrt(2))
        for theta in (0.3, 1.2, 2.6):
            point = CoordinatePoint(theta, 0.9, 1.8)
            num = metric_numeric(sys, point).components
            ref = metric_closed_form(sys, theta).components
            assert np.abs(num - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())

    def test_off_block_zero_at_zero_field(self):
        g = metric_numeric(SpinSystem(3, 3), CoordinatePoint(1.1, 2.0, 0.6))
        assert abs(g.components[0, 1]) < 1e-10
        assert abs(g.components[0, 2]) < 1e-10

    def test_gauge_invariance_phase_injection(self):
        sys = SpinSystem(3, 2)
        point = CoordinatePoint(0.8, 1.1, 0.9)
        base = metric_numeric(sys, point).components
        psi = state_at(sys, point).amplitudes
        tang = tangent_states(sys, point)
        alpha = 0.37 * point.theta + 0.11 * point.chi
        phase = np.exp(1j * alpha)
        # d_mu(e^{i alpha} psi) = e^{i alpha}(psi_mu + i (d_mu alpha) psi)
        vecs = [
            phase * (tang.d_theta + 1j * 0.37 * psi),
            phase * tang.d_phi,
            phase * (tang.d_chi + 1j * 0.11 * psi),
        ]
        injected = assemble_metric(sys.gamma, phase * psi, vecs)
        assert np.abs(injected - base).max() < 1e-9


class TestEnergyUncertainty:
    def test_eigenstate_has_zero_variance(self):
        sys = SpinSystem(3, 1)
        psi = product_state(sys, CoordinatePoint(0.0, 0.0, 0.0))
        ham = build_field_hamiltonian(sys, None).matrix
        assert energy_uncertainty(ham, psi) == pytest.approx(0.0, abs=1e-10)

    def test_matches_chi_metric_component(self):
        sys = SpinSystem(2, 1, coupling_j=1.0)
        point = CoordinatePoint(math.pi / 2, 0.0, 0.0)
        ham = build_field_hamiltonian(sys, None).matrix
        de = energy_uncertainty(ham, product_state(sys, point))
        g = metric_numeric(sys, point)
        assert de == pytest.approx(
            abs(sys.coupling_j) * math.sqrt(g.g_chi_chi) / sys.gamma, abs=1e-10
        )

    def test_scaling_is_linear(self):
        sys = SpinSystem(3, 2)
        psi = product_state(sys, CoordinatePoint(1.0, 0.2, 0.5))
        ham = build_field_hamiltonian(sys, None).matrix
        assert energy_uncertainty(2.0 * ham, psi) == pytest.approx(
            2.0 * energy_uncertainty(ham, psi)
        )


class TestSpeedNumeric:
    def test_pole_speed_is_zero(self):
        assert speed_numeric(SpinSystem(3, 2), CoordinatePoint(0.0, 0.0, 0.0)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_methane_maximum(self):
        theta_max = math.asin(math.sqrt(0.6))
        v = speed_numeric(METHANE, CoordinatePoint(theta_max, 0.0, 0.0))
        assert v == pytest.approx(10.19, abs=0.005)

    def test_section7_min_case(self):
        sys = SpinSystem(4, 2, coupling_j=1.0)
        phi = 1.3
        fld = FieldConfig(1.0, Direction(3 * math.pi / 4, phi))
        v = speed_numeric(sys, CoordinatePoint(math.pi / 4, phi, 0.6), fld)
        assert v == pytest.approx(math.sqrt(19 / 2), rel=1e-9)

    def test_identity_with_uncertainty_under_field(self):
        sys = SpinSystem(3, 2, coupling_j=-1.4, gamma=2.0)
        fld = FieldConfig(0.8, Direction(1.0, 0.3))
        point = CoordinatePoint(1.2, 0.7, 1.9)
        v = speed_numeric(sys, point, fld)
        ham = build_field_hamiltonian(sys, fld).matrix
        de = energy_uncertainty(ham, product_state(sys, point, fld))
        assert v == pytest.approx(sys.gamma * de, rel=1e-9)


class TestDistance:
    def test_zero_chi(self):
        assert distance_along_evolution(SpinSystem(2, 1), 1.0, 0.0, 0.0) == 0.0

    def test_constant_speed_case(self):
        assert distance_along_evolution(
            SpinSystem(2, 1), math.pi / 2, 0.0, 1.0
        ) == pytest.approx(0.5, abs=1e-12)

    def test_generic_direction_consistency_at_zero_ratio(self):
        sys = SpinSystem(3, 1)
        fld = FieldConfig(0.0, Direction(1.1, 0.4))
        via_integral = distance_along_evolution(sys, 0.9, 0.3, 2.0, fld)
        direct = distance_along_evolution(sys, 0.9, 0.3, 2.0)
        assert via_integral == pytest.approx(direct, rel=1e-8)

    def test_rejects_negative_chi(self):
        with pytest.raises(ValueError):
            distance_along_evolution(SpinSystem(2, 1), 1.0, 0.0, -1.0)

    @pytest.mark.parametrize("chi", [math.nan, math.inf])
    def test_rejects_non_finite_chi(self, chi):
        with pytest.raises(ValueError, match="finite"):
            distance_along_evolution(SpinSystem(4, 1), 0.7, 0.1, chi)


GENERIC_FIELDS = [
    (SpinSystem(3, 2, gamma=1.3), FieldConfig(0.8, Direction(1.0, 0.3))),
    (SpinSystem(4, 1), FieldConfig(-1.7, Direction(2.2, 4.1))),
]


@pytest.mark.parametrize("sys,fld", GENERIC_FIELDS, ids=["N3_2s2", "N4_2s1"])
class TestDistanceUnderField:
    def test_g_chi_chi_is_conserved_under_a_generic_field(self, sys, fld):
        chis = (0.0, 0.7, 1.9, 3.1, 6.0)
        g = [metric_numeric(sys, CoordinatePoint(1.1, 0.4, c), fld).g_chi_chi for c in chis]
        dev = np.abs(np.array(g) - g[0])
        # verify's rule: <= 1e-12 absolute or <= 1e-9 relative
        assert np.all((dev <= 1e-12) | (dev <= 1e-9 * np.maximum(np.abs(g), abs(g[0]))))

    def test_distance_matches_a_trapezoid_over_chi(self, sys, fld):
        chis = np.linspace(0.0, 2.5, 65)
        speeds = [
            math.sqrt(metric_numeric(sys, CoordinatePoint(1.1, 0.4, c), fld).g_chi_chi)
            for c in chis
        ]
        expected = np.trapezoid(speeds, chis)
        assert distance_along_evolution(sys, 1.1, 0.4, 2.5, fld) == pytest.approx(
            expected, rel=1e-8
        )


def cold_peaks(sys):
    """tracemalloc peaks of one cold zero-field point and one cold point with a field along z.

    Every cache the oracle keeps is emptied first, so each peak includes
    building the occupation tables.
    """
    point = CoordinatePoint(1.1, 0.4, 0.9)
    peaks = []
    for field in (None, FieldConfig(2.0, Direction(math.pi, 0.0))):
        for cache in (_occupation_basis, _generator_spectrum, _family_vectors):
            cache.cache_clear()
        tracemalloc.start()
        try:
            metric_numeric(sys, point, field)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_large_n_point_allocates_no_dense_matrix():
    # N = 1000, s = 1/2: D = 1001, so one dense D x D complex array is 16 MB.
    # A zero-field point and a point with a field along z need only the
    # occupation tables and D-length vectors.
    zero_field, along_z = cold_peaks(SpinSystem(1000, 1))
    assert zero_field < 4e6
    assert along_z < 4e6


def test_cold_points_at_n5000_allocate_no_dense_matrix():
    # D = 5001: one dense D x D complex array would be 400 MB
    zero_field, along_z = cold_peaks(SpinSystem(5000, 1))
    assert zero_field < 8e6
    assert along_z < 8e6


def test_metric_near_the_pole_keeps_its_precision_at_large_n():
    # both terms of Gram - |<psi|t>|^2 grow as N^4 while g_chichi ~ N^2
    # sin^2(theta) stays small, so the tangents are projected off psi first
    sys = SpinSystem(2000, 1)
    num = metric_numeric(sys, CoordinatePoint(0.01, 0.3, 0.7)).components
    ref = metric_closed_form(sys, 0.01).components
    nonzero = ref != 0.0
    assert nonzero.sum() == 5  # the diagonal and g_phichi
    assert np.all(np.abs(num - ref)[nonzero] <= 1e-10 * np.abs(ref[nonzero]))
    # the zero-field closed form has g_thetaphi = g_thetachi = 0
    assert np.all(np.abs(num[~nonzero]) <= 1e-10 * np.abs(ref).max())
