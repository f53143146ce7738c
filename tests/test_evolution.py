import math

import numpy as np
import pytest
from scipy.linalg import expm

from spinmanifold.analytic import chi_max_for
from spinmanifold.evolution import (
    CoordinatePoint,
    StateVector,
    _rotated_site_vector,
    evolve_ising,
    evolve_with_field,
    initial_state,
    state_at,
    tangent_states,
)
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    total_spin_operator,
)


def fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


class TestInitialState:
    def test_north_pole_is_all_up(self):
        psi = initial_state(SpinSystem(3, 2), 0.0, 0.0)
        expected = np.zeros(27)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_single_site_rotation(self):
        v = _rotated_site_vector(1, math.pi / 2)
        assert np.allclose(v, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_bloch_vector_per_site(self):
        sys = SpinSystem(2, 1)
        theta, phi = math.pi / 3, math.pi / 5
        psi = initial_state(sys, theta, phi).amplitudes
        expected = 0.5 * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        for i, kind in enumerate("xyz"):
            op = total_spin_operator(sys, kind).matrix
            # both sites identical, so the total expectation is twice per-site
            val = np.vdot(psi, op @ psi).real / sys.n_sites
            assert val == pytest.approx(expected[i], abs=1e-10)

    def test_projection_along_n_is_maximal(self):
        sys = SpinSystem(2, 3)
        theta, phi = 1.1, 2.7
        psi = initial_state(sys, theta, phi).amplitudes
        n = Direction(theta, phi).unit_vector()
        op = sum(
            n[i] * total_spin_operator(sys, k).matrix for i, k in enumerate("xyz")
        )
        assert np.vdot(psi, op @ psi).real / sys.n_sites == pytest.approx(sys.s, abs=1e-10)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            initial_state(SpinSystem(2, 1), -0.1)


class TestIsingEvolution:
    def test_chi_zero_is_identity(self):
        sys = SpinSystem(3, 1)
        psi = initial_state(sys, 0.8, 0.3)
        assert np.array_equal(evolve_ising(sys, psi, 0.0).amplitudes, psi.amplitudes)

    def test_norm_preserved(self):
        sys = SpinSystem(3, 2)
        psi = initial_state(sys, 1.2, 0.4)
        evolved = evolve_ising(sys, psi, 5.3)
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_period_two_pi(self):
        sys = SpinSystem(3, 1)
        psi = initial_state(sys, 1.0, 0.5)
        assert fidelity(psi, evolve_ising(sys, psi, 2 * math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_integer_period_pi(self):
        sys = SpinSystem(2, 2)
        psi = initial_state(sys, 1.0, 0.5)
        assert fidelity(psi, evolve_ising(sys, psi, math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_chi_period_rule(self):
        assert chi_max_for(1) == pytest.approx(2 * math.pi)
        assert chi_max_for(2) == pytest.approx(math.pi)
        assert chi_max_for(3) == pytest.approx(2 * math.pi)


class TestFieldEvolution:
    def test_zero_ratio_matches_ising(self):
        sys = SpinSystem(3, 1)
        fld = FieldConfig(0.0, Direction(1.0, 2.0))
        psi = initial_state(sys, 0.9, 1.4)
        a = evolve_ising(sys, psi, 1.7).amplitudes
        b = evolve_with_field(sys, fld, psi, 1.7).amplitudes
        assert np.abs(a - b).max() < 1e-10

    def test_forward_backward_returns_start(self):
        sys = SpinSystem(2, 2)
        fld = FieldConfig(1.3, Direction(0.8, 0.1))
        psi = initial_state(sys, 1.1, 0.6)
        there = evolve_with_field(sys, fld, psi, 2.4)
        back = evolve_with_field(sys, fld, there, -2.4)
        assert np.abs(back.amplitudes - psi.amplitudes).max() < 1e-10

    def test_unitary_norm(self):
        sys = SpinSystem(3, 3)
        fld = FieldConfig(2.1, Direction(1.9, 4.0))
        psi = initial_state(sys, 0.4, 0.2)
        evolved = evolve_with_field(sys, fld, psi, 3.7)
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_rational_field_along_z_closes_loop(self):
        # h/J = 1/2 along z for half-integer s: period is q * chi_max
        sys = SpinSystem(3, 1)
        fld = FieldConfig(0.5, Direction(0.0, 0.0), rational_ratio=(1, 2))
        psi = initial_state(sys, 1.0, 0.3)
        looped = evolve_with_field(sys, fld, psi, 2 * chi_max_for(sys.two_s))
        assert fidelity(psi, looped) == pytest.approx(1.0, abs=1e-10)


# (A2) scalar products of the evolved state with its tangents, zero field
def expected_overlaps(n, s, theta):
    ct, st = math.cos(theta), math.sin(theta)
    return {
        ("psi", "chi"): -1j * n * (n - 1) * s**2 * ct**2,
        ("psi", "theta"): 0.0,
        ("psi", "phi"): -1j * n * s * ct,
        ("chi", "chi"): n**2 * s**4 * (n - 1) ** 2 * ct**4
        + 2 * n * (n - 1) ** 2 * s**3 * st**2 * ct**2
        + 0.5 * n * (n - 1) * s**2 * st**4,
        ("chi", "theta"): -1j * n * (n - 1) * s**2 * st * ct,
        ("chi", "phi"): n**2 * (n - 1) * s**3 * ct**3 + n * (n - 1) * s**2 * st**2 * ct,
        ("theta", "theta"): n * s / 2.0,
        ("theta", "phi"): 0.5j * n * s * st,
        ("phi", "phi"): n**2 * s**2 * ct**2 + 0.5 * n * s * st**2,
    }


class TestTangentStates:
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 2), (4, 1), (2, 3)])
    def test_scalar_products_on_grid(self, n, two_s):
        sys = SpinSystem(n, two_s)
        s = sys.s
        for theta in np.linspace(0.2, math.pi - 0.2, 5):
            for phi in np.linspace(0.0, 2 * math.pi, 5, endpoint=False):
                for chi in np.linspace(0.0, chi_max_for(two_s), 5):
                    point = CoordinatePoint(theta, phi, chi)
                    psi = state_at(sys, point).amplitudes
                    tang = tangent_states(sys, point)
                    vecs = {"theta": tang.d_theta, "phi": tang.d_phi, "chi": tang.d_chi}
                    expected = expected_overlaps(n, s, theta)
                    for (a, b), want in expected.items():
                        left = psi if a == "psi" else vecs[a]
                        got = np.vdot(left, vecs[b])
                        assert got == pytest.approx(want, abs=1e-10), (a, b, theta)

    @pytest.mark.parametrize(
        "field",
        [None, FieldConfig(1.0, Direction(0.9, 2.2)), FieldConfig(3.0, Direction(0.0, 0.0))],
    )
    def test_finite_difference_oracle(self, field):
        sys = SpinSystem(3, 2)
        point = CoordinatePoint(0.9, 1.3, 0.7)
        tang = tangent_states(sys, point, field)
        step = 1e-6
        for name, vec in (("theta", tang.d_theta), ("phi", tang.d_phi), ("chi", tang.d_chi)):
            kw = {"theta": point.theta, "phi": point.phi, "chi": point.chi}
            plus = dict(kw, **{name: kw[name] + step})
            minus = dict(kw, **{name: kw[name] - step})
            fd = (
                state_at(sys, CoordinatePoint(**plus), field).amplitudes
                - state_at(sys, CoordinatePoint(**minus), field).amplitudes
            ) / (2 * step)
            assert np.abs(fd - vec).max() < 1e-5, name


class TestBakerCampbellHausdorff:
    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.4])
    def test_rotated_sz(self, theta):
        from spinmanifold.spin_ops import build_spin_operators, embed_site_operator

        sys = SpinSystem(2, 1)
        sx, sy, sz = build_spin_operators(1)
        sy_tot = total_spin_operator(sys, "y").matrix
        rot = expm(1j * theta * sy_tot)
        for site in (1, 2):
            sz_i = embed_site_operator(sz, site, sys).matrix
            sx_i = embed_site_operator(sx, site, sys).matrix
            conjugated = rot @ sz_i @ rot.conj().T
            expected = sz_i * math.cos(theta) - sx_i * math.sin(theta)
            assert np.abs(conjugated - expected).max() < 1e-10


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex))
