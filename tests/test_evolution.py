import math
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from spinmanifold.analytic import chi_max_for
from spinmanifold.evolution import (
    CoordinatePoint,
    StateVector,
    _rotated_site_vector,
    state_at,
    tangent_states,
)
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    apply_total_spin,
    build_spin_operators,
    occupation_basis,
    total_spin_operator,
)


def fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def polarized(sys, theta, phi):
    """Occupation-basis sqrt(M(n)) prod_k c_k^{n_k} of the polarized state, exact factorials."""
    m = sys.s - np.arange(sys.site_dim)
    site = np.exp(-1j * phi * m) * _rotated_site_vector(sys.two_s, theta)
    out = []
    for n in occupation_basis(sys).occupations.tolist():
        multinomial = math.factorial(sys.n_sites) // math.prod(map(math.factorial, n))
        out.append(math.sqrt(multinomial) * np.prod(site**n))
    return np.array(out)


def occupation_spin(sys, kind):
    """Dense Sum_j S_j^kind on the occupation basis: column o is the apply on basis vector o."""
    return apply_total_spin(occupation_basis(sys), kind, np.eye(sys.occupation_dim)).T


def occupation_generator(sys, field=None):
    """G = Sum_{i<j} S_i^z S_j^z + (h/2J) Sum S.n' from the occupation-basis Sum S^alpha."""
    m = sys.s - np.arange(sys.site_dim)
    sz = occupation_spin(sys, "z")
    # Sum_{i<j} S_i^z S_j^z = ((Sum S^z)^2 - Sum (S^z)^2) / 2, the last term diagonal
    g = (sz @ sz - np.diag(occupation_basis(sys).occupations @ m**2)) / 2.0
    if field is not None:
        n = field.direction.unit_vector()
        g = g + field.ratio_h_over_j / 2.0 * sum(
            n[i] * occupation_spin(sys, k) for i, k in enumerate("xyz")
        )
    return g


class TestInitialState:
    def test_north_pole_is_all_up(self):
        # occupation row 0 is (N, 0, ..., 0): every site at m = s
        psi = state_at(SpinSystem(3, 2), CoordinatePoint(0.0, 0.0))
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected)

    def test_single_site_rotation(self):
        v = _rotated_site_vector(1, math.pi / 2)
        assert np.allclose(v, [math.cos(math.pi / 4), math.sin(math.pi / 4)])

    def test_bloch_vector_per_site(self):
        sys = SpinSystem(2, 1)
        theta, phi = math.pi / 3, math.pi / 5
        psi = state_at(sys, CoordinatePoint(theta, phi)).amplitudes
        expected = 0.5 * np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        for i, kind in enumerate("xyz"):
            op = occupation_spin(sys, kind)
            # both sites identical, so the total expectation is twice per-site
            val = np.vdot(psi, op @ psi).real / sys.n_sites
            assert val == pytest.approx(expected[i], abs=1e-10)

    def test_projection_along_n_is_maximal(self):
        sys = SpinSystem(2, 3)
        theta, phi = 1.1, 2.7
        psi = state_at(sys, CoordinatePoint(theta, phi)).amplitudes
        n = Direction(theta, phi).unit_vector()
        op = sum(n[i] * occupation_spin(sys, k) for i, k in enumerate("xyz"))
        assert np.vdot(psi, op @ psi).real / sys.n_sites == pytest.approx(sys.s, abs=1e-10)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            state_at(SpinSystem(2, 1), CoordinatePoint(-0.1))


class TestIsingEvolution:
    def test_chi_zero_is_identity(self):
        sys = SpinSystem(3, 1)
        psi = state_at(sys, CoordinatePoint(0.8, 0.3, 0.0))
        assert np.abs(psi.amplitudes - polarized(sys, 0.8, 0.3)).max() < 1e-12

    def test_norm_preserved(self):
        sys = SpinSystem(3, 2)
        evolved = state_at(sys, CoordinatePoint(1.2, 0.4, 5.3))
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_half_integer_period_two_pi(self):
        sys = SpinSystem(3, 1)
        psi = state_at(sys, CoordinatePoint(1.0, 0.5))
        looped = state_at(sys, CoordinatePoint(1.0, 0.5, 2 * math.pi))
        assert fidelity(psi, looped) == pytest.approx(1.0, abs=1e-12)

    def test_integer_period_pi(self):
        sys = SpinSystem(2, 2)
        psi = state_at(sys, CoordinatePoint(1.0, 0.5))
        looped = state_at(sys, CoordinatePoint(1.0, 0.5, math.pi))
        assert fidelity(psi, looped) == pytest.approx(1.0, abs=1e-12)

    def test_chi_period_rule(self):
        assert chi_max_for(1) == pytest.approx(2 * math.pi)
        assert chi_max_for(2) == pytest.approx(math.pi)
        assert chi_max_for(3) == pytest.approx(2 * math.pi)


class TestFieldEvolution:
    def test_zero_ratio_matches_ising(self):
        sys = SpinSystem(3, 1)
        fld = FieldConfig(0.0, Direction(1.0, 2.0))
        point = CoordinatePoint(0.9, 1.4, 1.7)
        a = state_at(sys, point).amplitudes
        b = state_at(sys, point, fld).amplitudes
        assert np.abs(a - b).max() < 1e-10

    def test_forward_backward_returns_start(self):
        # undo the oracle's U(chi) with a test-local exp(+2i chi G)
        sys = SpinSystem(2, 2)
        fld = FieldConfig(1.3, Direction(0.8, 0.1))
        psi = state_at(sys, CoordinatePoint(1.1, 0.6), fld).amplitudes
        there = state_at(sys, CoordinatePoint(1.1, 0.6, 2.4), fld).amplitudes
        back = expm(2j * 2.4 * occupation_generator(sys, fld)) @ there
        assert np.abs(back - psi).max() < 1e-10

    def test_unitary_norm(self):
        sys = SpinSystem(3, 3)
        fld = FieldConfig(2.1, Direction(1.9, 4.0))
        evolved = state_at(sys, CoordinatePoint(0.4, 0.2, 3.7), fld)
        assert np.linalg.norm(evolved.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_rational_field_along_z_closes_loop(self):
        # h/J = 1/2 along z for half-integer s: period is q * chi_max
        sys = SpinSystem(3, 1)
        fld = FieldConfig(0.5, Direction(0.0, 0.0), rational_ratio=(1, 2))
        psi = state_at(sys, CoordinatePoint(1.0, 0.3), fld)
        looped = state_at(sys, CoordinatePoint(1.0, 0.3, 2 * chi_max_for(sys.two_s)), fld)
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
        sys = SpinSystem(2, 1)
        sx, sy, sz = build_spin_operators(1)
        sy_tot = total_spin_operator(sys, "y").matrix
        rot = expm(1j * theta * sy_tot)

        def embed(op, site):
            return reduce(np.kron, [op if k == site else np.eye(2) for k in (1, 2)])

        for site in (1, 2):
            sz_i = embed(sz, site)
            sx_i = embed(sx, site)
            conjugated = rot @ sz_i @ rot.conj().T
            expected = sz_i * math.cos(theta) - sx_i * math.sin(theta)
            assert np.abs(conjugated - expected).max() < 1e-10


@pytest.mark.parametrize(
    "phi,chi", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)]
)
def test_coordinate_point_rejects_non_finite(phi, chi):
    with pytest.raises(ValueError, match="finite"):
        CoordinatePoint(0.5, phi, chi)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex))
