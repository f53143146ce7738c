import math
import warnings
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from spinmanifold import evolution
from spinmanifold.analytic import chi_max_for
from spinmanifold.evolution import (
    CoordinatePoint,
    StateVector,
    _symmetric_product,
    family_grid,
    state_at,
    tangent_states,
)
from spinmanifold.fs_metric import metric_numeric, speed_numeric
from spinmanifold.spin_ops import (
    Direction,
    FieldConfig,
    SpinSystem,
    apply_total_spin,
    build_spin_operators,
    _occupations,
    occupation_basis,
    total_spin_operator,
)


def fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes))


def site_vector(two_s, theta):
    """Single-site e^{-i theta Sy} |s> from scipy's expm of the dense Sy."""
    return expm(-1j * theta * build_spin_operators(two_s)[1])[:, 0]


def polarized(sys, theta, phi):
    """Occupation-basis sqrt(M(n)) prod_k c_k^{n_k} of the polarized state, exact factorials."""
    m = sys.s - np.arange(sys.site_dim)
    site = np.exp(-1j * phi * m) * site_vector(sys.two_s, theta)
    out = []
    for n in _occupations(sys.n_sites, sys.two_s).tolist():
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
    g = (sz @ sz - np.diag(_occupations(sys.n_sites, sys.two_s) @ m**2)) / 2.0
    if field is not None:
        n = np.array(field.direction.components())
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
        v = site_vector(1, math.pi / 2)
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
        n = np.array(Direction(theta, phi).components())
        op = sum(n[i] * occupation_spin(sys, k) for i, k in enumerate("xyz"))
        assert np.vdot(psi, op @ psi).real / sys.n_sites == pytest.approx(sys.s, abs=1e-10)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            state_at(SpinSystem(2, 1), CoordinatePoint(-0.1))


POLES_AND_INTERIOR = [0.0, 0.4, math.pi / 2, 2.9, math.pi]


class TestCoherentStateClosedForm:
    """The closed-form polarized state against the expm product reference."""

    @pytest.mark.parametrize("theta", POLES_AND_INTERIOR)
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 3), (9, 4)])
    def test_matches_expm_reference(self, n, two_s, theta):
        sys = SpinSystem(n, two_s)
        with warnings.catch_warnings():
            # 0 log 0 at the poles must be guarded, not warned about
            warnings.simplefilter("error")
            psi = state_at(sys, CoordinatePoint(theta, 0.0)).amplitudes
        assert np.abs(psi - polarized(sys, theta, 0.0)).max() < 1e-13
        assert np.all(psi.imag == 0.0)

    @pytest.mark.parametrize("n,two_s", [(2, 150), (19999, 1)])
    def test_norm_at_large_dimension(self, n, two_s):
        rows = _symmetric_product(occupation_basis(SpinSystem(n, two_s)), np.array(POLES_AND_INTERIOR))
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12


def per_call_symmetric_product(n_sites, two_s, theta):
    """The polarized state as it was computed before the basis held its coherent-state
    tables: the multinomials, binomials and both powers rebuilt from the occupations on
    every call."""
    occ = _occupations(n_sites, two_s)
    log_fact = np.array([math.lgamma(c + 1.0) for c in range(n_sites + 1)])
    k = np.arange(occ.shape[1])
    log_binomials = np.array([math.log(math.comb(k[-1], j)) for j in k])
    downs, ups = occ @ k[::-1], occ @ k
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = (
            0.5 * (log_fact[n_sites] - log_fact[occ].sum(axis=1))
            + 0.5 * (occ @ log_binomials)
            + np.where(downs > 0, downs * np.log(np.cos(theta / 2.0))[:, None], 0.0)
            + np.where(ups > 0, ups * np.log(np.sin(theta / 2.0))[:, None], 0.0)
        )
    log_abs -= 0.5 * np.log(np.exp(2.0 * log_abs).sum(axis=1, keepdims=True))
    return np.exp(log_abs)


#: one theta at a time (a pole alone, the interior alone), both poles with the
#: interior, and a theta whose half underflows to a zero sine
THETA_SETS = [[t] for t in POLES_AND_INTERIOR] + [POLES_AND_INTERIOR, [5e-324, 0.4]]


@pytest.mark.parametrize("n,two_s", [(2, 1), (12, 1), (3, 3), (2, 150), (19999, 1)])
def test_cached_coherent_tables_give_the_per_call_state_bit_for_bit(n, two_s):
    basis = occupation_basis(SpinSystem(n, two_s))
    assert np.array_equal(basis.up_powers + basis.down_powers, np.full(basis.up_powers.shape, n * two_s))
    for thetas in THETA_SETS:
        theta = np.array(thetas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _symmetric_product(basis, theta)
        want = per_call_symmetric_product(n, two_s, theta)
        assert np.array_equal(got, want), thetas
        assert got.tobytes() == want.tobytes(), thetas


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


    @pytest.mark.parametrize("polar", [0.0, math.pi])
    @pytest.mark.parametrize("p,q", [(1, 1), (3, 2), (2, 1), (-2, 3)])
    @pytest.mark.parametrize("n,two_s", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
    def test_field_along_z_returns_at_chi_max(self, n, two_s, p, q, polar):
        # the oracle's state at chi_max_for is the chi = 0 state up to a phase
        sys = SpinSystem(n, two_s)
        fld = FieldConfig(p / q, Direction(polar), rational_ratio=(p, q))
        psi = state_at(sys, CoordinatePoint(1.0, 0.3), fld)
        looped = state_at(sys, CoordinatePoint(1.0, 0.3, chi_max_for(two_s, fld)), fld)
        assert fidelity(psi, looped) == pytest.approx(1.0, abs=1e-10)

    def test_integer_spin_odd_ratio_is_open_at_pi(self):
        # N = 2, s = 1, h/J = 1 along z: the loop is open at pi and closed at 2 pi
        sys = SpinSystem(2, 2)
        fld = FieldConfig(1.0, Direction(0.0), rational_ratio=(1, 1))
        psi = state_at(sys, CoordinatePoint(1.0, 0.3), fld)
        at_pi, at_two_pi = (
            fidelity(psi, state_at(sys, CoordinatePoint(1.0, 0.3, chi), fld))
            for chi in (math.pi, 2 * math.pi)
        )
        assert at_pi < 0.5
        assert at_two_pi == pytest.approx(1.0, abs=1e-10)
        assert chi_max_for(2, fld) == 2 * math.pi


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_amplitude(self, bad):
        # |nan - 1| > 1e-12 is False, so the norm test must be written to fail on NaN
        with pytest.raises(ValueError, match="state norm deviates"):
            StateVector(np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="state norm deviates"):
            StateVector(np.array([0.6, 0.8j, bad * 1j]))


#: no field, h/J = 0 off the z axis, +z, -z and two directions off the z axis
ONE_POINT_FIELDS = [
    None,
    FieldConfig(0.0, Direction(0.7, 2.1)),
    FieldConfig(2.5, Direction(0.0, 1.2)),
    FieldConfig(-1.3, Direction(math.pi, 0.4)),
    FieldConfig(1.1, Direction(0.9, 0.4)),
    FieldConfig(2.5, Direction(2.0, 5.0)),
]


@pytest.mark.parametrize(
    "n,two_s", [(2, 1), (4, 1), (3, 3), (10, 1), (12, 1), (2000, 1), (20000, 1)]
)
def test_one_point_at_chi_zero_equals_the_size_one_block(n, two_s):
    # a point at chi = 0 is built without a grid, by the grid's row builder on a 0-d theta
    # and phi: its rows equal the size-1 block's bit for bit, signed zeros included
    sys = SpinSystem(n, two_s)
    for theta in (0.0, math.pi, 1.234):
        for field in ONE_POINT_FIELDS:
            point = CoordinatePoint(theta, 0.7)
            psi, tangents = family_grid(sys, theta, 0.7, 0.0, field)
            got = state_at(sys, point, field).amplitudes
            assert np.array_equal(got.view(np.uint64), psi[0, 0, 0].view(np.uint64))
            got = tangent_states(sys, point, field).vectors
            assert np.array_equal(got.view(np.uint64), tangents[0, 0, 0].view(np.uint64))


@pytest.mark.parametrize(
    "n,two_s", [(2, 1), (4, 1), (3, 3), (10, 1), (12, 1), (2000, 1), (20000, 1)]
)
def test_one_point_at_chi_nonzero_equals_the_size_one_block(n, two_s):
    # off chi = 0 a point's rows are moved by the one slice of the grid's own step, so
    # they equal the size-1 block's bit for bit, signed zeros included.  The two fields off
    # the z axis only up to D = 84: their dense generator is 32 MB at D = 2001 and 3.2 GB
    # at D = 20001, with one eigh per point and per block
    sys = SpinSystem(n, two_s)
    fields = ONE_POINT_FIELDS if sys.occupation_dim <= 84 else ONE_POINT_FIELDS[:4]
    for theta in (0.0, math.pi, 1.234):
        for chi in (0.8, -2.5, 1e-300):
            for field in fields:
                point = CoordinatePoint(theta, 0.7, chi)
                psi, tangents = family_grid(sys, theta, 0.7, chi, field)
                got = state_at(sys, point, field).amplitudes
                assert np.array_equal(got.view(np.uint64), psi[0, 0, 0].view(np.uint64))
                got = tangent_states(sys, point, field).vectors
                assert np.array_equal(got.view(np.uint64), tangents[0, 0, 0].view(np.uint64))


def test_single_points_build_no_block_at_chi_zero(monkeypatch):
    calls = {"family_grids": [], "_generator_groups": []}
    for name, recorded in calls.items():
        monkeypatch.setattr(evolution, name, _counted(getattr(evolution, name), recorded))
    evolution._family_vectors.cache_clear()
    sys, field = SpinSystem(4, 1), FieldConfig(1.1, Direction(0.9, 0.4))
    # the metric and the speed do not depend on chi and are evaluated at chi = 0
    for chi in (0.0, 0.8, -2.5):
        for fld in (None, field):
            metric_numeric(sys, CoordinatePoint(1.0, 0.3, chi), fld)
            speed_numeric(sys, CoordinatePoint(1.2, 0.3, chi), fld)
    assert calls == {"family_grids": [], "_generator_groups": []}
    # off chi = 0 a point is moved by the grid's step, with no block and one spectrum
    state_at(sys, CoordinatePoint(1.0, 0.3, 0.8), field)
    assert calls["family_grids"] == []
    assert len(calls["_generator_groups"]) == 1


def _counted(function, calls):
    def counted(*args):
        calls.append(args)
        return function(*args)

    return counted
