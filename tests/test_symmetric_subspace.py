"""The occupation-basis oracle against independent product-space references.

The references here are test-only: the isometry V from exact factorials,
total spins and Hamiltonians from Kronecker products, the single-site
rotation from ``scipy.linalg.expm`` and the propagator from
``scipy.sparse.linalg.expm_multiply``.  They cover every system of the
verify suite with (2s+1)^N <= 4096 and the benchmark ladder rungs.
"""

import itertools
import math
from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from spinmanifold import analytic
from spinmanifold.evolution import (
    CoordinatePoint,
    _generator_spectrum,
    _lru_by_bytes,
    family_grid,
    state_at,
    tangent_states,
)
from spinmanifold.fs_metric import metric_numeric, speed_numeric
from spinmanifold.spin_ops import (
    Direction,
    DimensionGuardError,
    FieldConfig,
    SpinSystem,
    apply_total_spin,
    build_field_hamiltonian,
    build_spin_operators,
    occupation_basis,
    product_to_occupation,
    total_spin_operator,
)

#: (N, 2s): verify's zero-field and field systems, its topology system (6, 3)
#: and the ladder rungs (4, 1), (3, 3), (6, 1), (10, 1), (12, 1).
SYSTEMS = [(2, 1), (3, 2), (4, 1), (2, 3), (3, 3), (4, 2), (6, 3), (6, 1), (10, 1), (12, 1)]
#: field cases by test id; every one but field_a and field_b has a diagonal generator
FIELD_CASES = {
    "zero_field": None,
    "field_a": FieldConfig(1.0, Direction(0.7, 2.1)),
    "field_b": FieldConfig(1.6, Direction(2.3, 5.0)),
    "along_z": FieldConfig(2.5, Direction(0.0, 1.2)),
    "along_minus_z": FieldConfig(-1.3, Direction(math.pi, 0.4)),
    "zero_ratio": FieldConfig(0.0, Direction(0.7, 2.1)),
}
FIELDS, FIELD_IDS = list(FIELD_CASES.values()), list(FIELD_CASES)
POINTS = [CoordinatePoint(0.4, 1.3, 0.8), CoordinatePoint(2.2, 4.6, 1.9)]


def agrees(a, b, floor=1e-12):
    """verify's rule per component: <= ``floor`` absolute or <= 1e-9 relative."""
    a, b = np.ravel(a), np.ravel(b)
    dev = np.abs(a - b)
    rel = dev / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return bool(np.all((dev <= floor) | (rel <= 1e-9)))


def isometry(sys):
    """Dense V (d x D): column o is the normalized symmetrization of occupation o."""
    occ = occupation_basis(sys).occupations
    column = {tuple(row): o for o, row in enumerate(occ.tolist())}
    v = np.zeros((sys.dim, len(occ)))
    for i, levels in enumerate(itertools.product(range(sys.site_dim), repeat=sys.n_sites)):
        counts = tuple(levels.count(k) for k in range(sys.site_dim))
        multinomial = math.factorial(sys.n_sites) // math.prod(math.factorial(c) for c in counts)
        v[i, column[counts]] = 1.0 / math.sqrt(multinomial)
    return v


def kron_total(sys, site_op):
    """Sum_j I x ... x site_op (at j) x ... x I as a sparse matrix."""
    eye = sp.identity(sys.site_dim, format="csr")
    terms = (
        reduce(
            lambda a, b: sp.kron(a, b, format="csr"),
            [site_op if k == j else eye for k in range(sys.n_sites)],
        )
        for j in range(sys.n_sites)
    )
    return sp.csr_matrix(sum(terms))


def reference_vectors(sys, point, field):
    """Product-space psi and (d_theta, d_phi, d_chi), all test-only arithmetic."""
    sx, sy, sz = (sp.csr_matrix(op) for op in build_spin_operators(sys.two_s))
    tot = {"x": kron_total(sys, sx), "y": kron_total(sys, sy), "z": kron_total(sys, sz)}
    # Sum_{i<j} S_i^z S_j^z = ((Sum S^z)^2 - Sum (S^z)^2) / 2
    gen = (tot["z"] @ tot["z"] - kron_total(sys, sz @ sz)) / 2.0
    if field is not None:
        n = field.direction.unit_vector()
        gen = gen + field.ratio_h_over_j / 2.0 * sum(n[i] * tot[k] for i, k in enumerate("xyz"))
    up = np.zeros(sys.site_dim, dtype=complex)
    up[0] = 1.0
    rot = expm(-1j * point.theta * sy.toarray()) @ up
    site = np.exp(-1j * point.phi * np.diag(sz.toarray())) * rot
    d_site = np.exp(-1j * point.phi * np.diag(sz.toarray())) * (-1j * (sy @ rot))
    psi0 = reduce(np.kron, [site] * sys.n_sites)
    d_theta0 = sum(
        reduce(np.kron, [d_site if k == j else site for k in range(sys.n_sites)])
        for j in range(sys.n_sites)
    )
    d_phi0 = -1j * (tot["z"] @ psi0)
    start = np.stack([psi0, d_theta0, d_phi0], axis=1)
    evolved = expm_multiply(-2j * point.chi * sp.csc_matrix(gen), start)
    psi = evolved[:, 0]
    return psi, (evolved[:, 1], evolved[:, 2], -2j * (gen @ psi))


def reference_metric(sys, psi, vecs):
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            projected = np.vdot(vecs[i], psi) * np.vdot(psi, vecs[j])
            g[i, j] = (np.vdot(vecs[i], vecs[j]) - projected).real
    return sys.gamma**2 * g


@pytest.mark.parametrize("n,two_s", SYSTEMS)
def test_total_spin_restricts_to_occupation_operator(n, two_s):
    sys = SpinSystem(n, two_s)
    basis = occupation_basis(sys)
    v = isometry(sys)
    assert np.abs(v.T @ v - np.eye(v.shape[1])).max() < 1e-12
    rng = np.random.default_rng(n * 10 + two_s)
    stack = rng.normal(size=(2, 3, v.shape[1])) + 1j * rng.normal(size=(2, 3, v.shape[1]))
    for kind in "xyz":
        dense = total_spin_operator(sys, kind).matrix
        restricted = v.T @ (dense @ v)
        # column o of the operator is its apply on basis vector o
        applied = apply_total_spin(basis, kind, np.eye(v.shape[1])).T
        assert np.abs(restricted - applied).max() < 1e-12, kind
        assert np.abs(apply_total_spin(basis, kind, stack) - stack @ restricted.T).max() < 1e-12
        # Sum_j S_j^kind maps the symmetric subspace into itself
        assert np.abs(dense @ v - v @ restricted).max() < 1e-12, kind


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n,two_s", [(3, 1), (2, 3), (3, 2), (4, 1)])
def test_field_generator_is_restricted_hamiltonian(n, two_s, field):
    # the occupation-basis G, rebuilt from the spectrum the oracle
    # propagates with, against V^dag H V / 2J from the dense product-space H
    sys = SpinSystem(n, two_s, coupling_j=-1.7)
    evals, evecs = _generator_spectrum(n, two_s, field)
    rebuilt = np.diag(evals) if evecs is None else (evecs * evals) @ evecs.conj().T
    rows, weights = product_to_occupation(sys)
    v = np.zeros((sys.dim, sys.occupation_dim))
    v[np.arange(sys.dim), rows] = weights
    ham = build_field_hamiltonian(sys, field).matrix
    expected = v.T @ ham @ v / (2.0 * sys.coupling_j)
    assert np.abs(rebuilt - expected).max() < 1e-12


@pytest.mark.parametrize("n,two_s", [(4, 1), (3, 3)])
def test_zero_ratio_field_is_the_zero_field_bit_for_bit(n, two_s):
    sys = SpinSystem(n, two_s, coupling_j=0.8, gamma=1.3)
    grid = (np.linspace(0.0, math.pi, 5), [0.0, 1.3, 4.6], [0.0, 0.8, 7.1])
    zero_ratio = family_grid(sys, *grid, FIELD_CASES["zero_ratio"])
    for got, want in zip(zero_ratio, family_grid(sys, *grid)):
        assert got.tobytes() == want.tobytes()


def test_only_a_field_off_the_z_axis_takes_eigh(monkeypatch):
    sys = SpinSystem(5, 2)
    grid = ([0.4, 2.2], [1.3], [0.8, 1.9])
    family_grid(sys, *grid)  # caches the single-site Sy eigenvectors, which do take eigh
    _generator_spectrum.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in ("zero_field", "along_z", "along_minus_z", "zero_ratio"):
        family_grid(sys, *grid, FIELD_CASES[name])
    with pytest.raises(AssertionError, match="eigh called"):
        family_grid(sys, *grid, FIELD_CASES["field_a"])


def test_spectrum_cache_is_bounded_by_bytes():
    calls = []

    @_lru_by_bytes(budget=100)
    def spectrum(n):
        calls.append(n)
        return np.zeros(n), None

    spectrum(10)  # 80 bytes: kept
    spectrum(20)  # 160 bytes: over the budget, returned but not kept
    assert spectrum(20)[0].shape == (20,)
    spectrum(10)
    assert calls == [10, 20, 20]
    spectrum(5)  # 80 + 40 bytes: the least recently used entry goes
    spectrum(5)
    spectrum(10)
    assert calls == [10, 20, 20, 5, 10]
    spectrum.cache_clear()
    spectrum(10)
    assert calls == [10, 20, 20, 5, 10, 10]


@pytest.mark.parametrize("n,two_s", [(3, 1), (2, 3), (3, 2), (4, 1)])
def test_total_spin_operator_matches_kron_sum(n, two_s):
    sys = SpinSystem(n, two_s)
    for kind, op in zip("xyz", build_spin_operators(two_s)):
        expected = kron_total(sys, sp.csr_matrix(op)).toarray()
        assert np.abs(total_spin_operator(sys, kind).matrix - expected).max() < 1e-14, kind


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n,two_s", SYSTEMS)
def test_metric_matches_product_space(n, two_s, field):
    sys = SpinSystem(n, two_s, coupling_j=0.8, gamma=1.3)
    for point in POINTS:
        psi, vecs = reference_vectors(sys, point, field)
        ref = reference_metric(sys, psi, vecs)
        # the reference propagator carries ~1e-12 relative round-off of its own
        assert agrees(metric_numeric(sys, point, field).components, ref, 1e-10 * np.abs(ref).max())
        # the oracle's vectors are the reference ones, mapped in through V
        v = isometry(sys)
        assert np.abs(v @ state_at(sys, point, field).amplitudes - psi).max() < 1e-10
        tang = tangent_states(sys, point, field)
        for got, want in zip((tang.d_theta, tang.d_phi, tang.d_chi), vecs):
            assert np.abs(v @ got - want).max() < 1e-9 * max(1.0, np.abs(want).max())


def test_field_evolution_of_initial_state_matches_state_at():
    # the dense product-space propagator exp(-i chi H / J) applied to V psi(chi = 0)
    sys = SpinSystem(3, 2)
    fld = FieldConfig(1.3, Direction(0.8, 0.1))
    v = isometry(sys)
    psi0 = v @ state_at(sys, CoordinatePoint(1.1, 0.6), fld).amplitudes
    ham = build_field_hamiltonian(sys, fld).matrix
    evolved = expm(-1j * 2.4 * ham / sys.coupling_j) @ psi0
    direct = v @ state_at(sys, CoordinatePoint(1.1, 0.6, 2.4), fld).amplitudes
    assert np.abs(evolved - direct).max() < 1e-12


def test_metric_guard_counts_occupation_dimension():
    # d = 2^12 exceeds the guard, D = 13 does not: the oracle needs only D
    small_guard = SpinSystem(12, 1, dim_guard=20)
    point = CoordinatePoint(0.9, 0.2, 0.4)
    metric_numeric(small_guard, point)
    assert state_at(small_guard, point).amplitudes.shape == (13,)
    tang = tangent_states(small_guard, point)
    assert all(vec.shape == (13,) for vec in (tang.d_theta, tang.d_phi, tang.d_chi))
    # gathering into the product basis is a d-dimensional construction
    with pytest.raises(DimensionGuardError, match="Hilbert dimension 4096"):
        product_to_occupation(small_guard)
    with pytest.raises(DimensionGuardError, match="occupation-basis dimension 496"):
        metric_numeric(SpinSystem(30, 2, dim_guard=100), CoordinatePoint(0.9))


class TestThermodynamicLimit:
    """J -> J/N at N = 400, s = 1/2: d = 2^400, D = 401."""

    N = 400

    def test_rescaled_metric(self):
        # the metric in (theta, phi, chi) does not depend on J, so the J/N
        # model's oracle metric is the zero-field closed form; the chi
        # tangent is ~N times the others, and so is the round-off of its
        # row, hence the absolute floor 1e-12 * N per chi row and column
        sys = SpinSystem(self.N, 1, coupling_j=-6.2 / self.N, gamma=1.3)
        size = np.array([1.0, 1.0, self.N])
        floor = 1e-12 * np.outer(size, size).ravel()
        points = [(0.3, 0.2, 0.5), (0.8, 2.0, 3.1), (math.pi / 2, 4.4, 1.7), (2.5, 1.0, 6.0)]
        for theta, phi, chi in points:
            g = metric_numeric(sys, CoordinatePoint(theta, phi, chi)).components
            assert agrees(g, analytic.metric_closed_form(sys, theta).components, floor), theta

    def test_equator_speed_approaches_limit(self):
        j, gamma = -6.2, 1.3
        sys = SpinSystem(self.N, 1, coupling_j=j / self.N, gamma=gamma)
        v = speed_numeric(sys, CoordinatePoint(math.pi / 2, 0.7, 2.3))
        expected = abs(j) * gamma * sys.s * math.sqrt((self.N - 1) / (2.0 * self.N))
        assert v == pytest.approx(expected, rel=1e-9)
        v_limit = analytic.thermo_limit(SpinSystem(4, 1, coupling_j=j, gamma=gamma)).v_half_pi
        assert 0.0 < v_limit - v < v_limit / self.N
