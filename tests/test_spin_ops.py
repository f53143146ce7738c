import itertools
import math
from functools import reduce

import numpy as np
import pytest

from spinmanifold import spin_ops
from spinmanifold.spin_ops import (
    Direction,
    DimensionGuardError,
    FieldConfig,
    SpinSystem,
    build_field_hamiltonian,
    build_spin_operators,
    ising_pair_sums,
    total_spin_operator,
)


def embed(site_op, site, sys):
    """Test-local kron: ``site_op`` at 1-based ``site``, identity elsewhere, site 1 slowest."""
    eye = np.eye(sys.site_dim)
    return reduce(np.kron, [site_op if k == site else eye for k in range(1, sys.n_sites + 1)])


def basis_labels(sys):
    """(m_1, ..., m_N) of every product-basis state, lexicographic with site 1 slowest."""
    levels = sys.s - np.arange(sys.site_dim)
    return np.array(list(itertools.product(levels, repeat=sys.n_sites)))


class TestSpinSystem:
    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            SpinSystem(1, 1)

    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            SpinSystem(2, 0)

    def test_dimension_guard(self, monkeypatch):
        # d = 4^4: the Ising Hamiltonian's 2.5 d x d complex arrays (2.6 MB)
        # do not fit a 1 MiB host
        monkeypatch.setattr(spin_ops, "_physical_memory_bytes", lambda: 2**20)
        with pytest.raises(DimensionGuardError, match="Hilbert dimension 256"):
            build_field_hamiltonian(SpinSystem(4, 3), None)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coupling_j": math.nan},
            {"coupling_j": math.inf},
            {"gamma": math.nan},
            {"gamma": math.inf},
            {"gamma": -math.inf},
        ],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            SpinSystem(3, 1, **kwargs)

    @pytest.mark.parametrize(
        "n_sites,two_s,field",
        [(3, 1.5, "two_s"), (2.5, 1, "n_sites"), (3.0, 2, "n_sites"), (3, "2", "two_s")],
    )
    def test_rejects_non_integer_sizes(self, n_sites, two_s, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SpinSystem(n_sites, two_s)

    def test_accepts_numpy_integer_sizes(self):
        sys = SpinSystem(np.int64(3), np.int32(2))
        assert sys.occupation_dim == 10

    def test_half_integer_bookkeeping(self):
        sys = SpinSystem(3, 3)
        assert sys.s == 1.5
        assert sys.site_dim == 4
        assert sys.dim == 64


class TestSpinOperators:
    def test_spin_half_is_pauli_over_two(self):
        sx, sy, sz = build_spin_operators(1)
        assert np.allclose(sz, np.diag([0.5, -0.5]))
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])

    def test_spin_one_ladder_coefficients(self):
        sx, sy, sz = build_spin_operators(2)
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
        # sqrt(s(s+1) - m(m+1)) / 2 = 1/sqrt(2) on both off-diagonals
        assert sx[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert sx[1, 2] == pytest.approx(1 / math.sqrt(2))

    def test_rejects_trivial_spin(self):
        with pytest.raises(ValueError):
            build_spin_operators(0)

    @pytest.mark.parametrize("two_s", range(1, 9))
    def test_commutation_algebra(self, two_s):
        sx, sy, sz = build_spin_operators(two_s)
        comm = sx @ sy - sy @ sx
        assert np.abs(comm - 1j * sz).max() < 1e-12
        comm = sy @ sz - sz @ sy
        assert np.abs(comm - 1j * sx).max() < 1e-12
        comm = sz @ sx - sx @ sz
        assert np.abs(comm - 1j * sy).max() < 1e-12

    @pytest.mark.parametrize("two_s", range(1, 9))
    def test_hermitian(self, two_s):
        for op in build_spin_operators(two_s):
            assert np.abs(op - op.conj().T).max() < 1e-14

    def test_sz_eigenbasis_is_canonical(self):
        _, _, sz = build_spin_operators(4)
        assert np.allclose(sz, np.diag(np.diag(sz)))
        assert np.allclose(np.diag(sz).real, [2, 1, 0, -1, -2])


class TestEmbedding:
    """The product-basis order: lexicographic, site 1 slowest, m descending per site."""

    def test_site_one_is_slowest(self):
        # index i = 3 m-digits of (N=3, s=1), site 1 the most significant
        sys = SpinSystem(3, 2)
        labels = basis_labels(sys)
        assert labels[:4].tolist() == [[1, 1, 1], [1, 1, 0], [1, 1, -1], [1, 0, 1]]
        _, _, sz = build_spin_operators(2)
        assert np.allclose(embed(sz, 1, sys).diagonal().real, labels[:, 0])
        total_z = total_spin_operator(sys, "z").matrix
        assert np.allclose(total_z.diagonal().real, labels.sum(axis=1))

    def test_site_two_is_fastest(self):
        sys = SpinSystem(2, 1)
        _, _, sz = build_spin_operators(1)
        assert np.allclose(embed(sz, 2, sys).diagonal().real, [0.5, -0.5, 0.5, -0.5])
        # Sum_{i<j} m_i m_j of (1/2, 1/2), (1/2, -1/2), (-1/2, 1/2), (-1/2, -1/2)
        assert np.allclose(ising_pair_sums(sys), [0.25, -0.25, -0.25, 0.25])

    def test_distinct_sites_commute(self):
        sys = SpinSystem(3, 2)
        sx, sy, _ = build_spin_operators(2)
        a = embed(sx, 1, sys)
        b = embed(sy, 3, sys)
        assert np.abs(a @ b - b @ a).max() == 0.0

    def test_total_operator_is_site_sum(self):
        sys = SpinSystem(3, 2)
        for kind, site_op in zip("xyz", build_spin_operators(2)):
            total = sum(embed(site_op, k, sys) for k in (1, 2, 3))
            assert np.abs(total_spin_operator(sys, kind).matrix - total).max() < 1e-14, kind


class TestIsingHamiltonian:
    def test_two_site_diagonal(self):
        h = build_field_hamiltonian(SpinSystem(2, 1, coupling_j=1.0), None)
        assert np.allclose(np.diag(h.matrix).real, [0.5, -0.5, -0.5, 0.5])

    def test_all_up_eigenvalue(self):
        h = build_field_hamiltonian(SpinSystem(3, 1, coupling_j=1.0), None)
        # three pairs, each contributing 2 J (1/2)^2
        assert np.diag(h.matrix)[0].real == pytest.approx(1.5)

    def test_zero_coupling(self):
        h = build_field_hamiltonian(SpinSystem(2, 2, coupling_j=0.0), None)
        assert np.abs(h.matrix).max() == 0.0

    def test_commutes_with_total_z(self):
        sys = SpinSystem(3, 2)
        h = build_field_hamiltonian(sys, None).matrix
        sz_tot = total_spin_operator(sys, "z").matrix
        assert np.abs(h @ sz_tot - sz_tot @ h).max() == 0.0

    def test_pair_sums_match_basis_labels(self):
        sys = SpinSystem(3, 2)
        table = basis_labels(sys)
        explicit = np.array(
            [sum(r[i] * r[j] for i in range(3) for j in range(i + 1, 3)) for r in table]
        )
        assert np.allclose(ising_pair_sums(sys), explicit)


class TestFieldHamiltonian:
    def test_zero_field_matches_ising(self):
        sys = SpinSystem(3, 1, coupling_j=1.3)
        # 2J Sum_{i<j} S_i^z S_j^z from test-local krons, site pairs (1,2), (1,3), (2,3)
        _, _, sz = build_spin_operators(1)
        pairs = itertools.combinations(range(1, 4), 2)
        ising = 2.0 * 1.3 * sum(embed(sz, i, sys) @ embed(sz, j, sys) for i, j in pairs)
        for fld in (FieldConfig(0.0, Direction(0.7, 0.2)), None):
            assert np.allclose(build_field_hamiltonian(sys, fld).matrix, ising)

    def test_field_along_z_stays_diagonal(self):
        sys = SpinSystem(2, 1, coupling_j=1.0)
        fld = FieldConfig(2.0, Direction(0.0, 0.0))
        mat = build_field_hamiltonian(sys, fld).matrix
        assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-14

    def test_transverse_field_against_kron_oracle(self):
        # independent construction from explicit Pauli/2 kroneckers
        sys = SpinSystem(2, 1, coupling_j=1.0)
        fld = FieldConfig(1.0, Direction(math.pi / 2, 0.0))
        mat = build_field_hamiltonian(sys, fld).matrix
        sz = np.diag([0.5, -0.5]).astype(complex)
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        eye = np.eye(2)
        expected = 2.0 * np.kron(sz, sz) + np.kron(sx, eye) + np.kron(eye, sx)
        assert np.abs(mat - expected).max() < 1e-14
        assert abs(np.trace(mat)) < 1e-14
        evals = np.linalg.eigvalsh(mat)
        assert np.allclose(evals, -evals[::-1])

    def test_hermitian_for_generic_direction(self):
        sys = SpinSystem(3, 3, coupling_j=-0.8)
        fld = FieldConfig(1.7, Direction(1.1, 2.3))
        mat = build_field_hamiltonian(sys, fld).matrix
        assert np.abs(mat - mat.conj().T).max() < 1e-12

    def test_zero_fields_build_no_total_spin(self, monkeypatch):
        def refused(sys, kind):
            raise AssertionError("a zero field needs no total spin")

        monkeypatch.setattr(spin_ops, "total_spin_operator", refused)
        sys = SpinSystem(3, 2, coupling_j=-0.8)
        for fld in (None, FieldConfig(0.0, Direction(1.0))):
            mat = build_field_hamiltonian(sys, fld).matrix
            assert np.array_equal(mat, np.diag(2.0 * sys.coupling_j * ising_pair_sums(sys)))


class TestDirectionAndFieldConfig:
    def test_unit_vector_norm(self):
        d = Direction(1.2, 5.6)
        assert np.linalg.norm(d.components()) == pytest.approx(1.0)

    def test_unit_vector_is_exact_along_z(self):
        # sin(pi) ~ 1.2e-16 would leave an x part, and H a Sum S^x term
        assert Direction(math.pi, 0.4).components() == (0.0, 0.0, -1.0)
        assert Direction(0.0, 2.1).components() == (0.0, 0.0, 1.0)
        ham = build_field_hamiltonian(SpinSystem(3, 2), FieldConfig(1.3, Direction(math.pi, 0.4)))
        assert np.count_nonzero(ham.matrix - np.diag(np.diag(ham.matrix))) == 0

    def test_azimuth_wraps(self):
        d = Direction(1.0, -math.pi)
        assert d.azimuth == pytest.approx(math.pi)

    @pytest.mark.parametrize("azimuth", [-1e-20, -5e-324, -0.0, 2.0 * math.pi, -2.0 * math.pi])
    def test_azimuth_stays_below_two_pi(self, azimuth):
        # -1e-20 % 2 pi rounds to 2 pi itself, the same direction as azimuth 0
        d = Direction(0.5, azimuth)
        assert 0.0 <= d.azimuth < 2.0 * math.pi
        assert d == Direction(0.5, 0.0)

    def test_polar_range(self):
        with pytest.raises(ValueError):
            Direction(3.5, 0.0)

    def test_rational_ratio_consistency(self):
        with pytest.raises(ValueError):
            FieldConfig(0.5, Direction(0.0), rational_ratio=(1, 3))
        with pytest.raises(ValueError):
            FieldConfig(0.5, Direction(0.0), rational_ratio=(2, 4))
        fld = FieldConfig(0.5, Direction(0.0), rational_ratio=(1, 2))
        assert fld.along_z

    @pytest.mark.parametrize(
        "polar,along", [(0.0, True), (math.pi, True), (1e-12, False), (math.pi - 1e-12, False)]
    )
    def test_along_z_either_sign(self, polar, along):
        # sin(pi) is 1.2e-16, so the test is on the angle itself
        assert FieldConfig(1.0, Direction(polar, 0.7)).along_z is along

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="finite"):
            FieldConfig(ratio, Direction(0.3, 1.0))

    @pytest.mark.parametrize("azimuth", [math.nan, math.inf])
    def test_rejects_non_finite_azimuth(self, azimuth):
        with pytest.raises(ValueError, match="finite"):
            Direction(0.3, azimuth)
