"""Initial-state preparation, Ising / field propagation and tangent states.

Every family state and tangent vector is built once, in the occupation
basis of the symmetric subspace (dimension C(N+2s, 2s); see
:mod:`spinmanifold.spin_ops`): the polarized product state is
sqrt(M(n)) prod_k c_k^{n_k} in that basis, the zero-field propagator is a
diagonal phase, and the field propagator goes through the eigenvectors of
the D x D generator.  Product-basis results are gathered from those
vectors.  Global phases are never stripped: all comparisons downstream are
gauge invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .spin_ops import (
    BASIS_CONVENTION,
    OCCUPATION_BASIS,
    FieldConfig,
    OccupationBasis,
    SpinSystem,
    _site_matrices,
    ising_pair_sums,
    occupation_basis,
    occupation_spin_operator,
    product_to_occupation,
)

#: Largest norm a state may have outside the symmetric subspace.
SYMMETRIC_RESIDUAL_TOL = 1e-12


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitude vector, by default over the product basis."""

    amplitudes: np.ndarray
    basis: str = BASIS_CONVENTION

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


@dataclass(frozen=True)
class CoordinatePoint:
    """A point (theta, phi, chi) of the three-parameter state family.

    chi = J*t is dimensionless and unrestricted; periodicity is the
    caller's business.
    """

    theta: float
    phi: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")


@dataclass(eq=False)
class TangentStates:
    """Parameter derivatives of the evolved state (unnormalized vectors)."""

    d_theta: np.ndarray
    d_phi: np.ndarray
    d_chi: np.ndarray


@lru_cache(maxsize=64)
def _site_y_eig(two_s: int):
    """Eigendecomposition of the single-site Sy, for cheap rotations."""
    evals, evecs = np.linalg.eigh(_site_matrices(two_s)["y"])
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def _rotated_site_vector(two_s: int, theta: float, phi: float) -> np.ndarray:
    """Single-site e^{-i phi Sz} e^{-i theta Sy} |s>."""
    evals, evecs = _site_y_eig(two_s)
    v = evecs @ (np.exp(-1j * theta * evals) * evecs[0].conj())
    m = (two_s / 2.0) - np.arange(two_s + 1)
    return np.exp(-1j * phi * m) * v


def _symmetric_product(basis: OccupationBasis, site: np.ndarray) -> np.ndarray:
    """The product state site^{(x)N} in the occupation basis: sqrt(M(n)) prod_k c_k^{n_k}.

    Evaluated in log space so that large N neither overflows sqrt(M) nor
    underflows c^n.  The result is renormalized: the lgamma round-off
    shared by all rows would otherwise enter the metric's projector term
    multiplied by <G>^2, which grows as N^4.
    """
    occ = basis.occupations
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.log(np.abs(site))
        log_terms = np.where(occ > 0, occ * log_c, 0.0)
    amps = np.exp(basis.log_sqrt_multinomial + log_terms.sum(axis=1) + 1j * (occ @ np.angle(site)))
    return amps / np.linalg.norm(amps)


@lru_cache(maxsize=64)
def _field_generator_eig(sys: SpinSystem, field: FieldConfig):
    """Eigendecomposition of G = Sum S_i^z S_j^z + (h/2J) Sum S_j . n' on the occupation basis.

    G is the dimensionless generator of Eq.-(33)-style evolution:
    U(chi) = exp(-i 2 chi G).
    """
    half_ratio = field.ratio_h_over_j / 2.0
    g = np.diag(occupation_basis(sys).ising_pair_sums).astype(complex)
    for kind, n_kind in zip("xyz", field.direction.unit_vector()):
        g += half_ratio * n_kind * occupation_spin_operator(sys, kind)
    try:
        evals, evecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on Hermitian
        raise RuntimeError("eigensolver failed on the field generator") from exc
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


@lru_cache(maxsize=1)
def _family_vectors(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig]
) -> Tuple[np.ndarray, TangentStates]:
    """psi(theta, phi, chi) and its three parameter derivatives, read-only.

    All vectors are in the occupation basis.  psi = U(chi) e^{-i phi Sum Sz}
    e^{-i theta Sum Sy} |s, ..., s>; d_theta and d_phi are the initial-state
    derivatives -i Sum Sy and -i Sum Sz (exact operator applications)
    pushed through U(chi), and d_chi = -2i G psi.  The last point is
    cached: the metric, the speed and verify ask for the state and the
    tangents of one point back to back.
    """
    basis = occupation_basis(sys)
    psi0 = _symmetric_product(basis, _rotated_site_vector(sys.two_s, point.theta, 0.0))
    phi_phases = np.exp(-1j * point.phi * basis.total_z)
    start = np.empty((3, len(psi0)), dtype=complex)
    start[0] = phi_phases * psi0
    start[1] = phi_phases * (-1j * (occupation_spin_operator(sys, "y") @ psi0))
    start[2] = -1j * basis.total_z * start[0]
    if field is None:
        evolved = np.exp(-2j * point.chi * basis.ising_pair_sums) * start
        g_psi = basis.ising_pair_sums * evolved[0]
    else:
        evals, evecs = _field_generator_eig(sys, field)
        coeffs = np.exp(-2j * point.chi * evals) * (start @ evecs.conj())
        evolved = coeffs @ evecs.T
        g_psi = evecs @ (evals * coeffs[0])
    d_chi = -2j * g_psi
    evolved.setflags(write=False)
    d_chi.setflags(write=False)
    return evolved[0], TangentStates(d_theta=evolved[1], d_phi=evolved[2], d_chi=d_chi)


def _to_product(sys: SpinSystem, vec: np.ndarray) -> np.ndarray:
    rows, weights = product_to_occupation(sys)
    return vec[rows] * weights


def initial_state(sys: SpinSystem, theta: float, phi: float = 0.0) -> StateVector:
    """Polarized product state: every spin at maximal projection along n.

    Constructed as e^{-i phi Sum Sz} e^{-i theta Sum Sy} |s, ..., s>, which
    factorizes into identical single-site rotations.
    """
    sys.check_dim_guard()
    psi, _ = _family_vectors(sys, CoordinatePoint(theta, phi), None)
    return StateVector(_to_product(sys, psi))


def evolve_ising(sys: SpinSystem, state: StateVector, chi: float) -> StateVector:
    """Apply e^{-i 2 chi Sum_{i<j} S_i^z S_j^z} as diagonal phases."""
    phases = np.exp(-2j * chi * ising_pair_sums(sys))
    return StateVector(phases * state.amplitudes)


def evolve_with_field(
    sys: SpinSystem, field: FieldConfig, state: StateVector, chi: float
) -> StateVector:
    """Apply exp{-i 2 chi (Sum S_i^z S_j^z + (h/2J) Sum S_j . n')} to a product-basis state.

    The propagator is applied in the occupation basis, so ``state`` must
    lie in the symmetric subspace (every family state does): a state with
    norm above 1e-12 outside it raises ValueError.
    """
    sys.check_dim_guard()
    rows, weights = product_to_occupation(sys)
    amps = state.amplitudes
    occ = np.zeros(sys.occupation_dim, dtype=complex)
    np.add.at(occ, rows, weights * amps)
    residual = float(np.linalg.norm(amps - occ[rows] * weights))
    if residual > SYMMETRIC_RESIDUAL_TOL:
        raise ValueError(
            f"state has norm {residual:.3e} outside the symmetric subspace "
            f"(limit {SYMMETRIC_RESIDUAL_TOL:.0e}); field evolution is only defined there"
        )
    evals, evecs = _field_generator_eig(sys, field)
    evolved = evecs @ (np.exp(-2j * chi * evals) * (evecs.conj().T @ occ))
    return StateVector(_to_product(sys, evolved))


def state_at(
    sys: SpinSystem,
    point: CoordinatePoint,
    field: Optional[FieldConfig] = None,
    *,
    occupation: bool = False,
) -> StateVector:
    """Evolved family member at (theta, phi, chi), zero-field or dressed.

    In the product basis by default; ``occupation=True`` returns the
    C(N+2s, 2s)-dimensional occupation-basis vector instead.
    """
    psi, _ = _family_vectors(sys, point, field)
    if occupation:
        return StateVector(psi, OCCUPATION_BASIS)
    return StateVector(_to_product(sys, psi))


def tangent_states(
    sys: SpinSystem,
    point: CoordinatePoint,
    field: Optional[FieldConfig] = None,
    *,
    occupation: bool = False,
) -> TangentStates:
    """Analytic derivatives of the evolved state w.r.t. (theta, phi, chi).

    No finite differencing: each derivative is an operator applied to the
    exactly propagated state (see :func:`_family_vectors`).  In the product
    basis by default; ``occupation=True`` keeps the occupation basis.
    """
    _, tang = _family_vectors(sys, point, field)
    vecs = (tang.d_theta, tang.d_phi, tang.d_chi)
    if occupation:
        return TangentStates(*vecs)
    return TangentStates(*(_to_product(sys, v) for v in vecs))


def chi_period(two_s: int) -> float:
    """Zero-field period of chi: 2*pi for half-integer s, pi for integer s."""
    return 2.0 * math.pi if two_s % 2 == 1 else math.pi
