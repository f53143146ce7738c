"""Family states and their tangent states, in the occupation basis.

Every family state and tangent vector is built in the occupation basis
of the symmetric subspace (dimension C(N+2s, 2s); see
:mod:`spinmanifold.spin_ops`), and that is the only basis they are
returned in: the polarized product state is sqrt(M(n)) prod_k c_k^{n_k}
in that basis, the zero-field propagator is a diagonal phase, and the
field propagator goes through the eigenvectors of the D x D generator.
:func:`family_grid` builds them on a whole (theta, phi, chi) grid in a
few array operations; :func:`state_at` and :func:`tangent_states` are
its size-1 case.  A product-basis vector, where one is needed, is
gathered with :func:`spinmanifold.spin_ops.product_to_occupation`.
Global phases are never stripped: all comparisons downstream are gauge
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .spin_ops import (
    FieldConfig,
    OccupationBasis,
    SpinSystem,
    _generator_matrix,
    _occupation_basis,
    _site_matrices,
    occupation_basis,
    occupation_spin_operator,
)


@dataclass(eq=False)
class StateVector:
    """Normalized complex amplitude vector over the occupation basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


@dataclass(frozen=True)
class CoordinatePoint:
    """A point (theta, phi, chi) of the three-parameter state family.

    chi = J*t is dimensionless and unrestricted apart from being finite;
    periodicity is the caller's business.
    """

    theta: float
    phi: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not (math.isfinite(self.phi) and math.isfinite(self.chi)):
            raise ValueError(f"phi and chi must be finite, got phi={self.phi}, chi={self.chi}")


@dataclass(eq=False)
class TangentStates:
    """Parameter derivatives of the evolved state (unnormalized vectors)."""

    d_theta: np.ndarray
    d_phi: np.ndarray
    d_chi: np.ndarray


@lru_cache(maxsize=64)
def _site_y_eig(two_s: int):
    """Eigenvalues of the single-site Sy and the rows that rotate |s> with them.

    With Sy = V diag(lambda) V^dag, e^{-i theta Sy}|s> = e^{-i theta lambda} @ R
    where R[k, j] = conj(V[0, k]) V[j, k].
    """
    evals, evecs = np.linalg.eigh(_site_matrices(two_s)["y"])
    rows = evecs[0].conj()[:, None] * evecs.T
    evals.setflags(write=False)
    rows.setflags(write=False)
    return evals, rows


def _rotated_site_vector(two_s: int, theta) -> np.ndarray:
    """Single-site e^{-i theta Sy} |s>, one row per entry of an array theta."""
    evals, rows = _site_y_eig(two_s)
    return np.exp(-1j * np.multiply.outer(theta, evals)) @ rows


def _symmetric_product(basis: OccupationBasis, sites: np.ndarray) -> np.ndarray:
    """Product states site^{(x)N} in the occupation basis: sqrt(M(n)) prod_k c_k^{n_k}.

    ``sites`` stacks single-site vectors along its first axis; the result
    has one row of length D per site vector.  Evaluated in log space so
    that large N neither overflows sqrt(M) nor underflows c^n.  Each row
    is renormalized, in log space too: the lgamma round-off shared by all
    its entries would otherwise enter the metric's projector term
    multiplied by <G>^2, which grows as N^4.
    """
    occ = basis.occupations
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(occ > 0, occ * np.log(np.abs(sites))[:, None], 0.0)
    log_abs = basis.log_sqrt_multinomial + log_terms.sum(axis=2)
    log_abs -= 0.5 * np.log(np.exp(2.0 * log_abs).sum(axis=1, keepdims=True))
    angles = np.arctan2(sites.imag, sites.real)
    return np.exp(log_abs + 1j * (angles @ occ.T))


@lru_cache(maxsize=64)
def _field_generator_eig(sys: SpinSystem, field: FieldConfig):
    """Eigendecomposition of the generator G on the occupation basis.

    G = Sum S_i^z S_j^z + (h/2J) Sum S_j . n' is the dimensionless
    generator of Eq.-(33)-style evolution: U(chi) = exp(-i 2 chi G).
    """
    g = _generator_matrix(
        occupation_basis(sys).ising_pair_sums,
        lambda kind: occupation_spin_operator(sys, kind),
        field,
    )
    try:
        evals, evecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on Hermitian
        raise RuntimeError("eigensolver failed on the field generator") from exc
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


@lru_cache(maxsize=64)
def _diagonal_generators(n_sites: int, two_s: int) -> np.ndarray:
    """-i Sum Sz and -2i Sum_{i<j} S_i^z S_j^z as rows of a (2, D) array.

    Both are diagonal on the occupation basis: times psi they give d_phi
    and the zero-field d_chi, and times phi and chi the exponents of the
    phases.
    """
    basis = _occupation_basis(n_sites, two_s)
    gens = np.array((-1j * basis.total_z, -2j * basis.ising_pair_sums))
    gens.setflags(write=False)
    return gens


def _family_block(
    sys: SpinSystem,
    theta: np.ndarray,
    phi: np.ndarray,
    chi: np.ndarray,
    field: Optional[FieldConfig],
) -> np.ndarray:
    """psi, d_theta, d_phi, d_chi stacked on axis 3: shape (n_theta, n_phi, n_chi, 4, D)."""
    basis = occupation_basis(sys)
    minus_i_z, minus_2i_ising = gens = _diagonal_generators(sys.n_sites, sys.two_s)
    psi0 = _symmetric_product(basis, _rotated_site_vector(sys.two_s, theta))
    start = np.empty((theta.size, 4, psi0.shape[1]), dtype=complex)
    start[:, 0] = psi0
    start[:, 1] = psi0 @ (-1j * occupation_spin_operator(sys, "y").T)
    phi_exponents = phi[:, None, None] * minus_i_z
    if field is None:
        # U(chi) and e^{-i phi Sum Sz} are diagonal: one phase array per
        # (phi, chi) moves all four rows, d_chi = -2i G psi included
        start[:, 2:] = psi0[:, None] * gens
        phases = np.exp(phi_exponents + chi[:, None] * minus_2i_ising)
        return start[:, None, None] * phases[:, :, None]
    start[:, 2] = psi0 * minus_i_z
    start[:, 3] = psi0
    evals, evecs = _field_generator_eig(sys, field)
    coeffs = (start[:, None] * np.exp(phi_exponents)) @ evecs.conj()
    coeffs[:, :, 3] *= -2j * evals  # d_chi = -2i G psi, in G's eigenbasis
    chi_phases = np.exp(np.multiply.outer(chi, -2j * evals))
    return (coeffs[:, :, None] * chi_phases[:, None]) @ evecs.T


def family_grid(
    sys: SpinSystem,
    theta,
    phi,
    chi,
    field: Optional[FieldConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """psi and its three parameter derivatives on the product grid theta x phi x chi.

    Returns ``(psi, tangents)`` in the occupation basis: psi has shape
    (n_theta, n_phi, n_chi, D) and tangents (n_theta, n_phi, n_chi, 3, D),
    the rows of the fourth axis being d_theta, d_phi, d_chi.  psi = U(chi)
    e^{-i phi Sum Sz} e^{-i theta Sum Sy} |s, ..., s>; d_theta and d_phi
    are the initial-state derivatives -i Sum Sy and -i Sum Sz (exact
    operator applications) pushed through U(chi), and d_chi = -2i G psi,
    applied before U(chi), with which G commutes.  The polarized states
    are built once per theta, the phi and chi phases are (n_phi, D) and
    (n_chi, D) arrays, and a field propagates through the eigenvectors of
    its generator.
    """
    theta, phi, chi = (np.array(x, dtype=float, ndmin=1) for x in (theta, phi, chi))
    if not (theta.min() >= 0.0 and theta.max() <= math.pi):  # NaN fails too
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    if not (np.isfinite(phi).all() and np.isfinite(chi).all()):
        raise ValueError(f"phi and chi must be finite, got phi={phi}, chi={chi}")
    vecs = _family_block(sys, theta, phi, chi, field)
    return vecs[..., 0, :], vecs[..., 1:, :]


@lru_cache(maxsize=1)
def _family_vectors(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig]
) -> np.ndarray:
    """Read-only rows psi, d_theta, d_phi, d_chi at one point: the size-1 :func:`family_grid`.

    The last point is cached: the metric, the speed and verify ask for the
    state and the tangents of one point back to back.
    """
    coords = (np.array([x]) for x in (point.theta, point.phi, point.chi))
    vecs = _family_block(sys, *coords, field)[0, 0, 0]
    vecs.setflags(write=False)
    return vecs


def state_at(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> StateVector:
    """Evolved family member at (theta, phi, chi), zero-field or dressed.

    A C(N+2s, 2s)-dimensional occupation-basis vector.
    """
    return StateVector(_family_vectors(sys, point, field)[0])


def tangent_states(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> TangentStates:
    """Analytic derivatives of the evolved state w.r.t. (theta, phi, chi).

    No finite differencing: each derivative is an operator applied to the
    exactly propagated state (see :func:`family_grid`).  Occupation-basis
    vectors, like :func:`state_at`.
    """
    return TangentStates(*_family_vectors(sys, point, field)[1:])
