"""Family states and their tangent states, in the occupation basis.

Every family state and tangent vector is built in the occupation basis
of the symmetric subspace (dimension C(N+2s, 2s); see
:mod:`spinmanifold.spin_ops`), and that is the only basis they are
returned in.  psi and its three tangents are first built at chi = 0,
for every field, from exact operator applications with no D x D array:
the polarized product state is sqrt(M(n)) prod_k c_k^{n_k}, the theta
and phi tangents apply -i Sum S^y and -i Sum S^z, and the chi tangent
-2i G.  One U(chi) = exp(-2i chi G) then moves all four rows: it is a
phase when G is diagonal (no field, or a field along z), goes through
the eigenvectors of the dense D x D generator only for a field off the
z axis, and is skipped when every chi is 0.
:func:`family_grid` builds them on a whole (theta, phi, chi) grid in a
few array operations; :func:`state_at` and :func:`tangent_states` are
its size-1 case.  A product-basis vector, where one is needed, is
gathered with :func:`spinmanifold.spin_ops.product_to_occupation`.
Global phases are never stripped: all comparisons downstream are gauge
invariant.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .spin_ops import (
    DimensionGuardError,
    FieldConfig,
    OccupationBasis,
    SpinSystem,
    _site_matrices,
    apply_generator,
    apply_total_spin,
    occupation_basis,
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
    its entries would otherwise leave the norm off 1 by up to ~7e-12 at
    N ~ 2e4, past :class:`StateVector`'s 1e-12 check.
    """
    occ = basis.occupations
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(occ > 0, occ * np.log(np.abs(sites))[:, None], 0.0)
    log_abs = basis.log_sqrt_multinomial + log_terms.sum(axis=2)
    log_abs -= 0.5 * np.log(np.exp(2.0 * log_abs).sum(axis=1, keepdims=True))
    angles = np.arctan2(sites.imag, sites.real)
    return np.exp(log_abs + 1j * (angles @ occ.T))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _generator_spectrum(basis: OccupationBasis, field: Optional[FieldConfig]):
    """``(evals, evecs)`` of G on the occupation basis, U(chi) = exp(-i 2 chi G).

    G = Sum_{i<j} S_i^z S_j^z + (h/2J) Sum_j S_j . n' depends on neither J
    nor gamma.  With no field, h/J = 0 or a field along z it is diagonal:
    ``evecs`` is None.  Only a field off the z axis is diagonalized
    densely, and only when its arrays fit in the host's physical memory
    (DimensionGuardError otherwise, raised before they are allocated).
    """
    dim, levels = basis.occupations.shape  # levels = 2s + 1
    if field is None or field.ratio_h_over_j == 0.0 or field.along_z:
        # G is diagonal, so G applied to the all-ones vector is its diagonal
        return apply_generator(basis, field, np.ones(dim)).real, None
    # building G peaks at about 3.5 + 2s D x D complex arrays (tracemalloc),
    # 2s of them the ladder-table gather on the identity, so count
    # 4 + 2s = 3 + levels of them; eigh needs fewer
    needed = 16 * dim**2 * (3 + levels)
    if needed > _physical_memory_bytes():
        raise DimensionGuardError(
            f"the dense generator of an off-axis field at occupation-basis dimension {dim}"
            f" needs ~{needed / 2**30:.1f} GiB, more than the host's physical memory"
        )
    # row o of G^T is G applied to basis vector o
    g = apply_generator(basis, field, np.eye(dim)).T
    try:
        return np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on Hermitian
        raise RuntimeError("eigensolver failed on the field generator") from exc


def _family_block(
    sys: SpinSystem,
    theta: np.ndarray,
    phi: np.ndarray,
    chi: np.ndarray,
    field: Optional[FieldConfig],
) -> np.ndarray:
    """psi, d_theta, d_phi, d_chi stacked on axis 3: shape (n_theta, n_phi, n_chi, 4, D)."""
    basis = occupation_basis(sys)
    psi0 = _symmetric_product(basis, _rotated_site_vector(sys.two_s, theta))
    phi_phases = np.exp(np.multiply.outer(phi, -1j * basis.total_z))
    rows = np.empty((theta.size, phi.size, 4, psi0.shape[1]), dtype=complex)
    psi = rows[:, :, 0]
    np.multiply(psi0[:, None], phi_phases, out=psi)
    np.multiply((-1j * apply_total_spin(basis, "y", psi0))[:, None], phi_phases, out=rows[:, :, 1])
    np.multiply(psi, -1j * basis.total_z, out=rows[:, :, 2])
    np.multiply(apply_generator(basis, field, psi), -2j, out=rows[:, :, 3])
    if not chi.any():
        return np.repeat(rows[:, :, None], chi.size, axis=2)
    evals, evecs = _generator_spectrum(basis, field)
    chi_phases = np.exp(np.multiply.outer(chi, -2j * evals))
    if evecs is None:
        return rows[:, :, None] * chi_phases[:, None]
    coeffs = rows @ evecs.conj()
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
    e^{-i phi Sum Sz} e^{-i theta Sum Sy} |s, ..., s>.  At chi = 0,
    d_theta = e^{-i phi Sum Sz} (-i Sum Sy) psi(theta, 0, 0), d_phi =
    -i Sum Sz psi and d_chi = -2i G psi, all exact operator applications
    (:func:`~spinmanifold.spin_ops.apply_total_spin` and
    :func:`~spinmanifold.spin_ops.apply_generator`); at chi they are
    U(chi) times those, since G commutes with U(chi).  The polarized
    states are built once per theta and the phi and chi phases are
    (n_phi, D) and (n_chi, D) arrays.  An all-zero chi grid propagates
    nothing, and only a field off the z axis with some chi != 0
    diagonalizes its dense generator.
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
