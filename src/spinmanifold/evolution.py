"""Family states and their tangent states, in the occupation basis.

Every family state and tangent vector is built in the occupation basis
of the symmetric subspace (dimension C(N+2s, 2s); see
:mod:`spinmanifold.spin_ops`), and that is the only basis they are
returned in: the polarized product state is sqrt(M(n)) prod_k c_k^{n_k}
in that basis, a generator that is diagonal there (no field, or a field
along z) propagates as a phase, and only a field off the z axis goes
through the eigenvectors of the D x D generator.
:func:`family_grid` builds them on a whole (theta, phi, chi) grid in a
few array operations; :func:`state_at` and :func:`tangent_states` are
its size-1 case.  A product-basis vector, where one is needed, is
gathered with :func:`spinmanifold.spin_ops.product_to_occupation`.
Global phases are never stripped: all comparisons downstream are gauge
invariant.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional, Tuple

import numpy as np

from .spin_ops import (
    FieldConfig,
    OccupationBasis,
    SpinSystem,
    _generator_matrix,
    _occupation_basis,
    _site_matrices,
    _total_spin_matrix,
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


#: bytes of spectra the generator-spectrum cache keeps: one default verify
#: suite asks for 69 spectra, together ~0.3 MB, in a fixed cyclic order
SPECTRUM_CACHE_BYTES = 16 * 2**20


def _lru_by_bytes(budget: int):
    """A least-recently-used cache of a function returning a tuple of arrays
    (None allowed), bounded by the arrays' ``nbytes`` in total, not by entry
    count.  A result larger than ``budget`` is returned but not kept."""

    def decorate(fn):
        entries = OrderedDict()  # key -> (result, its nbytes)
        held = 0

        @wraps(fn)
        def cached(*key):
            nonlocal held
            if key in entries:
                entries.move_to_end(key)
                return entries[key][0]
            result = fn(*key)
            size = sum(a.nbytes for a in result if a is not None)
            if size <= budget:
                entries[key] = (result, size)
                held += size
                while held > budget:
                    held -= entries.popitem(last=False)[1][1]
            return result

        def cache_clear():
            nonlocal held
            entries.clear()
            held = 0

        cached.cache_clear = cache_clear
        return cached

    return decorate


@_lru_by_bytes(SPECTRUM_CACHE_BYTES)
def _generator_spectrum(n_sites: int, two_s: int, field: Optional[FieldConfig]):
    """Read-only ``(evals, evecs)`` of G on the occupation basis, U(chi) = exp(-i 2 chi G).

    G = Sum_{i<j} S_i^z S_j^z + (h/2J) Sum_j S_j . n' depends on neither J
    nor gamma.  With no field, h/J = 0 or a field along z it is diagonal:
    ``evecs`` is None.  Only a field off the z axis is diagonalized densely.
    """
    basis = _occupation_basis(n_sites, two_s)
    if field is None or field.ratio_h_over_j == 0.0:
        return basis.ising_pair_sums, None
    if field.along_z:
        # n' = (0, 0, cos theta'): at theta' = pi the x part sin(pi) ~ 1.2e-16 is dropped
        z_part = field.ratio_h_over_j / 2.0 * math.cos(field.direction.polar)
        evals = basis.ising_pair_sums + z_part * basis.total_z
        evals.setflags(write=False)
        return evals, None
    g = _generator_matrix(
        basis.ising_pair_sums, lambda kind: _total_spin_matrix(basis, kind), field
    )
    try:
        evals, evecs = np.linalg.eigh(g)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on Hermitian
        raise RuntimeError("eigensolver failed on the field generator") from exc
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def _family_block(
    sys: SpinSystem,
    theta: np.ndarray,
    phi: np.ndarray,
    chi: np.ndarray,
    field: Optional[FieldConfig],
) -> np.ndarray:
    """psi, d_theta, d_phi, d_chi stacked on axis 3: shape (n_theta, n_phi, n_chi, 4, D)."""
    basis = occupation_basis(sys)
    evals, evecs = _generator_spectrum(sys.n_sites, sys.two_s, field)
    minus_i_z = -1j * basis.total_z
    minus_2i_g = -2j * evals
    psi0 = _symmetric_product(basis, _rotated_site_vector(sys.two_s, theta))
    start = np.empty((theta.size, 4, psi0.shape[1]), dtype=complex)
    start[:, 0] = psi0
    start[:, 1] = -1j * apply_total_spin(basis, "y", psi0)
    start[:, 2] = psi0 * minus_i_z
    start[:, 3] = psi0  # d_chi = -2i G psi, G applied in its eigenbasis below
    phi_exponents = phi[:, None, None] * minus_i_z
    if evecs is None:
        # U(chi) and e^{-i phi Sum Sz} are diagonal: one phase array per
        # (phi, chi) moves all four rows
        start[:, 3] *= minus_2i_g
        phases = np.exp(phi_exponents + chi[:, None] * minus_2i_g)
        return start[:, None, None] * phases[:, :, None]
    coeffs = (start[:, None] * np.exp(phi_exponents)) @ evecs.conj()
    coeffs[:, :, 3] *= minus_2i_g
    chi_phases = np.exp(np.multiply.outer(chi, minus_2i_g))
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
    (n_chi, D) arrays, and only a field off the z axis propagates through
    the eigenvectors of its generator.
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
