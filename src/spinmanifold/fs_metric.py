"""Brute-force Fubini-Study metric, energy uncertainty and evolution speed.

This is the oracle side: the metric is assembled from exact states and
tangent vectors in the occupation basis of the symmetric subspace
(dimension C(N+2s, 2s)), independent of the closed forms in
:mod:`spinmanifold.analytic`.  :func:`metric_from_vectors` assembles and
checks the metrics of a whole
:func:`~spinmanifold.evolution.family_grid` at once, with the same
helpers as the single-point :func:`metric_numeric`.
:func:`energy_uncertainties` takes a stack of states and a dense
Hamiltonian in the same basis (verify gathers product-basis states for
the product-space Hamiltonian), as a cross-check of the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolution import CoordinatePoint, state_at, tangent_states
from .spin_ops import FieldConfig, SpinSystem


def _validated_metrics(g: np.ndarray) -> np.ndarray:
    """Symmetrized (..., 3, 3) metrics, each checked for symmetry and positive semidefiniteness.

    With scale = max(1, max |g|) per metric, a metric fails when an entry
    is NaN or infinite (ValueError "not finite"), when an entry of
    |g - g^T| exceeds 1e-10 * scale (ValueError "not symmetric") or when
    the least eigenvalue of (g + g^T) / 2 lies below -1e-10 * scale
    (ValueError "not positive semidefinite").  An empty stack passes.
    """
    if g.size == 0:
        return g
    scale = np.abs(g).max(axis=(-2, -1), initial=1.0)
    if not math.isfinite(scale.max()):  # the max of a NaN or an inf is not finite
        raise ValueError("metric components are not finite")
    g_t = g.swapaxes(-1, -2)
    asymmetry = (np.abs(g - g_t).max(axis=(-2, -1)) / scale).max()
    if asymmetry > 1e-10:
        raise ValueError("metric components are not symmetric")
    g = (g + g_t) / 2.0
    if (np.linalg.eigvalsh(g)[..., 0] / scale).min() < -1e-10:
        raise ValueError("metric is not positive semidefinite")
    return g


@dataclass(eq=False)
class MetricTensor:
    """Symmetric 3x3 real metric over coordinates (theta, phi, chi)."""

    components: np.ndarray

    def __post_init__(self):
        self.components = _validated_metrics(np.asarray(self.components, dtype=float))

    @property
    def g_chi_chi(self) -> float:
        return self.components[2, 2]


def _metric_components(gamma: float, psi: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """g_{mu nu} = gamma^2 Re(<psi_mu|psi_nu> - <psi_mu|psi><psi|psi_nu>), unvalidated.

    ``psi`` is (..., D) and ``tangents`` (..., 3, D); the result is
    (..., 3, 3).  Each tangent is projected off psi first and the metric is
    the Gram matrix of the projections: the two terms of the difference
    both grow as <G>^2 ~ N^4, and near a pole their difference is small.
    Gauge invariant, as the projector is.
    """
    perp = (tangents @ psi.conj()[..., None]) * psi[..., None, :]  # <psi|psi_mu> psi
    np.subtract(tangents, perp, out=perp)
    # Re <a|b> is the dot product of the (real, imaginary) pairs of a and b
    pairs = perp.view(np.float64)
    return gamma**2 * (pairs @ pairs.swapaxes(-1, -2))


def metric_numeric(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> MetricTensor:
    """The metric at one point, assembled from the analytic tangent states.

    Works in the occupation basis, so no product-space vector is built and
    the dimension guard applies to C(N+2s, 2s).
    """
    psi = state_at(sys, point, field).amplitudes
    tang = tangent_states(sys, point, field)
    tangents = np.array((tang.d_theta, tang.d_phi, tang.d_chi))
    return MetricTensor(_metric_components(sys.gamma, psi, tangents))


def metric_from_vectors(gamma: float, psi: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Validated (..., 3, 3) metrics from :func:`~spinmanifold.evolution.family_grid` output.

    Every point passes :class:`MetricTensor`'s symmetry and PSD checks.
    """
    return _validated_metrics(_metric_components(gamma, psi, tangents))


def speed_from_g_chi_chi(coupling_j: float, g_chi_chi):
    """Anandan-Aharonov speed |J| sqrt(g_chichi), a scalar or an array like g_chichi.

    Round-off negatives of g_chichi count as zero.
    """
    return abs(coupling_j) * np.sqrt(np.maximum(g_chi_chi, 0.0))


def energy_uncertainties(ham: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """sqrt(<H^2> - <H>^2) of every normalized state in a (..., d) stack.

    Tiny negative variances (round-off on eigenstates) are clamped to
    zero; anything below -1e-12 is an internal error.
    """
    hpsi = amplitudes @ ham.T
    mean = np.einsum("...d,...d->...", amplitudes.conj(), hpsi).real
    # ||(H - <H>) psi||^2 avoids the <H^2> - <H>^2 cancellation
    shifted = hpsi - mean[..., None] * amplitudes
    var = np.einsum("...d,...d->...", shifted.conj(), shifted).real
    if (var < -1e-12).any():
        raise ArithmeticError(f"variance {var.min():.3e} is negative beyond round-off")
    return np.sqrt(np.maximum(var, 0.0))


def speed_numeric(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> float:
    """Anandan-Aharonov speed |J| sqrt(g_chichi) from the numeric metric."""
    return float(speed_from_g_chi_chi(sys.coupling_j, metric_numeric(sys, point, field).g_chi_chi))


def distance_along_evolution(
    sys: SpinSystem,
    theta: float,
    phi: float,
    chi: float,
    field: Optional[FieldConfig] = None,
) -> float:
    """State-space distance accumulated from chi' = 0 to chi: sqrt(g_chichi) * chi.

    The family evolves as exp(-i chi H/J) with H independent of chi, so
    g_chichi = gamma^2 Var(H/J) is conserved along the trajectory for
    every field direction, and one metric at chi' = 0 gives the whole
    line integral.  Raises ValueError for a negative, NaN or infinite chi.
    """
    if not (math.isfinite(chi) and chi >= 0.0):
        raise ValueError(f"chi must be finite and >= 0, got {chi}")
    if chi == 0.0:
        return 0.0
    g = metric_numeric(sys, CoordinatePoint(theta, phi, 0.0), field)
    return math.sqrt(max(g.g_chi_chi, 0.0)) * chi
