"""Brute-force Fubini-Study metric, energy uncertainty and evolution speed.

This is the oracle side: the metric is assembled from exact states and
tangent vectors in the occupation basis of the symmetric subspace
(dimension C(N+2s, 2s)), independent of the closed forms in
:mod:`spinmanifold.analytic`.  :func:`metric_from_vectors` assembles and
checks the metrics of a whole
:func:`~spinmanifold.evolution.family_grid` at once, with the same
helpers as the single-point :func:`metric_numeric`.
:func:`covariances_from_applied` gives the covariances of K operators in a
stack of states, and :func:`energy_uncertainties` is its K = 1 case for a
dense Hamiltonian; verify's cross-check of the metric reads every field's
energy uncertainty from one such covariance, not from the metric assembly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .evolution import CoordinatePoint, state_at, tangent_states
from .spin_ops import FieldConfig, SpinSystem


def _cholesky_pivots(g00, g01, g02, g11, g12, g22):
    """The pivots of the Cholesky factorization of a symmetric 3x3 matrix, from its six
    entries (floats, or arrays for a stack): d0 = g00, d1 = g11 - g01^2/g00 and
    d2 = g22 - g02^2/g00 - (g12 - g01 g02/g00)^2/d1.

    The matrix is positive definite exactly when every pivot is > 0, the
    condition LAPACK's factorization succeeds on.  They are yielded one at a
    time, and each is computed only once the one before it was taken: a
    float caller that stops at the first pivot <= 0 never divides by it.
    """
    yield g00
    l10, l20 = g01 / g00, g02 / g00
    d1 = g11 - l10 * g01
    yield d1
    r = g12 - l20 * g01
    yield g22 - l20 * g02 - r * r / d1


def _validated_metrics(g: np.ndarray) -> np.ndarray:
    """Symmetrized (..., 3, 3) metrics, each checked for symmetry and positive semidefiniteness.

    With scale = max(1, max |g|) per metric, a metric fails when an entry
    is NaN or infinite (ValueError "not finite"), when an entry of
    |g - g^T| exceeds 1e-10 * scale (ValueError "not symmetric") or when
    a Cholesky pivot of (g + g^T) / 2 + 1e-10 * scale * I is not positive
    (ValueError "not positive semidefinite").  That shifted matrix is
    positive definite exactly when the least eigenvalue of the metric
    lies above -1e-10 * scale, so the verdict is the least-eigenvalue
    test's everywhere but at the threshold itself.  A single 3x3 is
    checked in Python floats, a stack in whole-stack array operations,
    both with the same pivots (:func:`_cholesky_pivots`), so they give the
    same verdict.  An empty stack passes.
    """
    if g.shape == (3, 3):
        return _validated_metric(g)
    if g.size == 0:
        return g
    # the nine entries, each over the whole stack; maxima over them go entry by entry
    entries = np.moveaxis(g.reshape(g.shape[:-2] + (9,)), -1, 0)
    scale = functools.reduce(np.maximum, np.abs(entries), 1.0)
    if not math.isfinite(scale.max()):  # the max of a NaN or an inf is not finite
        raise ValueError("metric components are not finite")
    # the largest |g - g^T| of a metric is that of one of its three pairs across the diagonal
    asymmetry = functools.reduce(np.maximum, np.abs(entries[[1, 2, 5]] - entries[[3, 6, 7]]))
    if (asymmetry / scale).max() > 1e-10:
        raise ValueError("metric components are not symmetric")
    g = (g + g.swapaxes(-1, -2)) / 2.0
    shift = 1e-10 * scale
    entries = (g[..., 0, 0] + shift, g[..., 0, 1], g[..., 0, 2])
    entries += (g[..., 1, 1] + shift, g[..., 1, 2], g[..., 2, 2] + shift)
    with np.errstate(all="ignore"):  # past a failed pivot the next ones may be NaN
        d0, d1, d2 = _cholesky_pivots(*entries)
        definite = (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)
    if not definite.all():
        raise ValueError("metric is not positive semidefinite")
    return g


def _validated_metric(g: np.ndarray) -> np.ndarray:
    """:func:`_validated_metrics` of one 3x3, in Python floats."""
    entries = g.ravel().tolist()
    if not all(map(math.isfinite, entries)):  # max() would drop a NaN
        raise ValueError("metric components are not finite")
    scale = max(1.0, *map(abs, entries))
    _, g01, g02, g10, _, g12, g20, g21, _ = entries
    if max(abs(g01 - g10), abs(g02 - g20), abs(g12 - g21)) / scale > 1e-10:
        raise ValueError("metric components are not symmetric")
    g = (g + g.T) / 2.0
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = g.tolist()
    shift = 1e-10 * scale
    pivots = _cholesky_pivots(g00 + shift, g01, g02, g11 + shift, g12, g22 + shift)
    if not all(p > 0.0 for p in pivots):  # stops before a division by a failed pivot
        raise ValueError("metric is not positive semidefinite")
    return g


@dataclass(eq=False)
class MetricTensor:
    """Symmetric 3x3 real metric over coordinates (theta, phi, chi), or a (..., 3, 3)
    stack of them, each checked by :func:`_validated_metrics`.

    ``g_chi_chi`` is a numpy float for one metric and an array of the
    stack's shape for a stack.
    """

    components: np.ndarray

    def __post_init__(self):
        self.components = _validated_metrics(np.asarray(self.components, dtype=float))

    @property
    def g_chi_chi(self):
        return self.components[..., 2, 2][()]


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
    """The metric at (theta, phi), assembled from the analytic tangent states at chi = 0.

    ``point.chi`` is accepted and not used: psi and its three tangents at
    chi are U(chi) = exp(-2i chi G) times their values at chi = 0, and
    U(chi) is unitary, so the metric does not depend on chi.  At chi = 0
    nothing is propagated, and no field needs an eigendecomposition.
    Works in the occupation basis: no product-space vector is built.
    """
    at_origin = CoordinatePoint(point.theta, point.phi)
    psi = state_at(sys, at_origin, field).amplitudes
    tangents = tangent_states(sys, at_origin, field).vectors
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
    """sqrt(<H^2> - <H>^2) of every normalized state in a (..., d) stack, for a dense H."""
    cov = covariances_from_applied(amplitudes, (amplitudes @ ham.T)[..., None, :])
    return uncertainties_from_covariances(cov, np.ones(1))


def _real_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_k|b_l> of (..., K, d) and (..., L, d) stacks, without a conjugate copy."""
    real = np.einsum("...kd,...ld->...kl", a.real, b.real)
    return real + np.einsum("...kd,...ld->...kl", a.imag, b.imag)


def covariances_from_applied(amplitudes: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Cov(A_k, A_l) = Re <A_k psi|A_l psi> - <A_k><A_l>, (..., K, K), of every normalized
    psi in a (..., d) stack, from the A_k psi of K Hermitian operators, (..., K, d).

    Var(Sum_k w_k A_k) = w^T C w for real w (Provost & Vallee, Commun. Math.
    Phys. 76, 289 (1980)); see :func:`uncertainties_from_covariances`.
    """
    psi = amplitudes[..., None, :]
    # the Gram matrix of the (A_k - <A_k>) psi avoids the <A_k A_l> - <A_k><A_l> cancellation
    shifted = _real_dots(applied, psi) * psi
    np.subtract(applied, shifted, out=shifted)
    return _real_dots(shifted, shifted)


def uncertainties_from_covariances(cov: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sqrt(w^T C w) for covariances C (..., K, K) and real weights w (..., K) that
    broadcast against them.

    Tiny negative variances (round-off on eigenstates, or in w^T C w) are
    clamped to zero; anything below -1e-12, NaN or infinite is an internal error.
    """
    var = np.einsum("...k,...kl,...l->...", weights, cov, weights)
    if not np.isfinite(var).all():
        raise ArithmeticError(f"variance {var[~np.isfinite(var)].flat[0]} is not finite")
    if (var < -1e-12).any():
        raise ArithmeticError(f"variance {var.min():.3e} is negative beyond round-off")
    return np.sqrt(np.maximum(var, 0.0))


def speed_numeric(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> float:
    """Anandan-Aharonov speed |J| sqrt(g_chichi) from the numeric metric.

    ``point.chi`` is accepted and not used: the speed is conserved along
    the evolution, and :func:`metric_numeric` evaluates it at chi = 0.
    """
    return float(speed_from_g_chi_chi(sys.coupling_j, metric_numeric(sys, point, field).g_chi_chi))

