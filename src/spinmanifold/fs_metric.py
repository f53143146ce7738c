"""Brute-force Fubini-Study metric, energy uncertainty and evolution speed.

This is the oracle side: the metric is assembled from exact states and
tangent vectors in the occupation basis of the symmetric subspace
(dimension C(N+2s, 2s)), independent of the closed forms in
:mod:`spinmanifold.analytic`.  The energy uncertainty takes a dense
product-space Hamiltonian, as a cross-check of the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .evolution import CoordinatePoint, StateVector, state_at, tangent_states
from .spin_ops import FieldConfig, ManyBodyOperator, SpinSystem

COORD_NAMES = ("theta", "phi", "chi")


@dataclass(eq=False)
class MetricTensor:
    """Symmetric 3x3 real metric over coordinates (theta, phi, chi)."""

    components: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.components, dtype=float)
        scale = max(1.0, float(np.abs(g).max()))
        if np.abs(g - g.T).max() > 1e-10 * scale:
            raise ValueError("metric components are not symmetric")
        self.components = (g + g.T) / 2.0
        if np.linalg.eigvalsh(self.components).min() < -1e-10 * scale:
            raise ValueError("metric is not positive semidefinite")

    def __getitem__(self, key):
        i = COORD_NAMES.index(key[0])
        j = COORD_NAMES.index(key[1])
        return self.components[i, j]

    @property
    def g_theta_theta(self) -> float:
        return self.components[0, 0]

    @property
    def g_phi_phi(self) -> float:
        return self.components[1, 1]

    @property
    def g_chi_chi(self) -> float:
        return self.components[2, 2]

    @property
    def g_theta_phi(self) -> float:
        return self.components[0, 1]

    @property
    def g_theta_chi(self) -> float:
        return self.components[0, 2]

    @property
    def g_phi_chi(self) -> float:
        return self.components[1, 2]


def metric_numeric(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> MetricTensor:
    """g_{mu nu} = gamma^2 Re(<psi_mu|psi_nu> - <psi_mu|psi><psi|psi_nu>).

    Assembled from the analytic tangent states in the occupation basis, so
    no product-space vector is built and the dimension guard applies to
    C(N+2s, 2s); gauge invariant by construction of the projector term.
    """
    psi = state_at(sys, point, field, occupation=True).amplitudes
    tang = tangent_states(sys, point, field, occupation=True)
    vecs = np.stack((tang.d_theta, tang.d_phi, tang.d_chi))
    overlaps = vecs @ psi.conj()  # <psi|psi_mu>
    g = (vecs.conj() @ vecs.T - np.outer(overlaps.conj(), overlaps)).real
    return MetricTensor(sys.gamma**2 * g, gamma=sys.gamma)


def energy_uncertainty(state: StateVector, ham: ManyBodyOperator) -> float:
    """sqrt(<H^2> - <H>^2) for a normalized state.

    Tiny negative variances (round-off on eigenstates) are clamped to
    zero; anything below -1e-12 is an internal error.
    """
    psi = state.amplitudes
    hpsi = ham.matrix @ psi
    mean = np.vdot(psi, hpsi).real
    # ||(H - <H>) psi||^2 avoids the <H^2> - <H>^2 cancellation
    shifted = hpsi - mean * psi
    var = np.vdot(shifted, shifted).real
    if var < -1e-12:
        raise ArithmeticError(f"variance {var:.3e} is negative beyond round-off")
    return math.sqrt(max(var, 0.0))


def speed_numeric(
    sys: SpinSystem, point: CoordinatePoint, field: Optional[FieldConfig] = None
) -> float:
    """Anandan-Aharonov speed |J| sqrt(g_chichi) from the numeric metric."""
    g = metric_numeric(sys, point, field)
    return abs(sys.coupling_j) * math.sqrt(max(g.g_chi_chi, 0.0))


def _adaptive_chi_integral(f: Callable[[float], float], chi: float, rtol: float = 1e-8) -> float:
    """Trapezoid rule over [0, chi] with interval doubling until converged."""
    n = 8
    xs = np.linspace(0.0, chi, n + 1)
    vals = np.array([f(x) for x in xs])
    est = np.trapezoid(vals, xs)
    for _ in range(20):
        mids = (xs[:-1] + xs[1:]) / 2.0
        mid_vals = np.array([f(x) for x in mids])
        xs = np.sort(np.concatenate([xs, mids]))
        vals_new = np.empty(xs.size)
        vals_new[0::2] = vals
        vals_new[1::2] = mid_vals
        vals = vals_new
        new_est = np.trapezoid(vals, xs)
        if abs(new_est - est) <= rtol * max(abs(new_est), 1e-300):
            return new_est
        est = new_est
    raise RuntimeError("distance quadrature did not converge")


def distance_along_evolution(
    sys: SpinSystem,
    theta: float,
    phi: float,
    chi: float,
    field: Optional[FieldConfig] = None,
) -> float:
    """State-space distance accumulated from chi' = 0 to chi.

    For zero field, or a field along z, g_chichi is constant along the
    trajectory and the distance is sqrt(g_chichi) * chi.  For a generic
    field direction the line integral is evaluated by adaptive quadrature
    (relative tolerance 1e-8).
    """
    if chi < 0.0:
        raise ValueError(f"chi must be >= 0, got {chi}")
    if chi == 0.0:
        return 0.0
    if field is None or field.along_z:
        g = metric_numeric(sys, CoordinatePoint(theta, phi, 0.0), field)
        return math.sqrt(max(g.g_chi_chi, 0.0)) * chi

    def integrand(c: float) -> float:
        g = metric_numeric(sys, CoordinatePoint(theta, phi, c), field)
        return math.sqrt(max(g.g_chi_chi, 0.0))

    return _adaptive_chi_integral(integrand, chi)
