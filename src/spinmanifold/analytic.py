"""Closed-form geometry of the state manifold.

Everything in this module is formula evaluation: metric components,
scalar curvature, angular defects and Euler characteristic, speed of
evolution and its extrema, curvature expressed through the speed,
thermodynamic-limit values, the field-dressed metric and the
minimal-speed field conditions.  The numeric oracle lives in
:mod:`spinmanifold.fs_metric` and never feeds back into these formulas.

Each closed form is written once in numpy's functions, which take a float
as readily as an array, so a float and an array argument go through the
same operations and give the same bits; a float argument gives a builtin
float back, and to a metric form one metric where an array gives a
stack.  Squares go through np.float_power, which is libm pow;
numpy's ``**`` on an array would multiply instead, which differs in the
last bit for about one square in a thousand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .fs_metric import MetricTensor, _validated_metrics, speed_from_g_chi_chi
from .spin_ops import TWO_PI, Direction, FieldConfig, SpinSystem


class SingularPoint(ValueError):
    """Curvature requested at a conical singularity (theta = 0 or pi)."""


class OutOfRange(ValueError):
    """Speed argument outside the valid branch range."""


class DegenerateDirection(ValueError):
    """Both field scalar products vanish; the minimizing ratio is undefined."""


def _float_if_scalar(x):
    """The array a ufunc gave for an array argument, or a builtin float for its scalar."""
    return x if isinstance(x, np.ndarray) else float(x)


def _first_where(x, mask):
    """The first element of x (a float or an array) where the bool mask holds."""
    return np.broadcast_to(x, np.shape(mask))[mask][0]


def _require_finite(name: str, x):
    """Raise ValueError naming the first NaN or infinite entry of x, a float or an array."""
    bad = ~np.isfinite(x)
    if np.count_nonzero(bad):
        raise ValueError(f"{name} must be finite, got {_first_where(x, bad)}")


def _require_polar(theta):
    """Raise ValueError naming the first theta, a float or an array, outside [0, pi] or NaN."""
    outside = np.logical_not(np.greater_equal(theta, 0.0) & np.less_equal(theta, math.pi))
    if np.count_nonzero(outside):
        raise ValueError(f"theta must be in [0, pi], got {_first_where(theta, outside)}")


def _field_scalar_products(st, ct, phi, polar, azimuth):
    """The two projections of n' used by the dressed metric.

    Takes sin theta, cos theta, phi and the field angles (floats or
    broadcastable arrays) and returns
    (n'.n(theta + pi/2), n'.n(theta = pi/2, phi + pi/2)).
    sin theta' is exactly 0 at pi, as in :meth:`Direction.components`, so a
    field along -z leaves no trace of phi - phi' (np.sin(pi) is 1.2e-16).
    """
    stp, ctp = np.where(np.equal(polar, math.pi), 0.0, np.sin(polar)), np.cos(polar)
    dphi = phi - azimuth
    a = ct * stp * np.cos(dphi) - st * ctp
    b = -stp * np.sin(dphi)
    return a, b


def _g_chi_chi_bare(n: int, s: float, st2):
    """Zero-field g_chichi / gamma^2 from sin^2 theta."""
    a = 2.0 * s * (n - 1)
    return n * (n - 1) * s**2 * st2 * (a - (a - 0.5) * st2)


def _g_chi_chi(sys: SpinSystem, theta):
    """Zero-field g_chichi at theta, a float or an array."""
    return sys.gamma**2 * _g_chi_chi_bare(sys.n_sites, sys.s, np.float_power(np.sin(theta), 2.0))


def _g_phi_chi_bare(scale: float, n: int, s: float, ct, st2):
    """scale * zero-field g_phichi / gamma^2; the factor leads the product.

    The zero-field metric scales by gamma^2 here, the dressed one (scale
    1.0, exact) after adding its field term.
    """
    return scale * n * (n - 1) * s**2 * ct * st2


def _metric_components(sys: SpinSystem, theta, field=None) -> np.ndarray:
    """Closed-form (..., 3, 3) metric components, not yet validated.

    ``field`` is None (zero field) or (h/J, phi, polar, azimuth) of the
    dressed form; theta and the field entries are floats or broadcastable
    arrays, and the result has their broadcast shape plus (3, 3).
    """
    n, s, g2 = sys.n_sites, sys.s, sys.gamma**2
    st, ct = np.sin(theta), np.cos(theta)
    st2 = np.float_power(st, 2.0)
    g_cc = _g_chi_chi_bare(n, s, st2)
    g_tc = 0.0
    if field is None:
        g_pc = _g_phi_chi_bare(g2, n, s, ct, st2)
    else:
        r, phi, polar, azimuth = field
        a, b = _field_scalar_products(st, ct, phi, polar, azimuth)
        g_cc = (
            g_cc
            + np.float_power(r, 2.0) * n * s / 2.0
            * (np.float_power(a, 2.0) + np.float_power(b, 2.0))
            - 2.0 * r * n * (n - 1) * s**2 * a * ct * st
        )
        g_tc = g2 * r * n * s / 2.0 * b
        g_pc = g2 * (_g_phi_chi_bare(1.0, n, s, ct, st2) - r * n * s / 2.0 * a * st)
    # g_cc has the full broadcast shape; g[i, j] holds entry (i, j) at every point
    g = np.zeros((3, 3) + np.shape(g_cc))
    g[0, 0] = g2 * n * s / 2.0
    g[1, 1] = g2 * n * s / 2.0 * st2
    g[2, 2] = g2 * g_cc
    g[1, 2] = g[2, 1] = g_pc
    g[0, 2] = g[2, 0] = g_tc
    return g.transpose(tuple(range(2, g.ndim)) + (0, 1))


def metric_closed_form(sys: SpinSystem, theta) -> MetricTensor:
    """Zero-field metric; every component depends on theta alone.

    ``theta`` is a float, giving one 3x3 metric, or an array, giving the
    (..., 3, 3) stack of the metrics at its points, validated once.
    """
    return MetricTensor(_metric_components(sys, theta))


def metric_closed_form_field(sys: SpinSystem, theta, phi, field: FieldConfig) -> MetricTensor:
    """Metric dressed by a uniform field of strength ratio h/J along n'.

    Reduces to the zero-field form at h/J = 0; the field couples the
    metric to phi through the two scalar products of n' with the rotated
    frame vectors.  ``theta`` and ``phi`` are floats, giving one 3x3
    metric, or arrays that broadcast against each other, giving the stack
    of their broadcast shape, as in :func:`metric_closed_form`.
    """
    d = field.direction
    return MetricTensor(
        _metric_components(sys, theta, (field.ratio_h_over_j, phi, d.polar, d.azimuth))
    )


def metric_closed_form_field_array(
    sys: SpinSystem, theta, phi, ratio_h_over_j, polar, azimuth=0.0
) -> np.ndarray:
    """:func:`metric_closed_form_field` with the field's parameters as arrays too:
    (..., 3, 3), validated once.

    theta, phi, h/J and the field's polar and azimuthal angles broadcast
    against each other, so one call covers a grid of field directions or
    strengths, at one point or over a (theta, phi) grid.  The azimuth is
    reduced into [0, 2 pi) as :class:`~spinmanifold.spin_ops.Direction`
    does; the polar angle is used as given.  A NaN or infinite h/J or
    field angle raises ValueError, as FieldConfig and Direction do.
    """
    theta, phi, ratio, polar, azimuth = (
        np.asarray(x, dtype=float) for x in (theta, phi, ratio_h_over_j, polar, azimuth)
    )
    for name, x in (("h/J", ratio), ("polar angle", polar), ("azimuth", azimuth)):
        _require_finite(name, x)
    field = (ratio, phi, polar, np.remainder(azimuth, TWO_PI))
    return _validated_metrics(_metric_components(sys, theta, field))


def scalar_curvature(sys: SpinSystem, theta):
    """Scalar curvature of the fixed-phi (theta, chi) submanifold.

    ``theta`` is a float, giving a float, or an ndarray, giving the
    curvature at each of its points.  The poles are conical singularities
    whenever N > 2 or s > 1/2; there the curvature is undefined and a
    SingularPoint is raised if any theta is a pole.  The lone smooth case
    N = 2, s = 1/2 admits the endpoints.  A theta outside [0, pi], NaN or
    infinite raises ValueError.
    """
    _require_finite("theta", theta)
    n, s = sys.n_sites, sys.s
    at_pole = (theta <= 0.0) | (theta >= math.pi)
    if np.count_nonzero(at_pole):  # a theta past a pole is out of range, not singular
        _require_polar(theta)
        if not (n == 2 and sys.two_s == 1):
            pole = _first_where(theta, at_pole)
            raise SingularPoint(f"curvature undefined at theta={pole} for N={n}, s={s}")
    c2 = np.float_power(np.cos(theta), 2.0)
    k = 4.0 * (n - 1) * s - 1.0
    return _float_if_scalar(
        8.0
        / (sys.gamma**2 * n * s)
        * (2.0 - (k * c2 + 2.0 * (n - 1) * s + 1.0) / np.float_power(k * c2 + 1.0, 2.0))
    )


def curvature_min(sys: SpinSystem) -> float:
    """Minimal curvature, attained on the waist at theta = pi/2."""
    n, s = sys.n_sites, sys.s
    return 8.0 / (sys.gamma**2 * n * s) * (1.0 - 2.0 * (n - 1) * s)


#: theta step of the central differences in curvature_numeric_from_profile
_PROFILE_STEP = 1e-4


def curvature_numeric_from_profile(g_thth: float, g_chichi: Callable, theta):
    """Curvature from a g_chichi(theta) profile by central differences.

    Used where no closed form exists (field along z); R = 2 R_tctc /
    (g_thth * g_chichi) with the theta derivatives of the profile taken
    at the step _PROFILE_STEP.  ``theta`` is a float, or an array when the
    profile maps arrays to arrays: the profile is then called once per
    stencil offset, on the whole array.  Raises ValueError unless every
    stencil value is > 0, so a NaN theta or profile value is rejected too.
    """
    step = _PROFILE_STEP
    f0 = g_chichi(theta)
    fp, fp2 = g_chichi(theta + step), g_chichi(theta + 2.0 * step)
    fm, fm2 = g_chichi(theta - step), g_chichi(theta - 2.0 * step)
    if not np.all(np.greater((f0, fp, fm, fp2, fm2), 0.0)):
        raise ValueError("g_chichi must be positive at all stencil points")
    # fourth-order central differences: the profile is smooth enough that
    # truncation, not round-off, would dominate a three-point stencil here
    d1 = (-fp2 + 8.0 * fp - 8.0 * fm + fm2) / (12.0 * step)
    d2 = (-fp2 + 16.0 * fp - 30.0 * f0 + 16.0 * fm - fm2) / (12.0 * step**2)
    riemann = -0.5 * d2 + np.float_power(d1, 2.0) / (4.0 * f0)
    return _float_if_scalar(2.0 * riemann / (g_thth * f0))


def chi_max_for(two_s: int, field: Optional[FieldConfig] = None) -> float:
    """Evolution period: 2*pi (half-integer s) or pi (integer s).

    At zero field the states' minimal period is pi / g, g the gcd of the
    differences of G's diagonal: this is that period for even N or integer
    s, and twice it (a two-fold cover) for odd N at half-integer s.

    A field along z with declared rational ratio p/q makes it 2*pi*q, or pi*q for
    integer s and even p.  An undeclared (irrational) nonzero ratio leaves chi
    unbounded, and a generic field direction has no known period; both are rejected.
    """
    base = TWO_PI if two_s % 2 == 1 else math.pi
    if field is None or field.ratio_h_over_j == 0.0:
        return base
    if not field.along_z:
        raise ValueError("chi period is only defined for a field along z")
    if field.rational_ratio is None:
        raise ValueError("irrational h/J along z leaves the manifold unbounded in chi")
    p, q = field.rational_ratio
    return (base if p % 2 == 0 else TWO_PI) * q


@dataclass(frozen=True)
class ManifoldSpec:
    """A closed (theta, chi) manifold of the zero-field family: system plus its chi period."""

    sys: SpinSystem
    chi_max: float

    def __post_init__(self):
        base = chi_max_for(self.sys.two_s)
        mult = self.chi_max / base
        if not math.isfinite(mult) or round(mult) < 1 or abs(mult - round(mult)) > 1e-9:
            raise ValueError(
                f"chi_max={self.chi_max} is not a positive multiple of the base period {base}"
            )

    @classmethod
    def for_system(cls, sys: SpinSystem) -> "ManifoldSpec":
        """The zero-field manifold of ``sys``, one base chi period long."""
        return cls(sys, chi_max_for(sys.two_s))


def angular_defect(spec: ManifoldSpec) -> float:
    """Total deficit angle of the two conical poles."""
    n, s = spec.sys.n_sites, spec.sys.s
    return 2.0 * (TWO_PI - 2.0 * (n - 1) * s * spec.chi_max)


#: Width of the cone cut from each pole by curvature_integral.
_POLE_CUT = 1e-4

#: Panel acceptance tolerance, relative to the integral, and the two caps
#: past which _adaptive_gauss_legendre gives up.
_QUAD_RTOL = 1e-13
_QUAD_MAX_DEPTH = 30
_QUAD_MAX_PANELS = 1024


@functools.cache
def _gauss_legendre_16():
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1], read-only.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Legendre recurrence, off-diagonal k / sqrt(4k^2 - 1),
    and each weight is 2 v_0^2, v the eigenvector's first component.  As
    in numpy's ``leggauss``, the nodes and weights are then symmetrized
    about 0 and the weights scaled to sum to 2.
    """
    k = np.arange(1.0, 16.0)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes = (nodes - nodes[::-1]) / 2.0
    weights = (weights + weights[::-1]) / 2.0
    weights *= 2.0 / weights.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre estimates of the integral of f over each [lo_i, hi_i]."""
    nodes, weights = _gauss_legendre_16()
    half = (hi - lo) / 2.0
    x = ((hi + lo) / 2.0)[:, None] + half[:, None] * nodes
    return half * (f(x.ravel()).reshape(x.shape) @ weights)


def _adaptive_gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Integral of f over [a, b] by bisected 16-point Gauss-Legendre panels.

    ``f`` maps a 1-D array of abscissae to the array of its values.
    Starting from the whole interval, every panel is compared with the
    sum of its two halves; the halves are accepted when the two differ by
    at most _QUAD_RTOL times the running estimate of the whole integral,
    and are bisected again otherwise.  Returns (value, error), the error
    being the summed panel-versus-halves differences, a bound on the
    coarser estimates' error.  Raises RuntimeError when a panel is still
    unresolved after _QUAD_MAX_DEPTH bisections or more than
    _QUAD_MAX_PANELS panels would be refined at once (a non-integrable
    integrand, or one whose integral vanishes).
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    whole = _panel_estimates(f, lo, hi)
    value = error = 0.0
    for _ in range(_QUAD_MAX_DEPTH):
        n = lo.size
        mid = (lo + hi) / 2.0
        halves = _panel_estimates(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        refined = halves[:n] + halves[n:]
        diff = np.abs(refined - whole)
        done = diff <= _QUAD_RTOL * abs(value + refined.sum())
        value += refined[done].sum()
        error += diff[done].sum()
        keep = ~done
        if not keep.any():
            return float(value), float(error)
        if 2 * np.count_nonzero(keep) > _QUAD_MAX_PANELS:
            break
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([halves[:n][keep], halves[n:][keep]])
    raise RuntimeError(
        f"adaptive quadrature left {np.count_nonzero(keep)} panels unresolved "
        f"(largest panel-versus-halves difference {diff[keep].max():.3e})"
    )


def curvature_integral(spec: ManifoldSpec) -> float:
    """Quadrature of (R/2) sqrt(g) over the manifold minus the pole cones.

    The theta integral over [_POLE_CUT, pi - _POLE_CUT] uses bisected 16-point
    Gauss-Legendre panels (:func:`_adaptive_gauss_legendre`), which
    resolve the waist feature of R, of width ~ 1/sqrt(4 (N-1) s), at
    theta = pi/2.
    """
    sys = spec.sys
    g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        g_cc = _g_chi_chi(sys, theta)
        return 0.5 * scalar_curvature(sys, theta) * np.sqrt(g_thth * np.maximum(g_cc, 0.0))

    val, err = _adaptive_gauss_legendre(integrand, _POLE_CUT, math.pi - _POLE_CUT)
    if abs(err) > 1e-6 * max(1.0, abs(val)):
        raise RuntimeError(f"curvature quadrature did not converge (err={err:.3e})")
    return spec.chi_max * val


def gauss_bonnet_euler(spec: ManifoldSpec) -> float:
    """Euler characteristic from the curvature integral plus the defects."""
    return (curvature_integral(spec) + angular_defect(spec)) / TWO_PI


def speed_closed_form(sys: SpinSystem, theta):
    """v = |J| sqrt(g_chichi); independent of phi and chi.

    ``theta`` is a float, giving a float, or an ndarray, giving the speed
    at each of its points.  A theta outside [0, pi], NaN or infinite
    raises ValueError.
    """
    _require_finite("theta", theta)
    _require_polar(theta)
    return _float_if_scalar(speed_from_g_chi_chi(sys.coupling_j, _g_chi_chi(sys, theta)))


@dataclass(frozen=True)
class SpeedExtrema:
    """Zero-field speed landscape over theta.

    theta_max is reported in (0, pi/2]; the mirror point pi - theta_max is
    implied by symmetry.
    """

    v_min: float
    v_half_pi: float
    theta_max: float
    v_max: float


def speed_extrema(sys: SpinSystem) -> SpeedExtrema:
    """Extrema of the zero-field speed: poles, equator, and the two maxima."""
    n, s = sys.n_sites, sys.s
    jg = abs(sys.coupling_j) * sys.gamma
    v_half_pi = jg * s * math.sqrt(n * (n - 1) / 2.0)
    if n == 2 and sys.two_s == 1:
        # single maximum sitting on the equator
        return SpeedExtrema(0.0, v_half_pi, math.pi / 2.0, v_half_pi)
    denom = 2.0 * (n - 1) * s - 0.5
    theta_max = math.asin(math.sqrt((n - 1) * s / denom))
    v_max = jg * (n - 1) * s**2 * math.sqrt(n * (n - 1) / denom)
    return SpeedExtrema(0.0, v_half_pi, theta_max, v_max)


def curvature_from_speed(sys: SpinSystem, v, branch: str):
    """Scalar curvature expressed through the speed of evolution.

    branch "upper" covers theta in [0, theta_max] (v from 0 to v_max);
    branch "lower" covers theta in [theta_max, pi - theta_max] (v between
    v_half_pi and v_max).  The two agree at v = v_max.  ``v`` is a float,
    giving a float, or an ndarray of speeds on the one branch, giving the
    curvature at each.  Raises OutOfRange if any v lies outside the branch
    or is NaN, and ValueError for J = 0.
    """
    if branch not in ("upper", "lower"):
        raise ValueError(f"branch must be 'upper' or 'lower', got {branch!r}")
    ext = speed_extrema(sys)
    if ext.v_max == 0.0:
        raise ValueError("J = 0: the speed vanishes everywhere and does not fix the curvature")
    tol = 1e-9 * max(ext.v_max, 1.0)
    outside = np.logical_not((v >= -tol) & (v <= ext.v_max + tol))  # NaN is outside too
    if np.count_nonzero(outside):
        raise OutOfRange(f"v={_first_where(v, outside)} outside [0, v_max={ext.v_max}]")
    if branch == "lower":
        below = v < ext.v_half_pi - tol
        if np.count_nonzero(below):
            raise OutOfRange(
                f"lower branch needs v >= v_half_pi={ext.v_half_pi}, got {_first_where(v, below)}"
            )
    # sqrt(1 - min((v / v_max)^2, 1)): v may overshoot v_max by tol
    u = np.sqrt(np.maximum(1.0 - np.float_power(v / ext.v_max, 2.0), 0.0))
    sign = 1.0 if branch == "upper" else -1.0
    n, s = sys.n_sites, sys.s
    return _float_if_scalar(
        8.0
        / (sys.gamma**2 * n * s)
        * (2.0 - (2.0 + sign * u) / (2.0 * (n - 1) * s * np.float_power(1.0 + sign * u, 2.0)))
    )


@dataclass(frozen=True)
class ThermoLimit:
    """Thermodynamic-limit quantities for the J -> J/N rescaled model."""

    coupling_j: float
    gamma: float
    s: float
    curvature_equator: float  # waist curvature as N -> infinity
    curvature_large_s_line: float  # waist curvature as s -> infinity, N fixed
    v_half_pi: float  # equator speed limit
    theta_max: float  # location of the speed maximum in the limit

    def v_max(self, n: int) -> float:
        """Maximal speed at finite N under the rescaled coupling."""
        return abs(self.coupling_j) * self.gamma * self.s**1.5 * math.sqrt(n / 2.0)

    def speed(self, theta: float, n: int) -> float:
        """Divergence profile of the speed away from the equator."""
        return self.v_max(n) * math.sin(2.0 * theta)


def thermo_limit(sys_template: SpinSystem) -> ThermoLimit:
    """Limit values for a model with J divided by N (finite energy per spin).

    The rescaling multiplies g_chichi by 1/N^2 and g_phichi by 1/N and
    leaves the curvature untouched, so the waist curvature limit follows
    directly from the minimal-curvature formula.
    """
    n, s, g2 = sys_template.n_sites, sys_template.s, sys_template.gamma**2
    jg = abs(sys_template.coupling_j) * sys_template.gamma
    return ThermoLimit(
        coupling_j=sys_template.coupling_j,
        gamma=sys_template.gamma,
        s=s,
        curvature_equator=-16.0 / g2,
        curvature_large_s_line=-16.0 * (n - 1) / (g2 * n),
        v_half_pi=jg * s / math.sqrt(2.0),
        theta_max=math.pi / 4.0,
    )


class MinSpeedField(NamedTuple):
    ratio: float
    v_min: float
    reduction_applied: bool


def min_speed_field(
    sys: SpinSystem, theta: float, phi: float, direction: Direction
) -> MinSpeedField:
    """Field ratio minimizing the speed for a fixed (theta, phi, n').

    g_chichi is a quadratic in h/J; the returned ratio is its minimizer
    and v_min the speed there.  When the second scalar product vanishes
    the pair reduces to the minimal-possible-speed form (flagged by
    ``reduction_applied``).  Raises ValueError for theta outside [0, pi]
    and for a NaN or infinite phi.
    """
    _require_polar(theta)
    _require_finite("phi", phi)
    n, s = sys.n_sites, sys.s
    a, b = _field_scalar_products(
        math.sin(theta), math.cos(theta), phi, direction.polar, direction.azimuth
    )
    a, b = float(a), float(b)  # builtin floats, so the result serialises to JSON
    den = a**2 + b**2
    if den < 1e-24:
        raise DegenerateDirection("both field scalar products vanish for this geometry")
    ratio = (n - 1) * s * math.sin(2.0 * theta) * a / den
    jg = abs(sys.coupling_j) * sys.gamma
    v_min = (
        jg
        * s
        * math.sqrt(n * (n - 1) / 2.0)
        * math.sqrt(
            math.sin(theta) ** 4
            + (n - 1) * s * math.sin(2.0 * theta) ** 2 * b**2 / den
        )
    )
    return MinSpeedField(ratio, v_min, abs(b) < 1e-12)


def special_case_speed(sys: SpinSystem, case: str, field: FieldConfig, phi: float = 0.0) -> float:
    """Speed for the two analytically simple initial states.

    "pole": theta in {0, pi}, v = |J| gamma |h/J| sqrt(Ns/2) sin(theta').
    "equator": theta = pi/2,
    v = |J| gamma sqrt(Ns/2) sqrt((N-1)s + (h/J)^2 (1 - sin^2(theta') cos^2(phi'-phi))).
    A NaN or infinite phi raises ValueError.
    """
    _require_finite("phi", phi)
    n, s = sys.n_sites, sys.s
    jg = abs(sys.coupling_j) * sys.gamma
    r = field.ratio_h_over_j
    tp, pp = field.direction.polar, field.direction.azimuth
    if case == "pole":
        return jg * abs(r) * math.sqrt(n * s / 2.0) * math.sin(tp)
    if case == "equator":
        return jg * math.sqrt(n * s / 2.0) * math.sqrt(
            (n - 1) * s + r**2 * (1.0 - math.sin(tp) ** 2 * math.cos(pp - phi) ** 2)
        )
    raise ValueError(f"case must be 'pole' or 'equator', got {case!r}")
