"""Oracle-vs-closed-form verification sweeps and the consistency report.

The metric and speed checks share the exact Hilbert-space states of a
deterministic coordinate grid, built per field and stacked; they compare
every point against the corresponding reference in one reduction per
check and record the worst deviation.  A component passes when its absolute
deviation is below the 1e-12 floor or its relative deviation (denominator
max(|a|, |b|, 1e-12)) is below the check tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional, Sequence

import numpy as np

from . import analytic
from .evolution import CoordinatePoint, family_grid
from .fs_metric import (
    energy_uncertainties,
    metric_from_vectors,
    speed_from_g_chi_chi,
    speed_numeric,
)
from .spin_ops import (
    TWO_PI,
    Direction,
    FieldConfig,
    SpinSystem,
    field_hamiltonians,
    product_to_occupation,
)

ABS_FLOOR = 1e-12


@dataclass
class CheckResult:
    name: str
    grid: str
    max_abs: float
    max_rel: float
    tol: float
    passed: bool


@dataclass
class VerificationReport:
    entries: List[CheckResult] = dc_field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> str:
        payload = [dict(asdict(e), **{"pass": e.passed}) for e in self.entries]
        for row in payload:
            del row["passed"]
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_table(self) -> str:
        lines = [f"{'check':44s} {'max_abs':>12s} {'max_rel':>12s} {'tol':>9s} result"]
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            lines.append(
                f"{e.name:44s} {e.max_abs:12.3e} {e.max_rel:12.3e} {e.tol:9.0e} {status}"
            )
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


@dataclass
class SweepGrid:
    """Coordinate samples for the verification sweeps."""

    theta: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    fields: Optional[Sequence[FieldConfig]] = None

    @classmethod
    def default(
        cls,
        sys: SpinSystem,
        n_theta: int = 25,
        n_phi: int = 8,
        n_chi: int = 8,
        fields: Optional[Sequence[FieldConfig]] = None,
    ) -> "SweepGrid":
        theta = np.concatenate(
            [[0.0], np.linspace(0.05, math.pi - 0.05, n_theta), [math.pi]]
        )
        phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
        chi = np.linspace(0.0, analytic.chi_max_for(sys.two_s), n_chi)
        return cls(theta=theta, phi=phi, chi=chi, fields=fields)


class _Deviation:
    """Running worst absolute / effective-relative deviation.

    :meth:`add` is the update rule.  :meth:`add_arrays` finds in numpy the
    elements that can raise a running maximum (the largest finite absolute
    and relative deviations, and every non-finite one) and passes only
    those to :meth:`add`, in index order, so it ends where a loop of
    :meth:`add` over every element would.
    """

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0

    def add(self, a: float, b: float):
        dev = abs(a - b)
        self.max_abs = max(self.max_abs, dev)
        if dev > ABS_FLOOR:
            self.max_rel = max(self.max_rel, dev / max(abs(a), abs(b), ABS_FLOOR))

    def add_arrays(self, a: np.ndarray, b: np.ndarray):
        a, b = (x.ravel() for x in np.broadcast_arrays(a, b))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, overflow
            dev = np.abs(a - b)
        finite = np.isfinite(dev)  # a finite dev has a finite relative deviation
        picks = set(np.flatnonzero(~finite).tolist())
        if finite.any():
            dev = np.where(finite, dev, 0.0)
            picks.add(int(np.argmax(dev)))
            counted = dev > ABS_FLOOR
            if counted.any():
                denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), ABS_FLOOR)
                rel = np.divide(dev, denom, out=np.zeros_like(dev), where=counted)
                picks.add(int(np.argmax(rel)))
        for i in sorted(picks):
            self.add(float(a[i]), float(b[i]))

    def result(self, name: str, grid: str, tol: float) -> CheckResult:
        return CheckResult(name, grid, self.max_abs, self.max_rel, tol, self.max_rel <= tol)


def _sys_tag(sys: SpinSystem) -> str:
    return f"N{sys.n_sites}_2s{sys.two_s}"


def _closed_form_grid(sys: SpinSystem, grid: SweepGrid) -> np.ndarray:
    """Closed-form metrics that broadcast against the stacked oracle metrics.

    One array call per check: with no field the zero-field form over theta
    alone, shape (n_theta, 1, 1, 3, 3); with fields the dressed form over
    (field, theta, phi), every direction's h/J, theta' and phi' passed as a
    column, shape (n_fields, n_theta, n_phi, 1, 3, 3).
    """
    if not grid.fields:
        return analytic.metric_closed_form_array(sys, grid.theta)[:, None, None]
    ratio, polar, azimuth = np.array(
        [(f.ratio_h_over_j, f.direction.polar, f.direction.azimuth) for f in grid.fields]
    ).T[:, :, None, None]
    ref = analytic.metric_closed_form_field_array(
        sys, grid.theta[:, None], grid.phi, ratio, polar, azimuth
    )
    return ref[:, :, :, None]


def run_oracle_checks(sys: SpinSystem, grid: SweepGrid, tol: float = 1e-9) -> List[CheckResult]:
    """Both oracle identities at every grid point, in one pass over all fields.

    ``metric_equivalence``: the numeric metric against the closed form.
    ``speed_uncertainty``: |J| sqrt(g_chichi) against gamma * (energy
    uncertainty of the generator), the uncertainty taken with the dense
    product-space Hamiltonian on the product-basis states
    (:func:`~spinmanifold.spin_ops.field_hamiltonians` builds the three
    dense total spins once per system).  Speeds are compared squared: at
    stationary points both sides are the square root of ~eps round-off,
    so the raw values carry O(sqrt(eps)) noise that is not a real
    deviation.  Squared agreement within tol implies the speeds
    themselves agree to better than tol where nonzero.

    The states, tangents and energy uncertainties are built per field
    (one :func:`~spinmanifold.evolution.family_grid` call each) and
    stacked; the metrics of the whole stack are then assembled and
    validated once, the closed form is evaluated once, and each row is
    one :meth:`_Deviation.add_arrays` reduction.
    """
    fields = grid.fields or [None]
    rows, weights = product_to_occupation(sys)
    psi, tangents, de = [], [], []
    for fld, ham in zip(fields, field_hamiltonians(sys, fields)):
        p, t = family_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        psi.append(p)
        tangents.append(t)
        de.append(energy_uncertainties(ham.matrix, p[..., rows] * weights))
    g = metric_from_vectors(sys.gamma, np.stack(psi), np.stack(tangents))
    metric, speed = _Deviation(), _Deviation()
    metric.add_arrays(g, _closed_form_grid(sys, grid))
    v = speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
    speed.add_arrays(v * v, (sys.gamma * np.stack(de)) ** 2)
    tag = f"[{_sys_tag(sys)}{'_field' if fields != [None] else ''}]"
    points = f"{v.size} points"
    return [
        metric.result(f"metric_equivalence{tag}", points, tol),
        speed.result(f"speed_uncertainty{tag}", points, tol),
    ]


def run_topology_suite(
    specs: Sequence[analytic.ManifoldSpec], tol: float = 1e-3
) -> List[CheckResult]:
    """Euler characteristic and curvature-integral value per manifold."""
    results = []
    for spec in specs:
        dev = _Deviation()
        integral = analytic.curvature_integral(spec)
        dev.add((integral + analytic.angular_defect(spec)) / TWO_PI, 2.0)
        expected = 4.0 * spec.chi_max * (spec.sys.n_sites - 1) * spec.sys.s
        dev.add(integral / expected, 1.0)
        results.append(
            dev.result(f"topology[{_sys_tag(spec.sys)}]", f"chi_max={spec.chi_max:.6g}", tol)
        )
    return results


def run_section7_vectors(tol: float = 1e-9) -> CheckResult:
    """The worked field cases: pole and equator formulas plus the
    (h/J=1, s=1, N=4, theta=pi/4) minimal/maximal speed pair, checked
    against both the dressed closed form and the numeric oracle."""
    dev = _Deviation()
    sys = SpinSystem(n_sites=4, two_s=2, coupling_j=1.0)
    phi = 0.9

    def check_speed(theta, fld, expected):
        g_cf = analytic.metric_closed_form_field(sys, theta, phi, fld)
        v_cf = float(speed_from_g_chi_chi(sys.coupling_j, g_cf.g_chi_chi))
        dev.add(v_cf, expected)
        v_num = speed_numeric(sys, CoordinatePoint(theta, phi, 0.4), fld)
        dev.add(v_num, expected)

    jg = abs(sys.coupling_j) * sys.gamma
    # minimal / maximal speed pair at theta = pi/4, h/J = 1
    fld_min = FieldConfig(1.0, Direction(3.0 * math.pi / 4.0, phi))
    check_speed(math.pi / 4.0, fld_min, jg * math.sqrt(19.0 / 2.0))
    fld_max = FieldConfig(1.0, Direction(math.pi / 4.0, phi - math.pi))
    check_speed(math.pi / 4.0, fld_max, jg * math.sqrt(67.0 / 2.0))
    # pole: v = |J| gamma (h/J) sqrt(Ns/2) sin(theta')
    for tp in (0.0, math.pi / 3.0, math.pi / 2.0):
        fld = FieldConfig(1.0, Direction(tp, 1.7))
        expected = jg * math.sqrt(sys.n_sites * sys.s / 2.0) * math.sin(tp)
        check_speed(0.0, fld, expected)
        dev.add(analytic.special_case_speed(sys, "pole", fld), expected)
    # equator: minimum at theta'=pi/2, phi'=phi; maximum at theta'=0
    fld_eq_min = FieldConfig(1.0, Direction(math.pi / 2.0, phi))
    expected = jg * sys.s * math.sqrt(sys.n_sites * (sys.n_sites - 1) / 2.0)
    check_speed(math.pi / 2.0, fld_eq_min, expected)
    dev.add(analytic.special_case_speed(sys, "equator", fld_eq_min, phi), expected)
    fld_eq_max = FieldConfig(1.0, Direction(0.0, 0.0))
    expected = jg * math.sqrt(sys.n_sites * sys.s / 2.0) * math.sqrt(
        (sys.n_sites - 1) * sys.s + fld_eq_max.ratio_h_over_j**2
    )
    check_speed(math.pi / 2.0, fld_eq_max, expected)
    dev.add(analytic.special_case_speed(sys, "equator", fld_eq_max, phi), expected)
    return dev.result("section7_vectors", "worked cases", tol)


DEFAULT_SYSTEMS = (
    SpinSystem(2, 1),
    SpinSystem(3, 2),
    SpinSystem(4, 1),
    SpinSystem(2, 3),
    SpinSystem(3, 3),
)

#: the dressed oracle system: N=4, s=1, h/J=1 over an 8x8 direction grid
FIELD_SYSTEM = SpinSystem(4, 2)

TOPOLOGY_SYSTEMS = (
    SpinSystem(2, 1),
    SpinSystem(3, 2),
    SpinSystem(4, 1),
    SpinSystem(6, 3),
)


def select_checks(only: Optional[str], tolerance: Optional[float]) -> List[str]:
    """The names of the suite's checks that ``only`` selects, in report order.

    Raises ValueError, before any check runs, for a tolerance that is NaN,
    infinite or negative and for an ``only`` that selects no check.
    """
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    tags = [_sys_tag(s) for s in DEFAULT_SYSTEMS] + [f"{_sys_tag(FIELD_SYSTEM)}_field"]
    names = [f"{check}[{t}]" for t in tags for check in ("metric_equivalence", "speed_uncertainty")]
    names += [f"topology[{_sys_tag(s)}]" for s in TOPOLOGY_SYSTEMS] + ["section7_vectors"]
    selected = [name for name in names if only is None or name.startswith(only)]
    if not selected:
        raise ValueError(f"no verify check name starts with {only!r}")
    return selected


def _direction_grid(n_polar: int = 8, n_azimuth: int = 8):
    for tp in np.linspace(0.0, math.pi, n_polar):
        for pp in np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False):
            yield Direction(float(tp), float(pp))


def run_full_suite(
    only: Optional[str] = None, tolerance: Optional[float] = None
) -> VerificationReport:
    """Run every enabled check and assemble the report.

    ``only`` keeps the checks whose name starts with it ("metric",
    "speed_uncertainty[N3", "topology[N2_2s1]", ...); a group of checks
    runs only when it has a kept check.  ``tolerance`` overrides each
    check's pass tolerance.  Both are checked first, by :func:`select_checks`.
    """
    selected = select_checks(only, tolerance)

    def want(*families: str) -> bool:
        return any(name.startswith(families) for name in selected)

    def tol(default: float) -> float:
        return default if tolerance is None else tolerance

    entries: List[CheckResult] = []
    if want("metric_equivalence", "speed_uncertainty"):
        for sys in DEFAULT_SYSTEMS:
            entries += run_oracle_checks(sys, SweepGrid.default(sys), tol=tol(1e-9))
        field_grid = SweepGrid(
            theta=np.array([0.4, 1.1, 2.3]),
            phi=np.array([0.7, 2.9, 5.1]),
            chi=np.array([0.0, 0.9]),
            fields=[FieldConfig(1.0, d) for d in _direction_grid()],
        )
        entries += run_oracle_checks(FIELD_SYSTEM, field_grid, tol=tol(1e-9))
    if want("topology"):
        specs = [analytic.ManifoldSpec.for_system(s) for s in TOPOLOGY_SYSTEMS]
        entries += run_topology_suite(specs, tol=tol(1e-3))
    if want("section7_vectors"):
        entries.append(run_section7_vectors(tol=tol(1e-9)))
    return VerificationReport([e for e in entries if e.name in selected])
