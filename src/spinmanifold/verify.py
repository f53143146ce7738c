"""Oracle-vs-closed-form verification sweeps and the consistency report.

Each check evaluates the exact Hilbert-space computation on a
deterministic coordinate grid, one batched oracle call per field, compares
every point against the corresponding closed form, and records the worst
deviation.  A component passes when its absolute
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
    metric_grid,
    speed_from_g_chi_chi,
    speed_numeric,
)
from .spin_ops import (
    TWO_PI,
    Direction,
    FieldConfig,
    SpinSystem,
    build_field_hamiltonian,
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
    """Running worst absolute / effective-relative deviation."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0

    def add(self, a: float, b: float):
        dev = abs(a - b)
        self.max_abs = max(self.max_abs, dev)
        if dev > ABS_FLOOR:
            self.max_rel = max(self.max_rel, dev / max(abs(a), abs(b), ABS_FLOOR))

    def add_arrays(self, a: np.ndarray, b: np.ndarray):
        for x, y in zip(np.ravel(a), np.ravel(b)):
            self.add(float(x), float(y))

    def result(self, name: str, grid: str, tol: float) -> CheckResult:
        return CheckResult(name, grid, self.max_abs, self.max_rel, tol, self.max_rel <= tol)


def _sys_tag(sys: SpinSystem) -> str:
    return f"N{sys.n_sites}_2s{sys.two_s}"


def _closed_form_grid(
    sys: SpinSystem, grid: SweepGrid, field: Optional[FieldConfig]
) -> np.ndarray:
    """Closed-form metrics broadcast to the grid's (n_theta, n_phi, n_chi, 3, 3).

    The zero-field form depends on theta alone and is evaluated once per
    theta; the dressed form once per (theta, phi).
    """
    if field is None:
        ref = [[analytic.metric_closed_form(sys, float(t)).components] for t in grid.theta]
    else:
        ref = [
            [
                analytic.metric_closed_form_field(sys, float(t), float(p), field).components
                for p in grid.phi
            ]
            for t in grid.theta
        ]
    shape = (grid.theta.size, grid.phi.size, grid.chi.size, 3, 3)
    return np.broadcast_to(np.array(ref)[:, :, None], shape)


def run_metric_equivalence(sys: SpinSystem, grid: SweepGrid, tol: float = 1e-9) -> CheckResult:
    """Numeric metric vs the closed form at every grid point."""
    dev = _Deviation()
    n_points = 0
    fields = grid.fields or [None]
    for fld in fields:
        num = metric_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        dev.add_arrays(num, _closed_form_grid(sys, grid, fld))
        n_points += math.prod(num.shape[:3])
    name = f"metric_equivalence[{_sys_tag(sys)}{'_field' if fields != [None] else ''}]"
    return dev.result(name, f"{n_points} points", tol)


def run_speed_uncertainty_identity(
    sys: SpinSystem, grid: SweepGrid, tol: float = 1e-9
) -> CheckResult:
    """|J| sqrt(g_chichi) vs gamma * (energy uncertainty of the generator).

    The speed comes from the numeric metric, the uncertainty from the
    dense product-space Hamiltonian applied to the product-basis states.
    Compared on squared speeds: at stationary points both sides are the
    square root of ~eps round-off, so the raw values carry O(sqrt(eps))
    noise that is not a real deviation.  Squared agreement within tol
    implies the speeds themselves agree to better than tol where nonzero.
    """
    dev = _Deviation()
    n_points = 0
    fields = grid.fields or [None]
    rows, weights = product_to_occupation(sys)
    for fld in fields:
        ham = build_field_hamiltonian(sys, fld)
        psi, tangents = family_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        g = metric_from_vectors(sys.gamma, psi, tangents)
        v = speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
        de = energy_uncertainties(ham.matrix, psi[..., rows] * weights)
        dev.add_arrays(v * v, (sys.gamma * de) ** 2)
        n_points += v.size
    name = f"speed_uncertainty[{_sys_tag(sys)}{'_field' if fields != [None] else ''}]"
    return dev.result(name, f"{n_points} points", tol)


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

TOPOLOGY_SYSTEMS = (
    SpinSystem(2, 1),
    SpinSystem(3, 2),
    SpinSystem(4, 1),
    SpinSystem(6, 3),
)


def _direction_grid(n_polar: int = 8, n_azimuth: int = 8):
    for tp in np.linspace(0.0, math.pi, n_polar):
        for pp in np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False):
            yield Direction(float(tp), float(pp))


def run_full_suite(
    only: Optional[str] = None, tolerance: Optional[float] = None
) -> VerificationReport:
    """Run every enabled check and assemble the report.

    ``only`` filters by check-name prefix ("metric", "speed", "topology",
    "section7"); ``tolerance`` overrides each check's pass tolerance.
    """
    report = VerificationReport()

    def want(prefix: str) -> bool:
        return only is None or prefix.startswith(only)

    def tol(default: float) -> float:
        return default if tolerance is None else tolerance

    if want("metric_equivalence") or want("speed_uncertainty"):
        for sys in DEFAULT_SYSTEMS:
            grid = SweepGrid.default(sys)
            if want("metric_equivalence"):
                report.entries.append(run_metric_equivalence(sys, grid, tol=tol(1e-9)))
            if want("speed_uncertainty"):
                report.entries.append(run_speed_uncertainty_identity(sys, grid, tol=tol(1e-9)))
        # dressed case: N=4, s=1, h/J=1 over an 8x8 direction grid
        sys = SpinSystem(4, 2)
        fields = [FieldConfig(1.0, d) for d in _direction_grid()]
        field_grid = SweepGrid(
            theta=np.array([0.4, 1.1, 2.3]),
            phi=np.array([0.7, 2.9, 5.1]),
            chi=np.array([0.0, 0.9]),
            fields=fields,
        )
        if want("metric_equivalence"):
            report.entries.append(run_metric_equivalence(sys, field_grid, tol=tol(1e-9)))
        if want("speed_uncertainty"):
            report.entries.append(run_speed_uncertainty_identity(sys, field_grid, tol=tol(1e-9)))
    if want("topology"):
        specs = [analytic.ManifoldSpec.for_system(s) for s in TOPOLOGY_SYSTEMS]
        report.entries.extend(run_topology_suite(specs, tol=tol(1e-3)))
    if want("section7_vectors"):
        report.entries.append(run_section7_vectors(tol=tol(1e-9)))
    return report
