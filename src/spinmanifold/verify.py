"""Oracle-vs-closed-form verification sweeps and the consistency report.

The metric check holds the exact metric on a deterministic coordinate grid,
built for all fields at once, against the closed form, and the speed check
its g_chichi against every field's energy uncertainty from one covariance;
each records its worst deviation in one reduction.  A component passes when
its absolute deviation is below the 1e-12 floor or its relative deviation
(denominator max(|a|, |b|, 1e-12)) is below the check tolerance.

The suite is one table, ``_SUITE``, with one row per runner call in report
order: the names of the checks it reports, their tolerance and the
call.  :func:`select_checks` and :func:`run_full_suite` read only that
table, and a row runs only when one of its names is selected.
"""

from __future__ import annotations

import json
import math
import sys as _sysmod
from dataclasses import asdict, dataclass, field as dc_field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analytic
from .evolution import CoordinatePoint, _family_stream
from .fs_metric import (
    _metric_components,
    _validated_metrics,
    covariances_from_applied,
    speed_from_g_chi_chi,
    speed_numeric,
    uncertainties_from_covariances,
)
from .spin_ops import (
    TWO_PI,
    DimensionGuardError,
    Direction,
    FieldConfig,
    SpinSystem,
    field_vectors,
    ising_pair_sums,
    product_to_occupation,
    total_spin_operator,
)

ABS_FLOOR = 1e-12
#: relative; oracle and closed forms agree to round-off, every deviation under ABS_FLOOR (7.1e-14)
_ORACLE_TOL = 1e-9
#: relative; the curvature integral's 1e-4 pole cut leaves deviations of 2.5e-8 to 5.9e-7
_TOPOLOGY_TOL = 1e-3


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
    ) -> "SweepGrid":
        theta = np.concatenate(
            [[0.0], np.linspace(0.05, math.pi - 0.05, n_theta), [math.pi]]
        )
        phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
        chi = np.linspace(0.0, analytic.chi_max_for(sys.two_s), n_chi)
        return cls(theta=theta, phi=phi, chi=chi)


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
        picks = set()
        if not finite.all():
            picks.update(np.flatnonzero(~finite).tolist())
            dev = np.where(finite, dev, 0.0)
        if finite.any():
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
        return analytic.metric_closed_form(sys, grid.theta).components[:, None, None]
    ratio, polar, azimuth = np.array(
        [(f.ratio_h_over_j, f.direction.polar, f.direction.azimuth) for f in grid.fields]
    ).T[:, :, None, None]
    ref = analytic.metric_closed_form_field_array(
        sys, grid.theta[:, None], grid.phi, ratio, polar, azimuth
    )
    return ref[:, :, :, None]


def _energy_uncertainties(
    sys: SpinSystem, fields: Sequence[Optional[FieldConfig]], psi: np.ndarray
) -> np.ndarray:
    """Every field's energy uncertainty under its product-space Hamiltonian in each state
    of ``psi``, the (n_theta, n_phi, 1, D) occupation-basis states at chi = 0: shape
    (n_fields, n_theta, n_phi, 1), the same at every chi.

    H_f = 2J (Z + b_f . Sum_j S_j) commutes with U(chi), so its variance is
    that of the chi = 0 state, which no field changes; H_f is linear in b_f
    (:func:`~spinmanifold.spin_ops.field_vectors`), so Var H_f = 4J^2 v^T C v
    with v = (1, b_f) and C the covariance of (Z, Sum S^x, Sum S^y, Sum S^z).
    The three dense total spins are applied only when some field is nonzero.
    """
    rows, weights = product_to_occupation(sys)
    psi = np.take(psi, rows, axis=-1)
    psi *= weights
    b = field_vectors(fields)
    applied = [ising_pair_sums(sys) * psi]
    if b.any():
        applied += [psi @ total_spin_operator(sys, kind).matrix.T for kind in "xyz"]
    v = np.concatenate([np.ones((len(b), 1)), b], axis=1)[:, : len(applied)]
    applied = np.stack(applied, axis=-2) if len(applied) > 1 else applied[0][..., None, :]
    cov = covariances_from_applied(psi, applied)
    return uncertainties_from_covariances(cov, 2.0 * sys.coupling_j * v[:, None, None, None])


def run_oracle_checks(
    sys: SpinSystem, grid: SweepGrid, tol: float = _ORACLE_TOL
) -> List[CheckResult]:
    """Both oracle identities at every grid point, in one pass over all fields.

    ``metric_equivalence``: the numeric metric against the closed form.
    ``speed_uncertainty``: |J| sqrt(g_chichi) at every chi against gamma *
    (the energy uncertainty of :func:`_energy_uncertainties`, at chi = 0
    with no Hamiltonian built, in the states of the same pass), so U(chi)
    shows here only through the metric.  Speeds are compared squared: at
    stationary points both sides are the square root of ~eps round-off, so
    the raw values carry O(sqrt(eps)) noise that is not a real deviation.
    Squared agreement within tol implies the speeds themselves agree to
    better than tol where nonzero.

    One pass over :func:`~spinmanifold.evolution.family_grids`' block,
    streamed one (field group, chi) slice at a time, builds the states and
    tangents of every field: each slice's metrics are written into one
    array, which is validated once, so the pass holds the chi = 0 rows, one
    slice and the metrics, never the n_chi-fold block.  The energy
    uncertainties read the chi = 0 states, the first of those rows, and
    the closed form is evaluated once; each row is one
    :meth:`_Deviation.add_arrays` reduction.
    """
    fields = grid.fields or [None]
    rows, slices = _family_stream(sys, grid.theta, grid.phi, grid.chi, fields)
    de = _energy_uncertainties(sys, fields, rows[0, :, :, None])
    g = np.empty((len(fields),) + rows.shape[1:3] + (np.size(grid.chi), 3, 3))
    for members, c, vecs in slices:
        g[members, :, :, c] = _metric_components(sys.gamma, vecs[..., 0, :], vecs[..., 1:, :])
    g = _validated_metrics(g)
    metric, speed = _Deviation(), _Deviation()
    metric.add_arrays(g, _closed_form_grid(sys, grid))
    v = speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
    speed.add_arrays(v * v, (sys.gamma * de) ** 2)
    tag = f"[{_sys_tag(sys)}{'_field' if fields != [None] else ''}]"
    points = f"{v.size} points"
    return [
        metric.result(f"metric_equivalence{tag}", points, tol),
        speed.result(f"speed_uncertainty{tag}", points, tol),
    ]


def run_topology_suite(
    specs: Sequence[analytic.ManifoldSpec], tol: float = _TOPOLOGY_TOL
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


def run_section7_vectors(tol: float = _ORACLE_TOL) -> CheckResult:
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


def _direction_grid():
    """The 64 field directions of the field check: 8 polar angles on [0, pi] by 8 azimuths."""
    for tp in np.linspace(0.0, math.pi, 8):
        for pp in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            yield Direction(float(tp), float(pp))


def _field_grid() -> SweepGrid:
    """:data:`FIELD_SYSTEM`'s grid: h/J = 1 over the 64 directions of :func:`_direction_grid`."""
    return SweepGrid(
        theta=np.array([0.4, 1.1, 2.3]),
        phi=np.array([0.7, 2.9, 5.1]),
        chi=np.array([0.0, 0.9]),
        fields=[FieldConfig(1.0, d) for d in _direction_grid()],
    )


def _oracle_names(tag: str) -> Tuple[str, str]:
    return f"metric_equivalence[{tag}]", f"speed_uncertainty[{tag}]"


#: the suite in report order, one row per runner call: (the names of the checks it reports,
#: their tolerance, run(tol)).  Each run looks its runner up when it is called, so a
#: runner replaced on this module after import (a tracing wrapper) is the one that runs.
_SUITE = (
    *(
        (_oracle_names(_sys_tag(s)), _ORACLE_TOL,
         lambda tol, s=s: run_oracle_checks(s, SweepGrid.default(s), tol))
        for s in DEFAULT_SYSTEMS
    ),
    (_oracle_names(f"{_sys_tag(FIELD_SYSTEM)}_field"), _ORACLE_TOL,
     lambda tol: run_oracle_checks(FIELD_SYSTEM, _field_grid(), tol)),
    *(
        ((f"topology[{_sys_tag(s)}]",), _TOPOLOGY_TOL,
         lambda tol, s=s: run_topology_suite([analytic.ManifoldSpec.for_system(s)], tol))
        for s in TOPOLOGY_SYSTEMS
    ),
    (("section7_vectors",), _ORACLE_TOL, lambda tol: [run_section7_vectors(tol)]),
)


def select_checks(only: Optional[str]) -> List[str]:
    """The names of the suite's checks that ``only`` selects, in report order.

    Raises ValueError, before any check runs, for an ``only`` that selects no check.
    """
    selected = [n for names, _, _ in _SUITE for n in names if only is None or n.startswith(only)]
    if not selected:
        raise ValueError(f"no verify check name starts with {only!r}")
    return selected


def run_full_suite(only: Optional[str] = None) -> VerificationReport:
    """Run the selected checks, each row at its own tolerance, and assemble the report.

    ``only`` keeps the checks whose name starts with it ("metric",
    "speed_uncertainty[N3", "topology[N2_2s1]", ...); a row of the suite
    runs only when it has a kept check.  It is checked first, by :func:`select_checks`.
    A row whose closed form or oracle raises ValueError (a metric that is
    not positive semidefinite), ArithmeticError or LinAlgError reports
    each of its checks as failed, with NaN deviations and the exception's
    type as its grid, prints the reason on stderr and lets the other rows
    run; a DimensionGuardError still aborts the suite.
    """
    selected = select_checks(only)
    entries: List[CheckResult] = []
    for names, tol, run in _SUITE:
        if any(name in selected for name in names):
            try:
                entries += run(tol)
            except DimensionGuardError:
                raise
            except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
                why = f"raised {type(exc).__name__}"
                print(f"verify: {', '.join(names)} {why}: {exc}", file=_sysmod.stderr)
                entries += [CheckResult(n, why, math.nan, math.nan, tol, False) for n in names]
    return VerificationReport([e for e in entries if e.name in selected])
