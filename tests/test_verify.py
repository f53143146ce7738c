import json
import math

import numpy as np
import pytest

from spinmanifold import analytic, evolution, fs_metric, spin_ops, verify
from spinmanifold.analytic import ManifoldSpec
from spinmanifold.spin_ops import FieldConfig, SpinSystem
from spinmanifold.verify import (
    ABS_FLOOR,
    CheckResult,
    SweepGrid,
    _Deviation,
    run_full_suite,
    run_oracle_checks,
    run_section7_vectors,
    run_topology_suite,
    select_checks,
)

#: run_full_suite()'s entries in order, as (name, grid); perfbench counts 17
SUITE_SHAPE = [
    (f"{check}[{tag}]", "1728 points")
    for tag in ("N2_2s1", "N3_2s2", "N4_2s1", "N2_2s3", "N3_2s3")
    for check in ("metric_equivalence", "speed_uncertainty")
] + [
    ("metric_equivalence[N4_2s2_field]", "1152 points"),
    ("speed_uncertainty[N4_2s2_field]", "1152 points"),
    ("topology[N2_2s1]", "chi_max=6.28319"),
    ("topology[N3_2s2]", "chi_max=3.14159"),
    ("topology[N4_2s1]", "chi_max=6.28319"),
    ("topology[N6_2s3]", "chi_max=6.28319"),
    ("section7_vectors", "worked cases"),
]


class TestIndividualChecks:
    def test_metric_equivalence_passes(self):
        sys = SpinSystem(3, 2)
        res, _ = run_oracle_checks(sys, SweepGrid.default(sys, n_theta=7, n_phi=3, n_chi=3))
        assert res.name == "metric_equivalence[N3_2s2]"
        assert res.grid == "81 points"  # (7 + 2 poles) x 3 x 3
        assert res.passed
        assert res.max_rel <= 1e-9

    def test_speed_identity_passes(self):
        sys = SpinSystem(2, 3)
        _, res = run_oracle_checks(sys, SweepGrid.default(sys, n_theta=7, n_phi=3, n_chi=3))
        assert res.name == "speed_uncertainty[N2_2s3]"
        assert res.grid == "81 points"  # (7 + 2 poles) x 3 x 3
        assert res.passed

    def test_topology_suite_passes(self):
        specs = [ManifoldSpec.for_system(SpinSystem(n, t)) for n, t in [(2, 1), (3, 2)]]
        results = run_topology_suite(specs)
        assert all(r.passed for r in results)
        assert all(r.max_abs < 1e-3 for r in results)

    def test_section7_vectors_pass(self):
        assert run_section7_vectors().passed

    def test_default_grid_covers_poles(self):
        grid = SweepGrid.default(SpinSystem(2, 1))
        assert grid.theta[0] == 0.0
        assert grid.theta[-1] == math.pi
        assert grid.theta.size == 27


class TestFullSuite:
    def test_suite_shape_and_oracle_passes(self, monkeypatch):
        calls = []
        family_block = evolution._family_block

        def counted(*args):
            calls.append(args[0])
            return family_block(*args)

        evolution._family_vectors.cache_clear()
        monkeypatch.setattr(evolution, "_family_block", counted)
        report = run_full_suite()
        assert [(e.name, e.grid) for e in report.entries] == SUITE_SHAPE
        assert report.overall
        # one family_grid per field and grid: 5 zero-field grids plus 64
        # field directions; section7 adds its 7 single-point speeds
        assert len(calls) == 5 + 64 + 7

    def test_second_suite_takes_no_eigh(self, monkeypatch):
        run_full_suite()

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert run_full_suite().overall

    def test_suite_builds_each_closed_form_stack_once(self, monkeypatch):
        validated, spins = [], []
        check, total_spin = fs_metric._validated_metrics, spin_ops.total_spin_operator

        def counted_check(g):
            validated.append(g.shape)
            return check(g)

        def counted_spin(sys, kind):
            spins.append(kind)
            return total_spin(sys, kind)

        for module in (fs_metric, analytic):
            monkeypatch.setattr(module, "_validated_metrics", counted_check)
        monkeypatch.setattr(spin_ops, "total_spin_operator", counted_spin)
        assert run_full_suite().overall
        # 6 oracle checks (5 zero-field systems, one field system over 64
        # directions), one oracle and one closed-form stack per check, and
        # section7's 7 points, each checked against the dressed closed form
        # and against metric_numeric
        assert len(validated) == 6 + 6 + 2 * 7
        # the dense product-space total spins: once, for the field system
        assert sorted(spins) == ["x", "y", "z"]

    @pytest.mark.parametrize(
        "only,names",
        [
            ("topology[N2_2s1]", ["topology[N2_2s1]"]),
            ("speed_uncertainty[N4", ["speed_uncertainty[N4_2s1]", "speed_uncertainty[N4_2s2_field]"]),
            ("metric", [n for n, _ in SUITE_SHAPE if n.startswith("metric")]),
        ],
    )
    def test_only_keeps_any_name_prefix(self, only, names):
        report = run_full_suite(only=only)
        assert [e.name for e in report.entries] == names
        assert report.overall

    def test_select_checks_lists_the_report_names(self):
        assert select_checks(None, None) == [name for name, _ in SUITE_SHAPE]

    def test_only_selecting_nothing_raises(self):
        with pytest.raises(ValueError, match="'bogus'"):
            run_full_suite(only="bogus")

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_bad_tolerance_raises(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            run_full_suite(only="topology", tolerance=tolerance)

    def test_only_filter(self):
        report = run_full_suite(only="topology")
        assert report.entries
        assert all(e.name.startswith("topology") for e in report.entries)
        assert report.overall

    def test_tolerance_override_forces_failure(self):
        report = run_full_suite(only="topology", tolerance=1e-15)
        assert not report.overall

    def test_report_json_schema(self):
        report = run_full_suite(only="section7")
        rows = json.loads(report.to_json())
        assert rows
        for row in rows:
            assert set(row) == {"name", "grid", "max_abs", "max_rel", "tol", "pass"}
            assert row["pass"] is True

    def test_report_is_deterministic(self):
        a = run_full_suite(only="section7").to_json()
        b = run_full_suite(only="section7").to_json()
        assert a == b

    def test_format_table_lines(self):
        report = run_full_suite(only="topology")
        table = report.format_table()
        lines = table.splitlines()
        assert lines[-1] == "overall: PASS"
        assert sum("PASS" in ln for ln in lines[1:-1]) == len(report.entries)


class TestCheckResult:
    def test_pass_is_tolerance_comparison(self):
        assert CheckResult("x", "g", 1.0, 5e-10, 1e-9, True).passed
        res, _ = run_oracle_checks(
            SpinSystem(2, 1),
            SweepGrid.default(SpinSystem(2, 1), n_theta=3, n_phi=2, n_chi=2),
            tol=1e-16,
        )
        # exact zeros below the absolute floor never count against rel
        assert res.max_abs < 1e-12 or res.max_rel > 0


class TestDeviation:
    def test_array_matches_elementwise_rule(self):
        a = np.array([0.0, 1e-13, 1.0, -2.0, 5.0])
        b = np.array([0.0, 0.0, 1.0 + 1e-10, -2.0 - 4e-9, 5.0])
        dev = _Deviation()
        dev.add_arrays(a, b)
        ref_abs = max(abs(x - y) for x, y in zip(a, b))
        ref_rel = max(
            abs(x - y) / max(abs(x), abs(y), 1e-12) for x, y in zip(a, b) if abs(x - y) > 1e-12
        )
        assert dev.max_abs == ref_abs
        assert dev.max_rel == pytest.approx(ref_rel, rel=1e-15)
        assert not dev.result("x", "5 points", 1e-9).passed
        assert dev.result("x", "5 points", 3e-9).passed


def looped(a, b, start=()):
    """max_abs and max_rel of a loop of _Deviation.add over every broadcast element."""
    dev = _Deviation()
    for x, y in start:
        dev.add(x, y)
    for x, y in zip(*(z.ravel() for z in np.broadcast_arrays(a, b))):
        dev.add(float(x), float(y))
    return dev.max_abs, dev.max_rel


def vectorised(a, b, start=()):
    dev = _Deviation()
    for x, y in start:
        dev.add(x, y)
    dev.add_arrays(a, b)
    return dev.max_abs, dev.max_rel


def _random_pairs(seed, shape=(40,)):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-14, 3, size=shape)
    b = a * (1.0 + rng.normal(size=shape) * 10.0 ** rng.integers(-16, -6, size=shape))
    equal = rng.random(size=shape) < 0.2
    b[equal] = a[equal]
    return a, b


class TestDeviationArrays:
    """add_arrays against the elementwise loop of add: exactly equal maxima."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random(self, seed):
        a, b = _random_pairs(seed, (7, 9))
        assert vectorised(a, b) == looped(a, b)
        assert vectorised(a, b, [(1.0, 1.5)]) == looped(a, b, [(1.0, 1.5)])

    def test_ties(self):
        a = np.array([1.0, 2.0, 1.0, 2.0, 4.0, 4.0])
        b = np.array([1.5, 2.5, 1.5, 2.5, 2.0, 2.0])
        assert vectorised(a, b) == looped(a, b) == (2.0, 0.5)
        assert vectorised(a, b, [(4.0, 2.0)]) == looped(a, b, [(4.0, 2.0)])

    def test_values_under_the_floor(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, ABS_FLOOR, size=50)
        b = rng.uniform(-ABS_FLOOR / 4, 0.0, size=50)
        got = vectorised(a, b)
        assert got == looped(a, b)
        assert 0.0 < got[0] <= 1.25 * ABS_FLOOR and got[1] > 0.0
        tiny = np.array([0.0, 5e-13, 1e-13])
        assert vectorised(tiny, 0.0) == looped(tiny, 0.0) == (5e-13, 0.0)

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [
            ((2, 3, 3, 2, 3, 3), (2, 3, 3, 1, 3, 3)),  # dressed: chi broadcast
            ((1, 4, 3, 2, 3, 3), (4, 1, 1, 3, 3)),  # zero field: phi, chi broadcast
            ((5,), ()),
        ],
    )
    def test_broadcast_shapes(self, shape_a, shape_b):
        rng = np.random.default_rng(11)
        b = np.asarray(rng.normal(size=shape_b))
        a = b * (1.0 + rng.normal(size=shape_a) * 1e-9)
        assert vectorised(a, b) == looped(a, b)
        assert vectorised(b, a) == looped(b, a)

    @pytest.mark.parametrize("shape", [(0,), (0, 3, 3), (2, 0, 3)])
    def test_empty(self, shape):
        empty = np.empty(shape)
        assert vectorised(empty, empty) == looped(empty, empty) == (0.0, 0.0)
        assert vectorised(empty, empty, [(1.0, 2.0)]) == (1.0, 0.5)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 20, -1])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_at_first_middle_last(self, value, where, side):
        pair = list(_random_pairs(5, (41,)))
        pair[side][where] = value
        a, b = pair
        assert vectorised(a, b) == looped(a, b)
        assert vectorised(a, b, [(3.0, 3.5)]) == looped(a, b, [(3.0, 3.5)])

    def test_non_finite_on_both_sides_and_overflow(self):
        a = np.array([np.inf, np.nan, 1e308, 1.0, -np.inf, 2.0])
        b = np.array([np.inf, 1.0, -1e308, np.nan, np.inf, 2.0 + 1e-9])
        assert vectorised(a, b) == looped(a, b) == (math.inf, math.inf)
        assert vectorised(a[:2], b[:2]) == looped(a[:2], b[:2]) == (0.0, 0.0)


def _dressed_grid():
    """run_full_suite's dressed grid: N = 4, 2s = 2, h/J = 1 over 64 directions."""
    return SweepGrid(
        theta=np.array([0.4, 1.1, 2.3]),
        phi=np.array([0.7, 2.9, 5.1]),
        chi=np.array([0.0, 0.9]),
        fields=[FieldConfig(1.0, d) for d in verify._direction_grid()],
    )


@pytest.mark.parametrize(
    "sys,grid",
    [(SpinSystem(4, 2), _dressed_grid()), (SpinSystem(3, 3), SweepGrid.default(SpinSystem(3, 3)))],
    ids=["N4_2s2_field", "N3_2s3"],
)
def test_batched_checks_equal_the_per_field_loop(sys, grid):
    metric, speed = _Deviation(), _Deviation()
    rows, weights = spin_ops.product_to_occupation(sys)
    fields = grid.fields or [None]
    for fld, ham in zip(fields, spin_ops.field_hamiltonians(sys, fields)):
        psi, tangents = evolution.family_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        g = fs_metric.metric_from_vectors(sys.gamma, psi, tangents)
        if fld is None:
            ref = analytic.metric_closed_form_array(sys, grid.theta)[:, None, None]
        else:
            d = fld.direction
            ref = analytic.metric_closed_form_field_array(
                sys, grid.theta[:, None], grid.phi, fld.ratio_h_over_j, d.polar, d.azimuth
            )[:, :, None]
        for x, y in zip(g.ravel(), np.broadcast_to(ref, g.shape).ravel()):
            metric.add(float(x), float(y))
        v = fs_metric.speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
        de = fs_metric.energy_uncertainties(ham.matrix, psi[..., rows] * weights)
        for x, y in zip((v * v).ravel(), ((sys.gamma * de) ** 2).ravel()):
            speed.add(float(x), float(y))
    got_metric, got_speed = run_oracle_checks(sys, grid)
    assert (got_metric.max_abs, got_metric.max_rel) == (metric.max_abs, metric.max_rel)
    assert (got_speed.max_abs, got_speed.max_rel) == (speed.max_abs, speed.max_rel)
    assert got_metric.max_abs > 0.0 and got_speed.max_abs > 0.0
