import json
import math

import numpy as np
import pytest

from spinmanifold import analytic, evolution, fs_metric, spin_ops, verify
from spinmanifold.analytic import ManifoldSpec
from spinmanifold.spin_ops import SpinSystem
from spinmanifold.verify import (
    CheckResult,
    SweepGrid,
    _Deviation,
    run_full_suite,
    run_oracle_checks,
    run_section7_vectors,
    run_topology_suite,
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
        # 69 oracle grids (5 zero-field systems, 64 field directions), one
        # closed-form stack per grid, and section7's 7 points, each checked
        # against the dressed closed form and against metric_numeric
        assert len(validated) == 69 + 69 + 2 * 7
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
