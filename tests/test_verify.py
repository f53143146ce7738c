import json
import math
import tracemalloc

import numpy as np
import pytest

from spinmanifold import analytic, evolution, fs_metric, spin_ops, verify
from spinmanifold.analytic import ManifoldSpec
from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem
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


def counted_calls(monkeypatch, module, name) -> list:
    """The arguments of every later call of ``module.name``, which still runs."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFullSuite:
    def test_suite_shape_and_oracle_passes(self, monkeypatch):
        evolution._family_vectors.cache_clear()
        calls = counted_calls(monkeypatch, evolution, "_rows")
        report = run_full_suite()
        assert [(e.name, e.grid) for e in report.entries] == SUITE_SHAPE
        assert report.overall
        grids = [args for args in calls if np.ndim(args[1]) == 1]
        points = [args for args in calls if np.ndim(args[1]) == 0]
        # every grid build starts from its rows at chi = 0: one grid per oracle
        # check, 5 zero-field grids and one stacked grid for all 64 field
        # directions, whose chi = 0 states also give the energy uncertainties
        assert len(grids) == 5 + 1
        # section7's 7 single-point speeds, each built at chi = 0 without a grid
        assert len(points) == 7
        assert len(calls) == 5 + 1 + 7

    def test_suite_builds_each_closed_form_stack_once(self, monkeypatch):
        validated, spins = [], []
        check, total_spin = fs_metric._validated_metrics, spin_ops.total_spin_operator

        def counted_check(g):
            validated.append(g.shape)
            return check(g)

        def counted_spin(sys, kind):
            spins.append(kind)
            return total_spin(sys, kind)

        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("metric validation takes one Cholesky per stack, no eigenvalues")

        def no_hamiltonian(*args, **kwargs):
            raise AssertionError("the energy uncertainties need no dense Hamiltonian")

        for module in (fs_metric, analytic, verify):
            monkeypatch.setattr(module, "_validated_metrics", counted_check)
        for module in (spin_ops, verify):
            monkeypatch.setattr(module, "total_spin_operator", counted_spin)
        monkeypatch.setattr(spin_ops, "build_field_hamiltonian", no_hamiltonian)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
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
        names = select_checks(None, None)
        assert names == [name for name, _ in SUITE_SHAPE]
        assert len(set(names)) == len(names)

    def test_only_one_oracle_check_builds_one_grid(self, monkeypatch):
        calls = counted_calls(monkeypatch, evolution, "_rows")
        report = run_full_suite(only="metric_equivalence[N2_2s1]")
        assert [e.name for e in report.entries] == ["metric_equivalence[N2_2s1]"]
        assert [args[0] for args in calls] == [SpinSystem(2, 1)]

    def test_only_one_topology_check_integrates_one_manifold(self, monkeypatch):
        calls = counted_calls(monkeypatch, analytic, "curvature_integral")
        report = run_full_suite(only="topology[N2_2s1]")
        assert [e.name for e in report.entries] == ["topology[N2_2s1]"]
        assert [spec.sys for spec, in calls] == [SpinSystem(2, 1)]

    def test_runners_are_looked_up_when_their_row_runs(self, monkeypatch):
        # perfbench's tracer replaces module functions after import
        calls = counted_calls(monkeypatch, verify, "run_topology_suite")
        report = run_full_suite(only="topology")
        assert [spec.sys for args in calls for spec in args[0]] == list(verify.TOPOLOGY_SYSTEMS)
        assert len(report.entries) == 4

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


def chi_zero_states(sys, grid):
    """The (n_theta, n_phi, 1, D) states of ``grid`` at chi = 0, built on their own."""
    return evolution.family_grid(sys, grid.theta, grid.phi, 0.0)[0]


def looped_uncertainties(sys, grid, fields):
    """Every field's energy uncertainty on ``grid`` from its dense product-space
    Hamiltonian, applied field by field to the states propagated to every chi."""
    rows, weights = spin_ops.product_to_occupation(sys)
    de = []
    for fld in fields:
        psi, _ = evolution.family_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        ham = spin_ops.build_field_hamiltonian(sys, fld).matrix
        de.append(fs_metric.energy_uncertainties(ham, psi[..., rows] * weights))
    return np.array(de)


@pytest.mark.parametrize(
    "sys,grid",
    [
        (verify.FIELD_SYSTEM, verify._field_grid()),
        (SpinSystem(3, 3), SweepGrid.default(SpinSystem(3, 3))),
    ],
    ids=["N4_2s2_field", "N3_2s3"],
)
def test_batched_checks_equal_the_per_field_loop(sys, grid):
    metric = _Deviation()
    fields = grid.fields or [None]
    for fld in fields:
        psi, tangents = evolution.family_grid(sys, grid.theta, grid.phi, grid.chi, fld)
        g = fs_metric.metric_from_vectors(sys.gamma, psi, tangents)
        if fld is None:
            ref = analytic.metric_closed_form(sys, grid.theta).components[:, None, None]
        else:
            d = fld.direction
            ref = analytic.metric_closed_form_field_array(
                sys, grid.theta[:, None], grid.phi, fld.ratio_h_over_j, d.polar, d.azimuth
            )[:, :, None]
        for x, y in zip(g.ravel(), np.broadcast_to(ref, g.shape).ravel()):
            metric.add(float(x), float(y))
    got_metric, got_speed = run_oracle_checks(sys, grid)
    assert (got_metric.max_abs, got_metric.max_rel) == (metric.max_abs, metric.max_rel)
    assert got_metric.max_abs > 0.0
    # the batched uncertainties come from one covariance at chi = 0, so they
    # agree with the loop's to round-off, not bit for bit
    looped = looped_uncertainties(sys, grid, fields)
    batched = verify._energy_uncertainties(sys, fields, chi_zero_states(sys, grid))
    assert np.abs(batched - looped).max() <= 1e-13
    assert got_speed.passed and got_speed.max_abs > 0.0


def block_reference(sys, grid):
    """run_oracle_checks' two rows from the whole (F, n_theta, n_phi, n_chi, 4, D) block of
    family_grids, its metrics from metric_from_vectors, and the block's size in bytes."""
    fields = grid.fields or [None]
    psi, tangents = evolution.family_grids(sys, grid.theta, grid.phi, grid.chi, fields)
    g = fs_metric.metric_from_vectors(sys.gamma, psi, tangents)
    de = verify._energy_uncertainties(sys, fields, chi_zero_states(sys, grid))
    metric, speed = _Deviation(), _Deviation()
    metric.add_arrays(g, verify._closed_form_grid(sys, grid))
    v = fs_metric.speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
    speed.add_arrays(v * v, (sys.gamma * de) ** 2)
    tag = f"[{verify._sys_tag(sys)}{'_field' if grid.fields else ''}]"
    rows = [
        metric.result(f"metric_equivalence{tag}", f"{v.size} points", verify._ORACLE_TOL),
        speed.result(f"speed_uncertainty{tag}", f"{v.size} points", verify._ORACLE_TOL),
    ]
    return rows, psi.nbytes + tangents.nbytes


@pytest.mark.parametrize(
    "sys,grid",
    [
        (SpinSystem(3, 3), SweepGrid.default(SpinSystem(3, 3))),
        (verify.FIELD_SYSTEM, verify._field_grid()),
    ],
    ids=["N3_2s3", "N4_2s2_field"],
)
def test_streamed_oracle_checks_stay_below_their_block(sys, grid):
    # the pass holds the chi = 0 rows and one (field group, chi) slice, never the
    # n_chi-fold block: its traced peak stays below that block's own size (2.21 MB at
    # N3_2s3 and 1.11 MB on the field grid), and its rows are the block's, bit for bit
    want, block_bytes = block_reference(sys, grid)
    got = run_oracle_checks(sys, grid)  # the bases are cached by now
    tracemalloc.start()
    try:
        assert run_oracle_checks(sys, grid) == got
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block_bytes
    assert got == want
    for a, b in zip(got, want):
        assert (a.max_abs.hex(), a.max_rel.hex()) == (b.max_abs.hex(), b.max_rel.hex())
    assert got[0].max_abs > 0.0 and all(r.passed for r in got)


#: fields past verify's h/J = 1: none, a zero ratio, off axis, along -z, strong and off axis
FIELD_LIST = {
    "none": None,
    "zero_ratio": FieldConfig(0.0, Direction(0.7, 2.1)),
    "off_axis": FieldConfig(-0.4, Direction(1.2, 0.3)),
    "along_minus_z": FieldConfig(1.7, Direction(math.pi, 0.4)),
    "strong_off_axis": FieldConfig(3.0, Direction(2.3, 5.0)),
}


@pytest.mark.parametrize(
    "fields",
    [[f] for f in FIELD_LIST.values()] + [list(FIELD_LIST.values())],
    ids=list(FIELD_LIST) + ["all"],
)
def test_energy_uncertainties_equal_the_per_field_loop(fields):
    sys = SpinSystem(4, 2, coupling_j=-1.3)
    grid = SweepGrid.default(sys, n_theta=5, n_phi=3, n_chi=3)
    looped = looped_uncertainties(sys, grid, fields)
    batched = verify._energy_uncertainties(sys, fields, chi_zero_states(sys, grid))
    assert batched.shape == looped.shape[:3] + (1,)
    assert np.abs(batched - looped).max() <= 1e-13
