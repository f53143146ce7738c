import argparse
import csv
import json
import math
import os
import re

import numpy as np
import pytest

from spinmanifold import analytic, cli, verify
from spinmanifold.analytic import metric_closed_form_field, scalar_curvature, speed_extrema
from spinmanifold.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    _build_parser,
    _load_config,
    main,
)
from spinmanifold.fs_metric import speed_from_g_chi_chi
from spinmanifold.spin_ops import Direction, FieldConfig, SpinSystem

METHANE = SpinSystem(4, 1, coupling_j=-6.2)


def run_csv(capsys, argv):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    return list(csv.DictReader(out.splitlines()))


def same_output(capsys, argv, other):
    """True when both commands exit 0 with the same stdout and stderr."""
    assert main(argv) == EXIT_OK
    first = capsys.readouterr()
    assert main(other) == EXIT_OK
    return capsys.readouterr() == first


class TestSpeedCommand:
    def test_methane_preset_peak(self, capsys):
        rows = run_csv(capsys, ["speed", "--preset", "methane", "--samples", "181"])
        assert list(rows[0]) == ["theta", "v"]
        peak = max(float(r["v"]) for r in rows)
        assert peak == pytest.approx(10.19, abs=0.005)
        assert float(rows[0]["v"]) == 0.0

    def test_two_spin_half_equator(self, capsys):
        rows = run_csv(capsys, ["speed", "--n", "2", "--two-s", "1", "--samples", "9"])
        mid = rows[4]
        assert float(mid["theta"]) == pytest.approx(math.pi / 2)
        assert float(mid["v"]) == pytest.approx(0.5)


class TestCurvatureCommand:
    def test_fig1_smallest_system_is_flat_at_equator(self, capsys):
        rows = run_csv(capsys, ["curvature", "--preset", "fig1", "--samples", "9"])
        assert list(rows[0]) == ["theta", "R", "curve"]
        small = [r for r in rows if r["curve"] == "N2_s1/2"]
        at_equator = min(small, key=lambda r: abs(float(r["theta"]) - math.pi / 2))
        assert float(at_equator["R"]) == pytest.approx(0.0, abs=1e-9)

    def test_fig6_zero_field_curve_matches_closed_form(self, capsys):
        rows = run_csv(capsys, ["curvature", "--preset", "fig6", "--samples", "21"])
        sys = SpinSystem(6, 3)
        for r in rows:
            if r["curve"] == "hJ0":
                assert float(r["R"]) == pytest.approx(
                    scalar_curvature(sys, float(r["theta"])), rel=1e-9
                )

    def test_fig6_stencil_may_step_past_the_poles(self, tmp_path):
        # at 20000 samples the first theta is within two stencil steps of 0,
        # where only the closed-form metric is evaluated, not checked for range
        out = tmp_path / "fig6.csv"
        argv = ["curvature", "--preset", "fig6", "--samples", "20000", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 3 * 19998

    def test_singular_endpoints_omitted_with_note(self, capsys):
        assert main(["curvature", "--preset", "methane", "--samples", "11"]) == EXIT_OK
        captured = capsys.readouterr()
        rows = list(csv.DictReader(captured.out.splitlines()))
        thetas = [float(r["theta"]) for r in rows]
        assert 0.0 not in thetas and math.pi not in thetas
        assert "singular endpoints" in captured.err

    def test_field_off_the_z_axis_is_rejected(self, capsys):
        # the along-z formula drops g_thetachi, nonzero off the z axis
        argv = ["curvature", "--format", "json", "--n", "4", "--two-s", "2", "--h-over-j", "1",
                "--theta-prime", "0.7", "--samples", "40"]
        assert main(argv) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: curvature with a field off the z axis")
        assert "(theta'=0.7)" in captured.err
        assert "only the formula for a field along z" in captured.err

    def test_field_along_minus_z_mirrors_plus_z(self, capsys):
        # h along -z is -h along +z, to the last byte: sin(theta') is exactly 0 at pi
        common = ["curvature", "--n", "4", "--two-s", "2", "--samples", "15"]
        minus = common + ["--h-over-j", "2", "--theta-prime", repr(math.pi)]
        assert same_output(capsys, minus, common + ["--h-over-j", "-2", "--theta-prime", "0"])

    def test_zero_field_in_any_direction_is_the_zero_field_curvature(self, capsys):
        # N = 2, s = 1/2 keeps its smooth poles only as the zero-field curve
        for system in (["--n", "4", "--two-s", "2"], ["--n", "2", "--two-s", "1"]):
            argv = ["curvature", *system, "--samples", "15"]
            assert same_output(capsys, argv, argv + ["--h-over-j", "0", "--theta-prime", "0.7"])


@pytest.mark.parametrize("command", ["speed"])
def test_zero_field_is_no_field(capsys, command):
    argv = [command, "--n", "4", "--two-s", "2", "--samples", "15"]
    assert same_output(capsys, argv, argv + ["--h-over-j", "0", "--theta-prime", "0.7"])


def test_zero_field_is_validated_before_it_is_dropped(capsys):
    assert main(["curvature", "--h-over-j", "0", "--theta-prime", "9"]) == EXIT_BAD_CONFIG
    assert "polar angle must be in [0, pi]" in capsys.readouterr().err


class TestCurvatureVsSpeed:
    @pytest.mark.parametrize("samples", ["20", "200"])
    def test_speed_extrema_per_curve_not_per_sample(self, capsys, monkeypatch, samples):
        calls = []
        extrema = analytic.speed_extrema

        def counted(sys):
            calls.append(sys)
            return extrema(sys)

        monkeypatch.setattr(analytic, "speed_extrema", counted)
        assert main(["curvature-vs-speed", "--preset", "fig1", "--samples", samples]) == EXIT_OK
        # fig1 has 4 curves: one call for each curve's speed grid and one
        # inside each of its two branch-wide curvature_from_speed calls
        assert len(calls) == 4 * 3

    def test_branch_endpoints(self, capsys):
        rows = run_csv(
            capsys,
            ["curvature-vs-speed", "--n", "4", "--two-s", "1", "--j", "-6.2",
             "--samples", "20"],
        )
        upper = [r for r in rows if r["branch"] == "upper"]
        lower = [r for r in rows if r["branch"] == "lower"]
        assert float(upper[0]["R"]) == pytest.approx(7.0)
        assert float(upper[-1]["R"]) == pytest.approx(16 / 3)
        assert float(lower[0]["R"]) == pytest.approx(-8.0)
        assert float(lower[-1]["R"]) == pytest.approx(16 / 3)
        ext = speed_extrema(METHANE)
        assert float(upper[-1]["v"]) == pytest.approx(ext.v_max)


class TestVerifyCommand:
    def test_topology_only(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--only", "topology", "--out", str(out)])
        assert code == EXIT_OK
        assert "overall: PASS" in capsys.readouterr().out
        rows = json.loads(out.read_text())
        assert rows and all(r["name"].startswith("topology") for r in rows)
        assert all(r["pass"] for r in rows)

    def test_only_one_named_check(self, capsys):
        assert main(["verify", "--only", "topology[N2_2s1]"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("topology[N2_2s1] ") and lines[1].endswith(" PASS")
        assert lines[2] == "overall: PASS"

    def test_a_closed_form_that_is_not_psd_fails_its_rows(self, capsys, tmp_path, monkeypatch):
        # a closed form with g_chichi negated is not positive semidefinite: each row that
        # reads it reports FAIL with the reason on stderr, the other rows still run, and
        # verify exits 1 with the whole table and a deterministic JSON report
        components = analytic._metric_components

        def negated(*args, **kwargs):
            g = components(*args, **kwargs)
            g[..., 2, 2] *= -1.0
            return g

        monkeypatch.setattr(analytic, "_metric_components", negated)
        reports, outputs = [], []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            assert main(["verify", "--out", str(out)]) == EXIT_VERIFY_FAILED
            reports.append(out.read_bytes())
            outputs.append(capsys.readouterr())
        assert reports[0] == reports[1] and outputs[0] == outputs[1]
        captured = outputs[0]
        lines = captured.out.splitlines()
        names = verify.select_checks(None)
        assert [line.split()[0] for line in lines[1:-1]] == names
        failed = [line.split()[0] for line in lines[1:-1] if line.endswith(" FAIL")]
        assert failed == [n for n in names if not n.startswith("topology")]
        assert lines[-1] == "overall: FAIL"
        assert "metric is not positive semidefinite" in captured.err
        rows = json.loads(reports[0])
        assert [r["name"] for r in rows] == names
        for row in rows:
            raised = not row["name"].startswith("topology")
            assert row["pass"] is not raised
            assert (row["grid"] == "raised ValueError") is raised
            assert math.isnan(row["max_rel"]) is raised


class TestFieldOptimize:
    def test_quarter_pi_case(self, capsys):
        code = main(
            ["field-optimize", "--n", "4", "--two-s", "2", "--theta", str(math.pi / 4),
             "--phi", "0", "--theta-prime", str(math.pi), "--phi-prime", "0"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["h_over_j_min"] == pytest.approx(3 * math.sqrt(2))
        assert record["v_min"] == pytest.approx(math.sqrt(6) / 2)
        assert record["reduction_applied"] is True

    def test_scan_direction_extrema(self, capsys):
        phi = 0.9
        code = main(
            ["field-optimize", "--n", "4", "--two-s", "2", "--theta", str(math.pi / 4),
             "--phi", str(phi), "--theta-prime", str(3 * math.pi / 4),
             "--phi-prime", str(phi), "--h-over-j", "1", "--scan-direction"]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        scan = record["scan"]
        assert scan["min"]["v"] == pytest.approx(math.sqrt(19 / 2), rel=1e-3)
        assert scan["min"]["theta_prime"] == pytest.approx(3 * math.pi / 4, abs=0.06)
        assert scan["max"]["v"] == pytest.approx(math.sqrt(67 / 2), rel=1e-3)
        assert scan["max"]["theta_prime"] == pytest.approx(math.pi / 4, abs=0.06)

    @pytest.mark.parametrize(
        "theta,phi,h_over_j,j",
        [(1.0, 2.0, 1.7, 1.0), (0.3, 5.5, -0.4, -2.5), (math.pi / 2, 0.0, 3.0, 0.8)],
    )
    def test_scan_matches_the_double_loop(self, capsys, theta, phi, h_over_j, j):
        # the first minimum and maximum of a (theta', phi') double loop
        # that keeps only strict improvements
        argv = ["field-optimize", "--scan-direction", "--n", "5", "--two-s", "3",
                "--j", repr(j), "--theta", repr(theta), "--phi", repr(phi),
                "--h-over-j", repr(h_over_j)]
        assert main(argv) == EXIT_OK
        scan = json.loads(capsys.readouterr().out)["scan"]
        sys = SpinSystem(5, 3, coupling_j=j)
        best_min = best_max = None
        for tp in np.linspace(0.0, math.pi, 61):
            for pp in np.linspace(0.0, 2.0 * math.pi, 61, endpoint=False):
                fld = FieldConfig(h_over_j, Direction(float(tp), float(pp)))
                g = metric_closed_form_field(sys, theta, phi, fld)
                v = speed_from_g_chi_chi(sys.coupling_j, g.g_chi_chi)
                if best_min is None or v < best_min[0]:
                    best_min = (v, float(tp), float(pp))
                if best_max is None or v > best_max[0]:
                    best_max = (v, float(tp), float(pp))
        for key, best in (("min", best_min), ("max", best_max)):
            assert scan[key] == {"v": best[0], "theta_prime": best[1], "phi_prime": best[2]}
        assert scan["h_over_j"] == h_over_j

    def test_scan_rejects_non_finite_ratio(self, capsys):
        argv = ["field-optimize", "--scan-direction", "--theta", "0.5", "--h-over-j", "nan"]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "h/J must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_ratio_without_scan_is_refused(self, capsys, tmp_path, source):
        # only the scan reads h/J, so h/J alone would print the record without it
        argv = ["field-optimize", "--n", "4", "--two-s", "2", "--theta", "1.0"]
        if source == "flag":
            argv += ["--h-over-j", "5"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"h_over_j": 5.0}))
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--scan-direction" in captured.err

    def test_requires_theta(self, capsys):
        assert main(["field-optimize", "--n", "3", "--two-s", "1"]) == EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "argv,message",
    [
        (["speed", "--j", "nan"], "coupling_j must be finite"),
        (["speed", "--j", "inf"], "coupling_j must be finite"),
        (["curvature", "--gamma", "inf"], "gamma must be positive and finite"),
        (["speed", "--h-over-j", "nan"], "h/J must be finite"),
        (["speed", "--h-over-j", "1", "--phi-prime", "inf"], "azimuth must be finite"),
        (["speed", "--h-over-j", "1", "--phi", "nan"], "phi must be finite"),
        (["field-optimize", "--theta", "nan"], "theta must be finite"),
        (["field-optimize", "--theta", "0.7", "--phi=-inf"], "phi must be finite"),
    ],
)
def test_non_finite_input_is_a_config_error(capsys, argv, message):
    assert main(argv) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--only", "bogus"], "'bogus'"),
        (["curvature", "--n", "1"], "n_sites must be >= 2"),
        (["speed", "--two-s", "0"], "two_s must be >= 1"),
        (["curvature-vs-speed", "--gamma", "0"], "gamma must be positive and finite"),
        (["field-optimize", "--n", "4", "--two-s", "2", "--theta", "7", "--theta-prime", "3.14"],
         "theta must be in [0, pi]"),
        (["curvature-vs-speed", "--j", "0"], "J = 0"),
        (["curvature-vs-speed", "--preset", "fig6"], "only at zero field, got h/J=3"),
        (["curvature-vs-speed", "--preset", "fig6", "--format", "json"], "only at zero field"),
    ],
)
def test_out_of_range_input_is_a_config_error(capsys, argv, message):
    assert main(argv) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


SWEEPS = ("curvature", "speed", "curvature-vs-speed")
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def parser_flags():
    """command -> its flags, in the order its usage lists them."""
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }


def flag_of(key):
    return "--" + key.replace("_", "-")


#: command -> setting -> (the other flags, value a, value b).  The runs that add the
#: setting's flag with value a and with value b print different output, so the command
#: reads the setting; None leaves the flag out, and "OUT" stands for a fresh path.
_FIELD = ["--h-over-j", "1.5", "--theta-prime", "1.1"]
_FIELD_OPT = ["--theta", "0.7", "--theta-prime", "2.5", "--phi-prime", "0.4"]
SETTING_IS_READ = {
    "curvature": {
        "n": (["--samples", "5"], "3", "5"),
        "two_s": (["--samples", "5"], "1", "2"),
        "gamma": (["--samples", "5"], "1", "2"),
        "h_over_j": (["--samples", "5"], "0", "1"),
        "theta_prime": (["--samples", "5", "--h-over-j", "1"], "0", repr(math.pi)),
        "samples": ([], "5", "6"),
        "preset": (["--samples", "5"], "fig1", "methane"),
        "format": (["--samples", "5"], "csv", "json"),
        "out": (["--samples", "5"], None, "OUT"),
    },
    "speed": {
        "n": (["--samples", "5"], "3", "5"),
        "two_s": (["--samples", "5"], "1", "2"),
        "j": (["--samples", "5"], "1", "2"),
        "gamma": (["--samples", "5"], "1", "2"),
        "h_over_j": (["--samples", "5"], "0", "1"),
        "theta_prime": (["--samples", "5", "--h-over-j", "1"], "0", "1.1"),
        "phi_prime": (["--samples", "5", *_FIELD], "0", "0.4"),
        "phi": (["--samples", "5", *_FIELD], "0", "0.9"),
        "samples": ([], "5", "6"),
        "preset": (["--samples", "5"], "fig1", "methane"),
        "format": (["--samples", "5"], "csv", "json"),
        "out": (["--samples", "5"], None, "OUT"),
    },
    "curvature-vs-speed": {
        "n": (["--samples", "6"], "3", "5"),
        "two_s": (["--samples", "6"], "1", "2"),
        "j": (["--samples", "6"], "1", "2"),
        "gamma": (["--samples", "6"], "1", "2"),
        "samples": ([], "6", "8"),
        "preset": (["--samples", "6"], "fig1", "methane"),
        "format": (["--samples", "6"], "csv", "json"),
        "out": (["--samples", "6"], None, "OUT"),
    },
    "verify": {
        "only": ([], "topology[N2_2s1]", "topology[N3_2s2]"),
        "out": (["--only", "topology[N2_2s1]"], None, "OUT"),
    },
    "field-optimize": {
        "n": (_FIELD_OPT, "3", "5"),
        "two_s": (_FIELD_OPT, "1", "2"),
        "j": (_FIELD_OPT, "1", "2"),
        "gamma": (_FIELD_OPT, "1", "2"),
        "h_over_j": (["--theta", "0.7", "--scan-direction"], "1", "2"),
        "theta_prime": (["--theta", "0.7", "--phi-prime", "0.4"], "2", "2.5"),
        "phi_prime": (["--theta", "0.7", "--theta-prime", "2.5"], "0.4", "1"),
        "theta": (["--theta-prime", "2.5", "--phi-prime", "0.4"], "0.7", "1"),
        "phi": (_FIELD_OPT, "0", "0.9"),
        "out": (_FIELD_OPT, None, "OUT"),
    },
}


class TestCommandFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        flags = {name: set(f) for name, f in parser_flags().items()}
        assert flags == {
            "curvature": {"--config", "--n", "--two-s", "--gamma", "--h-over-j",
                          "--theta-prime", "--samples", "--preset", "--format", "--out"},
            "speed": {"--config", "--n", "--two-s", "--j", "--gamma", "--h-over-j",
                      "--theta-prime", "--phi-prime", "--phi", "--samples", "--preset",
                      "--format", "--out"},
            "curvature-vs-speed": {"--config", "--n", "--two-s", "--j", "--gamma", "--samples",
                                   "--preset", "--format", "--out"},
            "verify": {"--only", "--out"},
            "field-optimize": {"--config", "--n", "--two-s", "--j", "--gamma", "--h-over-j",
                               "--theta-prime", "--phi-prime", "--theta", "--phi", "--out",
                               "--scan-direction"},
        }
        assert sum(map(len, flags.values())) == 46

    def test_readme_flag_table_matches_the_parsers(self):
        with open(README, encoding="utf-8") as fh:
            text = fh.read()
        table = text[text.index("| command | flags |"):].split("\n\n", 1)[0]
        rows = {}
        for line in table.splitlines()[2:]:
            command, flags = line.strip("| ").split(" | ")
            rows[command.strip("`")] = re.findall(r"`(--[a-z-]+)`", flags)
        assert rows == parser_flags()

    def test_every_setting_has_a_read_check(self):
        for command, (_, keys) in cli._COMMANDS.items():
            assert list(SETTING_IS_READ[command]) == list(keys)
        assert set(cli._SETTINGS) == {key for _, keys in cli._COMMANDS.values() for key in keys}

    @pytest.mark.parametrize(
        "command,key", [(c, k) for c, table in SETTING_IS_READ.items() for k in table]
    )
    def test_every_setting_changes_the_output(self, capsys, tmp_path, command, key):
        others, *values = SETTING_IS_READ[command][key]
        outputs = []
        for run, value in enumerate(values):
            out = tmp_path / f"out{run}"
            setting = [] if value is None else [flag_of(key), str(out) if value == "OUT" else value]
            assert main([command, *others, *setting]) == EXIT_OK
            outputs.append((capsys.readouterr().out, out.read_bytes() if out.exists() else None))
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["speed", "--h-over-j", "1", "--theta", "1"],
            ["curvature-vs-speed", "--h-over-j", "0", "--phi", "1"],
            ["verify", "--only", "topology", "--samples", "3"],
            ["verify", "--only", "topology", "--format", "json"],
            ["verify", "--only", "topology", "--n", "3"],
            ["verify", "--only", "topology", "--config", "run.json"],
            ["field-optimize", "--theta", "0.5", "--format", "csv"],
            ["field-optimize", "--theta", "0.5", "--samples", "3"],
            ["field-optimize", "--theta", "0.5", "--ratio", "1/2"],
            # no abbreviation stands in for a flag the command does not take
            ["speed", "--two", "2"],
            # curvature reads neither J nor, along z, phi and phi'; curvature-vs-speed
            # holds only at zero field; each verify row keeps its own tolerance
            ["curvature", "--j", "2"],
            ["curvature", "--h-over-j", "1", "--phi", "0.5"],
            ["curvature", "--h-over-j", "1", "--phi-prime", "0.5"],
            ["curvature-vs-speed", "--h-over-j", "1"],
            ["curvature-vs-speed", "--theta-prime", "0.5"],
            ["curvature-vs-speed", "--phi-prime", "0.5"],
            ["verify", "--tolerance", "1"],
        ],
    )
    def test_flag_the_command_does_not_read_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err

    @pytest.mark.parametrize(
        "command,key,flag_value,file_value",
        [
            (command, *setting)
            for command in SWEEPS
            for setting in [
                ("n", "3", 3), ("two_s", "2", 2), ("j", "2", 2.0), ("gamma", "2", 2.0),
                ("h_over_j", "1", 1.0), ("theta_prime", "0.5", 0.5),
                ("phi_prime", "0.5", 0.5), ("phi", "0.5", 0.5),
            ]
            if setting[0] in cli._COMMANDS[command][1]
        ],
    )
    def test_preset_refuses_what_it_fixes(
        self, capsys, tmp_path, command, key, flag_value, file_value
    ):
        flag = flag_of(key)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: file_value}))
        for argv in (
            [command, "--preset", "fig1", "--samples", "3", flag, flag_value],
            [command, "--preset", "fig1", "--samples", "3", "--config", str(cfg)],
        ):
            assert main(argv) == EXIT_BAD_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: a preset fixes system, field and phi; drop {flag}\n"

    def test_preset_in_the_config_refuses_a_system_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "methane"}))
        argv = ["speed", "--config", str(cfg), "--n", "7", "--h-over-j", "5"]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "drop --n, --h-over-j" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key",
        [
            (command, key)
            for command in SWEEPS
            for key in ("theta_prime", "phi_prime", "phi")
            if key in cli._COMMANDS[command][1]
        ],
    )
    def test_direction_without_a_field_is_refused(self, capsys, tmp_path, command, key):
        flag = flag_of(key)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 0.5}))
        system = ["--n", "2", "--two-s", "1", "--samples", "3"]
        for argv in ([command, *system, flag, "0.5"], [command, *system, "--config", str(cfg)]):
            assert main(argv) == EXIT_BAD_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: no field without --h-over-j; drop {flag}\n"

    def test_invalid_direction_without_a_field_is_refused(self, capsys):
        argv = ["speed", "--n", "2", "--two-s", "1", "--samples", "3",
                "--theta-prime", "9", "--phi-prime", "nan"]
        assert main(argv) == EXIT_BAD_CONFIG
        assert "drop --theta-prime, --phi-prime" in capsys.readouterr().err

    def test_ratio_in_the_config_is_an_unknown_key(self, capsys, tmp_path):
        # h/J is given as --h-over-j or h_over_j only
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"ratio": [3, 1]}))
        for command in SWEEPS:
            argv = [command, "--n", "4", "--two-s", "2", "--samples", "7", "--config", str(cfg)]
            assert main(argv) == EXIT_BAD_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: unknown config key 'ratio' for {command}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["speed", "--n", "2", "--two-s", "1", "--samples", "3"],
            ["curvature", "--preset", "fig6", "--samples", "5"],
            ["curvature-vs-speed", "--samples", "4"],
            ["field-optimize", "--theta", "0.5"],
            ["verify", "--only", "topology[N2_2s1]"],
        ],
    )
    def test_unwritable_out_is_a_config_error(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "out.txt"
        assert main(argv + ["--out", str(out)]) == EXIT_BAD_CONFIG
        assert f"error: cannot write {out}: " in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unwritable_out_fails_before_the_suite_runs(self, capsys, tmp_path, monkeypatch):
        def refuse(**kwargs):
            raise AssertionError("run_full_suite called")

        monkeypatch.setattr(cli, "run_full_suite", refuse)
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", "--out", str(out)]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--only", "bogus"],
            ["--only", "metric_equivalence[N9"],
        ],
    )
    def test_bad_verify_option_keeps_an_existing_out(self, capsys, tmp_path, monkeypatch, flags):
        def refuse(**kwargs):
            raise AssertionError("run_full_suite called")

        monkeypatch.setattr(cli, "run_full_suite", refuse)
        out = tmp_path / "r.json"
        earlier = b'[{"name": "an earlier report"}]\n'
        out.write_bytes(earlier)
        assert main(["verify", *flags, "--out", str(out)]) == EXIT_BAD_CONFIG
        assert out.read_bytes() == earlier
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [["verify", "--samples", "3"], ["speed", "--samples", "3", "--bogus", "1"]]
    )
    def test_unknown_flag_shows_the_command_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_BAD_CONFIG
        command, unknown = argv[0], " ".join(argv[-2:])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: spin-manifold {command} [-h]")
        assert captured.err.endswith(
            f"spin-manifold {command}: error: unrecognized arguments: {unknown}\n"
        )


class TestConfigHandling:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": 2, "two_s": 1, "samples": 9}))
        rows = run_csv(capsys, ["speed", "--config", str(cfg), "--samples", "5"])
        assert len(rows) == 5
        assert float(rows[2]["v"]) == pytest.approx(0.5)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nn": 2}))
        assert main(["speed", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_key_the_command_does_not_read_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"theta": 0.5}))
        assert main(["speed", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "unknown config key 'theta' for speed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,key",
        [("curvature", "j"), ("curvature", "phi"), ("curvature", "phi_prime"),
         ("curvature-vs-speed", "h_over_j"), ("curvature-vs-speed", "theta_prime"),
         ("curvature-vs-speed", "phi_prime")],
    )
    def test_dropped_key_is_unknown(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1.0}))
        assert main([command, "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"error: unknown config key {key!r} for {command}\n"

    @pytest.mark.parametrize("text", ["[1, 2]", '"run"', "3", "null"])
    def test_config_that_is_not_an_object_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert main(["speed", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_unknown_preset_in_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"preset": "fig9"}))
        assert main(["speed", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "unknown preset 'fig9'" in capsys.readouterr().err

    def test_every_flag_overrides_the_config_file(self, tmp_path):
        # a preset is refused next to the system and field settings, and
        # theta is read by field-optimize only: three runs cover every key
        cases = [
            (
                "speed",
                {"n": 5, "two_s": 3, "j": 2.0, "gamma": 3.0, "h_over_j": 4.0,
                 "theta_prime": 0.1, "phi_prime": 0.2, "phi": 0.4,
                 "samples": 7, "out": "file.csv", "format": "json"},
                ["--n", "2", "--two-s", "1", "--j", "1.5", "--gamma", "2.5",
                 "--h-over-j", "0.5", "--theta-prime", "1.1", "--phi-prime", "1.2",
                 "--phi", "1.4", "--samples", "9", "--out", "flag.csv",
                 "--format", "csv"],
                dict(n=2, two_s=1, j=1.5, gamma=2.5, h_over_j=0.5, theta_prime=1.1,
                     phi_prime=1.2, theta=None, phi=1.4, samples=9, preset=None,
                     format="csv", out="flag.csv", only=None),
            ),
            (
                "speed",
                {"samples": 7, "preset": "fig1", "out": "file.csv", "format": "json"},
                ["--samples", "9", "--preset", "fig6", "--out", "flag.csv", "--format", "csv"],
                dict(n=4, two_s=1, j=1.0, gamma=1.0, h_over_j=None, theta_prime=0.0,
                     phi_prime=0.0, theta=None, phi=0.0, samples=9, preset="fig6",
                     format="csv", out="flag.csv", only=None),
            ),
            (
                "field-optimize",
                {"n": 5, "two_s": 3, "j": 2.0, "gamma": 3.0, "h_over_j": 4.0,
                 "theta_prime": 0.1, "phi_prime": 0.2, "theta": 0.3, "phi": 0.4,
                 "out": "file.json"},
                ["--n", "2", "--two-s", "1", "--j", "1.5", "--gamma", "2.5",
                 "--h-over-j", "0.5", "--theta-prime", "1.1", "--phi-prime", "1.2",
                 "--theta", "1.3", "--phi", "1.4", "--out", "flag.json"],
                dict(n=2, two_s=1, j=1.5, gamma=2.5, h_over_j=0.5, theta_prime=1.1,
                     phi_prime=1.2, theta=1.3, phi=1.4, samples=200, preset=None,
                     format="csv", out="flag.json", only=None, scan_direction=False),
            ),
        ]
        cfg = tmp_path / "run.json"
        for command, file_values, flags, expected in cases:
            cfg.write_text(json.dumps(file_values))
            got = _load_config(_build_parser().parse_args([command, "--config", str(cfg), *flags]))
            assert got == argparse.Namespace(**expected)

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"n": "4"}, "config key 'n' must be int, got '4'"),
            ({"samples": 2.5}, "config key 'samples' must be int"),
            ({"two_s": True}, "config key 'two_s' must be int"),
            ({"j": "1.0"}, "config key 'j' must be float"),
            ({"format": "xml"}, "unknown format 'xml'"),
            ({"preset": 1}, "config key 'preset' must be str"),
        ],
    )
    def test_wrong_value_type_in_config_rejected(self, capsys, tmp_path, data, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        assert main(["speed", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err

    def test_wrong_theta_type_in_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"theta": [0.5]}))
        assert main(["field-optimize", "--config", str(cfg)]) == EXIT_BAD_CONFIG
        assert "config key 'theta' must be float" in capsys.readouterr().err

    def test_config_accepts_int_for_float_and_null_for_optional(self, tmp_path):
        # theta is read by field-optimize only, preset by the sweeps only
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"j": 2, "h_over_j": None, "theta": 1}))
        got = _load_config(_build_parser().parse_args(["field-optimize", "--config", str(cfg)]))
        assert (got.j, got.h_over_j, got.theta) == (2, None, 1)
        cfg.write_text(json.dumps({"j": 2, "h_over_j": None, "preset": None}))
        got = _load_config(_build_parser().parse_args(["speed", "--config", str(cfg)]))
        assert (got.j, got.h_over_j, got.preset) == (2, None, None)

    def test_bad_ratio_rejected(self, capsys):
        # no command takes --ratio, whatever its value: h/J is --h-over-j, which
        # curvature-vs-speed, zero-field only, does not take either
        for command in SWEEPS:
            field = [] if command == "curvature-vs-speed" else ["--h-over-j", "3"]
            for value in ("3/1", "abc", "3/0"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--n", "4", "--two-s", "2", *field, "--ratio", value])
                assert exc.value.code == EXIT_BAD_CONFIG
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.endswith(f"error: unrecognized arguments: --ratio {value}\n")

    def test_bad_samples_rejected(self, capsys):
        assert main(["speed", "--samples", "1"]) == EXIT_BAD_CONFIG

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["curvature", "--preset", "fig2", "--samples", "50", "--out"]
        assert main(argv + [str(a)]) == EXIT_OK
        assert main(argv + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        assert main(["speed", "--n", "2", "--two-s", "1", "--samples", "3",
                     "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert rows[1]["v"] == pytest.approx(0.5)
