"""Command-line front end: sweeps to figure-ready CSV/JSON plus verification.

Numbers are always written with %.12g formatting and a '.' decimal
separator, so repeated runs of the same preset are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys as _sysmod
from typing import List, Optional

import numpy as np

from . import analytic
from .fs_metric import speed_from_g_chi_chi
from .spin_ops import Direction, FieldConfig, SpinSystem
from .verify import run_full_suite, select_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


_FIGURE_CURVES = (
    ("N2_s1/2", SpinSystem(2, 1), None),
    ("N3_s1", SpinSystem(3, 2), None),
    ("N6_s3/2", SpinSystem(6, 3), None),
    ("N9_s2", SpinSystem(9, 4), None),
)
_METHANE = (("", SpinSystem(n_sites=4, two_s=1, coupling_j=-6.2), None),)

#: preset name -> curves as (label, SpinSystem, FieldConfig or None)
_PRESETS = {
    **dict.fromkeys(("fig1", "fig2", "fig3"), _FIGURE_CURVES),
    **dict.fromkeys(("fig5a", "fig5b", "methane"), _METHANE),
    "fig6": (
        ("hJ0", SpinSystem(6, 3), None),
        ("hJ3", SpinSystem(6, 3), FieldConfig(3.0, Direction(0.0, 0.0))),
        ("hJ10", SpinSystem(6, 3), FieldConfig(10.0, Direction(0.0, 0.0))),
    ),
}

#: setting -> (type, default, help).  Each is a flag of the commands that read it
#: and a key of their --config file; a command that does not read it sees its default.
_SETTINGS = {
    "n": (int, 4, "number of spins N"),
    "two_s": (int, 1, "2s (1 for spin-1/2)"),
    "j": (float, 1.0, "coupling J in Hz"),
    "gamma": (float, 1.0, "metric scale factor"),
    "h_over_j": (float, None, "field ratio h/J"),
    "theta_prime": (float, 0.0, "field polar angle"),
    "phi_prime": (float, 0.0, "field azimuth"),
    "theta": (float, None, "initial-state polar angle"),
    "phi": (float, 0.0, "initial-state azimuth"),
    "samples": (int, 200, "sweep sample count"),
    "preset": (str, None, "named figure recipe"),
    "format": (str, "csv", "output format"),
    "out": (str, None, "output path (default stdout)"),
    "only": (str, None, "restrict to checks with this name prefix"),
}
_CHOICES = {"preset": sorted(_PRESETS), "format": ("csv", "json")}
_PRESET_FIXES = ("n", "two_s", "j", "gamma", "h_over_j", "theta_prime", "phi_prime", "phi")


def _fits(value, kind: type) -> bool:
    # exact types: JSON true/false load as bool, which Python counts as an int
    return type(value) is kind or (kind is float and type(value) is int)


def _config_value(key: str, value):
    """A config-file value checked against its setting's type and choices;
    null is allowed where the default is None."""
    kind, default, _ = _SETTINGS[key]
    if value is None and default is None:
        return None
    if not _fits(value, kind):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"unknown {key} {value!r}")
    return value


def _read_config(path: str, command: str, keys) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {data!r}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} for {command}")
    return {key: _config_value(key, value) for key, value in data.items()}


def _load_config(args: argparse.Namespace) -> argparse.Namespace:
    """Every setting: the table's defaults, then the command's --config file, then its flags."""
    flags = dict(vars(args))
    command = flags.pop("command")
    keys = _COMMANDS[command][1]
    given = _read_config(flags.pop("config"), command, keys) if "config" in flags else {}
    given.update(flags)
    given = {key: value for key, value in given.items() if value is not None}  # null: unset
    unread, why = (), ""  # settings that the sweep would ignore
    if "preset" in given:  # no preset curve reads phi
        unread, why = _PRESET_FIXES, "a preset fixes system, field and phi"
    elif "preset" in keys and "h_over_j" not in given:
        unread, why = ("theta_prime", "phi_prime", "phi"), "no field without --h-over-j"
    unread = ["--" + key.replace("_", "-") for key in unread if key in given]
    if unread:
        raise ConfigError(f"{why}; drop {', '.join(unread)}")
    if given.get("samples", 2) < 2:
        raise ConfigError("samples must be >= 2")
    for name in ("theta", "phi"):
        if not math.isfinite(given.get(name, 0.0)):
            raise ConfigError(f"{name} must be finite, got {given[name]}")
    return argparse.Namespace(**{**{key: _SETTINGS[key][1] for key in _SETTINGS}, **given})


def _open_out(path: Optional[str]):
    """The --out file opened for writing, or stdout when there is none."""
    try:
        return open(path, "w", newline="") if path else contextlib.nullcontext(_sysmod.stdout)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}")


def _write(path: Optional[str], data, header: Optional[List[str]] = None):
    """Write data to --out or stdout: as CSV rows under a header (the row
    values are strings or numbers), or as indented JSON when there is none."""
    with _open_out(path) as stream:
        if header is None:
            json.dump(data, stream, indent=2, sort_keys=True)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            for row in data:
                cells = (row[k] for k in header)
                writer.writerow([v if isinstance(v, str) else f"{v:.12g}" for v in cells])


def _preset_curves(cfg: argparse.Namespace):
    """(label, SpinSystem, FieldConfig or None) per curve of the active preset;
    without one, h/J unset or 0 is no field, and a zero field is still validated."""
    if cfg.preset is not None:
        return _PRESETS[cfg.preset]
    sys = SpinSystem(cfg.n, cfg.two_s, cfg.j, cfg.gamma)
    fld = FieldConfig(cfg.h_over_j or 0.0, Direction(cfg.theta_prime, cfg.phi_prime))
    return [("", sys, fld if fld.ratio_h_over_j else None)]


def _sweep(cfg: argparse.Namespace, columns: List[str], curve_rows) -> int:
    """Write the rows of every curve of the active preset.

    ``curve_rows(label, sys, fld)`` gives one curve's rows, each a tuple in
    the order of ``columns``.  Every row also gets its curve's label; the
    CSV shows it as a "curve" column only when some curve has a label.
    """
    curves = _preset_curves(cfg)
    rows = [
        dict(zip(columns, row), curve=label)
        for label, sys, fld in curves
        for row in curve_rows(label, sys, fld)
    ]
    header = columns + (["curve"] if any(c[0] for c in curves) else [])
    _write(cfg.out, rows, header if cfg.format == "csv" else None)
    return EXIT_OK


def cmd_curvature(cfg: argparse.Namespace) -> int:
    """Scalar curvature against theta, per curve."""
    def curve_rows(label, sys, fld):
        # the profile formula R = 2 R_tctc / (g_thth g_chichi) drops
        # g_thetachi, which a field off the z axis makes nonzero
        if fld is not None and not fld.along_z:
            d = fld.direction
            raise ConfigError(
                f"curvature with a field off the z axis (theta'={d.polar:g}) is not "
                "implemented; only the formula for a field along z (theta' = 0 or pi) is"
            )
        thetas = np.linspace(0.0, math.pi, cfg.samples)
        if not (sys.n_sites == 2 and sys.two_s == 1 and fld is None):
            thetas = thetas[1:-1]
            print(
                f"note: singular endpoints theta=0, pi omitted for {label or 'system'}",
                file=_sysmod.stderr,
            )
        if fld is None:
            values = analytic.scalar_curvature(sys, thetas)
        else:
            def g_chi_chi(t):
                return analytic.metric_closed_form_field(sys, t, cfg.phi, fld).g_chi_chi

            g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2.0
            values = analytic.curvature_numeric_from_profile(g_thth, g_chi_chi, thetas)
        return zip(thetas.tolist(), values.tolist())

    return _sweep(cfg, ["theta", "R"], curve_rows)


def cmd_speed(cfg: argparse.Namespace) -> int:
    """Evolution speed against theta, per curve."""
    def curve_rows(label, sys, fld):
        thetas = np.linspace(0.0, math.pi, cfg.samples)
        if fld is None:
            speeds = analytic.speed_closed_form(sys, thetas)
        else:
            g = analytic.metric_closed_form_field(sys, thetas, cfg.phi, fld)
            speeds = speed_from_g_chi_chi(sys.coupling_j, g.g_chi_chi)
        return zip(thetas.tolist(), speeds.tolist())

    return _sweep(cfg, ["theta", "v"], curve_rows)


def cmd_curvature_vs_speed(cfg: argparse.Namespace) -> int:
    """Curvature against speed on both branches, per curve."""
    def curve_rows(label, sys, fld):
        if fld is not None:
            # the speed fixes the curvature through the zero-field closed forms only
            raise ConfigError(
                f"curvature-vs-speed holds only at zero field, got h/J={fld.ratio_h_over_j:g}"
            )
        ext = analytic.speed_extrema(sys)
        n_half = max(cfg.samples // 2, 2)
        rows = []
        for branch, v_low in (("upper", 0.0), ("lower", ext.v_half_pi)):
            speeds = np.linspace(v_low, ext.v_max, n_half)
            values = analytic.curvature_from_speed(sys, speeds, branch)
            rows += [(v, r, branch) for v, r in zip(speeds.tolist(), values.tolist())]
        return rows

    return _sweep(cfg, ["v", "R", "branch"], curve_rows)


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Run the oracle verification suite."""
    # bad options must not truncate an existing --out, and a path that cannot
    # be written must fail before the suite runs
    select_checks(cfg.only)
    with _open_out(cfg.out) as fh:
        report = run_full_suite(only=cfg.only)
        print(report.format_table())
        if cfg.out:
            fh.write(report.to_json() + "\n")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_field_optimize(cfg: argparse.Namespace) -> int:
    """Minimal-speed field conditions at fixed state angles."""
    if cfg.theta is None:
        raise ConfigError("field-optimize requires --theta")
    if cfg.scan_direction != (cfg.h_over_j is not None):  # only the scan reads h/J
        raise ConfigError("--scan-direction and --h-over-j need each other")
    sys = SpinSystem(cfg.n, cfg.two_s, cfg.j, cfg.gamma)
    direction = Direction(cfg.theta_prime, cfg.phi_prime)
    try:
        opt = analytic.min_speed_field(sys, cfg.theta, cfg.phi, direction)
        record = {
            "h_over_j_min": opt.ratio,
            "v_min": opt.v_min,
            "reduction_applied": opt.reduction_applied,
        }
    except analytic.DegenerateDirection as exc:
        record = {"error": str(exc)}
    if cfg.scan_direction:
        # the first argmin/argmax in (theta', phi') row-major order, as a
        # double loop keeping only strict improvements would pick
        polar = np.linspace(0.0, math.pi, 61)
        azimuth = np.linspace(0.0, 2.0 * math.pi, 61, endpoint=False)
        g = analytic.metric_closed_form_field_array(
            sys, cfg.theta, cfg.phi, cfg.h_over_j, polar[:, None], azimuth
        )
        v = speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
        record["scan"] = {"h_over_j": cfg.h_over_j}
        for key, pick in (("min", np.argmin), ("max", np.argmax)):
            i, j = np.unravel_index(pick(v), v.shape)
            record["scan"][key] = {
                "v": float(v[i, j]),
                "theta_prime": float(polar[i]),
                "phi_prime": float(azimuth[j]),
            }
    _write(cfg.out, record)
    return EXIT_OK


#: command -> (function, the settings it reads); all but verify take --config
_COMMANDS = {
    "curvature": (cmd_curvature, ("n", "two_s", "gamma", "h_over_j", "theta_prime", "samples",
                                  "preset", "format", "out")),
    "speed": (cmd_speed, ("n", "two_s", "j", "gamma", "h_over_j", "theta_prime", "phi_prime",
                          "phi", "samples", "preset", "format", "out")),
    "curvature-vs-speed": (cmd_curvature_vs_speed, ("n", "two_s", "j", "gamma", "samples",
                                                    "preset", "format", "out")),
    "verify": (cmd_verify, ("only", "out")),
    "field-optimize": (cmd_field_optimize, ("n", "two_s", "j", "gamma", "h_over_j",
                                            "theta_prime", "phi_prime", "theta", "phi", "out")),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser.  It refuses the arguments it does not know
    itself, so the error shows the command's usage; argparse would hand
    them back to the top-level parser, whose usage lists only the commands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-manifold",
        description="State-manifold geometry of the long-range zz-Ising spin-s system",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (run, keys) in _COMMANDS.items():
        # an unset flag leaves no attribute, so the config file can supply it
        p = sub.add_parser(
            name, help=run.__doc__, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        if name != "verify":
            p.add_argument("--config", help="flat JSON file with run parameters")
        for key in keys:
            kind, _, text = _SETTINGS[key]
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=kind, choices=_CHOICES.get(key), help=text)
        if name == "field-optimize":
            help_scan = "grid-scan (theta', phi')"
            p.add_argument("--scan-direction", action="store_true", default=False, help=help_scan)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_load_config(args))
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=_sysmod.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
