"""Command-line front end: sweeps to figure-ready CSV/JSON plus verification.

Numbers are always written with %.12g formatting and a '.' decimal
separator, so repeated runs of the same preset are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sysmod
from dataclasses import dataclass, fields as dc_fields
from typing import List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import analytic
from .fs_metric import speed_from_g_chi_chi
from .spin_ops import Direction, FieldConfig, SpinSystem
from .verify import run_full_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int = 4
    two_s: int = 1
    j: float = 1.0
    gamma: float = 1.0
    h_over_j: Optional[float] = None
    theta_prime: float = 0.0
    phi_prime: float = 0.0
    ratio: Optional[Tuple[int, int]] = None
    theta: Optional[float] = None
    phi: float = 0.0
    samples: int = 200
    preset: Optional[str] = None
    out: Optional[str] = None
    format: str = "csv"

    def system(self) -> SpinSystem:
        return SpinSystem(self.n, self.two_s, self.j, self.gamma)

    def field(self) -> Optional[FieldConfig]:
        if self.h_over_j is None:
            return None
        return FieldConfig(
            self.h_over_j, Direction(self.theta_prime, self.phi_prime), self.ratio
        )


def _fits(value, kind: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _config_value(key: str, value, hint):
    """A config-file value checked against its RunConfig annotation ``hint``."""
    if get_origin(hint) is Union:  # Optional[X]: null is allowed
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:  # ratio, written [P, Q]
        if isinstance(value, list) and len(value) == 2 and all(_fits(v, int) for v in value):
            return tuple(value)
        expected = "a list of two integers"
    elif _fits(value, hint):
        return value
    else:
        expected = hint.__name__
    raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        hints = get_type_hints(RunConfig)
        for key, value in data.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _config_value(key, value, hints[key]))
    # CLI flags override file values; --ratio is parsed from P/Q below
    for f in dc_fields(RunConfig):
        value = getattr(args, f.name, None)
        if f.name != "ratio" and value is not None:
            setattr(cfg, f.name, value)
    if args.ratio is not None:
        try:
            p, q = args.ratio.split("/")
            cfg.ratio = (int(p), int(q))
        except ValueError:
            raise ConfigError(f"--ratio must look like P/Q, got {args.ratio!r}")
        if cfg.ratio[1] <= 0:
            raise ConfigError(f"--ratio denominator must be positive, got {args.ratio!r}")
        if cfg.h_over_j is None:
            cfg.h_over_j = cfg.ratio[0] / cfg.ratio[1]
    if cfg.samples < 2:
        raise ConfigError("samples must be >= 2")
    for name in ("theta", "phi"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    return cfg


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(rows: List[dict], header: List[str], cfg: RunConfig):
    stream = open(cfg.out, "w", newline="") if cfg.out else _sysmod.stdout
    try:
        if cfg.format == "json":
            json.dump(rows, stream, indent=2, sort_keys=True)
            stream.write("\n")
        else:
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [row[k] if isinstance(row[k], str) else _fmt(row[k]) for k in header]
                )
    finally:
        if cfg.out:
            stream.close()


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
    "fig6": tuple(
        (f"hJ{r:g}", SpinSystem(6, 3), FieldConfig(r, Direction(0.0, 0.0)) if r else None)
        for r in (0.0, 3.0, 10.0)
    ),
}


def _preset_curves(cfg: RunConfig):
    """(label, SpinSystem, FieldConfig or None) per curve of the active preset."""
    if cfg.preset is None:
        return [("", cfg.system(), cfg.field())]
    if cfg.preset not in _PRESETS:
        raise ConfigError(f"unknown preset {cfg.preset!r}")
    return _PRESETS[cfg.preset]


def _theta_sweep(samples: int, include_poles: bool) -> np.ndarray:
    thetas = np.linspace(0.0, math.pi, samples)
    if include_poles:
        return thetas
    return thetas[1:-1]


def _check_curvature_field(fld: Optional[FieldConfig]):
    """Reject a field off the z axis: only the along-z curvature is implemented.

    The profile formula R = 2 R_tctc / (g_thth g_chichi) drops g_thetachi,
    which a field off the z axis makes nonzero.
    """
    if fld is None or fld.ratio_h_over_j == 0.0 or fld.along_z:
        return
    d = fld.direction
    raise ConfigError(
        f"curvature with a field off the z axis (theta'={d.polar:g}, phi'={d.azimuth:g}) "
        "is not implemented; only the formula for a field along z (theta' = 0 or pi) is"
    )


def cmd_curvature(cfg: RunConfig) -> int:
    rows = []
    multi = False
    for label, sys, fld in _preset_curves(cfg):
        _check_curvature_field(fld)
        multi = multi or bool(label)
        smooth_poles = sys.n_sites == 2 and sys.two_s == 1 and fld is None
        thetas = _theta_sweep(cfg.samples, smooth_poles)
        if not smooth_poles:
            print(
                f"note: singular endpoints theta=0, pi omitted for {label or 'system'}",
                file=_sysmod.stderr,
            )
        if fld is None:
            values = analytic.scalar_curvature(sys, thetas)
        else:
            g_thth = sys.gamma**2 * sys.n_sites * sys.s / 2.0
            d = fld.direction

            def profile(theta: np.ndarray) -> np.ndarray:
                g = analytic.metric_closed_form_field_array(
                    sys, theta, cfg.phi, fld.ratio_h_over_j, d.polar, d.azimuth
                )
                return g[..., 2, 2]

            values = analytic.curvature_numeric_from_profile(g_thth, profile, thetas)
        for t, r in zip(thetas, values):
            rows.append({"theta": float(t), "R": float(r), "curve": label})
    header = ["theta", "R"] + (["curve"] if multi else [])
    _emit(rows, header, cfg)
    return EXIT_OK


def cmd_speed(cfg: RunConfig) -> int:
    rows = []
    multi = False
    for label, sys, fld in _preset_curves(cfg):
        multi = multi or bool(label)
        thetas = _theta_sweep(cfg.samples, True)
        if fld is None:
            speeds = analytic.speed_closed_form(sys, thetas)
        else:
            d = fld.direction
            g = analytic.metric_closed_form_field_array(
                sys, thetas, cfg.phi, fld.ratio_h_over_j, d.polar, d.azimuth
            )
            speeds = speed_from_g_chi_chi(sys.coupling_j, g[..., 2, 2])
        for t, v in zip(thetas, speeds):
            rows.append({"theta": float(t), "v": float(v), "curve": label})
    header = ["theta", "v"] + (["curve"] if multi else [])
    _emit(rows, header, cfg)
    return EXIT_OK


def cmd_curvature_vs_speed(cfg: RunConfig) -> int:
    rows = []
    multi = False
    for label, sys, fld in _preset_curves(cfg):
        if fld is not None and fld.ratio_h_over_j != 0.0:
            # the speed fixes the curvature through the zero-field closed forms only
            raise ConfigError(
                f"curvature-vs-speed holds only at zero field, got h/J={fld.ratio_h_over_j:g}"
            )
        multi = multi or bool(label)
        ext = analytic.speed_extrema(sys)
        n_half = max(cfg.samples // 2, 2)
        for branch, v_low in (("upper", 0.0), ("lower", ext.v_half_pi)):
            speeds = np.linspace(v_low, ext.v_max, n_half)
            values = analytic.curvature_from_speed(sys, speeds, branch)
            for v, r in zip(speeds, values):
                rows.append({"v": float(v), "R": float(r), "branch": branch, "curve": label})
    header = ["v", "R", "branch"] + (["curve"] if multi else [])
    _emit(rows, header, cfg)
    return EXIT_OK


def cmd_verify(cfg: RunConfig, only: Optional[str], tolerance: Optional[float]) -> int:
    report = run_full_suite(only=only, tolerance=tolerance)
    print(report.format_table())
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return EXIT_OK if report.overall else EXIT_VERIFY_FAILED


def cmd_field_optimize(cfg: RunConfig, scan_direction: bool) -> int:
    if cfg.theta is None:
        raise ConfigError("field-optimize requires --theta")
    sys = cfg.system()
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
    if scan_direction:
        if cfg.h_over_j is None:
            raise ConfigError("--scan-direction requires --h-over-j")
        # the first argmin/argmax in (theta', phi') row-major order, as a
        # double loop keeping only strict improvements would pick
        polar = np.linspace(0.0, math.pi, 61)
        azimuth = np.linspace(0.0, 2.0 * math.pi, 61, endpoint=False)
        ratio = FieldConfig(cfg.h_over_j, direction).ratio_h_over_j  # rejects NaN and inf
        g = analytic.metric_closed_form_field_array(
            sys, cfg.theta, cfg.phi, ratio, polar[:, None], azimuth
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
    text = json.dumps(record, indent=2, sort_keys=True)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-manifold",
        description="State-manifold geometry of the long-range zz-Ising spin-s system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON file with run parameters")
        p.add_argument("--n", type=int, help="number of spins N")
        p.add_argument("--two-s", dest="two_s", type=int, help="2s (1 for spin-1/2)")
        p.add_argument("--j", type=float, help="coupling J in Hz")
        p.add_argument("--gamma", type=float, help="metric scale factor")
        p.add_argument("--h-over-j", dest="h_over_j", type=float, help="field ratio h/J")
        p.add_argument("--theta-prime", dest="theta_prime", type=float, help="field polar angle")
        p.add_argument("--phi-prime", dest="phi_prime", type=float, help="field azimuth")
        p.add_argument("--ratio", help="declare h/J rational as P/Q")
        p.add_argument("--theta", type=float, help="initial-state polar angle")
        p.add_argument("--phi", type=float, help="initial-state azimuth")
        p.add_argument("--samples", type=int, help="sweep sample count")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="output format")

    for name, helptext in [
        ("curvature", "scalar curvature vs theta"),
        ("speed", "evolution speed vs theta"),
        ("curvature-vs-speed", "curvature against speed, both branches"),
    ]:
        p = sub.add_parser(name, help=helptext)
        add_common(p)
        p.add_argument(
            "--preset",
            choices=sorted(_PRESETS),
            help="named figure recipe",
        )

    p = sub.add_parser("verify", help="run the oracle verification suite")
    add_common(p)
    p.add_argument("--only", help="restrict to checks with this name prefix")
    p.add_argument("--tolerance", type=float, help="override all check tolerances")

    p = sub.add_parser("field-optimize", help="minimal-speed field conditions")
    add_common(p)
    p.add_argument("--scan-direction", action="store_true", help="grid-scan (theta', phi')")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "curvature":
            return cmd_curvature(cfg)
        if args.command == "speed":
            return cmd_speed(cfg)
        if args.command == "curvature-vs-speed":
            return cmd_curvature_vs_speed(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.only, args.tolerance)
        if args.command == "field-optimize":
            return cmd_field_optimize(cfg, args.scan_direction)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
