"""Byte-exact CLI outputs against committed golden files.

The files under ``tests/golden/`` hold the standard output of each command
in ``CASES`` and the ``--out`` file of each command in ``OUT_CASES``.  A
refactor of the CLI or of the closed forms it calls must leave every byte
unchanged.  Regenerate them, only for an intended output change, with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import math
import os
import sys
import tempfile

import pytest

from spinmanifold.cli import EXIT_OK, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

PRESETS = ("fig1", "fig2", "fig3", "fig5a", "fig5b", "fig6", "methane")

#: golden file name -> CLI arguments
CASES = {
    **{f"{cmd}_{p}.csv": [cmd, "--preset", p] for cmd in ("speed", "curvature") for p in PRESETS},
    "curvature_vs_speed_n4_2s1.csv": ["curvature-vs-speed", "--n", "4", "--two-s", "1"],
    "curvature_vs_speed_fig1.csv": ["curvature-vs-speed", "--preset", "fig1"],
    "speed_field_n4_2s2.csv": [
        "speed", "--n", "4", "--two-s", "2", "--h-over-j", "3", "--theta-prime", "0",
        "--ratio", "3/1",
    ],
    "speed_field_offaxis_n4_2s2.csv": [
        "speed", "--n", "4", "--two-s", "2", "--h-over-j", "1.5", "--theta-prime", "1.1",
        "--phi-prime", "0.4", "--phi", "0.9",
    ],
    "curvature_field_n4_2s2.json": [
        "curvature", "--format", "json", "--n", "4", "--two-s", "2", "--h-over-j", "1",
        "--theta-prime", "0", "--phi-prime", "0.3", "--phi", "0.9", "--samples", "40",
    ],
    "field_optimize_scan.json": [
        "field-optimize", "--scan-direction", "--n", "4", "--two-s", "2", "--h-over-j", "1",
        "--theta", repr(math.pi / 4), "--phi", "0.9",
        "--theta-prime", repr(3 * math.pi / 4), "--phi-prime", "0.9",
    ],
    "verify_topology.txt": ["verify", "--only", "topology"],
    "verify.txt": ["verify"],
}

#: golden file name -> CLI arguments, without --out, of a command whose --out file it holds
OUT_CASES = {
    "verify.json": ["verify"],
}


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue().encode()


def _run_out(argv, directory) -> bytes:
    path = os.path.join(directory, "out")
    _run([*argv, "--out", path])
    with open(path, "rb") as fh:
        return fh.read()


def _golden(name) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    assert _run(CASES[name]) == _golden(name)


@pytest.mark.parametrize("name", sorted(OUT_CASES))
def test_out_file_is_byte_identical(name, tmp_path):
    assert _run_out(OUT_CASES[name], tmp_path) == _golden(name)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    outputs = {name: _run(argv) for name, argv in CASES.items()}
    with tempfile.TemporaryDirectory() as tmp:
        outputs.update((name, _run_out(argv, tmp)) for name, argv in OUT_CASES.items())
    for name, data in outputs.items():
        with open(os.path.join(GOLDEN_DIR, name), "wb") as fh:
            fh.write(data)
    print(f"wrote {len(outputs)} files to {GOLDEN_DIR}", file=sys.stderr)
