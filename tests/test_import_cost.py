"""The package runs without scipy: importing it, the full verify suite and
the CLI's topology check load no scipy module.

The Gauss-Bonnet curvature integral uses a numpy Gauss-Legendre rule, so
only some tests' references need scipy.  Each check
runs in a fresh interpreter and reports the scipy modules it finds in
``sys.modules`` as the last line of its output.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = (
    "print(json.dumps(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
)


def _scipy_modules_after(*statements: str) -> list:
    """Scipy modules loaded after each statement, run in order in one fresh interpreter."""
    code = "\n".join(["import json, sys"] + [f"{s}\n{_REPORT}" for s in statements])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    reports = proc.stdout.strip().splitlines()[-len(statements):]
    return [json.loads(line) for line in reports]


@pytest.mark.parametrize("module", ["spinmanifold", "spinmanifold.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == [[]]


def test_verify_suite_and_cli_topology_leave_scipy_unloaded():
    after_suite, after_cli = _scipy_modules_after(
        "from spinmanifold.verify import run_full_suite\n"
        "assert run_full_suite().overall",
        "import contextlib, io\n"
        "from spinmanifold import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--only', 'topology']) == 0",
    )
    assert after_suite == []
    assert after_cli == []
