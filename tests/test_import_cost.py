"""The package runs without scipy: importing it, the full verify suite and
the CLI's topology check load no scipy module.  The suite and the topology
check load no ``numpy.polynomial`` module either (its import alone costs
milliseconds).

The Gauss-Bonnet curvature integral uses a Gauss-Legendre rule built
with ``numpy.linalg.eigh``, so only some tests' references need scipy.
Each check runs in a fresh interpreter and reports the modules it finds
in ``sys.modules`` as the last line of its output.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_SUITE = "from spinmanifold.verify import run_full_suite\nassert run_full_suite().overall"
_CLI_TOPOLOGY = (
    "import contextlib, io\n"
    "from spinmanifold import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(['verify', '--only', 'topology']) == 0"
)


def _modules_after(package: str, *statements: str) -> list:
    """Modules of ``package`` loaded after each statement, run in order in one fresh interpreter."""
    report = (
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m == {package!r} or m.startswith({package + '.'!r}))))"
    )
    code = "\n".join(["import json, sys"] + [f"{s}\n{report}" for s in statements])
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    reports = proc.stdout.strip().splitlines()[-len(statements):]
    return [json.loads(line) for line in reports]


def _scipy_modules_after(*statements: str) -> list:
    return _modules_after("scipy", *statements)


@pytest.mark.parametrize("module", ["spinmanifold", "spinmanifold.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _scipy_modules_after(f"import {module}") == [[]]


def test_verify_suite_and_cli_topology_leave_scipy_unloaded():
    after_suite, after_cli = _scipy_modules_after(_SUITE, _CLI_TOPOLOGY)
    assert after_suite == []
    assert after_cli == []


def test_verify_suite_and_cli_topology_leave_numpy_polynomial_unloaded():
    assert _modules_after("numpy.polynomial", _SUITE) == [[]]
    assert _modules_after("numpy.polynomial", _CLI_TOPOLOGY) == [[]]
