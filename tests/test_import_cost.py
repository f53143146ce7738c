"""Importing the package must not pull in scipy.integrate.

``scipy.integrate`` takes most of the package's import time and only
``analytic.curvature_integral`` uses it, so it is imported there, on
first use.  Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loaded_after(statement: str) -> bool:
    code = f"import sys; {statement}; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["spinmanifold", "spinmanifold.cli"])
def test_import_leaves_scipy_integrate_unloaded(module):
    assert not _loaded_after(f"import {module}")


def test_curvature_integral_loads_it_on_first_use():
    assert _loaded_after(
        "from spinmanifold import analytic, SpinSystem;"
        "analytic.curvature_integral(analytic.ManifoldSpec.for_system(SpinSystem(2, 1)))"
    )
