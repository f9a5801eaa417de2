import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lovelab as ll

TESTS = Path(__file__).resolve().parent


def run_python(code, *args):
    """stdout of code, given args, in a fresh interpreter with src/ and
    tests/ on its path; a non-zero exit fails the calling test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          check=True, text=True, timeout=300).stdout


@pytest.fixture(scope="session")
def gas_solution_k1():
    """Gas-normalized solution at kappa = 1, shared across tests."""
    return ll.solve_love(ll.LoveProblem(kappa=1.0))


@pytest.fixture(scope="session")
def capacitor_solution_k005():
    """Unit-potential solution at kappa = 0.05."""
    return ll.solve_love(ll.LoveProblem(kappa=0.05, v0=1.0))


@pytest.fixture(scope="session")
def weak_coupling_points():
    """Solver-generated energy points across the weak-coupling window."""
    targets = np.geomspace(2e-3, 5e-2, 8)
    points = []
    for gamma in targets:
        kappa = 2.0 * ll.epsilon_of_gamma(gamma)
        sol = ll.solve_love(ll.LoveProblem(kappa=kappa))
        points.append(ll.observables(sol))
    return points
