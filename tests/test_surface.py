import dataclasses
import types
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import lovelab
from conftest import run_python
from lovelab.capacitor2d import phi_prime_polylog_integral
from lovelab.conjectures import residue_identity, verify_polylog_claim
from lovelab.errors import DomainError
from lovelab.quadrature import gauss_legendre
from lovelab.specfun import _polylog_exp_neg

# The public names of a fresh `import lovelab`, its submodules included.  A
# name joins or leaves this list only on purpose.
PUBLIC_NAMES = [
    "ConditioningError", "ConjectureReport", "ConvergenceError", "DomainError",
    "ENERGY_GAMMA2", "ENERGY_GAMMA2_RIVAL", "EnergyPoint", "GAS_POTENTIAL", "LogTailFit",
    "LoveLabError", "LoveProblem", "LoveSolution", "QuadratureRule", "ResolutionError",
    "WindowError", "asymptotics", "capacitance_series", "capacitor2d", "conjectures",
    "cumulative_phi", "cumulative_phi_log", "default_node_count", "energy_series",
    "epsilon_of_gamma", "errors", "fit_log_tail", "gauss_legendre", "love", "moments",
    "observables", "phi_prime_polylog_integral", "quadrature", "residue_identity", "run_all",
    "solve_love", "specfun", "t_transform", "verify_gamma0", "verify_gamma1", "verify_gamma2",
    "verify_integral4", "verify_polylog_claim", "weak_coupling_fit",
]

def test_public_names_are_pinned():
    # in a fresh interpreter: importing lovelab.cli here would add "cli"
    names = run_python(
        "import lovelab; print(*(n for n in dir(lovelab) if not n.startswith('_')))").split()
    assert len(PUBLIC_NAMES) == 43
    assert sorted(names) == PUBLIC_NAMES


def test_each_public_name_is_listed_by_exactly_one_module():
    # every module's __all__ is the one list of its public names, and the
    # package republishes exactly those; the modules are looked up by name,
    # which imports each, so the check does not lean on what else is loaded
    modules = [m for m in (getattr(lovelab, name) for name in dir(lovelab))
               if isinstance(m, types.ModuleType)]
    public = [name for name in dir(lovelab) if not name.startswith("_")
              and not isinstance(getattr(lovelab, name), types.ModuleType)]
    for name in public:
        owners = [m.__name__ for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, (name, owners)
    for m in modules:
        for name in getattr(m, "__all__", ()):
            assert getattr(lovelab, name, None) is getattr(m, name), (m.__name__, name)


def test_the_owner_check_holds_in_a_fresh_interpreter():
    # called outside pytest, whose collection imports every submodule first
    run_python("import test_surface\n"
               "test_surface.test_each_public_name_is_listed_by_exactly_one_module()")


def _rule(n):
    rule = gauss_legendre(n)
    return rule.nodes.tolist(), rule.weights.tolist()


@pytest.mark.parametrize("call, n", [
    (_rule, 8),
    (lambda n: verify_polylog_claim([n]), 2),
    (lambda n: residue_identity([n]), 2),
    (lambda n: phi_prime_polylog_integral([n]), 2),
    (lambda n: _polylog_exp_neg([n], 1.0).tolist(), 2),
], ids=["gauss_legendre", "verify_polylog_claim", "residue_identity",
        "phi_prime_polylog_integral", "polylog_exp_neg"])
def test_integer_guard_takes_numpy_integers_but_not_bool(call, n):
    # the one integer guard: a numpy integer is the Python int of the same
    # value, and a bool is refused
    expected = call(n)
    for numpy_int in (np.int64(n), np.int32(n)):
        assert call(numpy_int) == expected
    with pytest.raises(DomainError, match=r"must be an integer in \[1, \d+\], got True$"):
        call(True)


def _solved(**data):
    return lovelab.observables(lovelab.solve_love(lovelab.LoveProblem(**data)))


@pytest.mark.parametrize("call, value", [
    (lambda x: _solved(kappa=x), "0.1"),
    (lambda x: _solved(kappa=0.5, v0=x), "0.1"),
    (lovelab.default_node_count, "0.1"),
    (lambda x: lovelab.energy_series("takahashi", x), "0.01"),
    (lambda x: lovelab.capacitance_series("extended", x), "0.1"),
    (lovelab.epsilon_of_gamma, "0.01"),
    (lovelab.cumulative_phi, "10.3"),
    (lovelab.cumulative_phi_log, "10.3"),
], ids=["LoveProblem.kappa", "LoveProblem.v0", "default_node_count", "energy_series",
        "capacitance_series", "epsilon_of_gamma", "cumulative_phi", "cumulative_phi_log"])
def test_real_guard_computes_in_double_precision(call, value):
    # the one real guard: a float32, float16, 0-d array, Fraction or Decimal
    # argument is the Python float it converts to, with that call's bits and
    # no warning
    for x in (np.float32(value), np.float16(value), np.array(np.float32(value)),
              Fraction(value), Decimal(value)):
        want = call(float(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = call(x)
        leaves = dataclasses.astuple(got) if dataclasses.is_dataclass(got) else (got,)
        assert all(type(leaf) in (float, int) for leaf in leaves), (x, got)
        assert repr(got) == repr(want), x
