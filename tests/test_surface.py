import types

import numpy as np
import pytest

import lovelab
from lovelab.capacitor2d import phi_prime_polylog_integral
from lovelab.conjectures import residue_identity, tn_first
from lovelab.errors import DomainError
from lovelab.quadrature import gauss_legendre
from lovelab.specfun import polylog


def test_each_public_name_is_listed_by_exactly_one_module():
    # every module's __all__ is the one list of its public names, and the
    # package republishes exactly those
    modules = [m for m in vars(lovelab).values() if isinstance(m, types.ModuleType)]
    public = [name for name in dir(lovelab) if not name.startswith("_")
              and not isinstance(getattr(lovelab, name), types.ModuleType)]
    for name in public:
        owners = [m.__name__ for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, (name, owners)
    for m in modules:
        for name in getattr(m, "__all__", ()):
            assert getattr(lovelab, name, None) is getattr(m, name), (m.__name__, name)


def _rule(n):
    rule = gauss_legendre(n)
    return rule.nodes.tolist(), rule.weights.tolist()


@pytest.mark.parametrize("call, n", [
    (lambda n: polylog(n, 0.5), 2),
    (_rule, 8),
    (residue_identity, 2),
    (phi_prime_polylog_integral, 2),
    (tn_first, 2),
], ids=["polylog", "gauss_legendre", "residue_identity",
        "phi_prime_polylog_integral", "tn_first"])
def test_integer_guard_takes_numpy_integers_but_not_bool(call, n):
    # the one integer guard: a numpy integer is the Python int of the same
    # value, and a bool is refused
    expected = call(n)
    for numpy_int in (np.int64(n), np.int32(n)):
        assert call(numpy_int) == expected
    with pytest.raises(DomainError, match=r"must be an integer in \[1, \d+\], got True$"):
        call(True)
