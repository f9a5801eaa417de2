"""lovelab: the Love/Lieb-Liniger integral equation, disc-capacitor
asymptotics, and numerical verification of the integral identities behind
the weak-coupling ground-state energy.

Each module's ``__all__`` is the one list of its public names.  The
package republishes them all, and its submodules, on first use (PEP 562),
so ``import lovelab`` loads no submodule and a command loads only the
modules it runs: ``import lovelab.cli`` and ``solve`` load ``errors``,
``quadrature`` and ``love``; ``fit-weak`` and ``compare-asymptotics`` add
``specfun`` and ``asymptotics``; ``verify`` adds ``capacitor2d`` and
``conjectures``.  A name is looked up in the submodules in dependency
order, each imported until one lists it: so ``lovelab.solve_love`` loads
``errors``, ``quadrature`` and ``love``, while ``dir(lovelab)`` and
``from lovelab import *`` load every submodule."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each imports only modules before it
_SUBMODULES = ("errors", "quadrature", "love", "specfun", "asymptotics",
               "capacitor2d", "conjectures")


def _submodule(name):
    return _import_module(f"{__name__}.{name}")


def _public_names():
    return [*_SUBMODULES, *(name for module in _SUBMODULES
                            for name in _submodule(module).__all__)]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        return _public_names()
    for module in _SUBMODULES:
        owner = _submodule(module)
        if name in owner.__all__:
            return getattr(owner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_public_names()})
