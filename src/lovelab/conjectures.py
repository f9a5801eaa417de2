"""Verification harness for the integral identities behind the expansion
constants: the cumulative-potential constants gamma0 and gamma1 (integrals
of the potential with its 1/(pi t) tail subtracted), the outer integral
constant (two independent routes), the elliptic-derivative integral, the
sequence-transform table with its polylogarithm integrals, and the residue
identity evaluated over the Lambert branch cut.

Every check produces a ConjectureReport carrying the computed value, the
closed-form target, and the number of matched significant digits.  The
sequence-transform table is exact: it never touches floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .asymptotics import GAMMA0, GAMMA1, GAMMA2_TILDE, INTEGRAL4, _outer_subtracted
from .capacitor2d import _orders, _phi, _phi_prime_of_w, phi_prime_polylog_integral
from .errors import DomainError, _check_int
from .quadrature import _composite, _log_edges, _tanh_sinh
from .specfun import _dk_vec, _w_upper_from_offset

__all__ = [
    "ConjectureReport",
    "t_transform",
    "tn_first",
    "verify_polylog_claim",
    "residue_identity",
    "verify_gamma0",
    "verify_gamma1",
    "verify_gamma2",
    "verify_integral4",
    "run_all",
]

_PI = math.pi


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of one numerical identity check."""

    name: str
    computed: float
    target: float
    abs_error: float
    digits: int
    method: str


def _digits(abs_error: float, target: float) -> int:
    if abs_error == 0.0:
        return 17
    rel = abs_error / max(abs(target), 1e-300)
    return max(0, min(17, int(math.floor(-math.log10(rel)))))


def _report(name: str, computed: float, target: float, method: str) -> ConjectureReport:
    err = abs(computed - target)
    return ConjectureReport(name=name, computed=computed, target=target,
                            abs_error=err, digits=_digits(err, target),
                            method=method)


# ----------------------------------------------------------------------
# Sequence transform (exact rational arithmetic).
# ----------------------------------------------------------------------

def t_transform(seq: Sequence[Fraction | int]) -> list[Fraction]:
    """One application of the transform T[s]_k = (s_k - s_{k+1}) / k
    (1-based k); output is one element shorter than the input."""
    if len(seq) < 2:
        raise DomainError(f"need at least 2 elements, got {len(seq)}")
    s = [Fraction(v) for v in seq]
    return [(s[i] - s[i + 1]) / Fraction(i + 1) for i in range(len(s) - 1)]


def tn_first(n: int) -> Fraction:
    """First element of T^n applied to the natural numbers, exactly.

    Each application consumes one element, so the seed 1..n+1 is the
    shortest that determines the answer.
    """
    n = _check_int(n, "n", 7)
    seq: list[Fraction] = [Fraction(i) for i in range(1, n + 2)]
    for _ in range(n):
        seq = t_transform(seq)
    return seq[0]


def verify_polylog_claim(n: Sequence[int]) -> list[ConjectureReport]:
    """int_0^inf Phi'(x) Li_m(e^{-pi x}) dx against the exact (T^m[N])_1,
    one report per order m in n, from integrals taken on shared abscissae."""
    orders = _orders(n, "n", 6)
    return [_report(f"polylog_n{m}", computed, float(tn_first(m)),
                    "tanh-sinh + Gauss panels of Phi' Li_n(e^{-pi x}) vs exact "
                    "sequence transform")
            for m, computed in zip(orders, phi_prime_polylog_integral(orders))]


# ----------------------------------------------------------------------
# Residue identity over the branch cut.
# ----------------------------------------------------------------------

def residue_identity(k: Sequence[int]) -> list[ConjectureReport]:
    """Branch-cut integral against the pole residue j^j e^{-j} / (j-1)!, one
    report per order j in k.

    After x = -e^{t-1} the integral becomes
    -(j/pi) int_0^inf e^{-j t} Im(1/(1 + W(-e^{t-1}))) dt with W on the
    upper cut; the integrand has a t^{-1/2} edge singularity (tanh-sinh)
    and then decays like e^{-j t} (Gauss panels, count scaled with 1/j).
    The e^{-j t} rows share one W evaluation per abscissa, on the panels
    of the smallest j.
    """
    orders = _orders(k, "k", 8)

    def integrand(t: np.ndarray) -> np.ndarray:
        im = _phi_prime_of_w(_w_upper_from_offset(t))   # Im 1/(1 + W)
        return np.array([np.exp(-j * t) * im for j in orders])

    values = _composite(integrand, [0.0, *np.linspace(1.0, 40.0 / min(orders) + 5.0, 20)])
    return [_report(f"residue_k{j}", -(j / _PI) * float(value),
                    j ** j * math.exp(-j) / math.factorial(j - 1),
                    "upper-cut Lambert W branch integral, t = log(-e x) substitution")
            for j, value in zip(orders, values)]


# ----------------------------------------------------------------------
# Cumulative-potential constants.
# ----------------------------------------------------------------------

def _subtracted_moment(power: int) -> float:
    """int_0^inf (Phi(t) - [t > 1]/(pi t)) log^power t dt, a convergent integral:
    tanh-sinh on the cusp head [0, 1], with the jump of the subtraction on its
    edge, then geometric Gauss panels up to 1e18 (the rest is below 1e-15)."""
    def integrand(t: np.ndarray) -> np.ndarray:
        return (_phi(t) - np.where(t > 1.0, 1.0 / (_PI * t), 0.0)) * np.log(t) ** power

    return _composite(integrand, [0.0, *_log_edges(1.0, 1e18)])


def verify_gamma0() -> ConjectureReport:
    """Constant of int_0^X Phi dt - (log X)/pi, against (1 + log pi)/pi."""
    return _report("gamma0", _subtracted_moment(0), GAMMA0,
                   "tanh-sinh + Gauss panels of Phi - 1/(pi t) past t = 1")


def verify_gamma1() -> ConjectureReport:
    """Constant of int_0^X Phi log t dt - log^2 X/(2 pi), against
    pi/6 - 1/pi - log(pi)/pi - log^2(pi)/(2 pi)."""
    return _report("gamma1", _subtracted_moment(1), GAMMA1,
                   "tanh-sinh + Gauss panels of (Phi - 1/(pi t) past t = 1) log t")


# ----------------------------------------------------------------------
# Outer-integral constant, two independent routes.
# ----------------------------------------------------------------------

def _integral4_value() -> float:
    def integrand(r: np.ndarray) -> np.ndarray:
        dk = _dk_vec(r)
        omr2 = (1.0 - r) * (1.0 + r)
        return 2.0 * (omr2 / r) * dk * dk - 1.0 / (1.0 - r)

    value, _ = _tanh_sinh(integrand, 0.0, 1.0)
    return (2.0 / _PI) * value


def verify_integral4() -> ConjectureReport:
    """(2/pi) int_0^1 { 2 (1/r - r) (dK/dr)^2 - 1/(1-r) } dr against
    -2/pi - pi/2 + 2 log 8 / pi."""
    return _report("integral4", _integral4_value(), INTEGRAL4,
                   "tanh-sinh of the dK/dr integrand with a series guard at r -> 0")


def verify_gamma2() -> list[ConjectureReport]:
    """The outer-integral constant by two independent routes.

    (a) through the elliptic-derivative integral plus its exact companions:
        value = integral4 + pi/4 - 9 log^2(2) / (4 pi);
    (b) directly, as the integral of the transformed outer integrand with
        its logarithmic endpoint growth subtracted in closed form.
    Both must match -2/pi - pi/4 - log^2(8)/(4 pi) + 2 log(8)/pi.
    """
    route_a = _integral4_value() + _PI / 4.0 - 9.0 * math.log(2.0) ** 2 / (4.0 * _PI)
    direct, _ = _tanh_sinh(_outer_subtracted, 0.0, 1.0)
    return [
        _report("gamma2_tilde_via_integral4", route_a, GAMMA2_TILDE,
                "elliptic-derivative integral plus exact companion terms"),
        _report("gamma2_tilde_direct", direct, GAMMA2_TILDE,
                "tanh-sinh of the subtracted outer integrand"),
    ]


# Every report of the suite must match this many significant digits.
MIN_DIGITS = 13

# The suite in report order, each group name with its report producer.  The
# producers look their check up by name when called, so a wrapper put on a
# module attribute sees every call.
SUITE: dict[str, Callable[[], list[ConjectureReport]]] = {
    "gamma0": lambda: [verify_gamma0()],
    "gamma1": lambda: [verify_gamma1()],
    "gamma2": lambda: verify_gamma2(),
    "integral4": lambda: [verify_integral4()],
    "polylog": lambda: verify_polylog_claim(range(1, 5)),
    "residue": lambda: residue_identity(range(1, 5)),
}


def run_all() -> list[ConjectureReport]:
    """The full suite in SUITE order: gamma0, gamma1, both gamma2 routes,
    integral4, polylog claims n = 1..4, residue identities k = 1..4."""
    return [r for task in SUITE.values() for r in task()]
