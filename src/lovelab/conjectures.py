"""Verification harness for the integral identities behind the expansion
constants: the cumulative-potential constants gamma0 and gamma1 (integrals
of the potential with its 1/(pi t) tail subtracted), the outer integral
constant (two independent routes), the elliptic-derivative integral, the
sequence-transform table with its polylogarithm integrals, and the residue
identity evaluated over the Lambert branch cut.

Every check produces a ConjectureReport carrying the computed value, the
closed-form target, and the number of matched significant digits.  The
sequence-transform table is exact: it never touches floating point, and
the polylog targets drawn from it are built once per highest order.

Every integral of the suite is one tanh-sinh integral on (0, 1), its
half-line, where it has one, mapped there: one call of its integrand on the
fixed rule's 297 abscissae, where every row converges with room (gamma2's
direct row, the tightest, at 0.053 of its tolerance).  The integrals of
a group are its rows, built by one row function per group: gamma0 and
gamma1 (one Lambert-W pass), integral4 and the subtracted outer integrand
of gamma2's route (b), whose integral4 also serves route (a) (one dK/dk
pass), the polylog orders (one polylog call) and the residue orders.  The outer
integrand is the far field F = (2/pi) s^2 dK/ds times k3, so route (b)
checks the two elliptic primitives, _dk_vec and _k3, directly.  run_all
takes all 12 rows as one tanh-sinh integral, whose integrand makes one W
call on the offsets pi s, pi / s and -log(1 - s) (the polylog and residue
rows share the last) and one call each of dK/dk and the polylog, and hands
each producer its group's values as an argument; a producer called without
them integrates its own group only.  Every row is summed from its own
values, so each keeps its bits whichever rows share its integral.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

# _outer_subtracted and phi_prime_polylog_integral are read from their
# modules at each call: a wrapper set there (the benchmark's span tracer
# sets one) is then the one called here, however late this module is imported
from . import asymptotics, capacitor2d
from .asymptotics import GAMMA0, GAMMA1, GAMMA2_TILDE, INTEGRAL4
from .capacitor2d import _phi_moment_rows, _phi_prime_of_w, _phi_prime_polylog_rows
from .errors import DomainError, _check_real, _orders
from .quadrature import _tanh_sinh
from .specfun import _dk_vec, _w_upper_from_offset

__all__ = [
    "ConjectureReport",
    "t_transform",
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
    (1-based k); output is one element shorter than the input.  An int (not
    a bool) or a Fraction is taken exactly, any other finite real as the
    double errors._check_real makes of it."""
    if len(seq) < 2:
        raise DomainError(f"need at least 2 elements, got {len(seq)}")
    try:
        s = [v if isinstance(v, Fraction)
             else Fraction(int(v) if isinstance(v, numbers.Integral) and not isinstance(v, bool)
                           else _check_real(v, "element", "(-inf, inf)"))
             for v in seq]
    except DomainError as exc:
        raise DomainError(f"elements must be finite reals: {exc}") from None
    return [(s[i] - s[i + 1]) / Fraction(i + 1) for i in range(len(s) - 1)]


@functools.cache
def _tn_firsts(n: int) -> tuple[Fraction, ...]:
    """First elements of T^0 .. T^n applied to the natural numbers, from one
    pass: each application consumes one element, and (T^k s)_1 depends on
    s_1..s_{k+1} only, so the seed 1..n+1 determines them all.  Exact
    rationals, like GAMMA0: built once per n, and kept as a tuple."""
    seq: list[Fraction] = [Fraction(i) for i in range(1, n + 2)]
    firsts = [seq[0]]
    for _ in range(n):
        seq = t_transform(seq)
        firsts.append(seq[0])
    return tuple(firsts)


def verify_polylog_claim(n: Sequence[int], values: Sequence[float] | None = None,
                         ) -> list[ConjectureReport]:
    """int_0^inf Phi'(x) Li_m(e^{-pi x}) dx against the exact (T^m[N])_1,
    one report per order m in n, from values (one per order) or its own
    integral, taken on shared abscissae."""
    orders = _orders(n, "n", 6)
    targets = _tn_firsts(max(orders))
    if values is None:
        values = capacitor2d.phi_prime_polylog_integral(orders)
    return [_report(f"polylog_n{m}", float(computed), float(targets[m]),
                    "tanh-sinh of Phi' Li_n(e^{-pi x}) at pi x = -log(1 - s) vs "
                    "exact sequence transform")
            for m, computed in zip(orders, values, strict=True)]


# ----------------------------------------------------------------------
# Residue identity over the branch cut.
# ----------------------------------------------------------------------

def _residue_rows(s: np.ndarray, W: np.ndarray, orders: list[int]) -> np.ndarray:
    """The rows (1 - s)^(j-1) Im 1/(1 + W) of residue_identity at the
    abscissae s in (0, 1), before their factors -j/pi, from the upper-cut W
    at the offset -log(1 - s)."""
    return (1.0 - s) ** (np.array(orders, dtype=float)[:, None] - 1.0) * _phi_prime_of_w(W)


def residue_identity(k: Sequence[int], values: Sequence[float] | None = None,
                     ) -> list[ConjectureReport]:
    """Branch-cut integral against the pole residue j^j e^{-j} / (j-1)!, one
    report per order j in k, from values (one per order) or its own integral.

    After x = -e^{t-1} the integral becomes
    -(j/pi) int_0^inf e^{-j t} Im(1/(1 + W(-e^{t-1}))) dt with W on the
    upper cut, and t = -log(1 - s) maps it onto s in (0, 1), where it is
    -(j/pi) int_0^1 (1 - s)^{j-1} Im(1/(1 + W)) ds: one tanh-sinh integral,
    whose t^{-1/2} edge singularity sits at s = 0.  The orders are its rows
    and share one W evaluation per abscissa.
    """
    orders = _orders(k, "k", 8)
    if values is None:
        values, _ = _tanh_sinh(
            lambda s: _residue_rows(s, _w_upper_from_offset(-np.log1p(-s)), orders))
    return [_report(f"residue_k{j}", -(j / _PI) * float(value),
                    j ** j * math.exp(-j) / math.factorial(j - 1),
                    "upper-cut Lambert W branch integral, t = log(-e x) substitution")
            for j, value in zip(orders, values, strict=True)]


# ----------------------------------------------------------------------
# Cumulative-potential constants.
# ----------------------------------------------------------------------

def _subtracted_moments(values: Sequence[float] | None) -> Sequence[float]:
    """gamma0 and gamma1: the two Phi moments over the whole half-line, as
    given in values, else one tanh-sinh integral of _phi_moment_rows."""
    def rows(u: np.ndarray) -> np.ndarray:
        return _phi_moment_rows(u, _w_upper_from_offset(_PI * np.concatenate([u, 1.0 / u])))

    return _tanh_sinh(rows)[0] if values is None else values


def verify_gamma0(values: Sequence[float] | None = None) -> ConjectureReport:
    """Constant of int_0^X Phi dt - (log X)/pi, against (1 + log pi)/pi."""
    return _report("gamma0", float(_subtracted_moments(values)[0]), GAMMA0,
                   "tanh-sinh of Phi - 1/(pi t) past t = 1, tails at t = 1/s")


def verify_gamma1(values: Sequence[float] | None = None) -> ConjectureReport:
    """Constant of int_0^X Phi log t dt - log^2 X/(2 pi), against
    pi/6 - 1/pi - log(pi)/pi - log^2(pi)/(2 pi)."""
    return _report("gamma1", float(_subtracted_moments(values)[1]), GAMMA1,
                   "tanh-sinh of (Phi - 1/(pi t) past t = 1) log t, tails at t = 1/s")


# ----------------------------------------------------------------------
# Outer-integral constant, two independent routes.
# ----------------------------------------------------------------------

def _unit_rows(r: np.ndarray) -> np.ndarray:
    """The two rows of _unit_integrals at the abscissae r in (0, 1), which
    share one dK/dk pass: integral4's integrand before its factor 2/pi, and
    the subtracted outer integrand."""
    omr2 = (1.0 - r) * (1.0 + r)
    dk = _dk_vec(r, omr2)
    return np.array([2.0 * (omr2 / r) * dk * dk - 1.0 / (1.0 - r),
                     asymptotics._outer_subtracted(r, dk)])


def _unit_integrals(values: Sequence[float] | None) -> tuple[float, float]:
    """integral4, (2/pi) int_0^1 { 2 (1/r - r) (dK/dr)^2 - 1/(1-r) } dr, and
    the integral of the subtracted outer integrand over s in (0, 1), from
    values, _unit_rows integrated, else one tanh-sinh integral of them."""
    integral4, outer = _tanh_sinh(_unit_rows)[0] if values is None else values
    return (2.0 / _PI) * float(integral4), float(outer)


def verify_integral4(values: Sequence[float] | None = None) -> ConjectureReport:
    """(2/pi) int_0^1 { 2 (1/r - r) (dK/dr)^2 - 1/(1-r) } dr against
    -2/pi - pi/2 + 2 log 8 / pi."""
    return _report("integral4", _unit_integrals(values)[0], INTEGRAL4,
                   "tanh-sinh of the dK/dr integrand with a series guard at r -> 0")


def verify_gamma2(values: Sequence[float] | None = None) -> list[ConjectureReport]:
    """The outer-integral constant by two independent routes.

    (a) through the elliptic-derivative integral plus its exact companions:
        value = integral4 + pi/4 - 9 log^2(2) / (4 pi);
    (b) directly, as the integral of the transformed outer integrand with
        its logarithmic endpoint growth subtracted in closed form.
    Both must match -2/pi - pi/4 - log^2(8)/(4 pi) + 2 log(8)/pi.
    """
    integral4, direct = _unit_integrals(values)
    route_a = integral4 + _PI / 4.0 - 9.0 * math.log(2.0) ** 2 / (4.0 * _PI)
    return [
        _report("gamma2_tilde_via_integral4", route_a, GAMMA2_TILDE,
                "elliptic-derivative integral plus exact companion terms"),
        _report("gamma2_tilde_direct", direct, GAMMA2_TILDE,
                "tanh-sinh of the subtracted outer integrand"),
    ]


# ----------------------------------------------------------------------
# The suite, and its one integral per run.
# ----------------------------------------------------------------------

# The orders of the polylog and residue groups of the suite.
_SUITE_ORDERS = [1, 2, 3, 4]

# Where each SUITE group's rows sit among the rows of the suite's one
# integral; gamma0 and gamma1 share theirs, as do gamma2 and integral4.
_SUITE_ROWS = {"gamma0": slice(0, 2), "gamma1": slice(0, 2), "gamma2": slice(2, 4),
               "integral4": slice(2, 4), "polylog": slice(4, 8), "residue": slice(8, 12)}


def _suite_rows(s: np.ndarray) -> np.ndarray:
    """All 12 rows of the suite at the abscissae s in (0, 1), in
    _SUITE_ROWS order, from one W call on the offsets pi s, pi / s and
    t = -log(1 - s), whose last block the polylog and residue rows share."""
    n = len(s)
    t = -np.log1p(-s)
    W = _w_upper_from_offset(np.concatenate([_PI * s, _PI * (1.0 / s), t]))
    return np.concatenate([_phi_moment_rows(s, W[:2 * n]), _unit_rows(s),
                           _phi_prime_polylog_rows(s, t, W[2 * n:], _SUITE_ORDERS),
                           _residue_rows(s, W[2 * n:], _SUITE_ORDERS)])


# Every report of the suite must match this many significant digits.
MIN_DIGITS = 13

# The suite in report order, each group name with its report producer,
# which takes the group's rows of the suite's integral where it is handed
# them and integrates its own otherwise.  The producers look their check up
# by name when called, so a wrapper put on a module attribute sees every call.
SUITE: dict[str, Callable[..., list[ConjectureReport]]] = {
    "gamma0": lambda values=None: [verify_gamma0(values=values)],
    "gamma1": lambda values=None: [verify_gamma1(values=values)],
    "gamma2": lambda values=None: verify_gamma2(values=values),
    "integral4": lambda values=None: [verify_integral4(values=values)],
    "polylog": lambda values=None: verify_polylog_claim(_SUITE_ORDERS, values=values),
    "residue": lambda values=None: residue_identity(_SUITE_ORDERS, values=values),
}


def run_all() -> list[ConjectureReport]:
    """The full suite in SUITE order: gamma0, gamma1, both gamma2 routes,
    integral4, polylog claims n = 1..4, residue identities k = 1..4.

    All 12 rows are one tanh-sinh integral, taken here on each call, and
    each producer is handed its group's rows of it."""
    values, _ = _tanh_sinh(_suite_rows)
    return [r for group, task in SUITE.items() for r in task(values[_SUITE_ROWS[group]])]
