"""One value of the exact sequence-transform table, from the pass that
`verify`'s polylog targets come from."""

from __future__ import annotations

from fractions import Fraction

from lovelab.conjectures import _tn_firsts
from lovelab.errors import _check_int


def tn_first(n: int) -> Fraction:
    """First element of T^n applied to the natural numbers, exactly."""
    return _tn_firsts(_check_int(n, "n", 7))[-1]
