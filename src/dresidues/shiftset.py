"""Integer-shift structure of denominators: shift sets and dispersion.

The shift set of b collects the positive integers l for which b(x) and
b(x+l) share a root.  These are exactly the positive integer roots of the
shift resultant R(z) = Res_x(b(x), b(x+z)), found without factoring b.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .errors import DomainError
from .polys import Poly


@dataclass(frozen=True)
class ShiftSetResult:
    """Shift set plus the shift resultant R(z) it was read off (None on the
    trivial degree <= 1 branch)."""

    shifts: tuple[int, ...]
    resultant: Poly | None = None

    def as_set(self) -> set[int]:
        return set(self.shifts)


def shift_set(b: Poly) -> ShiftSetResult:
    """All positive integers l with gcd(b(x), b(x+l)) nonconstant.

    >>> shift_set(Poly([0, 1, 1])).shifts
    (1,)
    """
    if b.is_zero:
        raise DomainError("shift set of the zero polynomial")
    if b.degree <= 1:
        return ShiftSetResult(())
    r = polys.resultant_shift(b)
    return ShiftSetResult(tuple(sorted(ell for ell in polys.integer_roots(r) if ell > 0)), r)


def dispersion(b: Poly) -> int:
    """The largest element of the shift set, or 0 when it is empty."""
    if b.is_zero or b.is_constant:
        raise DomainError("dispersion requires a non-constant polynomial")
    shifts = shift_set(b).shifts
    return shifts[-1] if shifts else 0
