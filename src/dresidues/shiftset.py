"""Integer-shift structure of denominators: shift sets and dispersion.

The shift set of b collects the positive integers l for which b(x) and
b(x+l) share a root, found without factoring b.  For the primitive integer
form B of b, v(l) = Res_x(B(x), B(x+l)) vanishes exactly at those l and at
0, because B(x) and B(x+l) have the same leading coefficient.  Every shift
is a difference of two roots, so it is below L = 2 * `polys._cauchy_bound`
of B(x+c), with c an integer near the mean of the roots: translating by c
moves every root and changes no difference.  When L <= deg(b)^2 + 1 the
shift set is read off v(1), ..., v(L-1).  Otherwise it is the positive
integer roots of `polys.resultant_shift`(b), a constant multiple of
R(z) = Res_x(B(x), B(x+z)) interpolated from v(0), ..., v(deg(b)^2).  The
scan computes v(l) only when `polys._coprime` cannot certify B(x+l) coprime
to B, so it never evaluates more values than interpolation needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .errors import DomainError
from .polys import Poly


@dataclass(frozen=True)
class ShiftSetResult:
    """The shift set, in increasing order."""

    shifts: tuple[int, ...]

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
    n = b.degree
    big = polys._to_int_primitive(b)
    # B has a positive leading coefficient, so c is the floor of the mean root.
    centred = list(big)
    polys._taylor_shift(centred, -big[-2] // (n * big[-1]))
    bound = 2 * polys._cauchy_bound(centred)
    if bound <= n * n + 1:
        shifted, shifts = list(big), []
        for ell in range(1, bound):
            polys._taylor_shift(shifted, 1)
            if not polys._coprime(shifted, big) and not polys._subresultant(big, shifted):
                shifts.append(ell)
        return ShiftSetResult(tuple(shifts))
    roots = polys.integer_roots(polys.resultant_shift(b))
    return ShiftSetResult(tuple(sorted(ell for ell in roots if ell > 0)))


def dispersion(b: Poly) -> int:
    """The largest element of the shift set, or 0 when it is empty."""
    if b.is_zero or b.is_constant:
        raise DomainError("dispersion requires a non-constant polynomial")
    shifts = shift_set(b).shifts
    return shifts[-1] if shifts else 0
