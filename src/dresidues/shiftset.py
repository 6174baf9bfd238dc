"""Integer-shift structure of denominators: shift sets and dispersion.

The shift set of b collects the positive integers l for which b(x) and
b(x+l) share a root, found without factoring b.  Every shift is a difference
of two roots, so it is below L = 2 * `polys._cauchy_bound` of B(x+c), for the
primitive integer form B of b and c an integer near the mean of the roots:
translating by c moves every root and changes no difference.  When
L <= deg(b)^2 + 1 the candidates are 1, ..., L-1.  Otherwise they are the
positive integer roots of `polys.resultant_shift`(b), a constant multiple of
R(z) = Res_x(B(x), B(x+z)) interpolated from deg(b)^2 + 1 values.  Both
routes end in one loop: per candidate l one `polys._gcd_int`(B(x), B(x+l)),
the `polys._coprime` certificate and, where it fails, the primitive PRS, so
l is a shift exactly when that gcd is nonconstant, and the loop keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .errors import DomainError
from .polys import Poly


@dataclass(frozen=True)
class ShiftSetResult:
    """The shift set, in increasing order, and gcds[i] = the monic gcd(b(x), b(x + shifts[i]))."""

    shifts: tuple[int, ...]
    gcds: tuple[Poly, ...]

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
        return ShiftSetResult((), ())
    n = b.degree
    big = polys._to_int_primitive(b)
    # B has a positive leading coefficient, so c is the floor of the mean root.
    centred = list(big)
    polys._taylor_shift(centred, -big[-2] // (n * big[-1]))
    bound = 2 * polys._cauchy_bound(centred)
    if bound <= n * n + 1:
        candidates = range(1, bound)
    else:
        candidates = sorted(ell for ell in polys.integer_roots(polys.resultant_shift(b)) if ell > 0)
    shifted, at, found = list(big), 0, []
    for ell in candidates:
        polys._taylor_shift(shifted, ell - at)
        at, g = ell, polys._gcd_int(shifted, big)
        if len(g) > 1:
            found.append((ell, polys._new(g, g[-1])))
    return ShiftSetResult(tuple(ell for ell, _ in found), tuple(g for _, g in found))


def dispersion(b: Poly) -> int:
    """The largest element of the shift set, or 0 when it is empty."""
    if b.is_zero or b.is_constant:
        raise DomainError("dispersion requires a non-constant polynomial")
    shifts = shift_set(b).shifts
    return shifts[-1] if shifts else 0
