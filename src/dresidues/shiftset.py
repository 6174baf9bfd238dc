"""Integer-shift structure of denominators: shift sets and dispersion.

The shift set of b collects the positive integers l for which b(x) and
b(x+l) share a root; it is read off the resultant R(z) = Res_x(b(x), b(x+z))
without factoring b.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys
from .errors import DomainError, InternalError
from .polys import Poly, X


@dataclass(frozen=True)
class ShiftSetResult:
    """Shift set plus the intermediate polynomials kept for diagnostics.

    `resultant` is R(z); `core` is R with the z-factor and repeated factors
    removed; `descended` is the T with T(z^2) = core(z).  All three are None
    on the trivial degree <= 1 branch.
    """

    shifts: tuple[int, ...]
    resultant: Poly | None = None
    core: Poly | None = None
    descended: Poly | None = None

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
    core = r.exact_div(X * polys.gcd(r, r.derivative()))
    if any(core.coeff(k) != 0 for k in range(1, len(core.coeffs), 2)):
        raise InternalError("squarefree shift resultant is not even")
    if core.coeff(0) == 0:
        raise InternalError("z still divides the squarefree shift resultant")
    descended = Poly(core.coeffs[::2])
    # A positive root l of descended(z^2) has l^2 dividing the constant term
    # of the primitive integer form (rational root theorem on squares), that
    # is, l divides its square part s = prod p^(e // 2); and l, a difference of
    # two roots of b, and its primes are at most twice the root bound of b.
    prim = polys._to_int_primitive(descended)
    prim_mod = [c % polys._FILTER_PRIME for c in prim]
    diff_limit = 2 * polys._root_bound(polys._to_int_primitive(b))
    square_part = {p: e // 2 for p, e in polys.factor_int(abs(prim[0]), diff_limit).items()}
    shifts = []
    for ell in polys.divisors_upto(square_part, diff_limit):
        if polys._is_int_root(prim, prim_mod, ell * ell):
            shifts.append(ell)
    return ShiftSetResult(tuple(sorted(shifts)), r, core, descended)


def dispersion(b: Poly) -> int:
    """The largest element of the shift set, or 0 when it is empty."""
    if b.is_zero or b.is_constant:
        raise DomainError("dispersion requires a non-constant polynomial")
    shifts = shift_set(b).shifts
    return shifts[-1] if shifts else 0
