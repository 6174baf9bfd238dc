"""Reduced rational functions over Q(x), the shift/difference operators, and
partial fractions over pre-factored squarefree denominators.

Every RatFun is kept in canonical form at every API boundary: numerator and
denominator coprime, denominator monic and nonzero, zero represented as 0/1.

`_over_product` sums n/d over monic, pairwise coprime d, which it requires,
with no gcd: the cross-multiplied sum is in lowest terms whenever each n/d
is, since a prime factor of the product of the d divides exactly one d.
"""

from __future__ import annotations

from fractions import Fraction

from . import polys
from .errors import DomainError
from .polys import ONE, ZERO, Poly

_SCALARS = (int, Fraction)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, _SCALARS):
        return Poly([value])
    raise TypeError(f"cannot use {value!r} as a polynomial")


class RatFun:
    """A rational function num/den with monic denominator and gcd(num, den) = 1.

    >>> RatFun(Poly([2, 2]), Poly([0, 2, 2]))
    RatFun('(1)/(x)')
    """

    __slots__ = ("num", "den")

    num: Poly
    den: Poly

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise DomainError("zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            # A constant numerator or denominator is coprime to the other.
            if not (num.is_constant or den.is_constant):
                g = polys.gcd(num, den)
                if not g.is_constant:
                    num, den = num.exact_div(g), den.exact_div(g)
            if not den.is_monic:
                scale = 1 / den.lc
                num, den = num * scale, den * scale
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def from_lowest_terms(cls, num: Poly, den: Poly) -> RatFun:
        """num/den without a gcd, for callers that know gcd(num, den) = 1 and
        den monic by construction (den = 1 when num = 0)."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_proper(self) -> bool:
        """Zero, or numerator degree strictly below denominator degree."""
        return self.num.is_zero or self.num.degree < self.den.degree

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def __eq__(self, other) -> bool:
        if isinstance(other, (Poly,) + _SCALARS):
            other = RatFun(_as_poly(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- field arithmetic ------------------------------------------------------

    def __neg__(self) -> RatFun:
        return RatFun.from_lowest_terms(-self.num, self.den)

    def __add__(self, other) -> RatFun:
        if isinstance(other, (Poly,) + _SCALARS):
            other = RatFun(_as_poly(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> RatFun:
        return self + (-other if isinstance(other, RatFun) else -RatFun(_as_poly(other)))

    def __rsub__(self, other) -> RatFun:
        return (-self) + other

    def __mul__(self, other) -> RatFun:
        if isinstance(other, _SCALARS):
            return RatFun(self.num * other, self.den)
        if isinstance(other, Poly):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFun:
        if isinstance(other, (Poly,) + _SCALARS):
            other = RatFun(_as_poly(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.is_zero:
            raise DomainError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> RatFun:
        if n < 0:
            if self.is_zero:
                raise DomainError("negative power of zero")
            return RatFun(self.den, self.num) ** (-n)
        # Powers of coprime polynomials are coprime, and a power of a monic
        # polynomial is monic: the result is already in lowest terms.
        return RatFun.from_lowest_terms(self.num**n, self.den**n)

    # -- operators from the difference-field structure ---------------------------

    def shift(self, c) -> RatFun:
        """The substitution x -> x + c; it keeps lowest terms and a monic den."""
        return RatFun.from_lowest_terms(self.num.shift(c), self.den.shift(c))

    def sigma(self, steps: int = 1) -> RatFun:
        """The shift automorphism f(x) -> f(x + steps)."""
        return self.shift(steps)

    def delta(self) -> RatFun:
        """The difference f(x+1) - f(x)."""
        return self.sigma() - self

    def derivative(self) -> RatFun:
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def proper_part(self) -> tuple[Poly, RatFun]:
        """Split f = p + fp with p a polynomial and fp proper; fp keeps the
        denominator of f, to which num mod den stays coprime (no gcd)."""
        q, r = self.num.divrem(self.den)
        return q, RF_ZERO if r.is_zero else RatFun.from_lowest_terms(r, self.den)

    # -- presentation -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_polynomial:
            return polys.poly_str(self.num)
        return f"({polys.poly_str(self.num)})/({polys.poly_str(self.den)})"

    def __repr__(self) -> str:
        return f"RatFun({str(self)!r})"


RF_ZERO = RatFun(ZERO)


def parfrac(f: RatFun, parts: list[Poly]) -> list[Poly]:
    """Partial fractions of a proper f over a pairwise coprime monic
    factorization of its squarefree denominator.

    Returns the unique numerators a_i with deg(a_i) < deg(b_i) and
    f = sum(a_i / b_i).  Entries equal to 1 are permitted and receive the
    numerator 0, so callers can keep a uniform index set.

    One inverse w = 1/D' mod D, which exists exactly when D is squarefree,
    serves every part b: D' = b' * (D/b) mod b, so a = num * w * b' mod b.
    Parts whose product is a squarefree D are pairwise coprime, since a
    common factor of two would divide D squared.
    """
    if not f.is_proper:
        raise DomainError("parfrac requires a proper rational function")
    try:
        w = polys.inverse_mod(f.den.derivative(), f.den)
    except DomainError:
        raise DomainError("parfrac requires a squarefree denominator") from None
    prod = ONE
    for b in parts:
        if b.is_zero or not b.is_monic:
            raise DomainError("parfrac parts must be monic")
        prod = prod * b
    if prod != f.den:
        raise DomainError("parfrac parts do not multiply to the denominator")
    nw = f.num * w
    return [(nw * b.derivative()) % b for b in parts]


def _over_product(terms: list[tuple[Poly, Poly]]) -> tuple[Poly, Poly]:
    """sum n/d over terms with pairwise coprime monic d, as a numerator over
    the product of the d of the nonzero terms ((0, 1) if there are none)."""
    terms = [(n, d) for n, d in terms if not n.is_zero]
    num, den = terms[0] if terms else (ZERO, ONE)
    for n, d in terms[1:]:
        num, den = num * d + n * den, den * d
    return num, den
