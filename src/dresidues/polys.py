"""Exact dense univariate polynomial arithmetic over the rationals.

A `Poly` is integers over one common denominator: ``_c`` is a tuple of ints
(c_0, ..., c_n) in ascending degree order with no trailing zero, ``_d`` is an
int > 0, and the polynomial is (c_0 + c_1 x + ... + c_n x^n) / d.  The
invariant gcd(d, c_0, ..., c_n) = 1 makes the pair canonical, so equality and
hashing compare it as it is (the content / primitive-part form of von zur
Gathen & Gerhard, *Modern Computer Algebra*, §6.2).  The zero polynomial is
((), 1) and its degree is the sentinel ``None``, never an integer that
arithmetic could silently consume.

Every kernel runs on Python ints and normalises its result once, in `_new`,
where a tuple of `Fraction`s pays a gcd on every coefficient operation.
Division is fraction-free, and it scales the remainder (by lc / gcd(top, lc))
only at a step where the divisor's leading integer lc does not divide the
top coefficient: dividing by an integer-monic divisor, the common case, never
scales, and no case grows like the pseudo-remainder's lc^(deg a - deg b + 1).
At the API coefficients are exact rationals (``.coeffs``, ``.lc`` and
``.coeff(k)`` are `Fraction` views); there is no floating point anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, FactorLimitError, InexactDivisionError

Rat = Fraction

_COEF_TYPES = (int, Fraction)
_TRIAL_LIMIT = 10**6  # the trial-division limit of factor_int


def _as_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


class Poly:
    """A univariate polynomial with exact rational coefficients.

    >>> Poly([1, 0, 1])
    Poly('x^2 + 1')
    >>> Poly([Fraction(1, 2), 1]) * 2
    Poly('2*x + 1')
    """

    __slots__ = ("_c", "_d")

    _c: tuple[int, ...]
    _d: int

    def __new__(cls, coeffs: Iterable = ()):
        rats = [_as_rat(c) for c in coeffs]
        d = math.lcm(*(r.denominator for r in rats))
        return _new([r.numerator * (d // r.denominator) for r in rats], d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as exact rationals, in ascending degree order."""
        d = self._d
        return tuple(Fraction(c, d) for c in self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._c) - 1 if self._c else None

    @property
    def lc(self) -> Fraction:
        """Leading coefficient."""
        if not self._c:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self._c[-1], self._d)

    @property
    def is_constant(self) -> bool:
        return len(self._c) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == self._d

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        return Fraction(self._c[k], self._d) if 0 <= k < len(self._c) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    # Operands are tested against Poly first: an isinstance test against
    # Fraction goes through the numbers ABCs and is slow when it fails.

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, _COEF_TYPES):
                return NotImplemented
            other = Poly([other])
        return self._c == other._c and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._c, self._d))

    def __neg__(self) -> Poly:
        return _new([-c for c in self._c], self._d)

    def _add(self, other, sign: int) -> Poly:
        """self + sign * other, over the lcm of the two denominators."""
        if not isinstance(other, Poly):
            if not isinstance(other, _COEF_TYPES):
                return NotImplemented
            other = Poly([other])
        a, b, d = list(self._c), other._c, self._d
        if d != other._d:
            g = math.gcd(d, other._d)
            ma, mb = other._d // g, d // g
            a, b, d = [c * ma for c in a], [c * mb for c in b], d * ma
        if sign < 0:
            b = [-c for c in b]
        a.extend([0] * (len(b) - len(a)))
        for i, c in enumerate(b):
            a[i] += c
        return _new(a, d)

    def __add__(self, other) -> Poly:
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self._add(other, -1)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return _new([c * other for c in self._c], self._d)
            if isinstance(other, Fraction):
                u = other.numerator
                return _new([c * u for c in self._c], self._d * other.denominator)
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b, i):
                    out[k] += ca * cb
        return _new(out, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- division ----------------------------------------------------------

    def divrem(self, other: Poly) -> tuple[Poly, Poly]:
        """Euclidean division: self = q * other + r with r = 0 or deg r < deg other.

        Fraction-free on the integer parts A of self and B of other: it finds
        Q, R and s > 0 with s*A = Q*B + R, scaling only at the steps where
        lc(B) does not divide the top coefficient (see the module docstring).
        """
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        if len(self._c) < len(other._c):
            return ZERO, self
        b = other._c
        db = len(b) - 1
        low, lc = b[:-1], b[-1]
        r = list(self._c)
        q = [0] * (len(r) - db)
        s = 1
        for i in range(len(r) - 1, db - 1, -1):
            top = r[i]
            if not top:
                continue
            if top % lc:
                m = abs(lc) // math.gcd(top, lc)
                s *= m
                top *= m
                r[:i] = [c * m for c in r[:i]]
                q[i - db + 1 :] = [c * m for c in q[i - db + 1 :]]
            c = top // lc
            q[i - db] = c
            for k, bc in enumerate(low, i - db):
                r[k] -= c * bc
        den = s * self._d
        return _new([c * other._d for c in q], den), _new(r[:db], den)

    def __floordiv__(self, other: Poly) -> Poly:
        return self.divrem(other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return self.divrem(other)[1]

    def exact_div(self, other: Poly) -> Poly:
        """Division known to be exact; a nonzero remainder is an internal error."""
        q, r = self.divrem(other)
        if not r.is_zero:
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return q

    def monic(self) -> Poly:
        if self.is_zero:
            raise DomainError("cannot normalize the zero polynomial")
        if self.is_monic:
            return self
        return _new(list(self._c), self._c[-1])

    # -- calculus-flavoured operations --------------------------------------

    def derivative(self) -> Poly:
        return _new([k * c for k, c in enumerate(self._c[1:], 1)], self._d)

    def shift(self, c) -> Poly:
        """The composition p(x + c).  With c = u/v and p = P/d for an integer
        P of degree n, Q(y) = v^n P(y/v) has integer coefficients and
        Q(vx + u) = v^n P(x + c), so only Q is shifted, by the integer u."""
        c = _as_rat(c)
        if c == 0 or self.is_zero:
            return self
        n = len(self._c) - 1
        u, v = c.numerator, c.denominator
        cs = [a * v ** (n - k) for k, a in enumerate(self._c)]
        _taylor_shift(cs, u)
        return _new([a * v**k for k, a in enumerate(cs)], self._d * v**n)

    def __call__(self, point) -> Fraction:
        """The value at a rational point u/v: Horner on the homogenised
        integer form, sum c_k u^k v^(n-k), over d v^n."""
        point = _as_rat(point)
        if self.is_zero:
            return Fraction(0)
        u, v = point.numerator, point.denominator
        acc, vk = 0, 1
        for c in reversed(self._c):
            acc = acc * u + c * vk
            vk *= v
        return Fraction(acc, self._d * (vk // v))

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r})"


def _new(cs: list[int], d: int) -> Poly:
    """The canonical Poly (cs[0] + cs[1] x + ...) / d, for ints cs (the list
    is consumed) and an int d != 0.  `math.gcd` with many arguments stops
    computing once the gcd reaches 1, so an integer polynomial (d = 1) costs
    no gcd at all."""
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        d = 1
    elif d < 0:
        d, cs = -d, [-c for c in cs]
    g = math.gcd(d, *cs)
    if g != 1:
        d //= g
        cs = [c // g for c in cs]
    p = object.__new__(Poly)
    _set_c(p, tuple(cs))
    _set_d(p, d)
    return p


# The slot setters, which bypass Poly.__setattr__.
_set_c = Poly._c.__set__
_set_d = Poly._d.__set__


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def poly_str(p: Poly, var: str = "x") -> str:
    """Render a polynomial in the expression syntax the CLI parser accepts."""
    if p.is_zero:
        return "0"
    coeffs = p.coeffs
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


# -- gcd family ---------------------------------------------------------------


def _int_primitive(cs: list[int]) -> list[int]:
    """cs over its content, with a positive leading coefficient (cs itself
    when it already is)."""
    if not cs:
        return cs
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _to_int_primitive(p: Poly) -> list[int]:
    """Primitive integer coefficient list with positive leading coefficient:
    the integer part of p without its content."""
    return _int_primitive(list(p._c))


def _taylor_shift(cs: list, c) -> None:
    """p(x) -> p(x + c) on the coefficient list in place, by repeated synthetic division."""
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over Z or Q[z]."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= top * bc
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        scale = lead**e
        r = [c * scale for c in r]
    return r


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by primitive PRS over the integers.

    >>> gcd(Poly([-1, 0, 1]), Poly([1, -2, 1]))
    Poly('x - 1')
    """
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    aa, bb = _to_int_primitive(a), _to_int_primitive(b)
    if len(aa) < len(bb):
        aa, bb = bb, aa
    # Primitive PRS: on the gcd calls of the perfbench workloads the subresultant
    # PRS gave the same gcds ~10% slower, and lazy scaling (as in divrem) was no faster.
    while bb:
        rr = _int_primitive(_int_prem(aa, bb))
        aa, bb = bb, rr
    return _new(aa, aa[-1])


def lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        raise DomainError("lcm with the zero polynomial")
    return (a * b).exact_div(gcd(a, b)).monic()


def lcm_all(ps: Iterable[Poly]) -> Poly:
    acc = ONE
    for p in ps:
        acc = lcm(acc, p)
    return acc


def _gcd_cofactor(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Monic g = gcd(a, b) and s with s*a = g mod b: the extended Euclid loop
    carrying only the cofactor of a."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    while not r1.is_zero:
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    scale = 1 / r0.lc
    return r0 * scale, s0 * scale


def ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g = gcd(a, b) together with s, t such that s*a + t*b = g.

    When a, b are nonzero and g != b, the cofactor satisfies
    deg s < deg b - deg g (the classical extended-Euclid degree bound).
    """
    if a.is_zero and b.is_zero:
        raise DomainError("ext_gcd(0, 0) is undefined")
    g, s = _gcd_cofactor(a, b)
    return g, s, ZERO if b.is_zero else (g - s * a).exact_div(b)


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m; requires gcd(a, m) = 1."""
    g, s = _gcd_cofactor(a % m, m)
    if g != ONE:
        raise DomainError(f"{a} is not invertible modulo {m}")
    return s % m


def is_squarefree(p: Poly) -> bool:
    """b is squarefree when gcd(b, db/dx) = 1 (constants count as squarefree)."""
    if p.is_zero:
        return False
    if p.is_constant:
        return True
    return gcd(p, p.derivative()).is_constant


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """p = unit * prod(factor^multiplicity), factors monic squarefree and
    pairwise coprime, multiplicities strictly increasing."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        acc = Poly([self.unit])
        for q, m in self.factors:
            acc = acc * q**m
        return acc

    def max_multiplicity(self) -> int:
        return max((m for _, m in self.factors), default=0)


def squarefree_decomposition(p: Poly) -> SquarefreeDecomposition:
    """Yun's algorithm.

    >>> squarefree_decomposition(Poly([1, -2, 1])).factors
    ((Poly('x - 1'), 2),)
    """
    if p.is_zero:
        raise DomainError("squarefree decomposition of the zero polynomial")
    unit = p.lc
    if p.is_constant:
        return SquarefreeDecomposition(unit, ())
    p = p.monic()
    dp = p.derivative()
    u = gcd(p, dp)
    v, w = p.exact_div(u), dp.exact_div(u)
    factors: list[tuple[Poly, int]] = []
    i = 1
    while not v.is_constant:
        dv = v.derivative()
        q = gcd(v, w - dv)
        if not q.is_constant:
            factors.append((q, i))
        v = v.exact_div(q)
        w = (w - dv).exact_div(q)
        i += 1
    return SquarefreeDecomposition(unit, tuple(factors))


# -- resultants ----------------------------------------------------------------


def _subresultant(a: list, b: list):
    """Res_x of two nonzero polynomials with coefficients in Z or in Q[z]
    (lists of ints or of `Poly` in z) by the subresultant PRS."""
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        a, b = b, a
    g = h = one = a[-1] ** 0  # int ** 0 is 1 and Poly ** 0 is ONE
    while len(b) - 1 > 0:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = _int_prem(a, b)
        if not r:
            return one * 0
        a = b
        factor = g * h**delta
        b = [c // factor for c in r]  # exact, in Z and in Q[z]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
    # b is now a nonzero constant
    da = len(a) - 1
    if da == 0:
        return one * sign
    return sign * b[0] ** da // h ** (da - 1)


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res_x(a, b), exactly.

    >>> resultant(Poly([0, 1]), Poly([1, 1]))
    Fraction(1, 1)
    """
    if a.is_zero or b.is_zero:
        return Fraction(0)
    ai = _to_int_primitive(a)
    bi = _to_int_primitive(b)
    # a = sa * A, b = sb * B with A, B primitive:
    # Res(a, b) = sa^deg(b) * sb^deg(a) * Res(A, B).
    sa = a.lc / ai[-1]
    sb = b.lc / bi[-1]
    return sa**b.degree * sb**a.degree * _subresultant(ai, bi)


def _shift_values(big: list[int], count: int) -> list[int]:
    """Res_x(B(x), B(x+l)) for l = 0..count-1, for an integer coefficient
    list B: one subresultant per value, stepping B(x+l) by a Taylor shift."""
    shifted = list(big)
    values = []
    for _ in range(count):
        values.append(_subresultant(big, shifted))
        _taylor_shift(shifted, 1)
    return values


def _interpolate_shift_values(values: list[int]) -> Poly:
    """The integer polynomial of degree < len(values) through (l, values[l]),
    where the values are Res_x(B(x), B(x+l)) for an integer B of degree n
    and l = 0..n^2.

    The divided differences of R_B(z) = Res_x(B(x), B(x+z)) over consecutive
    integer nodes, Delta^k R_B(a) / k!, are the coefficients of R_B(z+a) in
    the falling-factorial basis z(z-1)...(z-k+1); each z^m is an integer
    (Stirling) combination of that basis, so k! divides Delta^k R_B(a) and
    every division below is exact."""
    coef = list(values)
    top = len(coef) - 1
    for k in range(1, top + 1):
        for i in range(top, k - 1, -1):
            coef[i], rem = divmod(coef[i] - coef[i - 1], k)
            if rem:
                raise InexactDivisionError("divided difference of Res_x(B(x), B(x+z)) not integral")
    # Newton form to monomials: R = c_0 + z*(c_1 + (z-1)*(c_2 + ...)).
    out = [coef.pop()]
    for k in range(top - 1, -1, -1):
        out = [coef[k] - k * out[0]] + [out[i - 1] - k * out[i] for i in range(1, len(out))] + [out[-1]]
    return _new(out, 1)


def resultant_shift(b: Poly) -> Poly:
    """R(z) = Res_x(b(x), b(x+z)) by evaluation at z = 0..deg(b)^2 followed by
    exact interpolation, all on integers.

    For b = s*B with B primitive, R = s^(2n) * R_B with R_B = Res_x(B(x), B(x+z))
    in Z[z].  The leading x-coefficient of B(x+z) does not depend on z, so every
    integer evaluation point is good."""
    if b.is_zero or b.degree < 2:
        raise DomainError("resultant_shift requires degree >= 2")
    n = b.degree
    big = _to_int_primitive(b)
    return _interpolate_shift_values(_shift_values(big, n * n + 1)) * (b.lc / big[-1]) ** (2 * n)


# -- integer factorization and root finding ------------------------------------


def factor_int(n: int, upto: int | None = None) -> dict[int, int]:
    """Prime factorization of n > 0 by trial division up to _TRIAL_LIMIT.

    A leftover cofactor is accepted as prime only when it is at most
    _TRIAL_LIMIT^2; otherwise FactorLimitError is raised (the honest
    scalability boundary of this method).  With upto <= _TRIAL_LIMIT only
    the exponents of the primes p <= upto are sought, and nothing raises."""
    if n <= 0:
        raise DomainError("factor_int requires a positive integer")
    partial = upto is not None and upto <= _TRIAL_LIMIT
    limit = upto if partial else _TRIAL_LIMIT
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p <= limit:
        for q in (p, p + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        if p * p > n or n <= _TRIAL_LIMIT * _TRIAL_LIMIT:
            factors[n] = factors.get(n, 0) + 1
        elif not partial:
            raise FactorLimitError(f"cannot certify a factorization of {n} with trial division up to {_TRIAL_LIMIT}")
    return {q: e for q, e in factors.items() if q <= upto} if partial else factors


def divisors_upto(factorization: dict[int, int], limit: int) -> list[int]:
    """All positive divisors that are <= limit, in increasing order, of the
    integer with prime factorization {p: e} (as from `factor_int`)."""
    divisors = [1] if limit >= 1 else []
    for p, e in factorization.items():
        layer = divisors
        for _ in range(e):
            layer = [d * p for d in layer if d <= limit // p]
            divisors = divisors + layer
    return sorted(divisors)


def _horner(cs: Sequence[int], point: int) -> int:
    """The integer polynomial with ascending coefficients cs, at point."""
    acc = 0
    for c in reversed(cs):
        acc = acc * point + c
    return acc


def _cauchy_bound(cs: Sequence[int]) -> int:
    """The least integer r > 0 with |c_n| r^n > sum_(k<n) |c_k| r^k.  It exceeds
    Cauchy's radius (the positive root of |c_n| x^n - sum |c_k| x^k), so every
    (real or complex) root has absolute value below it.  The condition holds
    from that radius on, so r is bracketed by doubling from 1 and then found
    by bisection.  Unlike Cauchy's 1 + max |c_k / c_n| it stays small when
    large coefficients come from many small roots."""
    signed = [-abs(c) for c in cs[:-1]] + [abs(cs[-1])]
    hi = 1
    while _horner(signed, hi) <= 0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _horner(signed, mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def integer_roots(p: Poly) -> set[int]:
    """The exact set of integer roots of a nonzero polynomial.

    Candidates are the signed divisors of the trailing coefficient of the
    primitive integer form below its `_cauchy_bound`, so only the primes up
    to that bound are sought; each is verified by exact evaluation."""
    if p.is_zero:
        raise DomainError("the zero polynomial has every integer as a root")
    cs = _to_int_primitive(p)
    roots: set[int] = set()
    low = 0
    while cs[low] == 0:
        low += 1
    if low > 0:
        roots.add(0)
        cs = cs[low:]
    if len(cs) == 1:
        return roots
    limit = _cauchy_bound(cs)
    for d in divisors_upto(factor_int(abs(cs[0]), limit), limit):
        roots.update(r for r in (d, -d) if not _horner(cs, r))
    return roots
