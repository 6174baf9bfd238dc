"""Exact dense univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout: every operation is exact,
there is no floating point anywhere.  A polynomial is a dense tuple of
coefficients in ascending degree order with no trailing zeros; the zero
polynomial is the empty tuple and its degree is the sentinel ``None``,
never an integer that arithmetic could silently consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, FactorLimitError, InexactDivisionError

Rat = Fraction

_COEF_TYPES = (int, Fraction)


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

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def lc(self) -> Fraction:
        """Leading coefficient."""
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _COEF_TYPES):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> Poly:
        if isinstance(other, _COEF_TYPES):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        if isinstance(other, _COEF_TYPES):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Poly:
        return (-self) + other

    def __mul__(self, other) -> Poly:
        if isinstance(other, _COEF_TYPES):
            s = _as_rat(other)
            return Poly([c * s for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise DomainError("negative power of a polynomial")
        result = Poly([1])
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
        """Euclidean division: self = q * other + r with r = 0 or deg r < deg other."""
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return Poly(), self
        r = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        inv_lc = 1 / b[-1]
        q = [Fraction(0)] * (len(r) - db)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                c *= inv_lc
                q[i - db] = c
                for j in range(db + 1):
                    r[i - db + j] -= c * b[j]
        return Poly(q), Poly(r[:db])

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
        return self * (1 / self.lc)

    # -- calculus-flavoured operations --------------------------------------

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> Poly:
        """The composition p(x + c).  With c = u/v and D the common denominator,
        Q(y) = v^n D p(y/v) has integer coefficients and Q(vx + u) = v^n D p(x + c),
        so only Q is shifted, by the integer u."""
        c = _as_rat(c)
        if c == 0 or self.is_zero:
            return self
        n = len(self.coeffs) - 1
        u, v = c.numerator, c.denominator
        den = math.lcm(*(a.denominator for a in self.coeffs))
        cs = [a.numerator * (den // a.denominator) * v ** (n - k) for k, a in enumerate(self.coeffs)]
        _taylor_shift(cs, u)
        return Poly([Fraction(q, den * v ** (n - k)) for k, q in enumerate(cs)])

    def __call__(self, point) -> Fraction:
        point = _as_rat(point)
        acc = Fraction(0)
        for coef in reversed(self.coeffs):
            acc = acc * point + coef
        return acc

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({poly_str(self)!r})"


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def poly_str(p: Poly, var: str = "x") -> str:
    """Render a polynomial in the expression syntax the CLI parser accepts."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
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


def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _int_primitive(cs: list[int]) -> list[int]:
    if not cs:
        return cs
    g = _int_content(cs)
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _to_int_primitive(p: Poly) -> list[int]:
    """Primitive integer coefficient list with positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _int_primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _taylor_shift(cs: list, c) -> None:
    """p(x) -> p(x + c) on the coefficient list in place, by repeated synthetic division."""
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over the integers."""
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
    while bb:
        rr = _int_primitive(_int_prem(aa, bb))
        aa, bb = bb, rr
    return Poly(aa).monic()


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


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Resultant of two nonzero integer polynomials by the subresultant PRS."""
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        a, b = b, a
    g = h = 1
    while len(b) - 1 > 0:
        delta = len(a) - len(b)
        if (len(a) - 1) % 2 and (len(b) - 1) % 2:
            sign = -sign
        r = _int_prem(a, b)
        if not r:
            return 0
        a = b
        factor = g * h**delta
        b = [c // factor for c in r]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g**delta // h ** (delta - 1)
    # b is now a nonzero constant
    da = len(a) - 1
    if da == 0:
        return sign
    return sign * b[0] ** da // h ** (da - 1)


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res_x(a, b), exactly.

    >>> resultant(Poly([0, 1]), Poly([1, 1]))
    Fraction(1, 1)
    """
    if a.is_zero or b.is_zero:
        return Fraction(0)
    if a.is_constant and b.is_constant:
        return Fraction(1)
    if a.is_constant:
        return a.coeffs[0] ** b.degree
    if b.is_constant:
        return b.coeffs[0] ** a.degree
    ai = _to_int_primitive(a)
    bi = _to_int_primitive(b)
    # a = sa * A, b = sb * B with A, B primitive:
    # Res(a, b) = sa^deg(b) * sb^deg(a) * Res(A, B).
    sa = a.lc / ai[-1]
    sb = b.lc / bi[-1]
    return sa**b.degree * sb**a.degree * _int_resultant(ai, bi)


def interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """The unique polynomial of degree < len(points) through the given points
    (Newton divided differences, exact)."""
    xs = [_as_rat(x) for x, _ in points]
    coef = [_as_rat(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    result = Poly()
    for i in range(n - 1, -1, -1):
        result = result * Poly([-xs[i], 1]) + coef[i]
    return result


def resultant_shift(b: Poly) -> Poly:
    """R(z) = Res_x(b(x), b(x+z)) by evaluation at z = 0..deg(b)^2 followed by
    exact interpolation, all on integers.

    For b = s*B with B primitive, R = s^(2n) * R_B with R_B = Res_x(B(x), B(x+z))
    in Z[z].  The leading x-coefficient of B(x+z) does not depend on z, so every
    integer evaluation point is good.  The divided differences of R_B over
    consecutive integer nodes, Delta^k R_B(a) / k!, are the coefficients of
    R_B(z+a) in the falling-factorial basis z(z-1)...(z-k+1); each z^m is an
    integer (Stirling) combination of that basis, so k! divides Delta^k R_B(a)
    and every division below is exact."""
    if b.is_zero or b.degree < 2:
        raise DomainError("resultant_shift requires degree >= 2")
    n = b.degree
    big = _to_int_primitive(b)
    shifted = list(big)
    coef = []
    for _ in range(n * n + 1):
        coef.append(_int_resultant(big, shifted))
        _taylor_shift(shifted, 1)
    for k in range(1, n * n + 1):
        for i in range(n * n, k - 1, -1):
            coef[i], rem = divmod(coef[i] - coef[i - 1], k)
            if rem:
                raise InexactDivisionError(f"divided difference of Res_x(B(x), B(x+z)) not integral: {b}")
    # Newton form to monomials: R = c_0 + z*(c_1 + (z-1)*(c_2 + ...)).
    out = [coef.pop()]
    for k in range(n * n - 1, -1, -1):
        out = [coef[k] - k * out[0]] + [out[i - 1] - k * out[i] for i in range(1, len(out))] + [out[-1]]
    scale = (b.lc / big[-1]) ** (2 * n)
    return Poly([c * scale for c in out])


# A polynomial in K[z][x] is a list of Poly (in z) indexed by the power of x.


def _zx_trim(f: list[Poly]) -> list[Poly]:
    while f and f[-1].is_zero:
        f.pop()
    return f


def _zx_prem(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Pseudo-remainder in K[z][x], mirroring the integer version."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lead * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - top * bc
        _zx_trim(r)
        e -= 1
    if e > 0:
        scale = lead**e
        r = [c * scale for c in r]
    return r


def resultant_shift_prs(b: Poly) -> Poly:
    """R(z) = Res_x(b(x), b(x+z)) by a direct subresultant PRS over K[z].

    Kept as an independent oracle for `resultant_shift`."""
    if b.is_zero or b.degree < 2:
        raise DomainError("resultant_shift requires degree >= 2")
    fa: list[Poly] = [Poly([c]) for c in b.coeffs]
    # b(x+z) = sum_k b_k (x+z)^k; the x^i coefficient is sum_k b_k C(k,i) z^(k-i).
    n = b.degree
    fb: list[Poly] = []
    for i in range(n + 1):
        fb.append(Poly([b.coeffs[k] * math.comb(k, i) for k in range(i, n + 1)]))
    sign = 1
    a_, b_ = fa, fb
    g = h = ONE
    while len(b_) - 1 > 0:
        delta = len(a_) - len(b_)
        if (len(a_) - 1) % 2 and (len(b_) - 1) % 2:
            sign = -sign
        r = _zx_prem(a_, b_)
        if not r:
            return ZERO
        a_ = b_
        factor = g * h**delta
        b_ = [c.exact_div(factor) for c in r]
        g = a_[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = (g**delta).exact_div(h ** (delta - 1))
    da = len(a_) - 1
    if da == 0:
        return ONE * sign
    return (b_[0] ** da).exact_div(h ** (da - 1)) * sign


# -- integer factorization and root finding ------------------------------------


def factor_int(n: int, bound: int = 10**6) -> dict[int, int]:
    """Prime factorization of n > 0 by trial division.

    Primes up to `bound` are found directly; a leftover cofactor is accepted
    as prime only when it is at most bound^2, otherwise FactorLimitError is
    raised (the honest scalability boundary of this method)."""
    if n <= 0:
        raise DomainError("factor_int requires a positive integer")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p <= bound:
        for q in (p, p + 2):
            while n % q == 0:
                factors[q] = factors.get(q, 0) + 1
                n //= q
        p += 6
    if n > 1:
        if p * p > n or n <= bound * bound:
            factors[n] = factors.get(n, 0) + 1
        else:
            raise FactorLimitError(f"cannot certify a factorization of {n} with trial division up to {bound}")
    return factors


def divisors_upto(factorization: dict[int, int], limit: int) -> list[int]:
    """All positive divisors that are <= limit, in increasing order, of the
    integer with prime factorization {p: e} (as from `factor_int`)."""
    if limit < 1:
        return []
    factors = sorted(factorization.items())
    out: list[int] = []

    def rec(i: int, acc: int) -> None:
        if i == len(factors):
            out.append(acc)
            return
        p, e = factors[i]
        for _ in range(e + 1):
            rec(i + 1, acc)
            if acc > limit // p:
                break
            acc *= p

    rec(0, 1)
    return sorted(set(out))


def _cauchy_root_bound(cs: Sequence[int]) -> int:
    """Every (real or complex) root has absolute value below this integer."""
    lead = abs(cs[-1])
    top = max(abs(c) for c in cs[:-1]) if len(cs) > 1 else 0
    return 1 + (top + lead - 1) // lead


_FILTER_PRIME = (1 << 61) - 1


def _is_int_root(cs: Sequence[int], cs_mod: Sequence[int], point: int) -> bool:
    """Does the integer polynomial with coefficients cs vanish at point?
    Mod-p Horner first (machine-sized), exact Horner only on survivors."""
    acc = 0
    for c in reversed(cs_mod):
        acc = (acc * point + c) % _FILTER_PRIME
    if acc:
        return False
    acc = 0
    for c in reversed(cs):
        acc = acc * point + c
    return acc == 0


def integer_roots(p: Poly, bound: int = 10**6) -> set[int]:
    """The exact set of integer roots of a nonzero polynomial.

    Candidates are the signed divisors of the trailing coefficient of the
    primitive integer form, pruned by the Cauchy root bound, each verified by
    exact evaluation."""
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
    limit = _cauchy_root_bound(cs)
    cs_mod = [c % _FILTER_PRIME for c in cs]
    for d in divisors_upto(factor_int(abs(cs[0]), bound), limit):
        for cand in (d, -d):
            if _is_int_root(cs, cs_mod, cand):
                roots.add(cand)
    return roots
