"""Exact dense univariate polynomial arithmetic over the rationals.

A `Poly` is integers over one common denominator: ``_c`` is a tuple of ints
(c_0, ..., c_n) in ascending degree order with no trailing zero, ``_d`` is an
int > 0, and the polynomial is (c_0 + c_1 x + ... + c_n x^n) / d.  The
invariant gcd(d, c_0, ..., c_n) = 1 makes the pair canonical, so equality and
hashing compare it as it is (the content / primitive-part form of von zur
Gathen & Gerhard, *Modern Computer Algebra*, §6.2).  The zero polynomial is
((), 1) and its degree is the sentinel ``None``, never an integer that
arithmetic could silently consume.

The arithmetic is one set of kernels on integer lists (`_mul_int`,
`_divrem_int`, `_lin_int`, `_pow_int`, `_taylor_shift` and `_norm`, one gcd per
result), where a tuple of `Fraction`s pays a gcd on every coefficient operation.
The Poly operators wrap them and build only the Poly they return (`%` builds no
quotient, and an int shift no Fraction); Yun's algorithm (`_yun`, on `_gcd_int`
and `_exact_int`) and the Hermite set-up and steps run them on primitive lists or
(list, denominator) pairs, and every modular inverse is one extended subresultant PRS.  Division is
fraction-free, and it scales the remainder (by lc / gcd(top, lc)) only at a
step where the divisor's leading integer lc does not divide the top
coefficient: an integer-monic divisor or an integral quotient never scales,
and no case grows like the pseudo-remainder's lc^(deg a - deg b + 1).
Every private kernel runs on integer lists.  One Newton kernel (`_newton`, then
`_from_falling` to monomials) interpolates `resultant_shift`, the norm of
`galois.exp_log_derivative` and `summability.poly_antidifference`.
Most gcds are coprimality questions: `_coprime` settles those by one integer
gcd of values at a power of 2 beyond a root bound (the coprime half of Char,
Geddes & Gonnet's heuristic gcd), ahead of the primitive PRS `_prs`; both run
under `_gcd_int` (`gcd`, `lcm`, Yun) and each candidate of `shiftset.shift_set`.
At the API coefficients are exact rationals (``.coeffs``, ``.lc`` and
``.coeff(k)`` are `Fraction` views); there is no floating point anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, FactorLimitError, InexactDivisionError

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
        d, e = self._d, other._d
        g = math.gcd(d, e)
        return _new(_lin_int(self._c, e // g, other._c, sign * d // g), d // g * e)

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
        return _new(_mul_int(self._c, other._c), self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise DomainError("negative power of a polynomial")
        return _new(_pow_int(self._c, n), self._d**n)

    # -- division ----------------------------------------------------------

    def _divide(self, other: Poly) -> tuple[list[int], Sequence[int], int]:
        """`_divrem_int`'s raw (q, r, s) for self = P/d and other = Q/e, so that
        self = (q*e/(s*d)) * other + r/(s*d); q = [] when self is the shorter."""
        if not other._c:
            raise DomainError("division by the zero polynomial")
        if len(self._c) < len(other._c):
            return [], self._c, 1
        return _divrem_int(self._c, other._c)

    def divrem(self, other: Poly) -> tuple[Poly, Poly]:
        """Euclidean division: self = q * other + r with r = 0 or deg r < deg
        other; `//`, `%` and `exact_div` build only the half they return."""
        q, r, s = self._divide(other)
        if not q:
            return ZERO, self
        den = s * self._d
        return _new([c * other._d for c in q], den), _new(r, den)

    def __floordiv__(self, other: Poly) -> Poly:
        q, _, s = self._divide(other)
        return _new([c * other._d for c in q], s * self._d) if q else ZERO

    def __mod__(self, other: Poly) -> Poly:
        q, r, s = self._divide(other)
        return _new(r, s * self._d) if q else self

    def exact_div(self, other: Poly) -> Poly:
        """Division known to be exact; a nonzero remainder is an internal error."""
        q, r, s = self._divide(other)
        if any(r):
            raise InexactDivisionError(f"inexact division: {self} by {other}")
        return _new([c * other._d for c in q], s * self._d)

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
        """The composition p(x + c) for p = P/d, P in Z[x] of degree n: an int c
        shifts a copy of P in place; for c = u/v, Q(y) = v^n P(y/v) is in Z[x] and
        Q(vx + u) = v^n P(x + c), so only Q is shifted, by the integer u."""
        if isinstance(c, int):
            if not c or not self._c:
                return self
            cs = list(self._c)
            _taylor_shift(cs, c)
            return _new(cs, self._d)
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


def _norm(cs: list[int], d: int) -> tuple[list[int], int]:
    """(cs[0] + cs[1] x + ...) / d in lowest terms, for ints cs (the list is
    consumed) and an int d != 0: no trailing zero, d > 0 and gcd(d, *cs) = 1.
    `math.gcd` with many arguments stops computing once the gcd reaches 1, so
    an integer polynomial (d = 1) costs no gcd at all."""
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        return cs, 1
    if d < 0:
        d, cs = -d, [-c for c in cs]
    g = math.gcd(d, *cs)
    if g != 1:
        d //= g
        cs = [c // g for c in cs]
    return cs, d


def _new(cs: list[int], d: int) -> Poly:
    """The canonical Poly (cs[0] + cs[1] x + ...) / d (see `_norm`)."""
    cs, d = _norm(cs, d)
    p = object.__new__(Poly)
    _set_c(p, tuple(cs))
    _set_d(p, d)
    return p


def _mul_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b, i):
                out[k] += ca * cb
    return out


def _lin_int(a: Sequence[int], ma: int, b: Sequence[int], mb: int) -> list[int]:
    """ma*a + mb*b for integer coefficient lists a, b and ints ma, mb."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = list(a) if ma == 1 else [c * ma for c in a]
    for i, c in enumerate(b):
        out[i] += c * mb
    return out


def _pow_int(a: Sequence[int], n: int) -> list[int]:
    """a^n for an integer list a, by binary powering."""
    out = [1]
    while n:
        if n & 1:
            out = _mul_int(out, a)
        n >>= 1
        if n:
            a = _mul_int(a, a)
    return out


def _divrem_int(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s*a = q*b + r, s > 0 and r (which may end in zeros)
    shorter than b, for integer lists a and b, b ending in a nonzero entry;
    lazily scaled (see the module docstring), so s = 1 if q is integral."""
    db = len(b) - 1
    r = list(a)
    if len(r) <= db:
        return [], r, 1
    low, lc = b[:-1], b[-1]
    q = [0] * (len(r) - db)
    s = 1
    for i in range(len(r) - 1, db - 1, -1):
        top = r[i]
        if not top:
            continue
        if top % lc:  # scaling every step, to retire `_int_prem`, made seed-1 perfbench passes 1.12-1.26x slower
            m = abs(lc) // math.gcd(top, lc)
            s *= m
            top *= m
            r[:i] = [c * m for c in r[:i]]
            q[i - db + 1 :] = [c * m for c in q[i - db + 1 :]]
        c = top // lc
        q[i - db] = c
        for k, bc in enumerate(low, i - db):
            r[k] -= c * bc
    del r[db:]
    return q, r, s


def _exact_int(a: Sequence[int], big: Sequence[int]) -> list[int]:
    """a/big for a primitive big that divides a over Q: by Gauss's lemma the
    quotient is integral, so `_divrem_int` never scales."""
    quo, r, m = _divrem_int(a, big)
    if m != 1 or any(r):
        raise InexactDivisionError("inexact division by a primitive factor")
    return quo


# The slot setters, which bypass Poly.__setattr__.
_set_c = Poly._c.__set__
_set_d = Poly._d.__set__


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def poly_str(p: Poly) -> str:
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
            xpow = "x" if i == 1 else f"x^{i}"
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


def _taylor_shift(cs: list[int], c: int) -> None:
    """p(x) -> p(x + c) on the coefficient list in place, by repeated synthetic division."""
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, on integer lists."""
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


def _coprime_point(b: Sequence[int]) -> tuple[int, int]:
    """(xi, xi - m) for `_coprime`: xi = 2^k, k = bitlen(m) + 32, where every root of
    the nonzero integer list b lies below m = 2 + max|b_i| // |lc b| (Cauchy's bound)."""
    m = 2 + max(map(abs, b)) // abs(b[-1])
    xi = 1 << (m.bit_length() + 32)
    return xi, xi - m


def _coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True only if the integer lists a and b (b nonzero) share no factor of
    positive degree: gcd(a(xi), b(xi)) < xi - m for (xi, xi - m) = `_coprime_point`(b).
    Proof: a common factor G in Z[x] has G(xi) | gcd(a(xi), b(xi)) by Gauss's lemma, and
    b(xi) != 0; G's roots are b's, so |G(xi)| >= (xi - m)^deg G.  False proves nothing."""
    xi, bound = _coprime_point(b)
    return math.gcd(_horner(a, xi), _horner(b, xi)) < bound


def _gcd_int(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd, with a positive leading coefficient, of primitive integer
    lists a and b, not both empty: [1] when `_coprime` certifies it (most calls),
    otherwise by `_prs`."""
    if len(a) < len(b):
        a, b = b, a
    if b and _coprime(a, b):
        return [1]
    return _prs(a, b)


def _prs(a: list[int], b: list[int]) -> list[int]:
    """The primitive PRS of primitive integer lists a and b, len(a) >= len(b): their primitive gcd."""
    # On the perfbench workloads' non-coprime pairs one subresultant PRS shared with `_subresultant` and
    # `_ext_subresultant` was 1.5-1.6x slower (ops/s 7-9% lower), and this PRS on `_divrem_int` 1.12x
    # slower on the 5,633 such pairs of a seed-1 pass (1.04-1.05x at degree 60).
    while b:
        a, b = b, _int_primitive(_int_prem(a, b))
    return a


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor, by `_gcd_int` on the primitive integer parts.

    >>> gcd(Poly([-1, 0, 1]), Poly([1, -2, 1]))
    Poly('x - 1')
    """
    if a.is_zero and b.is_zero:
        raise DomainError("gcd(0, 0) is undefined")
    g = _gcd_int(_to_int_primitive(a), _to_int_primitive(b))
    return ONE if len(g) == 1 else _new(g, g[-1])


def lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        raise DomainError("lcm with the zero polynomial")
    return (a * b.exact_div(gcd(a, b))).monic()


def lcm_all(ps: Iterable[Poly]) -> Poly:
    acc = ONE
    seen = {ONE}
    for p in ps:
        if p not in seen:
            seen.add(p)
            acc = lcm(acc, p)
    return acc


def _ext_subresultant(m: list[int], a: list[int]) -> tuple[list[int], list[int]]:
    """(r, u) with u*a = r mod m, for r the last nonzero remainder of the
    subresultant PRS of integer lists m and a, len(a) < len(m) (u = [] if a = []).
    a's cofactor u follows the remainders' recurrence (Collins 1967); both are
    subresultants or their cofactors up to sign, so each division by beta = g h^delta,
    and h's update, is exact, and a remainder raises InexactDivisionError."""
    u0, u1 = [], [1]
    g = h = 1
    while a:
        delta = len(m) - len(a)
        q, r, s = _divrem_int(m, a)
        while r and not r[-1]:
            r.pop()
        if not r:
            return a, u1
        # s divides lead = lc(a)^(delta+1), so lead*m = k*q*a + k*r: the pseudo-division.
        lead = a[-1] ** (delta + 1)
        k = lead // s
        beta = g * h**delta
        m, a = a, _exact_quo([c * k for c in r], beta)
        u0, u1 = u1, _exact_quo(_lin_int(u0, lead, _mul_int(q, u1), -k), beta)
        g = m[-1]
        h = _exact_quo([g**delta], h ** (delta - 1))[0]
    return m, u0


def _exact_quo(cs: list[int], d: int) -> list[int]:
    """cs / d for an int d that divides every entry; a remainder raises InexactDivisionError."""
    out = []
    for c in cs:
        c, rem = divmod(c, d)
        if rem:
            raise InexactDivisionError("subresultant division not exact")
        out.append(c)
    return out


def _cofactor(a: Poly, m: Poly) -> tuple[Poly, Poly]:
    """Monic g = gcd(a, m) and s with s*a = g mod m, m nonzero: one `_ext_subresultant`
    on the primitive integer parts of m and of a mod m, normalised once."""
    r = a % m
    big = _int_primitive(list(r._c))
    rem, u = _ext_subresultant(_to_int_primitive(m), big)
    scale = r._c[-1] // big[-1] * rem[-1] if big else 1
    return _new(rem, rem[-1]), _new([c * r._d for c in u], scale)


def ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g = gcd(a, b) together with s, t such that s*a + t*b = g.

    When a, b are nonzero and g != b, the cofactor satisfies
    deg s < deg b - deg g (the classical extended-Euclid degree bound).
    """
    if a.is_zero and b.is_zero:
        raise DomainError("ext_gcd(0, 0) is undefined")
    if b.is_zero:
        return a.monic(), Poly([1 / a.lc]), ZERO
    g, s = _cofactor(a, b)
    return g, s, (g - s * a).exact_div(b)


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m (ZERO for a constant m); requires gcd(a, m) = 1."""
    g, s = _cofactor(a, m)
    if g != ONE:
        raise DomainError(f"{a} is not invertible modulo {m}")
    return s


def is_squarefree(p: Poly) -> bool:
    """b is squarefree when gcd(b, db/dx) = 1 (constants count as squarefree)."""
    if p.is_zero:
        return False
    return gcd(p, p.derivative()).is_constant


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """p = unit * prod(factor^multiplicity), factors monic squarefree and
    pairwise coprime, multiplicities strictly increasing."""

    unit: Fraction
    factors: tuple[tuple[Poly, int], ...]


def _yun(p: list[int]) -> list[list[int]]:
    """Yun's algorithm on a nonzero primitive integer list p: primitive
    f_1, ..., f_m with p = prod f_i^i, f_i = [1] for each multiplicity i < m that does
    not occur.  Every divisor is primitive, so each quotient is integral (`_exact_int`)."""
    dp = [k * c for k, c in enumerate(p[1:], 1)]
    u = _gcd_int(p, _int_primitive(dp))
    v, w, out = _exact_int(p, u), _exact_int(dp, u), []
    while len(v) > 1:
        w = _lin_int(w, 1, [k * c for k, c in enumerate(v[1:], 1)], -1)  # W - V'
        while w and not w[-1]:
            w.pop()
        q = _gcd_int(v, _int_primitive(w))
        if len(q) > 1:
            v, w = _exact_int(v, q), _exact_int(w, q)
        out.append(q)
    return out


def squarefree_decomposition(p: Poly) -> SquarefreeDecomposition:
    """Yun's algorithm (`_yun`) on the primitive integer form of p, one monic Poly per class.

    >>> squarefree_decomposition(Poly([1, -2, 1])).factors
    ((Poly('x - 1'), 2),)
    """
    if p.is_zero:
        raise DomainError("squarefree decomposition of the zero polynomial")
    classes = _yun(_to_int_primitive(p))
    return SquarefreeDecomposition(p.lc, tuple((_new(q, q[-1]), i) for i, q in enumerate(classes, 1) if len(q) > 1))


# -- resultants ----------------------------------------------------------------


def _subresultant(a: list[int], b: list[int]) -> int:
    """Res_x of two nonzero integer polynomials, as coefficient lists ending in
    a nonzero entry, by the subresultant PRS; each division by g h^delta, and
    h's update, is exact, and a remainder raises InexactDivisionError."""
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
        r = _int_prem(a, b)  # on `_divrem_int`, shift-set "(x-100000)*(x^19+x+1)" took 1.25-1.35x as long
        if not r:
            return 0
        a = b
        b = _exact_quo(r, g * h**delta)
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_quo([g**delta], h ** (delta - 1))[0]
    # b is now a nonzero constant
    da = len(a) - 1
    if da == 0:
        return sign
    return sign * _exact_quo([b[0] ** da], h ** (da - 1))[0]


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


def _newton(values: Sequence[int]) -> list[int]:
    """The coefficients c_k = Delta^k v(0) / k! of the polynomial v of degree
    < len(values) through (j, values[j]) in the falling-factorial basis
    z(z-1)...(z-k+1): divided differences over the nodes 0, 1, 2, ..., on
    integers.  That basis and the monomials are integer (Stirling)
    combinations of each other, so every division is exact when v is in Z[z];
    a remainder raises InexactDivisionError."""
    coef = list(values)
    for k in range(1, len(coef)):
        for i in range(len(coef) - 1, k - 1, -1):
            coef[i], rem = divmod(coef[i] - coef[i - 1], k)
            if rem:
                raise InexactDivisionError("divided difference not integral")
    return coef


def _from_falling(coef: Sequence[int]) -> list[int]:
    """The monomial coefficients of sum_k coef[k] z(z-1)...(z-k+1), by
    Horner's rule on the Newton form c_0 + z*(c_1 + (z-1)*(c_2 + ...))."""
    out = list(coef[-1:])
    for k in range(len(coef) - 2, -1, -1):
        out = [coef[k] - k * out[0]] + [out[i - 1] - k * out[i] for i in range(1, len(out))] + [out[-1]]
    return out


def resultant_shift(b: Poly) -> Poly:
    """R(z) = Res_x(b(x), b(x+z)) by evaluation at z = 0..deg(b)^2 followed by
    exact interpolation (`_newton`, then `_from_falling`), all on integers.

    For b = s*B with B primitive, R = s^(2n) * R_B with R_B = Res_x(B(x), B(x+z))
    in Z[z].  The leading x-coefficient of B(x+z) does not depend on z, so every
    integer evaluation point is good."""
    if b.is_zero or b.degree < 2:
        raise DomainError("resultant_shift requires degree >= 2")
    n = b.degree
    big = _to_int_primitive(b)
    shifted, values = list(big), []
    for _ in range(n * n + 1):
        values.append(_subresultant(big, shifted))
        _taylor_shift(shifted, 1)  # B(x + j) -> B(x + j + 1)
    return _new(_from_falling(_newton(values)), 1) * (b.lc / big[-1]) ** (2 * n)


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
    limit = _cauchy_bound(cs)
    for d in divisors_upto(factor_int(abs(cs[0]), limit), limit):
        roots.update(r for r in (d, -d) if not _horner(cs, r))
    return roots
