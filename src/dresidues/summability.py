"""Summability decisions and the parameterized summable-combination space.

A rational function is summable (a first difference g(x+1) - g(x) of another
rational function) exactly when all its discrete residues vanish.  For a
tuple of functions, the coefficient vectors v making v . f summable form a
vector space cut out by linear conditions on the residue sums R at the roots
of initial (`residues._sums`), solved here with exact integer elimination.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import polys, residues
from .errors import DomainError
from .galois import _coefficient_rows, _integer_row, hermite_normal_form
from .hermite import _remainders
from .polys import ONE, ZERO, Poly
from .ratfun import RatFun
from .reduction import _orbit_residues, _suffix_certificate


def poly_antidifference(p: Poly) -> Poly:
    """The polynomial q with q(x+1) - q(x) = p and q(0) = 0.  For p = P/d with
    P in Z[x] of degree n, `polys._newton` on P(0), ..., P(n) gives integers
    c_k with P = sum_k c_k x(x-1)...(x-k+1).  Delta maps x(x-1)...(x-k)/(k+1)
    to x(x-1)...(x-k+1), so q = sum_k c_k x(x-1)...(x-k)/(k+1) / d, which
    `polys._from_falling` puts into monomials over one denominator d (n+1)!."""
    if p.is_zero:
        return p
    n, scale = p.degree, math.factorial(p.degree + 1)
    coef = polys._newton([polys._horner(p._c, j) for j in range(n + 1)])
    return polys._new(polys._from_falling([0] + [c * (scale // (k + 1)) for k, c in enumerate(coef)]), p._d * scale)


def is_summable(f: RatFun, want_certificate: bool = False) -> tuple[bool, RatFun | None]:
    """Decide whether f = g(x+1) - g(x) for some rational g.

    Polynomial parts never block a yes: they always admit a polynomial
    antidifference.  A Hermite layer is summable exactly when its residue sum
    sum_l T_l at the roots of initial is 0 (`reduction._orbit_residues`).  With
    `want_certificate`, and only once every layer passes, a witness g is
    assembled over one known denominator, with no gcd (`_assemble`), from the
    layer certificates (`reduction._suffix_certificate`); otherwise None."""
    poly_part, fp = f.proper_part()
    cert = RatFun(poly_antidifference(poly_part)) if want_certificate else None
    if fp.is_zero:
        return True, cert
    (row,), b = _remainders([fp.num], fp.den)
    (_, _, initial, _), layers, sums = _orbit_residues(row, b)
    if any(not r.is_zero for r in sums):
        return False, None
    if want_certificate:
        num, den = _assemble([_suffix_certificate(terms, initial) for terms in layers])
        cert = RatFun.from_lowest_terms(cert.num * den + num, den)
    return True, cert


def _assemble(certs: list[RatFun]) -> tuple[Poly, Poly]:
    """sum_k (-1)^(k-1)/(k-1)! d^(k-1)/dx^(k-1) c_k, for c_k with simple
    poles, as (numerator, monic denominator) in lowest terms with no gcd.

    With E the lcm of the den(c_k), Horner's rule H <- c_k/(k-1)! - H' runs on
    numerators N over E^j, as d/dx(N/E^j) = (N'E - jNE')/E^(j+1), to N/E^m.
    At a root of E the pole order is the largest k with den(c_k) vanishing
    there, so with u_k = den(c_k) / gcd(den(c_k), later den(c_k)), E = prod u_k,
    the denominator is D = prod u_k^k and the numerator N / prod u_k^(m-k).
    """
    m, later, us = len(certs), ONE, []
    for c in reversed(certs):
        u = c.den if later == ONE or c.den == ONE else c.den.exact_div(polys.gcd(c.den, later))
        us.append(u)
        later = later * u
    e, de, power, num = later, later.derivative(), ONE, ZERO
    for j, c in enumerate(reversed(certs)):
        num = num * de * j - num.derivative() * e
        if not c.is_zero:
            num = num + c.num * e.exact_div(c.den) * power * Fraction(1, math.factorial(m - j - 1))
        power = power * e
    den, rest = ONE, ONE
    for k, u in zip(range(m, 0, -1), us):
        if u != ONE:
            den, rest = den * u**k, rest * u ** (m - k)
    return num.exact_div(rest), den


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Exact basis of the right nullspace of a rational matrix.

    Rows are cleared of denominators and brought to echelon form by
    `galois.hermite_normal_form`; every echelon form of the same row space has
    the same pivot columns, so back-substitution gives one vector per free
    column, zero in the other free columns, on integers (a pivot p with row sum
    s past it scales the vector by p / gcd(s, p)); each ends over its lead.
    """
    if ncols is None:
        if not rows:
            raise DomainError("nullspace of an empty matrix needs an explicit column count")
        ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise DomainError("ragged matrix")
    echelon = hermite_normal_form([_integer_row(row) for row in rows])
    pivots = [(row, next(c for c, a in enumerate(row) if a)) for row in echelon]
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: list[list[Fraction]] = []
    for free in free_cols:
        vec = [0] * ncols
        vec[free] = 1
        for row, c in reversed(pivots):
            s = sum(map(operator.mul, row[c + 1 :], vec[c + 1 :]))
            g = math.gcd(s, row[c])
            if g != row[c]:
                vec = [v * (row[c] // g) for v in vec]
            vec[c] = -s // g
        lead = next(v for v in vec if v)
        basis.append([Fraction(v, lead) for v in vec])
    return basis


def vspace(fs: list[RatFun]) -> list[list[Fraction]]:
    """Basis of the space of coefficient vectors v with v . f summable.

    v . f is summable exactly when sum_i v_i R_ik = 0 for the residue sums
    R_ik of input i and order k at the roots of initial (`residues._sums`),
    so the space is the nullspace of their coefficient rows
    (`galois._coefficient_rows`).
    """
    if not fs:
        raise DomainError("vspace requires at least one function")
    return nullspace(_coefficient_rows(residues._sums(fs)[1]), ncols=len(fs))
