"""Symbolic extraction of discrete residues.

All outputs follow one convention: a pair of polynomials (places, values).
The roots of `places` mark where residues live, with exactly one
representative per Z-orbit carrying a nonzero residue, and evaluating
`values` at such a root gives the residue there.  No denominator is ever
factored into linear factors; everything runs on gcds, resultants and modular
inverses, and discrete residues are read straight from the Hermite remainders
(`_remainders`, `_orbit_residues`; several functions at once by `_sums`, over
the groups of `_groups`) with no reduced form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import polys
from .errors import DomainError
from .hermite import _remainders
from .polys import ONE, ZERO, Poly
from .ratfun import RatFun
from .reduction import _orbit_residues


@dataclass(frozen=True)
class ResiduePair:
    """Order-k residue data of one function: (1, 0) when every order-k
    residue vanishes, otherwise a squarefree dispersion-0 `places` whose roots
    represent the orbits with nonzero residue and a `values` polynomial of
    smaller degree evaluating to those residues."""

    places: Poly
    values: Poly


TRIVIAL_PAIR = ResiduePair(ONE, ZERO)


@dataclass(frozen=True)
class MultiResidues:
    """Coordinated residue data for several functions: one shared squarefree
    dispersion-0 `places` polynomial, and values[i][k-1] evaluating at each
    root of `places` to the order-k residue of function i at that orbit.

    When every input is summable there is no qualifying orbit and `places`
    degenerates to the constant 1 with an all-zero values matrix.
    """

    places: Poly
    values: list[list[Poly]]


def first_residues(f: RatFun) -> ResiduePair:
    """Trager-style first-order residues of a proper simple-pole function.

    Returns (b, r) with b the denominator and r the unique polynomial of
    smaller degree with r * db/dx = numerator (mod b), so that the residue of
    f at each root a of b is r(a): the one-function case of
    `first_residues_multi`.  By convention the zero function gives (1, 0).

    >>> first_residues(RatFun(ONE, Poly([0, 1])))
    ResiduePair(places=Poly('x'), values=Poly('1'))
    """
    big, (r,) = first_residues_multi([f])
    return ResiduePair(big, r)


def first_residues_multi(fs: list[RatFun]) -> tuple[Poly, list[Poly]]:
    """First residues of several simple-pole functions over one common
    denominator B = lcm of the individual ones.

    One inverse w = 1/B' mod B serves every input: with c_i = B/b_i,
    B' = b_i' * c_i (mod b_i), so p_i = num_i * c_i * w mod B agrees with the
    Trager polynomial num_i / b_i' modulo b_i and vanishes modulo c_i.  Each
    p_i has degree < deg(B) and evaluates to the residue of f_i at *every*
    root of B.  B is squarefree exactly when B' is invertible modulo B.
    """
    if not all(f.is_proper for f in fs):
        raise DomainError("first residues require proper rational functions")
    big = polys.lcm_all(f.den for f in fs)
    try:
        w = polys.inverse_mod(big.derivative(), big)
    except DomainError:
        raise DomainError("first residues require squarefree denominators") from None
    return big, [(f.num * big.exact_div(f.den) * w) % big for f in fs]


def discrete_residues(f: RatFun) -> list[ResiduePair]:
    """All discrete residues of a proper f, one ResiduePair per order k.

    Pipeline: one pass of Hermite remainders, then `_orbit_residues` of each
    layer alone in lowest terms (zero parts dropped, each part r/q as
    RatFun(r, q)), so each order keeps its own leftmost representatives.  Pair
    k is (1, 0) exactly when every order-k discrete residue of f vanishes.
    The zero function yields an empty list.
    """
    if f.is_zero or not f.is_proper:
        return discrete_residues_coordinated(f)  # [] or a DomainError
    out = []
    for layer in _remainders([f.num], f.den)[0][0]:
        cuts = [RatFun(r, q) for r, q in layer if not r.is_zero]
        if cuts:  # a zero layer takes no shift set
            (_, _, initial, _), _, (r,) = _orbit_residues([[(g.num, g.den) for g in cuts]], math.prod((g.den for g in cuts), start=ONE))
            places = initial.exact_div(polys.gcd(initial, r))
        out.append(ResiduePair(places, r % places) if cuts else TRIVIAL_PAIR)
    return out


def discrete_residues_coordinated(f: RatFun) -> list[ResiduePair]:
    """Like `discrete_residues`, but every order is read at one shared divisor of initial roots, so the
    same orbit is represented by the same root across orders: the Hermite remainders give each order's
    R at every root of initial (`_orbit_residues`), places = initial / gcd(initial, R), values = R mod places."""
    if not f.is_proper:
        raise DomainError("discrete_residues requires a proper rational function")
    if f.is_zero:
        return []
    (row,), b = _remainders([f.num], f.den)
    (_, _, initial, _), _, rs = _orbit_residues(row, b)
    places = [initial.exact_div(polys.gcd(initial, r)) for r in rs]
    return [ResiduePair(p, r % p) for p, r in zip(places, rs)]


def discrete_residues_multi(fs: list[RatFun]) -> MultiResidues:
    """Discrete residues of several functions over one shared places
    polynomial, compatible across both functions and orders: places keeps
    the roots of initial where some residue sum R of `_sums` is nonzero, and
    values = R mod places.  A zero input's row is all zero, and with no pole
    at all places is 1 and every row empty.
    """
    initial, sums = _sums(fs)
    places = initial.exact_div(functools.reduce(polys.gcd, (r for row in sums for r in row), initial))
    return MultiResidues(places, [[r % places for r in row] for row in sums])


def _groups(fs: list[RatFun]) -> dict[Poly, list[Poly]]:
    """The Hermite inputs of `_sums`, {den: one numerator per input}: every num*(L/den) over L = lcm of
    the denominators when the cofactors L/den_i have lower total degree than the den_i, else each
    distinct denominator with its inputs' numerators and 0 for the other inputs."""
    degrees = [f.den.degree for f in fs if not f.is_zero]
    big = polys.lcm_all(f.den for f in fs)
    if len(degrees) * big.degree < 2 * sum(degrees):
        return {big: [f.num * big.exact_div(f.den) for f in fs]}
    return {den: [f.num if f.den == den else ZERO for f in fs] for den in dict.fromkeys(f.den for f in fs if not f.is_zero)}


def _sums(fs: list[RatFun]) -> tuple[Poly, list[list[Poly]]]:
    """(initial, per input its residue sum R at every root of initial, one per order k): one
    `_remainders` per group of `_groups`, each input's layers (from the one group where its numerator
    is nonzero) padded to one count, read by one `_orbit_residues` over the lcm of the classes."""
    if not fs:
        raise DomainError("discrete_residues_multi requires at least one function")
    if not all(f.is_proper for f in fs):
        raise DomainError("discrete_residues_multi requires proper rational functions")
    rows, bs = [[] for _ in fs], []
    for den, nums in _groups(fs).items():
        got, b = _remainders(nums, den)
        rows = [row + new for row, new in zip(rows, got)]  # an input has layers in one group at most
        bs.append(b)
    m = max(map(len, rows))
    (_, _, initial, _), _, rs = _orbit_residues([layer for row in rows for layer in row + [[]] * (m - len(row))], polys.lcm_all(bs))
    return initial, [rs[i * m : (i + 1) * m] for i in range(len(fs))]
