"""Symbolic extraction of discrete residues.

All outputs follow one convention: a pair of polynomials (places, values).
The roots of `places` mark where residues live, with exactly one
representative per Z-orbit carrying a nonzero residue, and evaluating
`values` at such a root gives the residue there.  No denominator is ever
factored into linear factors; everything runs on gcds, resultants and modular
inverses, and discrete residues are read straight from the Hermite remainders
(`_remainders`, `_orbit_residues`) with no reduced form.
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

    @property
    def is_trivial(self) -> bool:
        return self.places == ONE

    def astuple(self) -> tuple[Poly, Poly]:
        return self.places, self.values


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

    @property
    def order_count(self) -> int:
        return len(self.values[0]) if self.values else 0


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
    if big.is_constant:
        return big, [ZERO] * len(fs)
    try:
        w = polys.inverse_mod(big.derivative(), big)
    except DomainError:
        raise DomainError("first residues require squarefree denominators") from None
    return big, [(f.num * big.exact_div(f.den) * w) % big for f in fs]


def discrete_residues(f: RatFun) -> list[ResiduePair]:
    """All discrete residues of a proper f, one ResiduePair per order k.

    Pipeline: one pass of Hermite remainders, then `_read` of each layer alone
    in lowest terms (zero parts dropped, each part r/q as RatFun(r, q)),
    so each order keeps its own leftmost representatives.  Pair
    k is (1, 0) exactly when every order-k discrete residue of f vanishes.
    The zero function yields an empty list.
    """
    if f.is_zero or not f.is_proper:
        return discrete_residues_coordinated(f)  # [] or a DomainError
    out = []
    for layer in _remainders([f.num], f.den)[0][0]:
        cuts = [RatFun(r, q) for r, q in layer if not r.is_zero]
        md = _read([[[(g.num, g.den) for g in cuts]]], math.prod((g.den for g in cuts), start=ONE)) if cuts else None
        out.append(ResiduePair(md.places, md.values[0][0]) if md else TRIVIAL_PAIR)
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
    polynomial, compatible across both functions and orders.

    Read over L = lcm of the denominators (`_over_lcm`) when the cofactors
    L/den_i have lower total degree than the den_i; else each distinct
    denominator takes its own Hermite remainders (`_per_function`).  A zero
    input's row is all zero.
    """
    if not fs:
        raise DomainError("discrete_residues_multi requires at least one function")
    if not all(f.is_proper for f in fs):
        raise DomainError("discrete_residues_multi requires proper rational functions")
    big = polys.lcm_all(f.den for f in fs)
    if big.is_constant:
        return MultiResidues(ONE, [[] for _ in fs])
    degrees = [f.den.degree for f in fs if not f.is_zero]
    if len(degrees) * big.degree < 2 * sum(degrees):
        return _over_lcm(fs, big)
    return _per_function(fs)


def _over_lcm(fs: list[RatFun], big: Poly) -> MultiResidues:
    """The Hermite remainders of every num*(big/den) over big, read at the orbits by `_read`."""
    return _read(*_remainders([f.num * big.exact_div(f.den) for f in fs], big))


def _per_function(fs: list[RatFun]) -> MultiResidues:
    """The Hermite remainders of the inputs over each distinct denominator, read at the orbits by `_read`."""
    rows, bs = {}, []
    for den in dict.fromkeys(f.den for f in fs if not f.is_zero):
        ids = [i for i, f in enumerate(fs) if f.den == den]
        got, b = _remainders([fs[i].num for i in ids], den)
        rows.update(zip(ids, got))
        bs.append(b)
    return _read([rows.get(i, []) for i in range(len(fs))], polys.lcm_all(bs))


def _read(rows: list[list[list[tuple[Poly, Poly]]]], b: Poly) -> MultiResidues:
    """Each input's layers, padded to one count, give R mod initial at every root of initial
    (`_orbit_residues`); places keeps the roots where some R is nonzero, values = R mod places."""
    m = max(len(row) for row in rows)
    (_, _, initial, _), _, rs = _orbit_residues([layer for row in rows for layer in row + [[]] * (m - len(row))], b)
    places = initial.exact_div(functools.reduce(polys.gcd, rs, initial))
    return MultiResidues(places, [[r % places for r in rs[i : i + m]] for i in range(0, len(rs), m)])
