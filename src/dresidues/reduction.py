"""Shift-reduction of simple-pole rational functions, and the orbit read-out under it.

A reduced form of f is an f-bar with f - f-bar summable and f-bar either zero
or of polar dispersion zero (at most one pole per Z-orbit, at the leftmost
pole of the orbit).  `simple_reduction` handles one function;
`simple_reduction_multi` reduces several against the one divisor I of initial
roots of the lcm b of their denominators, so common orbits give common poles.

Everything is read off one orbit read-out, `_orbit_residues(rows, b)`: one
`_orbits(b)`, then per row of proper fractions num/q, q | b (Hermite remainder
parts for the residue pipelines and `is_summable`, each input itself for
simple poles) a term T_l per shift l, whose value at each root u of I is the
residue at u + l, and the residue sum R = sum_l T_l mod I, each distinct q
split over the moved copies of I once (`_orbit_split`, checked to multiply to
q) with one inverse per piece.  With P = I/gcd(I, R), the reduced form is
(R P' mod P)/P, the proper simple-pole function with residue R(u) at each
root u of I.  The certificate g, f = f-bar + g(x+1) - g(x), moves the
pole at u + l to u through u + l - 1, ..., u + 1, so it has residue
-rho_j(u) at u + j for rho_j = sum_(l>=j) T_l mod I, summable f or not: it is
-sum_j sigma^(-j)(P_j/I_j), I_j = I/gcd(I, rho_j), P_j = rho_j I_j' mod I_j, by
one gcd-free `_over_product` (`_suffix_certificate`), as no two roots of I
share a Z-orbit and so the I_j(x - j) are pairwise coprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polys, shiftset
from .errors import DomainError, InternalError
from .polys import ONE, ZERO, Poly
from .ratfun import RatFun, _over_product


@dataclass(frozen=True)
class ReductionParts:
    """Diagnostic record of the internals of one reduction run.

    `initial` is the divisor of initial roots (the leftmost pole of each
    orbit); `factors[l]` collects the denominator roots exactly l steps right
    of an initial root, `numerators[l]` the matching partial-fraction
    numerators, for l in `indices`.  `shift_gcds[l]` = gcd(b, b(x-l)) and
    `overlap` is their lcm, so initial = denominator / overlap.
    """

    initial: Poly
    indices: tuple[int, ...]
    factors: dict[int, Poly]
    numerators: dict[int, Poly]
    shift_gcds: dict[int, Poly]
    overlap: Poly


@dataclass(frozen=True)
class ReductionOutput:
    reduced: RatFun
    certificate: RatFun | None = None
    parts: ReductionParts | None = None


def _validate_simple(f: RatFun, who: str) -> None:
    if not f.is_proper:
        raise DomainError(f"{who} requires proper rational functions")
    if not polys.is_squarefree(f.den):
        raise DomainError(f"{who} requires squarefree denominators")


def _orbits(b: Poly) -> tuple[dict[int, Poly], Poly, Poly, dict[int, Poly]]:
    """For squarefree b: the shift gcds gcd(b, b(x - l)), `shift_set`'s gcd(b, b(x + l)) moved by sigma^(-l),
    their lcm, initial, and initial(x - l) for l = 0 and each shift l."""
    found = shiftset.shift_set(b)
    shift_gcds = {ell: g.shift(-ell) for ell, g in zip(found.shifts, found.gcds)}
    overlap = polys.lcm_all(shift_gcds.values())
    initial = b.exact_div(overlap)
    return shift_gcds, overlap, initial, {ell: initial.shift(-ell) for ell in (0, *found.shifts)}


def _orbit_split(den: Poly, moved: dict[int, Poly]) -> dict[int, Poly]:
    """F_l = gcd(initial(x - l), den) for l = 0 and each l where it is nonconstant, checked to
    multiply to den: each root of a squarefree den | b lies l steps right of one initial root."""
    factors = {ell: polys.gcd(m, den) for ell, m in moved.items()}
    factors = {ell: f for ell, f in factors.items() if ell == 0 or not f.is_constant}
    if math.prod(factors.values(), start=ONE) != den:
        raise InternalError("the orbit split of a denominator does not multiply to it")
    return factors


def _simple_readout(fs: list[RatFun], splits: dict | None = None) -> tuple[tuple, list, list[Poly]]:
    """The simple-pole call of `_orbit_residues`: proper fs with squarefree denominators, each read as
    its one part (num, den), over the lcm of the denominators."""
    return _orbit_residues([[(f.num, f.den)] for f in fs], polys.lcm_all(f.den for f in fs), splits)


def _reduce(fs: list[RatFun], want_certificate: bool) -> list[ReductionOutput]:
    """Reduce each of fs against the divisor of initial roots of the lcm of their denominators, from
    `_simple_readout` (module docstring); a zero input has the one part {0: 1} with numerator 0."""
    splits: dict[Poly, dict[int, tuple[Poly, Poly]]] = {}
    (shift_gcds, overlap, initial, _), terms, sums = _simple_readout(fs, splits)
    out: list[ReductionOutput] = []
    for f, ts, r in zip(fs, terms, sums):
        pieces = sorted(splits.get(f.den, {0: (ONE, ONE)}).items())
        numerators = {ell: f.num * c % q for ell, (q, c) in pieces}
        p = initial.exact_div(polys.gcd(initial, r))
        factors = {ell: q for ell, (q, _) in pieces}
        parts = ReductionParts(initial, tuple(numerators), factors, numerators, shift_gcds, overlap)
        certificate = _suffix_certificate(ts, initial) if want_certificate else None
        out.append(ReductionOutput(RatFun.from_lowest_terms(r * p.derivative() % p, p), certificate, parts))
    return out


def _orbit_residues(rows: list[list[tuple[Poly, Poly]]], b: Poly, splits: dict | None = None) -> tuple[tuple, list, list[Poly]]:
    """(`_orbits(b)` for squarefree b; per row its terms (l, sigma^l(num mod F_l) * e_l), one per part, a proper num/q
    with q | b, and l; per row R = sum_l T_l mod initial).  Each distinct q is split once, into `splits` when given, as
    {l: (F_l, c_l)}, c_l = 1/(q/F_l) mod F_l.  With G = F_l(x + l) and w = 1/initial' mod initial, e_l = (initial/G) *
    (sigma^l(c_l) * w mod G) is 0 mod initial/G and 1/q'(u + l) at each root u of G, so T_l, the sum of a row's terms
    at l, takes num/q'(u + l), the residue of num/q at u + l, at each root u of initial."""
    orbits = _orbits(b)
    _, _, initial, moved = orbits
    w = polys.inverse_mod(initial.derivative(), initial)
    splits = {} if splits is None else splits
    idempotents: dict[Poly, list[tuple[int, Poly, Poly]]] = {}
    out: list[list[tuple[int, Poly]]] = []
    for row in rows:
        terms: list[tuple[int, Poly]] = []
        for num, q in (part for part in row if not part[0].is_zero):
            if q not in idempotents:
                splits[q] = {ell: (f, polys.inverse_mod(q.exact_div(f), f)) for ell, f in _orbit_split(q, moved).items()}
                gs = [(ell, f, c, f.shift(ell)) for ell, (f, c) in splits[q].items() if not f.is_constant]
                idempotents[q] = [(ell, f, initial.exact_div(g) * (c.shift(ell) * w % g)) for ell, f, c, g in gs]
            terms += [(ell, (num % f).shift(ell) * e) for ell, f, e in idempotents[q]]
        out.append(terms)
    return orbits, out, [sum((t for _, t in terms), ZERO) % initial for terms in out]


def _suffix_certificate(terms: list[tuple[int, Poly]], initial: Poly) -> RatFun:
    """-sum_j sigma^(-j)(P_j/I_j), j = 1..max l, for a row of `_orbit_residues` (module docstring);
    rho_j changes only at a j with a term, so P_j and I_j are recomputed only there."""
    entering: dict[int, list[Poly]] = {}
    for ell, t in terms:
        entering.setdefault(ell, []).append(t)
    pieces, acc = [], ZERO
    for j in range(max(entering, default=0), 0, -1):
        if j in entering:
            acc = sum(entering[j], acc)
            rho = acc % initial
            den = initial.exact_div(polys.gcd(initial, rho))
            num = -(rho * den.derivative()) % den
        pieces.append((num.shift(-j), den.shift(-j)))
    return RatFun.from_lowest_terms(*_over_product(pieces))


def simple_reduction(f: RatFun, want_certificate: bool = False) -> ReductionOutput:
    """Reduced form of a proper simple-pole f, optionally with a certificate
    g satisfying f = reduced + (g(x+1) - g(x)) exactly.

    >>> simple_reduction(RatFun(ONE, Poly([0, 1, 1])), True).certificate
    RatFun('(-1)/(x)')
    """
    _validate_simple(f, "simple_reduction")
    return _reduce([f], want_certificate)[0]


def simple_reduction_multi(fs: list[RatFun]) -> list[RatFun]:
    """Compatible reduced forms of several proper simple-pole functions.

    All reductions use the divisor of initial roots of the lcm of the
    denominators, so whenever two inputs have nonzero first-order residue at
    a common orbit their reduced forms share the pole representing it.
    """
    if not fs:
        raise DomainError("simple_reduction_multi requires at least one function")
    for f in fs:
        _validate_simple(f, "simple_reduction_multi")
    return [out.reduced for out in _reduce(fs, False)]
