"""Shift-reduction of simple-pole rational functions to reduced forms.

A reduced form of f is an f-bar with f - f-bar rationally summable and
f-bar either zero or of polar dispersion zero (at most one pole per
Z-orbit, sitting at the leftmost pole of the orbit).  `simple_reduction`
handles one function; `simple_reduction_multi` reduces several functions
against one shared divisor of initial roots so that common orbits show up
as common poles across the outputs.  Within one `_reduce` call, inputs over
one denominator D share its split over the shifted initial roots
(`_orbit_split`, checked once to multiply to D) and the inverse 1/D' mod D
of their partial fractions, and a zero input passes through with no gcd.

The certificate -sum_l sum_(i<l) sigma^i(N_l/F_l) (`_certificate`, from a
run's parts) takes one gcd-free `ratfun._over_product` per distinct l: every
root of F_l lies l steps right of an initial root and no two initial roots
share a Z-orbit, so the sigma^i(F_l), i < l, are pairwise coprime.  `_reduce`
adds the pieces sigma^l(N_l/F_l) of a reduced form as RatFuns.  `residues` and
`is_summable` build no reduced form: `_orbit_residues` gives per shift l a term
T_l whose value at each root u of initial I is the residue at u + l, and a
summable row's certificate, with residue -rho_j(u) at u + j for rho_j =
sum_(l>=j) T_l mod I, is -sum_j sigma^(-j)(P_j/I_j) with I_j = I/gcd(I, rho_j)
and P_j = rho_j I_j' mod I_j, summed by one `_over_product` (`_suffix_certificate`):
the I_j(x - j) are pairwise coprime, as no two roots of I share a Z-orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polys, shiftset
from .errors import DomainError, InternalError
from .polys import ONE, ZERO, Poly
from .ratfun import RF_ZERO, RatFun, _over_product, _parfrac


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
    """For squarefree b: the shift gcds, their lcm, initial, and initial(x - l) for l = 0 and each shift l."""
    shifts = shiftset.shift_set(b).shifts
    shift_gcds = {ell: polys.gcd(b, b.shift(-ell)) for ell in shifts}
    overlap = polys.lcm_all(shift_gcds.values())
    initial = b.exact_div(overlap)
    return shift_gcds, overlap, initial, {ell: initial.shift(-ell) for ell in (0, *shifts)}


def _orbit_split(den: Poly, moved: dict[int, Poly]) -> dict[int, Poly]:
    """F_l = gcd(initial(x - l), den) for l = 0 and each l where it is nonconstant, checked to
    multiply to den: each root of a squarefree den | b lies l steps right of one initial root."""
    factors = {ell: polys.gcd(m, den) for ell, m in moved.items()}
    factors = {ell: f for ell, f in factors.items() if ell == 0 or not f.is_constant}
    if math.prod(factors.values(), start=ONE) != den:
        raise InternalError("the orbit split of a denominator does not multiply to it")
    return factors


def _reduce(fs: list[RatFun], want_certificate: bool) -> list[ReductionOutput]:
    """Reduce each of fs against the divisor of initial roots of the lcm b of
    their denominators.  For one input, gcd(initial, f.den) = initial."""
    shift_gcds, overlap, initial, moved = _orbits(polys.lcm_all(f.den for f in fs))
    splits: dict[Poly, tuple[dict[int, Poly], tuple[int, ...], Poly]] = {}
    out: list[ReductionOutput] = []
    for f in fs:
        if f.is_zero:
            parts = ReductionParts(initial, (0,), {0: ONE}, {0: ZERO}, shift_gcds, overlap)
            out.append(ReductionOutput(RF_ZERO, RF_ZERO if want_certificate else None, parts))
            continue
        if f.den not in splits:
            factors = _orbit_split(f.den, moved)
            splits[f.den] = (factors, tuple(sorted(factors)), polys.inverse_mod(f.den.derivative(), f.den))
        factors, indices, w = splits[f.den]
        numerators = dict(zip(indices, _parfrac(f.num, [factors[ell] for ell in indices], w)))
        reduced = RF_ZERO
        for ell in indices:
            # f is in lowest terms with a squarefree denominator, so no residue is zero.
            reduced = reduced + RatFun.from_lowest_terms(numerators[ell], factors[ell]).sigma(ell)
        parts = ReductionParts(initial, indices, dict(factors), numerators, shift_gcds, overlap)
        out.append(ReductionOutput(reduced, _certificate(parts) if want_certificate else None, parts))
    return out


def _orbit_residues(rows: list[list[tuple[Poly, Poly]]], b: Poly) -> tuple[Poly, list[list[tuple[int, Poly]]]]:
    """(initial of squarefree b, per row its terms (l, sigma^l(t mod F_l) * e_l), not reduced mod initial, one per part
    (t, q), q | b, and l).  With G = F_l(x + l) and w = 1/initial' mod initial, e_l = (initial/G) * w * G' is 1 mod G
    and 0 mod initial/G, so T_l, the sum of a row's terms at l, takes t(u + l) at each root u of initial."""
    _, _, initial, moved = _orbits(b)
    w = polys.inverse_mod(initial.derivative(), initial)
    splits: dict[Poly, list[tuple[int, Poly, Poly]]] = {}
    out: list[list[tuple[int, Poly]]] = []
    for row in rows:
        terms: list[tuple[int, Poly]] = []
        for t, q in (part for part in row if not part[0].is_zero):
            if q not in splits:
                gs = [(ell, f, f.shift(ell)) for ell, f in _orbit_split(q, moved).items() if not f.is_constant]
                splits[q] = [(ell, f, (initial.exact_div(g) * w * g.derivative()) % initial) for ell, f, g in gs]
            terms += [(ell, (t if f == q else t % f).shift(ell) * e) for ell, f, e in splits[q]]
        out.append(terms)
    return initial, out


def _suffix_certificate(terms: list[tuple[int, Poly]], initial: Poly) -> RatFun:
    """-sum_j sigma^(-j)(P_j/I_j), j = 1..max l, for a summable row of `_orbit_residues` (module
    docstring); rho_j changes only at a j with a term, so P_j and I_j are recomputed only there."""
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


def _certificate(parts: ReductionParts) -> RatFun:
    """The certificate -sum_l sum_(i<l) sigma^i(N_l/F_l) of one reduction,
    from its parts: exact with no gcd inside each l, as the sigma^i(F_l),
    i < l, are pairwise coprime (see the module docstring)."""
    certificate = RF_ZERO
    for ell in parts.indices:
        num, den = parts.numerators[ell], parts.factors[ell]
        steps = _over_product([(num.shift(i), den.shift(i)) for i in range(ell)])
        certificate = certificate - RatFun.from_lowest_terms(*steps)
    return certificate


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
