"""Shift-reduction of simple-pole rational functions to reduced forms.

A reduced form of f is an f-bar with f - f-bar rationally summable and
f-bar either zero or of polar dispersion zero (at most one pole per
Z-orbit, sitting at the leftmost pole of the orbit).  `simple_reduction`
handles one function; `simple_reduction_multi` reduces several functions
against one shared divisor of initial roots so that common orbits show up
as common poles across the outputs.  Within one call (`_prelude`), inputs
over one denominator D share its split over the shifted initial roots and
the inverse 1/D' mod D of their partial fractions, and a zero input passes
through with no gcd.

The certificate -sum_l sum_(i<l) sigma^i(N_l/F_l) (`_certificate`, from a
run's parts) takes one gcd-free `ratfun._over_product` per distinct l: every
root of F_l lies l steps right of an initial root and no two initial roots
share a Z-orbit, so the sigma^i(F_l), i < l, are pairwise coprime.  The
pieces sigma^l(N_l/F_l) of a reduced form may share poles across l: `_reduce`
adds them as RatFuns, `_reduced_numerators` as sum_l sigma^l(N_l) *
initial/sigma^l(F_l) over initial, with no gcd, its inputs maybe not in lowest terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polys, shiftset
from .errors import DomainError
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


def _prelude(pairs: list[tuple[Poly, Poly]]) -> tuple[Poly, dict[int, Poly], Poly, list[tuple | None]]:
    """What both finishers share, for num/den with squarefree den: initial, the
    shift gcds, their lcm, and per input None (num = 0) or (F_l's, l's, N_l's)."""
    b = polys.lcm_all(den for num, den in pairs if not num.is_zero)
    shifts = shiftset.shift_set(b).shifts
    shift_gcds = {ell: polys.gcd(b, b.shift(-ell)) for ell in shifts}
    overlap = polys.lcm_all(shift_gcds.values())
    initial = b.exact_div(overlap)
    moved = {ell: initial.shift(-ell) for ell in shifts}
    splits: dict[Poly, tuple[dict[int, Poly], tuple[int, ...], Poly]] = {}
    out: list[tuple | None] = []
    for num, den in pairs:
        if num.is_zero:
            out.append(None)
            continue
        if den not in splits:
            factors = {0: polys.gcd(initial, den)}
            for ell in shifts:
                bl = polys.gcd(moved[ell], den)
                if not bl.is_constant:
                    factors[ell] = bl
            w = polys.inverse_mod(den.derivative(), den)
            splits[den] = (factors, tuple(sorted(factors)), w)
        factors, indices, w = splits[den]
        out.append((factors, indices, dict(zip(indices, _parfrac(num, den, [factors[ell] for ell in indices], w)))))
    return initial, shift_gcds, overlap, out


def _reduce(fs: list[RatFun], want_certificate: bool) -> list[ReductionOutput]:
    """Reduce each of fs against the divisor of initial roots of the lcm b of
    their denominators.  For one input, gcd(initial, f.den) = initial."""
    initial, shift_gcds, overlap, splits = _prelude([(f.num, f.den) for f in fs])
    out: list[ReductionOutput] = []
    for split in splits:
        if split is None:
            parts = ReductionParts(initial, (0,), {0: ONE}, {0: ZERO}, shift_gcds, overlap)
            out.append(ReductionOutput(RF_ZERO, RF_ZERO if want_certificate else None, parts))
            continue
        factors, indices, numerators = split
        reduced = RF_ZERO
        for ell in indices:
            # f is in lowest terms with a squarefree denominator, so no residue is zero.
            reduced = reduced + RatFun.from_lowest_terms(numerators[ell], factors[ell]).sigma(ell)
        parts = ReductionParts(initial, indices, dict(factors), numerators, shift_gcds, overlap)
        out.append(ReductionOutput(reduced, _certificate(parts) if want_certificate else None, parts))
    return out


def _reduced_numerators(pairs: list[tuple[Poly, Poly]]) -> tuple[Poly, list[Poly]]:
    """(initial, each num/den's reduced form as one numerator over initial)."""
    initial, _, _, splits = _prelude(pairs)
    cofactors: dict[Poly, list[Poly]] = {}  # initial/sigma^l(F_l) per den, by l
    out: list[Poly] = []
    for (_, den), split in zip(pairs, splits):
        factors, indices, numerators = split or ({}, (), {})  # a zero num sums to ZERO
        if split and den not in cofactors:
            cofactors[den] = [initial.exact_div(factors[ell].shift(ell)) for ell in indices]
        out.append(sum((numerators[ell].shift(ell) * cof for ell, cof in zip(indices, cofactors.get(den, ()))), ZERO))
    return initial, out


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
