"""Brute-force oracle for cross-validation.

Builds rational functions from prescribed pole data with *rational* poles
(so orbit membership is decidable by exact subtraction) and computes their
discrete residues directly from the definition: group poles by integer
difference, sum the order-k coefficients within each orbit.  Also hosts the
seeded random instance generators the test suite drives everything with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .errors import DomainError
from .polys import Poly
from .ratfun import RatFun

Term = tuple[Fraction, int, Fraction]  # (pole, order, coefficient)


@dataclass(frozen=True)
class OrbitSpec:
    """A finite list of partial-fraction terms c/(x - alpha)^k with rational
    alpha, no duplicate (alpha, k), and nonzero c."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        seen = set()
        for alpha, k, c in self.terms:
            if k < 1:
                raise DomainError("orders must be positive")
            if c == 0:
                raise DomainError("coefficients must be nonzero")
            if (alpha, k) in seen:
                raise DomainError(f"duplicate term at ({alpha}, {k})")
            seen.add((alpha, k))


def orbit_spec(terms) -> OrbitSpec:
    return OrbitSpec(tuple((Fraction(a), int(k), Fraction(c)) for a, k, c in terms))


def build_from_spec(spec: OrbitSpec) -> RatFun:
    """Expand sum of c/(x - alpha)^k to a reduced rational function."""
    acc = RatFun(Poly())
    for alpha, k, c in spec.terms:
        acc = acc + RatFun(Poly([c]), Poly([-alpha, 1]) ** k)
    return acc


def dres_by_definition(spec: OrbitSpec) -> list[tuple[Fraction, int, Fraction]]:
    """Discrete residues straight from the definition.

    Returns (representative, order, value) triples sorted by representative
    then order, where the representative is the minimal pole of the orbit
    among the terms present, and zero sums are dropped.
    """
    # Poles are in one orbit exactly when they differ by an integer, i.e.
    # share their fractional part.
    reps: dict[Fraction, Fraction] = {}
    for alpha, _, _ in spec.terms:
        key = alpha - alpha.numerator // alpha.denominator
        reps[key] = min(reps.get(key, alpha), alpha)
    sums: dict[tuple[Fraction, int], Fraction] = {}
    for alpha, k, c in spec.terms:
        key = alpha - alpha.numerator // alpha.denominator
        pair = (reps[key], k)
        sums[pair] = sums.get(pair, Fraction(0)) + c
    return sorted((rep, k, v) for (rep, k), v in sums.items() if v != 0)


# -- spec files --------------------------------------------------------------


def parse_spec_text(text: str) -> OrbitSpec:
    """One term per line: `alpha k c` in exact rational literal syntax,
    e.g. `-3 1 1/1080` or `0.5 2 -3`, with no exponent.  Blank lines and `#`
    comments are skipped."""
    terms: list[Term] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise DomainError(f"line {lineno}: expected `alpha k c`, got {raw!r}")
        if "e" in (fields[0] + fields[2]).lower():  # Fraction("1e999999999") builds the power
            raise DomainError(f"line {lineno}: exponent literals are not accepted, got {raw!r}")
        try:
            alpha, k, c = Fraction(fields[0]), int(fields[1]), Fraction(fields[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
        terms.append((alpha, k, c))
    return OrbitSpec(tuple(terms))


# -- rational root extraction (for aligning symbolic output with the oracle) --


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, with multiplicity ignored.

    With c the primitive integer coefficients of p, n its degree and
    l = c_n, the rational roots are y/l for the integer roots y of the monic
    sum(c_k l^(n-1-k) y^k) (y = l*x)."""
    if p.is_zero:
        raise DomainError("the zero polynomial has every rational as a root")
    cs = polys._to_int_primitive(p)
    n, lead = len(cs) - 1, cs[-1]
    monic = Poly([c * lead ** (n - 1 - k) for k, c in enumerate(cs[:-1])] + [1])
    return sorted(Fraction(y, lead) for y in polys.integer_roots(monic))


# -- seeded random instance generators ----------------------------------------


def random_orbit_spec(
    rng: random.Random,
    max_orbits: int = 6,
    max_order: int = 4,
    max_terms_per_orbit: int = 3,
    bases: list[Fraction] | None = None,
    max_shift: int = 4,
) -> OrbitSpec:
    """A random oracle instance: rational poles grouped in a few Z-orbits,
    small orders, small nonzero coefficients.  An explicit `bases` list pins
    the orbits to draw from (useful to keep denominator lcms small when many
    instances are combined)."""
    if bases is None:
        n_orbits = rng.randint(1, max_orbits)
        bases = []
        fracs = set()
        while len(bases) < n_orbits:
            alpha = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
            key = alpha - alpha.numerator // alpha.denominator
            if key in fracs:
                continue
            fracs.add(key)
            bases.append(alpha)
    terms: list[Term] = []
    used = set()
    for base in bases:
        for _ in range(rng.randint(1, max_terms_per_orbit)):
            alpha = base + rng.randint(0, max_shift)
            k = rng.randint(1, max_order)
            if (alpha, k) in used:
                continue
            used.add((alpha, k))
            c = Fraction(0)
            while c == 0:
                c = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            terms.append((alpha, k, c))
    return OrbitSpec(tuple(terms))


def random_summable(
    rng: random.Random,
    max_order: int = 3,
    bases: list[Fraction] | None = None,
    max_shift: int = 4,
) -> RatFun:
    """Delta(g) for a random nonzero proper g built from pole data."""
    while True:
        g = build_from_spec(
            random_orbit_spec(
                rng, max_orbits=3, max_order=max_order, bases=bases, max_shift=max_shift
            )
        )
        if not g.is_zero:
            return g.delta()


def random_dispersion_zero(rng: random.Random, max_poles: int = 4) -> RatFun:
    """A nonzero simple-pole function whose poles all sit in distinct orbits,
    hence polar dispersion zero and (being nonzero) never summable."""
    n = rng.randint(1, max_poles)
    terms: list[Term] = []
    fracs = set()
    while len(terms) < n:
        alpha = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        key = alpha - alpha.numerator // alpha.denominator
        if key in fracs:
            continue
        fracs.add(key)
        c = Fraction(0)
        while c == 0:
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        terms.append((alpha, 1, c))
    return build_from_spec(OrbitSpec(tuple(terms)))


def random_poly(rng: random.Random, degree: int, coeff_range: int = 9) -> Poly:
    """A random polynomial of exactly the given degree with small integer
    coefficients."""
    coeffs = [Fraction(rng.randint(-coeff_range, coeff_range)) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = Fraction(rng.randint(-coeff_range, coeff_range))
    return Poly(coeffs + [lead])
