"""Hermite reduction and its iteration into simple-pole layers.

`hermite_reduction` splits a proper f as f = d/dx(g) + h with h proper and
squarefree-denominated; `hermite_list` iterates it and rescales so that layer
k carries exactly the order-k coefficients of the full partial fraction
decomposition of f.  Both outputs are canonical: they are uniquely determined
by the stated degree/squarefreeness constraints, independent of the reduction
variant used.

Both are one core.  Yun's algorithm runs once, on den(f) = prod q_i^i, and f
is split once as f = sum a_i / q_i^i.  From then on every Hermite step of
every layer works modulo one q_i alone: with s = 1/q' mod q, a step on n/q^e
(e >= 2) takes b = n*s mod q and c = (n - b*q')/q, so that

    n/q^e = d/dx(-b / ((e-1) q^(e-1))) + (b'/(e-1) + c) / q^(e-1).

The g of a layer needs no gcd, because pole orders drop by exactly one.  A
layer starts from n coprime to q (the split of a reduced f gives that), so
its first b is coprime to q too, and the class's part of g is G/q^(e-1) with
G = -b/(e-1) mod q: in lowest terms, and again coprime to q for the next
layer.  g is carried to that layer as these numerators, with no second
squarefree decomposition.  Only h = sum r_i/q_i, whose numerators may vanish
or share a factor with q_i, is normalised, by one gcd per layer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import polys
from .errors import DomainError, InternalError
from .polys import ONE, ZERO, Poly
from .ratfun import RF_ZERO, RatFun

# The state of one class: n / q^e, with q' and 1/q' mod q (None when e = 1).
_State = tuple[Poly, int, Poly, Poly | None, Poly | None]


def _classes(f: RatFun) -> tuple[tuple[Poly, int], ...]:
    decomp = polys.squarefree_decomposition(f.den)
    if decomp.unit != 1:
        raise InternalError("denominator of a RatFun must be monic")
    return decomp.factors


def _in_base(digits: list[Poly], q: Poly) -> Poly:
    """sum_j digits[j] * q^j, by Horner."""
    acc = ZERO
    for d in reversed(digits):
        acc = acc * q + d
    return acc


def _split(f: RatFun, classes: tuple[tuple[Poly, int], ...]) -> list[_State]:
    """f = sum a_i / q_i^i, as one state per class.

    For i >= 2, a = a_i solves C*a = num mod q^i, with q = q_i and C = den/q^i.
    It is found digit by digit in base q, a = sum_j d_j q^j, with
    d_j = n_j/C mod q, n_0 = num and n_(j+1) = (n_j - C*d_j)/q.  One inverse,
    w = 1/(C*q') mod q, gives both 1/C = w*q' and s = 1/q' = w*C mod q.  The
    class of multiplicity 1, if any, takes what is left: a_1 = (num - sum a_i C_i) / (den/q_1).
    """
    if len(classes) == 1:
        ((q, i),) = classes
        dq = q.derivative()
        return [(q, i, f.num, dq, polys.inverse_mod(dq, q))]
    states, rest, high = [], f.num, ONE
    for q, i in classes:
        if i == 1:
            continue
        power = q**i
        high = high * power
        cof = f.den.exact_div(power)
        dq, cof_q = q.derivative(), cof % q
        w = polys.inverse_mod(cof_q * dq, q)
        t, s = (w * dq) % q, (w * cof_q) % q
        n, digits = f.num, []
        for _ in range(i):
            quo, rem = n.divrem(q)
            d = (rem * t) % q
            digits.append(d)
            n = quo + (rem - cof * d).exact_div(q)
        a = _in_base(digits, q)
        rest = rest - a * cof
        states.append((q, i, a, dq, s))
    if classes[0][1] == 1:
        states.insert(0, (classes[0][0], 1, rest.exact_div(high), None, None))
    return states


def _reduce(q: Poly, e: int, n: Poly, dq: Poly | None, s: Poly | None) -> tuple[Poly, Poly]:
    """n/q^e = d/dx(G/q^(e-1)) + r/q, by Hermite steps modulo q alone: (G, r)."""
    pieces = []
    while e > 1:
        quo, rem = n.divrem(q)
        b = (rem * s) % q
        c = quo + (rem - b * dq).exact_div(q)
        scale = Fraction(1, e - 1)
        pieces.append(b * -scale)
        n = b.derivative() * scale + c
        e -= 1
    return _in_base(pieces, q), n


def _step(states: list[_State]) -> tuple[list[_State], list[tuple[Poly, Poly]]]:
    """One Hermite reduction of sum n/q^e: the states of g and the parts (r, q) of h."""
    nxt, parts = [], []
    for q, e, n, dq, s in states:
        g, r = _reduce(q, e, n, dq, s)
        parts.append((r, q))
        if not g.is_zero:
            nxt.append((q, e - 1, g, dq, s))
    return nxt, parts


def _over_product(terms: list[tuple[Poly, Poly]]) -> tuple[Poly, Poly]:
    """sum n/d over terms with pairwise coprime monic d, as a numerator over the product of the d."""
    terms = [(n, d) for n, d in terms if not n.is_zero]
    den = ONE
    for _, d in terms:
        den = den * d
    num = ZERO
    for n, d in terms:
        num = num + n * den.exact_div(d)
    return num, den


def hermite_reduction(f: RatFun) -> tuple[RatFun, RatFun]:
    """Split a proper f as f = d/dx(g) + h, h with squarefree denominator.

    One layer of the per-class reduction (see the module docstring); g is
    built in lowest terms without a gcd.
    """
    if not f.is_proper:
        raise DomainError("hermite reduction requires a proper rational function")
    if f.is_zero:
        return RF_ZERO, RF_ZERO
    classes = _classes(f)
    if max(i for _, i in classes) == 1:
        return RF_ZERO, f
    nxt, parts = _step(_split(f, classes))
    g = RatFun.from_lowest_terms(*_over_product([(n, q**e) for q, e, n, _, _ in nxt]))
    return g, RatFun(*_over_product(parts))


def hermite_list(f: RatFun) -> list[RatFun]:
    """Iterated Hermite reduction: the layers (f_1, ..., f_m).

    Layer k is the simple-pole function whose residues are the order-k
    coefficients of the partial fraction decomposition of f, i.e.
    f = sum_k ((-1)^(k-1)/(k-1)!) * d^(k-1)/dx^(k-1) (f_k);
    m is the highest pole order of f, interior layers may be zero, and the
    last layer is nonzero.
    """
    if f.is_zero or not f.is_proper:
        raise DomainError("hermite_list requires a nonzero proper rational function")
    classes = _classes(f)
    top = max(i for _, i in classes)
    if top == 1:
        return [f]
    states = _split(f, classes)
    layers: list[RatFun] = []
    while states:
        k = len(layers)
        states, parts = _step(states)
        num, den = _over_product(parts)
        layers.append(RatFun(num * ((-1) ** k * math.factorial(k)), den))
    if len(layers) != top:
        raise InternalError(f"{len(layers)} Hermite layers for a pole of order {top}")
    if layers[-1].is_zero:
        raise InternalError("the last Hermite layer is zero")
    return layers
