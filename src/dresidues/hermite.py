"""Hermite reduction and its iteration into simple-pole layers.

`hermite_reduction` splits a proper f as f = d/dx(g) + h with h proper and
squarefree-denominated; `hermite_list` iterates it and rescales so that layer
k carries exactly the order-k coefficients of the full partial fraction
decomposition of f.  Both outputs are canonical: they are uniquely determined
by the stated degree/squarefreeness constraints, independent of the reduction
variant used.

Both are one core.  Yun's algorithm runs once, on den(f) = prod q_i^i, and f
is split once as f = sum a_i / q_i^i, each class a/q^e carried as the e
base-q digits of a (a = sum_j d_j q^j, deg d_j < deg q).  From then on every
Hermite step of every layer works modulo one q_i alone: with s = 1/q' mod q,
a step on a/q^e (e >= 2) takes b = d_0*s mod q and c = (a - b*q')/q, so that

    a/q^e = d/dx(-b / ((e-1) q^(e-1))) + (b'/(e-1) + c) / q^(e-1).

The new numerator's digits are d_1 + (d_0 - b*q')/q + b'/(e-1), d_2, ...,
d_(e-1): a step touches only the two lowest digits, divides nothing of
degree 2 deg q - 1 or more, and a class of multiplicity i costs O(i^2) such
steps over all its layers.

The g of a layer needs no gcd, because pole orders drop by exactly one.  A
layer starts from a coprime to q (the split of a reduced f gives that), so
its first b is coprime to q too, and the class's part of g is G/q^(e-1),
whose digits are the -b/(e-1) of the steps: in lowest terms, and again
coprime to q for the next layer, which starts from them with no second
squarefree decomposition.  `_remainders`, the one layer loop, gives each
layer's parts r_i/q_i for several numerators over one den with no gcd and no
inverse; only h = sum r_i/q_i, whose numerators may vanish or share a factor
with q_i, is normalised (`hermite_reduction`, each layer of `hermite_list`).

The set-up (Yun, q^i, den/q^i and the inverses), the split and the steps run
on the integer-list kernels of `polys`, each digit, q' and s a Poly's
(integers, denominator) pair in lowest terms; a Poly is built only for each
class with its den/q^i, t and s, each layer's r and `_in_base`.  Exact divisions (`_exact_int`) divide
by the primitive integer form q._c of the monic q = q._c / q._d, so by Gauss's
lemma the quotient is integral, and a remainder or a scale raises InexactDivisionError.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import polys
from .errors import DomainError, InternalError
from .polys import ZERO, Poly
from .ratfun import RF_ZERO, RatFun, _over_product

# A polynomial (c_0 + c_1 x + ...) / d as a Poly's (_c, _d) pair.  The state
# of one class a / q^e: q, e, the e base-q digits of a, q' and 1/q' mod q
# (None when e = 1).  A step rewrites only the two lowest digits, so the
# class costs O(e^2) steps on polynomials of degree below 2 deg q.
_Pair = tuple[Sequence[int], int]
_State = tuple[Poly, int, list[_Pair], _Pair | None, _Pair | None]


def _in_base(digits: list[_Pair], q: Poly) -> Poly:
    """sum_j digits[j] * q^j, by Horner."""
    acc = ZERO
    for c, d in reversed(digits):
        acc = acc * q + polys._new(list(c), d)
    return acc


def _mod(a: list[int], d: int, big: Sequence[int]) -> _Pair:
    """(a/d) mod q for q = big/lc(big)."""
    _, r, m = polys._divrem_int(a, big)
    return polys._norm(r, m * d)


def _setup(den: Poly) -> tuple[list[tuple], tuple[Poly, Poly] | None]:
    """What `_split` needs of den = prod q_i^i, from one Yun: per class with i >= 2, by increasing i,
    (q, i, C = den/q^i, q', t = w*q' = 1/C, s = w*C = 1/q' mod q), w = 1/(C*q') mod q; (q_1, den/q_1) if any.
    Each is found on the primitive integer forms: q^i by binary powering, C by one exact division,
    C mod q, w by one `_ext_subresultant` and t, s by `_mod`; a Poly is built only for C, t and s."""
    decomp = polys.squarefree_decomposition(den)
    if decomp.unit != 1:
        raise InternalError("denominator of a RatFun must be monic")
    classes, setup = decomp.factors, []
    for q, i in (c for c in classes if c[1] > 1):
        big = q._c
        cof = polys._exact_int(den._c, polys._pow_int(big, i))
        (cc, cd), dq = _mod(cof, cof[-1], big), polys._norm([k * c for k, c in enumerate(big[1:], 1)], q._d)
        pc, pd = _mod(polys._mul_int(cc, dq[0]), cd * dq[1], big)  # C q' mod q = pc/pd
        rem, u = polys._ext_subresultant(big, pc)  # u pc = rem mod q, so w = u pd / rem
        if len(rem) != 1:
            raise DomainError(f"{polys._new(pc, pd)} is not invertible modulo {q}")
        w = [c * pd for c in u]
        t, s = (polys._new(*_mod(polys._mul_int(w, a), rem[0] * d, big)) for a, d in (dq, (cc, cd)))
        setup.append((q, i, polys._new(cof, cof[-1]), dq, t, s))
    if classes[0][1] > 1:
        return setup, None
    rest = polys._exact_int(den._c, classes[0][0]._c)
    return setup, (classes[0][0], polys._new(rest, rest[-1]))


def _split(num: Poly, setup: tuple[list[tuple], tuple[Poly, Poly] | None]) -> list[_State]:
    """num/den = sum a_i / q_i^i, as one state per class, from `_setup(den)`.

    For i >= 2, a = a_i solves C*a = num mod q^i, with q = q_i and C = den/q^i.
    It is found digit by digit in base q, a = sum_j d_j q^j, with
    d_j = n_j*t mod q, n_0 = num and n_(j+1) = (n_j - C*d_j)/q.  The class
    of multiplicity 1, if any, takes what is left: a_1 = (num - sum a_i C_i) / (den/q_1).
    """
    (per_class, simple), states, rest = setup, [], num
    for q, i, cof, dq, t, s in per_class:
        big, qd, n, nd, digits = q._c, q._d, num._c, num._d, []
        for _ in range(i):
            # n/nd = (quo qd/e1) q + r/e1, with e1 = m nd and big = qd q
            quo, r, m = polys._divrem_int(n, big)
            e1 = m * nd
            dc, dd = _mod(polys._mul_int(r, t._c), e1 * t._d, big)
            digits.append((dc, dd))
            # the next n is quo qd/e1 + (r/e1 - cof d)/q, over lcm(e1, e2) = e1 h
            e2 = cof._d * dd
            h = e2 // math.gcd(e1, e2)
            top = polys._exact_int(polys._lin_int(r, h, polys._mul_int(cof._c, dc), -(e1 * h // e2)), big)
            n, nd = polys._norm(polys._lin_int(quo, qd * h, top, qd), e1 * h)
        if simple:
            rest = rest - _in_base(digits, q) * cof
        states.append((q, i, digits, dq, (s._c, s._d)))
    if simple:  # its own digit takes one more inverse mod q_1: +3-6 ms per 0.15 s seed-1 perfbench pass
        a = rest.exact_div(simple[1])
        states.insert(0, (simple[0], 1, [(a._c, a._d)], None, None))
    return states


def _reduce(q: Poly, e: int, digits: list[_Pair], dq: _Pair | None, s: _Pair | None) -> tuple[list[_Pair], Poly]:
    """a/q^e = d/dx(G/q^(e-1)) + r/q, by Hermite steps on the two lowest
    base-q digits of a: (the digits of G, r)."""
    big, qd = q._c, q._d
    (low, ld), pieces = digits[0], []
    for k, (dc, dd) in zip(range(e - 1, 0, -1), digits[1:]):
        bc, bd = _mod(polys._mul_int(low, s[0]), ld * s[1], big)  # b = low*s mod q
        pieces.append(polys._norm([-c for c in bc], bd * k))  # -b/k
        # With q' = dq[0]/pd, (low - b*q')/q = quo*qd/(ld*bd*pd), and the new
        # low is that + b'/k + the next digit: over den = ld*bd*pd*k, then
        # over its lcm with dd.
        pd = dq[1]
        quo = polys._exact_int(polys._lin_int(low, bd * pd, polys._mul_int(bc, dq[0]), -ld), big)
        den = ld * bd * pd * k
        top = polys._lin_int(quo, qd * k, [j * c for j, c in enumerate(bc[1:], 1)], ld * pd)
        g = math.gcd(dd, den)
        low, ld = polys._norm(polys._lin_int(top, dd // g, dc, den // g), den // g * dd)
    return pieces, polys._new(list(low), ld)


def _step(states: list[_State]) -> tuple[list[_State], list[tuple[Poly, Poly]]]:
    """One Hermite reduction of sum a/q^e: the states of g and the parts (r, q) of h."""
    nxt, parts = [], []
    for q, e, digits, dq, s in states:
        pieces, r = _reduce(q, e, digits, dq, s)
        parts.append((r, q))
        if pieces:
            nxt.append((q, e - 1, pieces, dq, s))
    return nxt, parts


def hermite_reduction(f: RatFun) -> tuple[RatFun, RatFun]:
    """Split a proper f as f = d/dx(g) + h, h with squarefree denominator.

    One layer of the per-class reduction (see the module docstring); g is
    built in lowest terms without a gcd.
    """
    if not f.is_proper:
        raise DomainError("hermite reduction requires a proper rational function")
    if f.is_zero:
        return RF_ZERO, RF_ZERO
    nxt, parts = _step(_split(f.num, _setup(f.den)))
    g = RatFun.from_lowest_terms(*_over_product([(_in_base(digits, q), q**e) for q, e, digits, _, _ in nxt]))
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
    (row,), _ = _remainders([f.num], f.den)
    layers = [RatFun(*_over_product(parts)) for parts in row]
    if layers[-1].is_zero:
        raise InternalError("the last Hermite layer is zero")
    return layers


def _remainders(nums: list[Poly], den: Poly) -> tuple[list[list[list[tuple[Poly, Poly]]]], Poly]:
    """(per proper num/den and layer k, the part ((-1)^(k-1) (k-1)! r, q) of each class q, with r/q
    its part of the k-th Hermite remainder, so the residue of the part at each root of q is the order-k
    coefficient of num/den there; and b = prod q).  A zero num has no layers, any other one a layer per pole order,
    checked.  The parts are plain proper fractions: `reduction._orbit_residues` reads their residues per orbit piece."""
    setup = _setup(den)
    top, rows = setup[0][-1][1] if setup[0] else 1, []  # a squarefree den is one class of multiplicity 1
    for num in nums:
        states, row = ([] if num.is_zero else _split(num, setup)), []
        while states:
            states, parts = _step(states)
            scale = (-1) ** len(row) * math.factorial(len(row))
            row.append([(r * scale, q) for r, q in parts] if row else parts)
        if row and len(row) != top:
            raise InternalError(f"{len(row)} Hermite layers for a pole of order {top}")
        rows.append(row)
    qs = [c[0] for c in [*setup[0], setup[1]] if c]
    return rows, math.prod(qs[1:], start=qs[0])
