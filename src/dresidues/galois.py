"""Multiplicative-relation lattices for diagonal difference systems.

For nonzero rational functions r_1, ..., r_n, the lattice of integer vectors
e with r_1^e_1 ... r_n^e_n a shift-quotient sigma(p)/p determines the
difference Galois group of the diagonal system sigma(Y) = diag(r_i) Y.  It is
computed factorization-free: log-derivatives turn the multiplicative problem
into a summability problem with integer residues, the integer kernel of the
rows of their residue sums (`reduction._simple_readout`, `_coefficient_rows`,
as in `summability.vspace`) gives the candidate lattice, and exact constants
gamma_j decide which candidates are genuine relations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass

from . import polys
from .errors import DomainError, InternalError
from .polys import ONE, ZERO, Poly
from .ratfun import RatFun
from .reduction import _simple_readout, _suffix_certificate, _validate_simple


def log_derivative(r: RatFun) -> RatFun:
    """d/dx(r) / r.  Always proper with simple poles and integer residues
    (the residue at a root of the numerator or denominator of r is its
    multiplicity, with sign).

    >>> log_derivative(RatFun(Poly([0, 0, 1])))
    RatFun('(2)/(x)')
    """
    if r.is_zero:
        raise DomainError("log derivative of zero")
    out = r.derivative() / r
    if not out.is_proper or not polys.is_squarefree(out.den):
        raise InternalError("log derivative must be proper with simple poles")
    return out


def exp_log_derivative(g: RatFun) -> RatFun:
    """The monic rational function p with d/dx(p) / p = g, without factoring.

    For g = a/b the candidate residues are the integer roots of the
    Rothstein-Trager resultant Res_x(b, a - z*b') (Bronstein, *Symbolic
    Integration I*, 2.5): at a simple root t of b, a(t) - z*b'(t) =
    b'(t) * (c - z) for the residue c there, and the multiplicity-c part of p
    is gcd(b, a - c*b').  For b = s*B with B primitive of degree n, and
    l*(a - z*b') = A - z*D over the integers, it is s^(n-1) l^(-n) Res_x(B, A - z*D),
    interpolated from integer subresultants at z = 0..n, each times
    lc(B)^(n-1-deg(A - z*D)) to keep the formal x-degree n - 1.  Raises DomainError
    when g is not a log derivative (non-integer residues or a repeated pole)."""
    if not g.is_proper:
        raise DomainError("exp_log_derivative requires a proper input")
    if g.is_zero:
        return RatFun(ONE)
    a, b = g.num, g.den
    db = b.derivative()
    n = b.degree
    big = polys._to_int_primitive(b)
    lam = math.lcm(a._d, db._d)
    lins = (polys._norm(polys._lin_int(a._c, lam // a._d, db._c, -j * (lam // db._d)), 1)[0] for j in range(n + 1))
    values = [polys._subresultant(big, lin) * big[-1] ** (n - len(lin)) if lin else 0 for lin in lins]
    norm = polys._new(polys._from_falling(polys._newton(values)), 1) * ((b.lc / big[-1]) ** (n - 1) / lam**n)
    cands = sorted(polys.integer_roots(norm) - {0})
    num = den = cover = ONE
    for c in cands:
        part = polys.gcd(b, a - db * c)
        cover = cover * part
        if c > 0:
            num = num * part**c
        else:
            den = den * part ** (-c)
    if cover != b:
        raise DomainError("input is not a logarithmic derivative (non-integer residues)")
    p = RatFun(num, den)
    if log_derivative(p) != g:
        raise DomainError("input is not a logarithmic derivative (reconstruction failed)")
    return p


# -- integer linear algebra -----------------------------------------------------


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the lattice {e in Z^ncols : M e = 0}: the rows of the Hermite
    normal form of [M^T | I] whose M^T part is zero, restricted to the I part
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4).  Those
    rows are the bottom block of an echelon form, so the basis is already its
    own Hermite normal form: echelon, positive pivots, reduced entries above
    each pivot."""
    m = len(rows)
    aug = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return [row[m:] for row in hermite_normal_form(aug) if not any(row[:m])]


def _integer_row(row: list[Fraction]) -> list[int]:
    """A rational row scaled by the lcm of its denominators."""
    fr = [Fraction(c) for c in row]
    scale = math.lcm(*(c.denominator for c in fr))
    return [c.numerator * (scale // c.denominator) for c in fr]


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row-style Hermite normal form of the lattice spanned by the
    given integer rows: echelon shape, positive pivots, entries above a pivot
    reduced into [0, pivot).  Two bases span the same lattice exactly when
    their normal forms are equal."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(rank, len(mat)) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i == piv:
                    continue
                q = mat[i][col] // mat[piv][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[piv])]
        nz = [i for i in range(rank, len(mat)) if mat[i][col] != 0]
        if not nz:
            continue
        i = nz[0]
        mat[rank], mat[i] = mat[i], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-a for a in mat[rank]]
        for i in range(rank):
            q = mat[i][col] // mat[rank][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return mat[:rank]


def lattice_contains(basis: list[list[int]], vec: list[int]) -> bool:
    """Membership of an integer vector in the lattice spanned by `basis`."""
    return hermite_normal_form(basis + [vec]) == hermite_normal_form(basis)


def factor_rational(q: Fraction) -> tuple[int, dict[int, int]]:
    """Sign and prime exponent vector of a nonzero rational number."""
    if q == 0:
        raise DomainError("cannot factor zero")
    sign = -1 if q < 0 else 1
    exps = dict(polys.factor_int(q.numerator * sign))
    for p, e in polys.factor_int(q.denominator).items():
        exps[p] = exps.get(p, 0) - e
    return sign, {p: e for p, e in exps.items() if e}


# -- the two lattice applications -----------------------------------------------


def integer_lattice_solutions(fs: list[RatFun]) -> list[list[int]]:
    """Z-basis of the integer vectors e with e . f summable, for proper
    simple-pole inputs (log-derivative shaped, with integer residues).

    e . f is summable exactly when sum e_i R_i = 0 for the residue sums
    R_i = sum_l T_l mod initial of the orbit read-out
    (`reduction._simple_readout`), so the lattice is the integer kernel of
    their denominators-cleared coefficient rows, returned in Hermite normal
    form."""
    if not fs:
        raise DomainError("integer_lattice_solutions requires at least one function")
    for f in fs:
        _validate_simple(f, "integer_lattice_solutions")
    return _solution_lattice(_simple_readout(fs)[2])


def _coefficient_rows(sums: list[list[Poly]]) -> list[list[int]]:
    """The conditions sum_i v_i R_ik = 0 on the residue sums R_ik of input i and order k: one integer
    row per order and power of x, cleared of denominators, zero rows dropped."""
    rows = [_integer_row([r.coeff(power) for r in col]) for col in zip(*sums) for power in range(max(len(r._c) for r in col))]
    return [row for row in rows if any(row)]


def _solution_lattice(sums: list[Poly]) -> list[list[int]]:
    """The integer kernel of the residue sums R_i."""
    return integer_kernel(_coefficient_rows([[r] for r in sums]), len(sums))


@dataclass(frozen=True)
class RelationLattice:
    """Output of `multiplicative_relations`.

    `candidate_basis` spans the lattice of e with e . (log-derivatives)
    summable; `gammas[j]` is the constant (prod r_i^e_i) * p / sigma(p) for
    the j-th candidate with its witness p in `witnesses[j]`; `basis` spans the
    sublattice of genuine multiplicative relations, in candidate coordinates
    mapped back to Z^n."""

    candidate_basis: list[list[int]]
    gammas: list[Fraction]
    witnesses: list[RatFun]
    basis: list[list[int]]


def multiplicative_relations(rs: list[RatFun]) -> RelationLattice:
    """The lattice of integer e with r^e a shift-quotient sigma(p)/p.

    Each candidate e must have sum e_i R_i = 0 for the residue sums R_i of
    the log-derivatives; its witness p comes through `exp_log_derivative`
    from one `_suffix_certificate` of the e-weighted terms.

    >>> x = Poly([0, 1])
    >>> multiplicative_relations([RatFun(x), RatFun(2 * x)]).gammas
    [Fraction(1, 2)]
    """
    if not rs:
        raise DomainError("multiplicative_relations requires at least one function")
    if any(r.is_zero for r in rs):
        raise DomainError("multiplicative_relations requires nonzero functions")
    (_, _, initial, _), terms, sums = _simple_readout([log_derivative(r) for r in rs])
    candidates = _solution_lattice(sums)
    gammas: list[Fraction] = []
    witnesses: list[RatFun] = []
    for e in candidates:
        if not sum((r * ei for ei, r in zip(e, sums)), ZERO).is_zero:
            raise InternalError("candidate relation is not summable")
        weighted = [(ell, t * ei) for ei, ts in zip(e, terms) if ei for ell, t in ts]
        p = exp_log_derivative(_suffix_certificate(weighted, initial))
        gamma_fun = math.prod((ri**ei for ei, ri in zip(e, rs)), start=RatFun(ONE)) * p / p.sigma()
        if not (gamma_fun.num.is_constant and gamma_fun.den.is_constant):
            raise InternalError("relation constant is not constant")
        gammas.append(gamma_fun.num.coeff(0))
        witnesses.append(p)
    basis = [_combine(m, candidates) for m in _unit_product_kernel(gammas)]
    return RelationLattice(candidates, gammas, witnesses, hermite_normal_form(basis))


def _combine(m: list[int], basis: list[list[int]]) -> list[int]:
    out = [0] * len(basis[0])
    for mj, ej in zip(m, basis):
        out = [a + mj * b for a, b in zip(out, ej)]
    return out


def _unit_product_kernel(gammas: list[Fraction]) -> list[list[int]]:
    """Basis of {m in Z^s : prod gammas[j]^m[j] = 1}.

    The prime-exponent rows E and the sign row S (1 for a negative gamma)
    take a slack column: the kernel of [[E, 0], [S, 2]] maps one-to-one onto
    {m : E m = 0, S m even} by dropping the slack coordinate, so a basis maps
    to a basis (Cohen, 2.4)."""
    s = len(gammas)
    factored = [factor_rational(q) for q in gammas]
    primes = sorted({p for _, e in factored for p in e})
    rows = [[e.get(p, 0) for _, e in factored] + [0] for p in primes]
    rows.append([int(sign < 0) for sign, _ in factored] + [2])
    return [m[:s] for m in integer_kernel(rows, s + 1)]
