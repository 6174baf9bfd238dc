"""Independent references the benchmark checks every output against.

Nothing here imports `dresidues`: polynomials are plain lists of Fractions
(lowest degree first), residues come straight from the definition on pole
data, and relation lattices come from the orbit exponents and constants the
generator used, through a small integer kernel computation.
"""

from __future__ import annotations

from fractions import Fraction

Term = tuple[Fraction, int, Fraction]  # c / (x - alpha)^k as (alpha, k, c)


# -- dense polynomials over Q ----------------------------------------------------


def trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: list[Fraction]) -> list[Fraction]:
    return [-c for c in p]


def mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def shift(p: list[Fraction], c: int) -> list[Fraction]:
    """p(x + c) by Horner's rule on x + c."""
    out: list[Fraction] = []
    for coef in reversed(p):
        out = add(mul(out, [Fraction(c), Fraction(1)]), [coef])
    return out


def evaluate(p: list[Fraction], point: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(p):
        acc = acc * point + coef
    return acc


def is_difference(g_num, g_den, f_num, f_den) -> bool:
    """Whether g(x+1) - g(x) == f, by cross-multiplying to one polynomial
    identity: (N(x+1) D(x) - N(x) D(x+1)) F_den = F_num D(x) D(x+1)."""
    n1, d1 = shift(g_num, 1), shift(g_den, 1)
    lhs = mul(add(mul(n1, g_den), neg(mul(g_num, d1))), f_den)
    rhs = mul(mul(f_num, g_den), d1)
    return not add(lhs, neg(rhs))


# -- discrete residues by definition ---------------------------------------------


def orbit_key(alpha: Fraction) -> Fraction:
    """Rational poles share a Z-orbit exactly when they share this value."""
    return alpha - (alpha.numerator // alpha.denominator)


def merge_terms(terms) -> list[Term]:
    """Sum coefficients of equal (alpha, k) and drop zeros."""
    sums: dict[tuple[Fraction, int], Fraction] = {}
    for alpha, k, c in terms:
        sums[(alpha, k)] = sums.get((alpha, k), Fraction(0)) + c
    return [(alpha, k, c) for (alpha, k), c in sorted(sums.items()) if c != 0]


def delta_terms(terms) -> list[Term]:
    """Pole data of g(x+1) - g(x) for g given by pole data."""
    out = []
    for alpha, k, c in terms:
        out.append((alpha - 1, k, c))
        out.append((alpha, k, -c))
    return merge_terms(out)


def residues_by_definition(terms) -> dict[tuple[Fraction, int], Fraction]:
    """Nonzero discrete residues keyed by (orbit key, order)."""
    sums: dict[tuple[Fraction, int], Fraction] = {}
    for alpha, k, c in terms:
        key = (orbit_key(alpha), k)
        sums[key] = sums.get(key, Fraction(0)) + c
    return {key: v for key, v in sums.items() if v != 0}


def dres_json_matches(payload: dict, terms) -> bool:
    """Check `dres --json` output against the definition.

    Pair k must have as many rational roots among the poles of f as its
    places degree (so it is squarefree and every root is a pole), one root
    per orbit, and the values polynomial must give the orbit's order-k
    residue at that root; every orbit with a nonzero residue must appear."""
    expected = residues_by_definition(terms)
    pairs = payload["pairs"]
    if len(pairs) != max(k for _, k, _ in terms):
        return False
    poles = sorted({alpha for alpha, _, _ in terms})
    for k, pair in enumerate(pairs, 1):
        if pair["k"] != k:
            return False
        places = [Fraction(c) for c in pair["B"]]
        values = [Fraction(c) for c in pair["D"]]
        roots = [a for a in poles if evaluate(places, a) == 0]
        if len(roots) != len(places) - 1:
            return False
        got = {}
        for a in roots:
            key = (orbit_key(a), k)
            if key in got:
                return False
            got[key] = evaluate(values, a)
        want = {key: v for key, v in expected.items() if key[1] == k}
        if got != want:
            return False
    return True


# -- exact linear algebra on small matrices ---------------------------------------


def rank(rows: list[list[Fraction]]) -> int:
    mat = [[Fraction(c) for c in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            q = mat[i][col] / mat[r][col]
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form: echelon, positive pivots, entries above a
    pivot in [0, pivot).  Extended-gcd row steps on one column at a time."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        for i in range(top + 1, len(mat)):
            a, b = mat[top][col], mat[i][col]
            if b == 0:
                continue
            g, s, t = _xgcd(a, b)
            new_top = [s * u + t * v for u, v in zip(mat[top], mat[i])]
            mat[i] = [(a // g) * v - (b // g) * u for u, v in zip(mat[top], mat[i])]
            mat[top] = new_top
        if mat[top][col] == 0:
            continue
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        piv = mat[top][col]
        for i in range(top):
            q = mat[i][col] // piv
            mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
        top += 1
        if top == len(mat):
            break
    return [row for row in mat[:top] if any(row)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a - (a // b) * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def relation_lattice(orbit_exponents, constants) -> list[list[int]]:
    """HNF of the lattice of e with prod r_i^e_i a shift quotient sigma(p)/p.

    `orbit_exponents[i][o]` is the total exponent of r_i over Z-orbit o and
    `constants[i]` its constant factor (all other factors are monic).  By
    telescoping, r^e is a shift quotient exactly when every orbit's total
    exponent is zero and prod constants[i]^e_i == 1, that is, when every
    prime's exponent sums to zero and the sign exponent is even.  The kernel
    of those conditions comes from the HNF of [conditions^T | identity], with
    one slack variable of weight -2 on the sign row for the parity."""
    n = len(constants)
    valuations = [_valuations(c) for c in constants]
    primes = sorted({p for v in valuations for p in v})
    columns = [
        list(orbit_exponents[i])
        + [valuations[i].get(p, 0) for p in primes]
        + [int(constants[i] < 0)]
        + [int(i == j) for j in range(n)]
        for i in range(n)
    ]
    nconds = len(columns[0]) - n
    slack = [0] * (nconds - 1) + [-2] + [0] * n
    reduced = hnf(columns + [slack])
    return hnf([row[nconds:] for row in reduced if not any(row[:nconds])])


def _valuations(c: Fraction) -> dict[int, int]:
    """Prime exponents of a rational built from small primes."""
    out = {}
    for p in (2, 3, 5, 7):
        for part, sign in ((c.numerator, 1), (c.denominator, -1)):
            part = abs(part)
            while part % p == 0:
                part //= p
                out[p] = out.get(p, 0) + sign
    rebuilt = Fraction(-1 if c < 0 else 1)
    for p, e in out.items():
        rebuilt *= Fraction(p) ** e
    if rebuilt != c:
        raise ValueError(f"{c} has a prime factor above 7")
    return {p: e for p, e in out.items() if e}
