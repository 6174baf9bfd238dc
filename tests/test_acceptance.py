"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every check is exact (tolerance zero)."""

import random
import time
from fractions import Fraction

from conftest import assert_pairs_match_oracle, resultant_shift_prs
from dresidues.galois import (
    hermite_normal_form,
    lattice_contains,
    multiplicative_relations,
)
from dresidues.hermite import hermite_list
from dresidues.polys import ONE, Poly, X, is_squarefree, resultant_shift
from dresidues.ratfun import RF_ZERO, RatFun, parfrac
from dresidues.reduction import simple_reduction
from dresidues.residues import discrete_residues, first_residues
from dresidues.shiftset import dispersion, shift_set
from dresidues.summability import is_summable, vspace
from dresidues.testkit import (
    build_from_spec,
    random_dispersion_zero,
    random_orbit_spec,
    random_poly,
    random_summable,
)

x = X


def _report(n: int, label: str, started: float) -> None:
    print(f"PASS criterion {n}: {label} ({time.time() - started:.2f}s)")


def test_criterion_1_worked_example_golden(golden):
    started = time.time()
    f = golden["f"]

    layers = hermite_list(f)
    assert layers == golden["layers"], "hermite layers differ from the displayed ones"

    b = layers[0].den
    assert shift_set(b).as_set() == {1, 2, 3}

    out = simple_reduction(layers[0])
    parts = out.parts
    assert parts.initial == golden["b0"]
    assert parts.factors[1] == golden["b1"]
    assert parts.factors[2] == golden["b2"]
    assert parts.factors[3] == golden["b3"]

    nums = parfrac(layers[0], [golden["b0"], golden["b1"], golden["b2"], golden["b3"]])
    assert nums == [golden["a0"], golden["a1"], golden["a2"], golden["a3"]]

    assert out.reduced == golden["fbar1"]

    pair = first_residues(out.reduced)
    assert pair.places == golden["B1"]
    assert pair.values == golden["D1"]
    assert pair.values(-3) == Fraction(71, 5000)

    # the same values through the full pipeline
    pairs = discrete_residues(f)
    assert pairs[0].places == golden["B1"] and pairs[0].values == golden["D1"]

    elapsed = time.time() - started
    assert elapsed < 1.0, f"golden test took {elapsed:.2f}s, budget is 1s"
    _report(1, "worked example reproduced verbatim, exact", started)


def test_criterion_2_oracle_equivalence():
    started = time.time()
    rng = random.Random(20240601)
    checked = 0
    while checked < 200:
        spec = random_orbit_spec(rng, max_orbits=6, max_order=4)
        f = build_from_spec(spec)
        if f.is_zero:
            continue
        assert_pairs_match_oracle(discrete_residues(f), spec)
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s, budget is 60s"
    _report(2, f"{checked} random instances match the brute-force oracle exactly", started)


def test_criterion_3_summability_soundness_and_completeness():
    started = time.time()
    rng = random.Random(777)
    for _ in range(100):
        f = random_summable(rng)
        pairs = discrete_residues(f)
        assert all(p.is_trivial for p in pairs), f"nonzero residue on a delta image: {f}"
    for _ in range(100):
        f = random_dispersion_zero(rng)
        assert not is_summable(f)[0], f"dispersion-0 nonzero input declared summable: {f}"
    _report(3, "100 delta images all-(1,0); 100 dispersion-0 functions all non-summable", started)


def test_criterion_4_structural_invariants():
    started = time.time()
    rng = random.Random(888)
    instances = 0
    for _ in range(60):
        f = build_from_spec(random_orbit_spec(rng, max_orbits=5, max_order=4))
        if f.is_zero:
            continue
        instances += 1
        for pair in discrete_residues(f):
            if pair.is_trivial:
                assert pair.values.is_zero
                continue
            assert is_squarefree(pair.places)
            assert pair.places.is_constant or dispersion(pair.places) == 0
            assert not pair.values.is_zero
            assert pair.values.degree < pair.places.degree
        # certificate identity on each simple-pole layer
        for layer in hermite_list(f):
            if layer.is_zero:
                continue
            out = simple_reduction(layer, want_certificate=True)
            assert out.reduced + out.certificate.delta() == layer
    _report(4, f"structural invariants and certificate identities on {instances} instances", started)


def test_criterion_5_parameterized_summability_space():
    started = time.time()
    rng = random.Random(999)
    tail_bases = [Fraction(0), Fraction(1, 2)]
    families = 0
    for _ in range(10):
        n = rng.randint(2, 6)
        m_fracs = rng.randint(1, 4)
        r = rng.randint(1, min(n, m_fracs))
        a_mat = [[Fraction(1 if i == j else 0) for j in range(r)] for i in range(r)]
        a_mat += [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n - r)]
        b_mat = [[Fraction(1 if i == j else 0) for j in range(r)] for i in range(r)]
        for i in range(r):
            b_mat[i] += [Fraction(rng.randint(-3, 3)) for _ in range(m_fracs - r)]
        m_known = [
            [sum(a_mat[i][t] * b_mat[t][j] for t in range(r)) for j in range(m_fracs)]
            for i in range(n)
        ]
        simple_fractions = [RatFun(ONE, Poly([Fraction(-1, j + 2), 1])) for j in range(m_fracs)]
        fs = []
        for i in range(n):
            f = RF_ZERO
            for j in range(m_fracs):
                f = f + simple_fractions[j] * m_known[i][j]
            fs.append(f + random_summable(rng, max_order=2, bases=tail_bases, max_shift=1))
        basis = vspace(fs)
        assert len(basis) == n - r, f"dimension {len(basis)} != constructed {n - r}"
        for v in basis:
            combo = RF_ZERO
            for vi, fi in zip(v, fs):
                combo = combo + fi * vi
            assert is_summable(combo)[0], "basis vector fails the independent summability check"
        families += 1
    _report(5, f"{families} constructed families: dimension exact, all basis vectors summable", started)


def test_criterion_6_galois_lattices():
    started = time.time()
    rel = multiplicative_relations([RatFun(x), RatFun(x + 1), RatFun(x * (x + 1))])
    assert lattice_contains(rel.basis, [1, 1, -1])

    rel = multiplicative_relations([RatFun(x), RatFun(2 * x)])
    assert hermite_normal_form(rel.candidate_basis) == [[1, -1]]
    assert rel.gammas == [Fraction(1, 2)]
    assert rel.basis == []

    rel = multiplicative_relations([RatFun(x), RatFun(2 * x), RatFun(4 * x)])
    assert hermite_normal_form(rel.basis) == [[1, -2, 1]]
    _report(6, "relation lattices for (x, x+1, x(x+1)), (x, 2x), (x, 2x, 4x) exact", started)


def test_criterion_7_dual_backend_resultants():
    started = time.time()
    rng = random.Random(4242)
    for _ in range(50):
        b = random_poly(rng, rng.randint(2, 6))
        assert resultant_shift(b) == resultant_shift_prs(b), f"backends disagree on {b}"
    _report(7, "evaluation-interpolation and subresultant PRS agree on 50 random polynomials", started)
