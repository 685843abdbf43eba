"""Acceptance gate: the eight headline checks, one pass/fail line each.

Each criterion prints ``ACCEPTANCE Cn: PASS`` (or FAIL) directly to the
terminal so the gate's outcome is visible in any test log.  Everything is
exact rational arithmetic; the only tolerances are wall-clock budgets.
All randomized suites here are self-contained and re-derive their cases
from the session seed.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import sympy

from singulens.analyzer import (
    analyze,
    counterexample_polynomial,
    counterexample_suite,
)
from singulens.genus import genus_ordinary, genus_weighted
from singulens.ideals import Ideal, maximal_ideal, maximal_ideal_power
from singulens.invariants import (
    Germ,
    WeightSystem,
    is_quasi_homogeneous,
    milnor_number,
    tjurina_number,
)
from singulens.polyring import GREVLEX, Polynomial, parse
from singulens.sections import generation_descent, jk_ideal

from conftest import derive_numerator, random_polynomial, to_sympy


@contextmanager
def criterion(tag: str, capsys, what: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {tag}: FAIL   {what}", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {tag}: PASS   {what}", flush=True)


def _diagonal(ring, exponents):
    total = ring.zero()
    for i, a in enumerate(exponents):
        e = tuple(a if j == i else 0 for j in range(ring.arity))
        total = total + Polynomial.monomial(ring, e)
    return total


def test_criterion_1_witness_certificates(ring, P, capsys):
    with criterion("C1", capsys, "witness suite: all seven certificates, exact facts, < 30 s"):
        t0 = time.perf_counter()
        f = counterexample_polynomial()
        report = counterexample_suite()
        assert report.all_certificates_pass()
        assert [c.name for c in report.certificates] == [
            "C1", "C2", "C3", "C4", "C5", "C6", "C7",
        ]
        assert report.strict is True
        # the individual facts behind the certificates, re-checked directly
        cube_powers = Ideal(ring, [P("x^3"), P("y^3"), P("z^3")])
        assert not cube_powers.member(P("x*y^2*z^2"))
        j1 = jk_ideal(f, maximal_ideal(ring), 1)
        assert j1.member(f + P("x*y^2*z^2"))
        m6 = maximal_ideal_power(ring, 6)
        assert len(m6.generators) == 28
        assert j1.contains_ideal(m6)
        assert not (j1 + m6).member(P("x*y^2*z^2"))
        assert not j1.local_member(f)
        assert report.genus.g == 3
        assert report.bound == 5
        assert time.perf_counter() - t0 < 30


def test_criterion_2_spot_memberships(ring, P, capsys):
    with criterion("C2", capsys, "twelve spot memberships in the order-1 numerator ideal, < 5 s"):
        t0 = time.perf_counter()
        f = counterexample_polynomial()
        j1 = jk_ideal(f, maximal_ideal(ring), 1)
        spots = [
            P("x") * f, P("y") * f, P("z") * f,
            P("x^4*y"), P("x^4*z"), P("y^4*z"), P("y*z^4"),
            P("x*y^4"), P("x*z^4"), P("x^5"), P("y^5"), P("z^5"),
        ]
        assert len(spots) == 12
        for target in spots:
            assert j1.member(target), str(target)
        assert time.perf_counter() - t0 < 5


def test_criterion_3_quasi_homogeneity(ring, capsys):
    with criterion("C3", capsys, "quasi-homogeneity verdicts; mu = tau iff quasi-homogeneous"):
        from singulens.cli import bundled_corpus_text, load_corpus

        assert not is_quasi_homogeneous(
            counterexample_polynomial()
        ).quasi_homogeneous
        assert is_quasi_homogeneous(parse("x^4 + y^4 + z^4", ring)).quasi_homogeneous
        assert is_quasi_homogeneous(parse("x^2 + y^3 + z^5", ring)).quasi_homogeneous
        for poly_text, _ in load_corpus(bundled_corpus_text()):
            f = parse(poly_text, ring)
            mu = milnor_number(f)
            tau = tjurina_number(f)
            assert is_quasi_homogeneous(f).quasi_homogeneous == (mu == tau)


def test_criterion_4_genus_table(ring, capsys):
    with criterion("C4", capsys, "genus table by lattice oracle and both routes"):
        def lattice_oracle(weights):
            # brute-force count of exponents with shifted weight exactly one
            bounds = [int(1 / w) + 2 for w in weights]
            count = 0
            stack = [()]
            while stack:
                prefix = stack.pop()
                if len(prefix) == len(bounds):
                    if weights.rho(prefix) == 1:
                        count += 1
                    continue
                for v in range(bounds[len(prefix)] + 1):
                    stack.append(prefix + (v,))
            return count

        table = [
            ("x^2 + y^3 + z^5", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 0),
            ("x^3 + y^3 + z^3", (Fraction(1, 3),) * 3, 1),
            ("x^4 + y^4 + z^4", (Fraction(1, 4),) * 3, 3),
        ]
        for poly_text, weights_tuple, expected in table:
            w = WeightSystem(weights_tuple)
            assert lattice_oracle(w) == expected
            germ = Germ(parse(poly_text, ring))
            assert germ.weights == w
            assert genus_weighted(germ).g == expected
        fermat_genus = {3: 1, 4: 3, 5: 6, 6: 10}
        for d, expected in fermat_genus.items():
            f = parse(f"x^{d} + y^{d} + z^{d}", ring)
            a = genus_ordinary(f)
            b = genus_weighted(f)
            assert a.g == b.g == expected


def test_criterion_5_equality_certificates(ring, capsys):
    with criterion("C5", capsys, "equality certificates at the stated levels, < 60 s"):
        t0 = time.perf_counter()
        r3 = analyze(parse("x^3 + y^3 + z^3", ring), max_level=3)
        assert r3.equality.status == "proven_at_level" and r3.equality.level == 0
        r4 = analyze(parse("x^4 + y^4 + z^4", ring), max_level=3)
        assert r4.equality.status == "proven_at_level" and r4.equality.level == 1
        rw = analyze(counterexample_polynomial(), max_level=3)
        assert rw.equality.status == "unknown_up_to"
        assert rw.equality.level == 3
        assert rw.equality.refuted_at_level_one
        assert rw.equality.level_results == (
            (0, False), (1, False), (2, False), (3, False),
        )
        assert time.perf_counter() - t0 < 60


def test_criterion_6_descent_replay(ring, P, capsys):
    with criterion("C6", capsys, "descent chains replay; the level-0 identity holds exactly"):
        f = P("x^4 + y^4 + z^4")
        w = WeightSystem((Fraction(1, 4),) * 3)
        for k in (0, 1):
            chain = generation_descent(f, w, k)
            assert chain.replay()
        # the single level-0 step says 1/f = -(d_x(x/f) + d_y(y/f) + d_z(z/f))
        chain0 = generation_descent(f, w, 0)
        assert len(chain0) == 1 and chain0.steps[0].scale == Fraction(-4)
        big_f = to_sympy(f).as_expr()
        partials = sum(sympy.diff(v / big_f, v) for v in sympy.symbols("x y z"))
        assert sympy.cancel(partials + 1 / big_f) == 0


def test_criterion_7_diagonal_milnor(ring, capsys):
    with criterion("C7", capsys, "diagonal Milnor numbers match the product formula"):
        table = {(2, 2, 2): 1, (3, 3, 3): 8, (4, 4, 4): 27, (2, 3, 5): 8}
        for exponents, expected in table.items():
            assert milnor_number(_diagonal(ring, exponents)) == expected


def test_criterion_8_property_suites(rng, ring, capsys):
    with criterion("C8", capsys, "six property suites, at least 200 seeded cases each"):
        def random_ideal(max_gens=3, **kwargs):
            count = rng.randint(1, max_gens)
            return Ideal(
                ring,
                [
                    random_polynomial(rng, ring, allow_zero=False, **kwargs)
                    for _ in range(count)
                ],
            )

        # (a) reduced-basis uniqueness under permutation and scaling
        for _ in range(200):
            ideal = random_ideal(max_terms=3, max_degree=2, coeff_bound=5)
            reference = ideal.groebner_basis(GREVLEX)
            gens = list(ideal.generators)
            rng.shuffle(gens)
            scaled = [g * Fraction(rng.choice([1, 2, -1, 3]), rng.choice([1, 2])) for g in gens]
            assert Ideal(ring, scaled).groebner_basis(GREVLEX) == reference

        # (b) S-polynomials of basis pairs reduce to zero
        checked = 0
        while checked < 200:
            ideal = random_ideal(max_terms=3, max_degree=2, coeff_bound=5)
            basis = ideal.groebner_basis(GREVLEX)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    a, b = basis[i], basis[j]
                    ea = a.leading_monomial()
                    eb = b.leading_monomial()
                    lcm = tuple(max(p, q) for p, q in zip(ea, eb))
                    ma = Polynomial.monomial(ring, tuple(l - p for l, p in zip(lcm, ea)))
                    mb = Polynomial.monomial(ring, tuple(l - q for l, q in zip(lcm, eb)))
                    s = ma * a * (1 / a.leading_coefficient()) - mb * b * (
                        1 / b.leading_coefficient()
                    )
                    assert ideal.normal_form(s).is_zero()
                    checked += 1

        # (c) Leibniz rule, for polynomials and for the numerators of sections
        for _ in range(200):
            p = random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
            q = random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
            i = rng.randrange(3)
            assert (p * q).partial_derivative(i) == (
                p.partial_derivative(i) * q + p * q.partial_derivative(i)
            )
            base = random_polynomial(
                rng, ring, max_terms=2, max_degree=2, coeff_bound=4, allow_zero=False
            )
            order = rng.randint(0, 2)
            assert derive_numerator(base, p * q, i, order) == (
                q * derive_numerator(base, p, i, order) + base * p * q.partial_derivative(i)
            )

        # (d) quotient generators multiply back into the ideal
        done = 0
        while done < 200:
            ideal = random_ideal(max_gens=2, max_terms=2, max_degree=2, coeff_bound=4)
            p = random_polynomial(
                rng, ring, max_terms=2, max_degree=2, coeff_bound=4, allow_zero=False
            )
            for g in ideal.quotient(p).generators:
                assert ideal.member(g * p)
                done += 1

        # (e) f times the order-(k-1) ideal lies in the order-k ideal
        chain_cases = 0
        for poly_text in (
            "x^4 + y^4 + z^4",
            "x^4 + y^4 + z^4 + x*y^2*z^2",
            "x^2*y + y^3 + z^4",
        ):
            f = parse(poly_text, ring)
            m = maximal_ideal(ring)
            ladder = [jk_ideal(f, m, k) for k in range(4)]
            for k in range(1, 4):
                for _ in range(23):
                    combo = ring.zero()
                    for g in ladder[k - 1].generators:
                        if rng.random() < 0.5:
                            combo = combo + g * random_polynomial(
                                rng, ring, max_terms=2, max_degree=2, coeff_bound=3
                            )
                    assert ladder[k].member(f * combo)
                    chain_cases += 1
        assert chain_cases >= 200

        # (f) parse/print round-trip
        for _ in range(200):
            p = random_polynomial(rng, ring, max_terms=4, max_degree=4, coeff_bound=9)
            assert parse(str(p), ring) == p
