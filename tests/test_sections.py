"""The N_b recurrence, derivative ideals, the level ladder, descent."""

import importlib
import math
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import mul, sub
from pathlib import Path

import pytest
import sympy

import singulens.ideals as ideals
import singulens.sections as sections
from singulens.genus import classify, compute_genus
from singulens.analyzer import COUNTEREXAMPLE_TEXT, equality_certificate
from singulens.ideals import (
    ExponentOverflow,
    Ideal,
    _int_poly,
    maximal_ideal,
    maximal_ideal_power,
)
from singulens.invariants import Germ, WeightSystem, jacobian_ideal
from singulens.polyring import (
    GRLEX,
    Polynomial,
    RingContext,
    clear_denominators,
    exact_div,
    integer_weights,
    parse,
)
from singulens.refutation import refutes
from singulens.sections import (
    DescentChain,
    DescentStep,
    euler_check,
    generation_descent,
    jk_ideal,
    level_ladder,
)

from conftest import (
    add_rows_member,
    derive_numerator,
    random_polynomial,
    to_sympy,
    tuple_graded_member,
)

CASES = 220

QUARTER = WeightSystem((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))

GRLEX_3 = ideals._packing(3, GRLEX)


def _replays(step, f):
    """Whether one step replays on f, as a one-step chain."""
    return DescentChain(f=f, weights=step.weights, level=step.level, steps=(step,)).replay()


def test_frozen_derivatives(ring, P):
    """Frozen values of the N_b recurrence for the Fermat quartic."""
    f = P("x^4 + y^4 + z^4")
    # N_(e_x) of G = 1: d_x(1/f) = -4x^3 / f^2
    n_x = derive_numerator(f, P("1"), 0, 0)
    assert n_x == P("-4*x^3")
    # N_(e_x+e_y): d_y d_x(1/f) = 32x^3y^3 / f^3
    assert derive_numerator(f, n_x, 1, 1) == P("32*x^3*y^3")
    # f / f is constant: its derivative vanishes
    assert derive_numerator(f, f, 1, 0) == P("0")
    # d_x(x^2*y / f) = (2xy * f - x^2*y * 4x^3) / f^2
    assert derive_numerator(f, P("x^2*y"), 0, 0) == P("2*x*y^5 + 2*x*y*z^4 - 2*x^5*y")


def test_euler_operator_extracts_perturbation(ring, P):
    """-(sum_i x_i d_i(1/f) + 4/f) = x*y^2*z^2 / f^2, on the numerators over f^2."""
    f = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    total = sum(
        (P(name) * derive_numerator(f, P("1"), i, 0) for i, name in enumerate("xyz")),
        P("0"),
    )
    assert -(total + f * 4) == P("x*y^2*z^2")


def test_leibniz_rule_for_sections(rng, ring):
    """The recurrence obeys Leibniz: N[P*Q] = Q * N[P] + F * P * d_i(Q) at every order."""
    for _ in range(CASES):
        base = random_polynomial(
            rng, ring, max_terms=2, max_degree=3, coeff_bound=5, allow_zero=False
        )
        p = random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
        q = random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
        i, order = rng.randrange(3), rng.randint(0, 2)
        left = derive_numerator(base, p * q, i, order)
        assert left == q * derive_numerator(base, p, i, order) + base * p * q.partial_derivative(i)


def test_mixed_partials_commute(rng, ring):
    """Deriving the numerators in x_i then x_j equals x_j then x_i."""
    for _ in range(CASES):
        base = random_polynomial(
            rng, ring, max_terms=2, max_degree=2, coeff_bound=4, allow_zero=False
        )
        p = random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
        i, j, order = rng.randrange(3), rng.randrange(3), rng.randint(0, 2)
        ij = derive_numerator(base, derive_numerator(base, p, i, order), j, order + 1)
        ji = derive_numerator(base, derive_numerator(base, p, j, order), i, order + 1)
        assert ij == ji


def test_jk_order_zero_recovers_the_ideal(ring, P):
    f = P("x^4 + y^4 + z^4")
    jac = jacobian_ideal(f)
    assert jk_ideal(f, jac, 0).generators == jac.generators
    assert jk_ideal(f, maximal_ideal(ring), 0).generators == (P("x"), P("y"), P("z"))


def test_jk_generator_count_and_dedup(ring, P):
    witness = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    j1 = jk_ideal(witness, maximal_ideal(ring), 1)
    assert len(j1.generators) == 12
    doubled = Ideal(ring, [P("x"), P("x")])
    assert jk_ideal(witness, doubled, 0).generators == (P("x"),)


def _reference_jk_generators(f, ideal, k):
    """The cancelled-section walk in sympy ``Poly`` arithmetic over QQ, as the generators' oracle.

    A node is a section p / f^m, kept as the pair (p, m) with every factor
    of f that divides p cancelled; its children are
    d_i(p / f^m) = (d_i(p) * f - m * p * d_i(f)) / f^(m+1) for i from the
    node's own variable on, and its generator is f^(k+1-m) * p, kept once.
    """
    big_f = to_sympy(f)
    symbols = big_f.gens
    out = []

    def walk(p, pole, budget, start):
        while pole and not p.is_zero:
            quotient, remainder = p.div(big_f)
            if not remainder.is_zero:
                break
            p, pole = quotient, pole - 1
        gen = big_f ** (k + 1 - pole) * p
        if not gen.is_zero and gen not in out:
            out.append(gen)
        if budget == 0 or p.is_zero:
            return
        for i in range(start, len(symbols)):
            x = symbols[i]
            walk(p.diff(x) * big_f - pole * p * big_f.diff(x), pole + 1, budget - 1, i)

    for g in ideal.generators:
        walk(to_sympy(g), 1, k, 0)
    return out


def test_jk_generators_match_the_cancelled_section_walk(rng, ring, P):
    """Fraction-free generators equal the cancelled-section walk's in sympy, in order."""
    witness = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    cases = [(witness, maximal_ideal(ring), k) for k in range(4)]
    for case in range(48):
        k = case % 4
        f = random_polynomial(rng, ring, max_terms=3, max_degree=3, allow_zero=False)
        gens = [
            random_polynomial(rng, ring, max_terms=2, max_degree=2)
            for _ in range(rng.randint(1, 3))
        ]
        if (case // 4) % 2:
            f = f * Fraction(rng.randint(1, 7), rng.randint(2, 5))
            gens = [g * Fraction(rng.randint(1, 5), rng.randint(1, 6)) for g in gens]
        if case % 3 == 0:
            # multiples of f: their sections cancel a factor of f
            gens.append(f * random_polynomial(rng, ring, max_terms=2, max_degree=1))
            gens.append(f ** 2 * Fraction(1, rng.randint(1, 4)))
        cases.append((f, Ideal(ring, gens), k))
    cancelled = 0
    for f, ideal, k in cases:
        jk = jk_ideal(f, ideal, k)
        assert [to_sympy(g) for g in jk.generators] == _reference_jk_generators(f, ideal, k)
        # the grlex packing of the local echelon reads the primitive integer forms
        assert jk._packed_generators(GRLEX_3) == [
            GRLEX_3.pack_poly(_int_poly(g)) for g in jk.generators
        ]
        cancelled += any(exact_div(g, f) is not None for g in ideal.generators if g)
    assert cancelled >= 10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_jk_generators_are_cancelled_derivatives(ring, P, k):
    """On the witness with I = m, each generator is cancel(f^(k+1) * d^b(g / f)) in sympy.

    The derivatives of the rational functions g / f are sympy's own, with
    no numerator recurrence, taken in jk_ideal's walk order and kept once.
    """
    witness = P(COUNTEREXAMPLE_TEXT)
    symbols = to_sympy(witness).gens
    big_f = to_sympy(witness).as_expr()
    expected = []

    def walk(section, budget, start):
        gen = sympy.Poly(sympy.cancel(big_f ** (k + 1) * section), *symbols, domain="QQ")
        if not gen.is_zero and gen not in expected:
            expected.append(gen)
        if budget:
            for i in range(start, len(symbols)):
                walk(sympy.diff(section, symbols[i]), budget - 1, i)

    for x in symbols:
        walk(x / big_f, k, 0)
    generators = jk_ideal(witness, maximal_ideal(ring), k).generators
    assert [to_sympy(g) for g in generators] == expected


def test_jk_scaling_chain(rng, ring):
    """f times each order-(k-1) generator lands in the order-k ideal."""
    polys = [
        parse("x^4 + y^4 + z^4", ring),
        parse("x^4 + y^4 + z^4 + x*y^2*z^2", ring),
        parse("x^2*y + y^3 + z^4", ring),
    ]
    combos = 0
    for f in polys:
        m = maximal_ideal(ring)
        ladder = [jk_ideal(f, m, k) for k in range(4)]
        for k in range(1, 4):
            lower, upper = ladder[k - 1], ladder[k]
            for g in lower.generators:
                assert upper.member(f * g)
            for _ in range(24):
                combo = ring.zero()
                for g in lower.generators:
                    if rng.random() < 0.5:
                        combo = combo + g * random_polynomial(
                            rng, ring, max_terms=2, max_degree=2, coeff_bound=3
                        )
                assert upper.member(f * combo)
                combos += 1
    assert combos >= 200


def test_euler_check(ring, P):
    assert euler_check(
        P("x^3 + y^3 + z^3"),
        WeightSystem((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
    )
    assert euler_check(
        P("x^2 + y^3 + z^5"),
        WeightSystem((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))),
    )
    assert euler_check(
        P("x^2*y + y^3 + z^4"),
        WeightSystem((Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))),
    )
    assert not euler_check(P("x^4 + y^4 + z^4 + x*y^2*z^2"), QUARTER)
    assert not euler_check(
        P("x^4 + y^4 + z^4"),
        WeightSystem((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))),
    )
    with pytest.raises(ValueError):
        euler_check(P("x^4 + y^4 + z^4"), WeightSystem((Fraction(1, 4),)))


def test_single_descent_step_frozen(ring, P):
    f = P("x^4 + y^4 + z^4")
    chain = generation_descent(f, QUARTER, 0)
    assert len(chain) == 1
    step = chain.steps[0]
    assert step.u == (0, 0, 0)
    assert step.scale == Fraction(-4)
    assert _replays(step, f)
    # the identity the step certifies, 1/f = -(d_x(x/f) + d_y(y/f) + d_z(z/f)), in sympy
    big_f = to_sympy(f).as_expr()
    partials = sum(sympy.diff(v / big_f, v) for v in sympy.symbols("x y z"))
    assert sympy.cancel(partials + 1 / big_f) == 0


def test_descent_chain_level_one(ring, P):
    f = P("x^4 + y^4 + z^4")
    chain = generation_descent(f, QUARTER, 1)
    # targets are the monomials of total degree at most four
    assert len(chain) == 35
    assert chain.replay()
    d = chain.to_dict()
    assert d["level"] == 1
    assert all(entry["verified"] for entry in d["steps"])


def test_chain_orders_steps_for_induction(ring, P):
    cases = [
        (parse("x^4 + y^4 + z^4", ring), QUARTER, 2),
        (
            parse("x^2*y + y^3 + z^4", ring),
            WeightSystem((Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))),
            1,
        ),
    ]
    for f, weights, k in cases:
        chain = generation_descent(f, weights, k)
        assert chain.replay()
        seen: set[tuple[int, ...]] = set()
        for step in chain.steps:
            for consumed in step.inputs():
                assert weights.rho(consumed) >= k + 1 or consumed in seen
            seen.add(step.u)


def test_base_case_errors(ring, P):
    f = P("x^4 + y^4 + z^4")
    with pytest.raises(ValueError, match="Euler identity"):
        generation_descent(f, WeightSystem((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))), 0)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        generation_descent(f, QUARTER, -1)
    step = DescentStep(u=(0, 0), level=0, scale=Fraction(-4), weights=QUARTER)
    with pytest.raises(ValueError, match="bad exponent"):
        _replays(step, f)


def test_step_serialization(ring, P):
    f = P("x^4 + y^4 + z^4")
    step = generation_descent(f, QUARTER, 0).steps[0]
    d = step.to_dict()
    assert d["u"] == [0, 0, 0]
    assert d["scale"] == "-4"
    assert d["operator"] == [
        {"variable_index": 0, "coefficient": "-1"},
        {"variable_index": 1, "coefficient": "-1"},
        {"variable_index": 2, "coefficient": "-1"},
    ]
    assert d["verified"] is True


def test_replay_detects_tampering(ring, P):
    f = P("x^4 + y^4 + z^4")
    good = generation_descent(f, QUARTER, 0).steps[0]
    bad = DescentStep(u=good.u, level=good.level, scale=good.scale + 1, weights=good.weights)
    assert not _replays(bad, f)


def _graded_germ(rng, P):
    """A Brieskorn-Pham germ a*x^p + b*y^q + c*z^r or a chain a*x^p*y + b*y^q + c*z^r."""
    p, q, r = (rng.randint(2, 5) for _ in range(3))
    a, b, c = (rng.choice((1, -1, 2, -3)) for _ in range(3))
    lead = P(f"x^{p}") if rng.random() < 0.5 else P(f"x^{p}*y")
    return lead * a + P(f"y^{q}") * b + P(f"z^{r}") * c


def _section_replay(step, f):
    """The step's identity times f^(k+2), in sympy ``Poly`` arithmetic over QQ, as a reference.

    d_i(x^v / f^(k+1)) * f^(k+2) = d_i(x^v) * f - (k+1) * x^v * d_i(f), and
    x^u / f^(k+1) * f^(k+2) = x^u * f.
    """
    big_f = to_sympy(f)
    symbols = big_f.gens
    pole = step.level + 1

    def monomial(e):
        return to_sympy(Polynomial.monomial(f.ring, e))

    total = big_f * 0
    for i, u_plus in enumerate(step.inputs()):
        x_v, x = monomial(u_plus), symbols[i]
        partial = x_v.diff(x) * big_f - pole * x_v * big_f.diff(x)
        total += partial * sympy.Rational(step.scale * step.weights[i])
    return total == monomial(step.u) * big_f


def _tampered(step):
    """Copies of a step with its scale, one weight, u or level changed."""
    ws = list(step.weights)
    ws[0] *= 2
    u = (step.u[0] + 1,) + step.u[1:]
    return [
        replace(step, scale=step.scale + 1),
        replace(step, weights=WeightSystem(tuple(ws))),
        replace(step, u=u),
        replace(step, level=step.level + 1),
    ]


def test_integer_replay_matches_the_section_replay(rng, P):
    """Seeded weighted homogeneous germs, levels 0-2: both replays give one verdict."""
    steps = 0
    for _ in range(6):
        f = _graded_germ(rng, P)
        weights = classify(f).weights
        for k in range(3):
            chain = generation_descent(f, weights, k)
            for step in rng.sample(chain.steps, min(len(chain), 4)):
                assert _replays(step, f) and _section_replay(step, f)
                for bad in _tampered(step):
                    assert not _replays(bad, f) and not _section_replay(bad, f)
                steps += 1
    assert steps >= 30


def test_replay_rejects_tampered_steps(ring, P):
    """A changed scale, weight, u or level fails the step and its chain."""
    f = P("x^3*y + y^5 + z^6")
    chain = generation_descent(f, classify(f).weights, 1)
    assert chain.replay()
    for i in (0, len(chain) // 2, len(chain) - 1):
        for bad in _tampered(chain.steps[i]):
            assert not _replays(bad, f)
            steps = chain.steps[:i] + (bad,) + chain.steps[i + 1 :]
            assert not replace(chain, steps=steps).replay()


def test_jk_ideal_generators_do_not_depend_on_weights(rng, P):
    """jk_ideal takes no weights: a weighted test packs the same generators by its weights."""
    for _ in range(4):
        f = _graded_germ(rng, P)
        weights = classify(f).weights
        multiplier = compute_genus(f).multiplier
        pk = ideals._weighted_packing(integer_weights(weights)[0])
        for k in range(3):
            jk = jk_ideal(f, multiplier, k)
            assert jk._packed_generators(pk) == [pk.pack_poly(_int_poly(g)) for g in jk.generators]
        with pytest.raises(TypeError):
            jk_ideal(f, multiplier, 1, weights)


def test_graded_level_verdicts_match_the_tuple_member(rng, P):
    """Levels 0-3 of seeded graded germs: weighted-packed rows = the tuple-based test's."""
    verdicts = []
    for _ in range(5):
        f = _graded_germ(rng, P)
        weights = classify(f).weights
        multiplier = compute_genus(f).multiplier
        for k in range(4):
            jk = jk_ideal(f, multiplier, k)
            verdict = add_rows_member(jk, f**k, weights)
            assert verdict == tuple_graded_member(jk, f**k, weights), (f, k)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def _corpus_graded_pool(seed, monkeypatch):
    """The germ texts of the benchmark's corpus-graded pool for ``seed``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return [item.text for item in importlib.import_module("workloads").corpus_graded(seed)]


def _ladder_cases(rng, P, monkeypatch):
    texts = {str(_graded_germ(rng, P)) for _ in range(8)}
    for seed in (1, 2, 21):
        texts.update(_corpus_graded_pool(seed, monkeypatch))
    for text in sorted(texts):
        f = P(text)
        cls = classify(f)
        if cls.weights is not None:
            yield f, cls.weights, compute_genus(f).multiplier


def _weighted_form(rng, ring):
    """A Brieskorn-Pham or chain form in ring's variables, with seeded signs, and its G.

    The chain shape is a*x_1^p*x_2 + b*x_2^q + ..., the rest pure powers.
    G is a monomial, weighted homogeneous for every weight system.
    """
    n = ring.arity
    terms = [[0] * n for _ in range(n)]
    for i, e in enumerate(terms):
        e[i] = rng.randint(2, 5)
    if rng.random() < 0.5:
        terms[0][1] = 1
    f = sum(
        (Polynomial.monomial(ring, tuple(e)) * rng.choice((1, -1, 2, -3)) for e in terms),
        Polynomial.zero(ring),
    )
    return f, tuple(rng.randint(0, 3) for _ in range(n))


def test_euler_identity_ties_each_level_to_the_next(rng):
    """sum_i W_i x_i N_(b+e_i) = -(b.W - wdeg(G) + D) * F * N_b for |b| <= 3.

    F is weighted homogeneous of degree D for the integer weights W, and
    G = x^u, so wdeg(N_b) = wdeg(G) + |b| D - b.W; the Euler field applied
    to the recurrence gives the identity, on ``_derive``'s packed integers.
    It is why the graded ladder's level k needs only the rows of the N_b
    with |b| = k.
    """
    cases = 0
    for arity in (2, 3, 4):
        ring = RingContext(tuple("xyzw"[:arity]))
        pk = ideals._packing(arity, GRLEX)
        for _ in range(70):
            f, u = _weighted_form(rng, ring)
            ws = integer_weights(Germ(f).weights)[0]
            ints = clear_denominators(f)[0]
            (deg_f,) = {sum(map(mul, e, ws)) for e in ints}
            big_f = pk.pack_poly(ints)
            partials = [pk.partial(big_f, i) for i in range(arity)]
            nums = {(0,) * arity: {pk.pack(u): 1}}
            for size in range(4):
                for b in [b for b in nums if sum(b) == size]:
                    for i in range(arity):
                        c = tuple(e + (j == i) for j, e in enumerate(b))
                        nums[c] = sections._derive(nums[b], i, size, big_f, partials[i], pk)
            for b, num in nums.items():
                if sum(b) == 4:
                    continue
                left: dict[int, int] = {}
                for i, (w, unit) in enumerate(zip(ws, pk.units)):
                    c = tuple(e + (j == i) for j, e in enumerate(b))
                    for m, v in nums[c].items():
                        left[m + unit] = left.get(m + unit, 0) + w * v
                factor = -(sum(map(mul, b, ws)) - sum(map(mul, u, ws)) + deg_f)
                right = {m: factor * v for m, v in sections._mul(big_f, num).items() if factor}
                assert {m: v for m, v in left.items() if v} == right, (f, u, b)
            cases += 1
    assert cases >= 200


def test_graded_ladder_matches_the_level_tests(rng, P, monkeypatch):
    """Levels 0-5: the ladder's verdicts = jk_ideal's level tests = the tuple-based test's.

    Level 0 stays on jk_ideal; the ladder answers from level 1.
    """
    germs = 0
    for f, weights, multiplier in _ladder_cases(rng, P, monkeypatch):
        ladder = level_ladder(f, multiplier, 5)
        verdicts = [jk_ideal(f, multiplier, 0).local_member(f**0)]
        verdicts += list(ladder)
        for k, verdict in enumerate(verdicts):
            assert verdict == tuple_graded_member(jk_ideal(f, multiplier, k), f**k, weights), (f, k)
        germs += 1
    assert germs >= 50


def test_graded_ladder_matches_on_monomial_ideals(rng, ring, P):
    """Any weighted homogeneous ideal climbs the ladder, not only multiplier ideals.

    Two fixed cases come first, one passing levels 1-3 (I = m) and one
    failing them (I = (x^3, y^3, z^3)), so the verdicts hold both answers
    whatever the 40 draws give.
    """
    fermat = P("x^4 + y^4 + z^4")
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cubes = [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    cases = [(fermat, units), (fermat, cubes)]
    for _ in range(40):
        f = _graded_germ(rng, P)
        exponents = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        cases.append((f, exponents))
    verdicts = []
    for f, exponents in cases:
        weights = classify(f).weights
        ideal = Ideal(ring, [Polynomial.monomial(ring, e) for e in exponents])
        expected = [tuple_graded_member(jk_ideal(f, ideal, k), f**k, weights) for k in (1, 2, 3)]
        assert list(level_ladder(f, ideal, 3)) == expected, (f, exponents)
        verdicts += expected
    assert verdicts[:6] == [True] * 3 + [False] * 3
    assert True in verdicts and False in verdicts


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"the ladder called {name}")

    return fail


def test_graded_ladder_declines_ungraded_ideals(ring, P, monkeypatch):
    """The germ's weights pick the route, the same for f and for ``Germ(f)``.

    A germ with weights and an I graded for them climbs the graded rows and
    never the local echelon; an I that the weights leave ungraded, and a
    germ without weights, climb the local echelon and never a graded row.
    """
    fermat = P("x^4 + y^4 + z^4")
    chain = P("x^2*y + y^3 + z^4")
    graded = [
        (fermat, maximal_ideal(ring)),
        (fermat, Ideal(ring, [P("x^2"), P("y*z"), P("z^3")])),
        (chain, compute_genus(chain).multiplier),
    ]
    local = [
        (fermat, Ideal(ring, [P("x + y^2"), P("y - z^3"), P("z^2")])),
        (P(COUNTEREXAMPLE_TEXT), maximal_ideal(ring)),
        (P("x^4 + y^4 + z^4 + x^3*y*z"), maximal_ideal(ring)),
    ]
    expected = {}
    for g, ideal in graded:
        weights = Germ(g).weights
        expected[g, ideal] = [
            tuple_graded_member(jk_ideal(g, ideal, k), g**k, weights) for k in (1, 2, 3)
        ]
    for g, ideal in local:
        expected[g, ideal] = [_per_level(g, ideal, k) for k in (1, 2, 3)]
    echelon = [
        (sections, "_nakayama_echelon"),
        (sections, "_local_echelon"),
        (ideals, "_nakayama_echelon"),
    ]
    for cases, blocked in ((graded, echelon), (local, [(sections, "_add_rows")])):
        with monkeypatch.context() as m:
            for module, name in blocked:
                m.setattr(module, name, _fail(name))
            for g, ideal in cases:
                assert list(level_ladder(g, ideal, 3)) == expected[g, ideal], g
                assert list(level_ladder(Germ(g), ideal, 3)) == expected[g, ideal], g
    assert [expected[case] for case in local] == [[False] * 3, [False] * 3, [False, True, True]]
    assert True in sum((expected[case] for case in graded), [])
    with pytest.raises(ValueError, match="^equality level 1: the ideal I is not m-primary"):
        level_ladder(fermat, Ideal(ring, [P("x"), P("y + z^2")]), 3)


def _alive_nodes(ws, degree, max_level):
    """#{b : 1 <= |b| <= max_level} whose subtree of jk_ideal's walk has a node with rows.

    A node b is reached through derivatives in non-decreasing variable
    order, so its subtree adds derivatives in its last variable and later
    ones; a node has rows when b.W reaches the generator's degree.  Every
    extension is enumerated, with no bound on how far b.W can grow.
    """
    n = len(ws)
    count = 0
    for size in range(1, max_level + 1):
        for seq in combinations_with_replacement(range(n), size):
            b_w = sum(ws[i] for i in seq)
            more = max_level - size
            if any(
                b_w + sum(ws[i] for i in ext) >= degree
                for m in range(more + 1)
                for ext in combinations_with_replacement(range(seq[-1], n), m)
            ):
                count += 1
    return count


@pytest.mark.parametrize(
    "text, max_level",
    [
        ("x^7 + y^7 + z^7", 3),
        ("x^3*y + y^5 + z^6", 4),
        ("x^2 + y^3 + z^7", 3),
        ("x^5*y + y^3 + z^4", 4),
        ("x^6*y + y^2 + z^5", 3),
    ],
)
def test_graded_ladder_derives_only_numerators_that_reach_rows(P, monkeypatch, text, max_level):
    """The numerators the ladder derives are exactly the nodes whose subtree has rows."""
    f = P(text)
    cls = classify(f)
    multiplier = compute_genus(f).multiplier
    ws = integer_weights(cls.weights)[0]
    pk = ideals._weighted_packing(ws)
    derived = []
    real = sections._derive

    def counting(*args):
        derived.append(args[1])
        return real(*args)

    monkeypatch.setattr(sections, "_derive", counting)
    list(level_ladder(f, multiplier, max_level))
    expected = sum(
        _alive_nodes(ws, ideals._packed_degree(g, pk), max_level)
        for g in multiplier._packed_generators(pk)
    )
    assert len(derived) == expected
    if text == "x^7 + y^7 + z^7":
        assert expected == 0


def test_graded_ladder_overflows_at_the_level_of_the_level_tests(ring, P):
    """F^k packed overflows at k = 3 (3 * 12000 >= 2^15): both paths raise there."""
    f = P("x^2 + y^2 + z^12000")
    weights = WeightSystem((Fraction(1, 2), Fraction(1, 2), Fraction(1, 12000)))
    ideal = maximal_ideal(ring)

    def until_overflow(levels):
        out = []
        with pytest.raises(ExponentOverflow, match="an exponent reached the kernel limit"):
            for verdict in levels:
                out.append(verdict)
        return out

    assert Germ(f).weights == weights
    ladder = until_overflow(level_ladder(f, ideal, 5))
    parent = until_overflow(
        tuple_graded_member(jk_ideal(f, ideal, k), f**k, weights) for k in range(1, 6)
    )
    assert ladder == parent and len(ladder) == 2
    with pytest.raises(ExponentOverflow, match="^equality level 3: an exponent reached"):
        list(level_ladder(f, ideal, 5))


def _per_level(f, ideal, k):
    """The per-level path the ladder replaced: J_k built and tested on its own."""
    return jk_ideal(f, ideal, k).local_member(f**k)


def test_ladder_refuses_unbounded_climbs_fast(ring, P):
    """Germs not isolated at the origin and ideals not m-primary there are refused in 2 s.

    The refusals are exact, with or without weights; a guard on the germ
    changes none of them.
    """
    fermat, m = P("x^4 + y^4 + z^4"), maximal_ideal(ring)
    line = Ideal(ring, [P("x"), P("y + z^2")])
    not_primary = "equality level 1: the ideal I is not m-primary at the origin"
    not_isolated = "equality level 1: the germ is not isolated at the origin"
    cases = [
        (fermat, line, ValueError, not_primary),
        (Germ(fermat), line, ValueError, not_primary),
        (Germ(fermat, degree_cap=10), line, ValueError, not_primary),
        (P("x^2*y^2 + z^4"), m, ValueError, not_isolated),
        (P("x*y + x^3 + x^2*y"), m, ValueError, not_isolated),
        (Germ(P("x*y + x^3 + x^2*y"), degree_cap=10), m, ValueError, not_isolated),
    ]
    for f, ideal, error, message in cases:
        for run in (level_ladder, equality_certificate):
            start = time.perf_counter()
            with pytest.raises(error, match=f"^{message}"):
                run(f, ideal, 3)
            assert time.perf_counter() - start < 2, (run.__name__, f, ideal)


# Fermat germs of degree 4 and 5 plus one monomial of higher degree, up to
# permutation, with the first level at which f^k lies in J_k (None: refuted
# at every level tested, up to 5 for the quartics and 4 for the quintics)
CENSUS = [
    *((4, m, 1) for m in ("x^5", "x^4*y", "x^3*y^2", "x^6", "x^5*y", "x^4*y^2", "x^3*y^3")),
    *((4, m, 1) for m in ("x^4*y*z", "x^3*y^2*z")),
    (4, "x^3*y*z", 2),
    (4, "x^2*y^2*z^2", 2),
    (4, "x^2*y^2*z", None),
    *((5, m, 2) for m in ("x^6", "x^5*y", "x^4*y^2")),
    *((5, m, None) for m in ("x^3*y^3", "x^4*y*z", "x^3*y^2*z", "x^2*y^2*z^2")),
]


@contextmanager
def _within(seconds):
    """Fail the block, instead of waiting on it, once it runs ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _recording(monkeypatch):
    """Record each full step's (N, colength) and each class level's (pivots, head, bound).

    The class levels include level 0's seed, so entry k is level k.
    """
    found, classed = [], []
    real_step, real_class = sections._nakayama_echelon, sections._class_level

    def step(*args):
        n, pivots = real_step(*args)
        found.append((n, math.comb(n + 2, 3) - len(pivots)))
        return n, pivots

    def class_level(pivots, rows, power, bound):
        head = real_class(pivots, rows, power, bound)
        classed.append((pivots, head, bound))
        return head

    monkeypatch.setattr(sections, "_nakayama_echelon", step)
    monkeypatch.setattr(sections, "_class_level", class_level)
    return found, classed


def _class_refutes(f, ideal, k, classed):
    """Whether level k's class echelon refutes f^k, by a functional that ``refutes`` accepts."""
    pivots, head, bound = classed[k]
    if head is None:
        return False
    lam = {GRLEX_3.unpack(m): v for m, v in ideals._functional(pivots, head[0]).items()}
    return refutes(jk_ideal(f, ideal, k).generators, f**k, lam, bound >> GRLEX_3.pbits)


def _ladder_against_per_level(f, ideal, monkeypatch, max_level):
    """Levels 0..max_level up to the first success: ladder = per-level path.

    Returns the first level at which f^k lies in J_k, or None.  Past a
    success both paths pass every level (f^(k+1) lies in F * J_k).  Every
    verdict equals the per-level one.  A level is either refuted in its
    class, by a functional that ``refutes`` accepts against the generators
    of J_k, or climbed in full, with one full step for it and each level
    below it, whose N and colength are those of each J_j on its own.  A
    climb whose stop test never fires fails after 30 s, where it would
    search on up to the exponent limit.
    """
    found, classed = _recording(monkeypatch)
    verdicts = [_per_level(f, ideal, 0)]
    checked = 0
    with _within(30):
        for verdict in [] if verdicts[0] else level_ladder(f, ideal, max_level):
            verdicts.append(verdict)
            k = len(verdicts) - 1
            assert verdict == jk_ideal(f, ideal, k).local_member(f**k), (f, k)
            if not found:
                assert not verdict and _class_refutes(f, ideal, k, classed), (f, k)
                continue
            assert len(found) == k, (f, k)
            for j in range(checked + 1, k + 1):
                n, pivots = ideals._local_echelon(jk_ideal(f, ideal, j))
                assert found[j - 1] == (n, math.comb(n + 2, 3) - len(pivots)), (f, j)
            checked = k
            if verdict:
                break
    monkeypatch.undo()
    return verdicts.index(True) if True in verdicts else None


def test_local_ladder_matches_the_per_level_path_on_the_census(ring, P, monkeypatch):
    """The census: verdicts, and N_k and colength at full steps, = those of each J_k on its own.

    Every level refuted in its class carries a functional that ``refutes``
    accepts.

    The quintics stop at level 4: the per-level J_5 of each takes about 2 s.
    """
    firsts = []
    for d, monomial, first in CENSUS:
        f = P(f"x^{d} + y^{d} + z^{d} + {monomial}")
        ideal = maximal_ideal_power(ring, d - 3)  # the multiplier ideal of the ordinary point
        assert _ladder_against_per_level(f, ideal, monkeypatch, 9 - d) == first, f
        firsts.append(first)
    assert firsts.count(2) == 5 and firsts.count(None) == 5


def test_local_ladder_matches_the_per_level_path_on_seeded_germs(rng, ring, P, monkeypatch):
    """Seeded Fermat germs of degree 4 and 5 plus a term of higher degree, random coefficients."""
    for case in range(6):
        d = 4 + case % 2
        e = rng.choice(list(ideals._exponents_of_degree((1, 1, 1), d + rng.randint(1, 2))))
        coeffs = [rng.choice((1, -1, 2, 3)) for _ in range(4)]
        terms = [P(f"x^{d}"), P(f"y^{d}"), P(f"z^{d}"), Polynomial.monomial(ring, e)]
        f = sum((c * t for c, t in zip(coeffs, terms)), P("0"))
        _ladder_against_per_level(f, maximal_ideal_power(ring, d - 3), monkeypatch, 9 - d)


@pytest.mark.parametrize(
    "text, max_level",
    [
        (COUNTEREXAMPLE_TEXT, 6),
        ("x^5 + y^5 + z^5 + x^2*y^2*z^2", 5),
        ("x^5 + y^5 + z^5 + x^3*y^3", 5),
    ],
)
def test_frontier_levels_are_refuted_in_their_class(P, monkeypatch, text, max_level):
    """Each level of the frontier germs is refuted in f^k's class, with no full step.

    Each refutation's functional, read off the class echelon cut below
    T_k = 2 + k * ord F, passes ``refutes`` against the generators of J_k.
    """
    f = P(text)
    ideal = compute_genus(f).multiplier
    found, classed = _recording(monkeypatch)
    assert list(level_ladder(f, ideal, max_level)) == [False] * max_level
    assert not found and len(classed) == max_level + 1
    order = min(sum(e) for e, _ in f.items())
    for k in range(1, max_level + 1):
        assert classed[k][2] >> GRLEX_3.pbits == 2 + k * order
        assert _class_refutes(f, ideal, k, classed), (f, k)


@pytest.mark.parametrize(
    "text",
    [
        COUNTEREXAMPLE_TEXT,
        "x^4 + y^4 + z^4 + x^3*y*z",
        "x^5 + y^5 + z^5 + x^2*y^2*z^2",
        "x^5 + y^5 + z^5 + x^3*y^3",
    ],
)
def test_class_lists_partition_the_monomials_into_cosets(P, text):
    """The class lists hold each monomial below the cut once, in its coset of L, by degree.

    L is spanned by the three differences of f's four exponents, whose
    determinant is nonzero, so w lies in L exactly when M^-1 * w is
    integral; there are |det M| cosets, and every one meets the monomials
    below the cut.
    """
    exponents = [e for e, _ in P(text).items()]
    m = sympy.Matrix([list(map(sub, e, exponents[0])) for e in exponents[1:]]).T
    inverse = m.inv()

    def in_lattice(w):
        return all(x.is_integer for x in inverse * sympy.Matrix(w))

    classes = sections._Classes(exponents, GRLEX_3)
    cut = 10
    monomials = [e for d in range(cut) for e in ideals._exponents_of_degree((1, 1, 1), d)]
    reps = {classes.of(e) for e in monomials}
    assert len(reps) == abs(m.det())
    assert not any(in_lattice(list(map(sub, a, b))) for a, b in combinations(reps, 2))
    listed = []
    for rep in reps:
        members = [
            GRLEX_3.unpack(x) for x in classes.monomials(rep, cut) if x >> GRLEX_3.pbits < cut
        ]
        assert all(in_lattice(list(map(sub, e, rep))) for e in members), rep
        assert [sum(e) for e in members] == sorted(sum(e) for e in members)
        listed += members
    assert sorted(listed) == sorted(monomials)
