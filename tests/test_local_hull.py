"""The local echelon form of the local layer against independent oracles.

``local_colength`` measures an ideal that is not weighted homogeneous by
its local echelon form, the Macaulay rows eliminated degree by degree up
to the Nakayama exponent N, and ``Ideal.local_member`` reduces its target
against the same form instead of running an ideal quotient.  These tests
hold both to oracles that do not use it: the Milnor-Orlik formula,
Saito's criterion, the m-power Nakayama loop on Groebner bases, global
Buchberger colengths, and the quotient route of local membership.  The
graded route, global colengths of weighted homogeneous ideals, is held to
the echelon and to Milnor-Orlik, and the Euler-identity verdict on germs
with weights to local membership.
"""

import math
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import singulens.ideals as ideals_module
from singulens.analyzer import counterexample_polynomial
from singulens.ideals import (
    INFINITE,
    DegreeCapExceeded,
    Ideal,
    local_colength,
    maximal_ideal,
    maximal_ideal_power,
)
from singulens.invariants import (
    Germ,
    is_quasi_homogeneous,
    jacobian_ideal,
    milnor_number,
    tjurina_number,
)
from singulens.polyring import Polynomial, parse
from singulens.sections import jk_ideal

from conftest import GRADED_GERMS, random_polynomial


def _m_power_colength(ideal, degree_cap=40):
    """Reference: the m-power Nakayama loop.

    At the first n with m^n inside I + m^(n+1), the ideal I + m^(n+1)
    agrees with I at the origin and its colength is the local one.
    """
    ring = ideal.ring
    base = list(ideal.groebner_basis())
    for n in range(1, degree_cap + 1):
        cut = Ideal(ring, base + list(maximal_ideal_power(ring, n + 1).generators))
        if cut.contains_ideal(maximal_ideal_power(ring, n)):
            return cut.colength()
    raise DegreeCapExceeded(f"not stabilized by degree {degree_cap}")


def _sqh_germ(rng, ring):
    """A Brieskorn-Pham principal part plus 1-2 terms of weight in (1, 3/2].

    Returns (exponents, f).  Half of the draws take the extra terms from
    the monomials with every exponent below a_i - 1, which lie outside
    the Jacobian ideal of the principal part.
    """
    n = ring.arity
    while True:
        exps = [rng.randint(3, 4) for _ in range(n)]
        top = rng.choice([0, 1])
        cands = [
            e
            for e in product(*(range(a - top) for a in exps))
            if 1 < sum(Fraction(x, a) for x, a in zip(e, exps)) <= Fraction(3, 2)
        ]
        if cands:
            break
    terms = {tuple(a if j == i else 0 for j in range(n)): 1 for i, a in enumerate(exps)}
    for e in rng.sample(cands, rng.randint(1, min(2, len(cands)))):
        terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
    return exps, Polynomial(ring, terms)


def test_sqh_germs_against_milnor_orlik_and_saito(rng, ring):
    """mu is the Milnor-Orlik number of the principal part; qh iff tau = mu."""
    for _ in range(8):
        exps, f = _sqh_germ(rng, ring)
        weights = [Fraction(1, a) for a in exps]
        mu = milnor_number(f)
        tau = tjurina_number(f)
        assert mu == prod(1 / w - 1 for w in weights), f
        assert tau <= mu, f
        assert is_quasi_homogeneous(f).quasi_homogeneous == (tau == mu), f


def test_echelon_colength_matches_m_power_loop(rng, ring):
    """On non-homogeneous isolated ideals the echelon and the m-power loop agree."""
    echelons = 0
    for _ in range(8):
        _, f = _sqh_germ(rng, ring)
        jac = jacobian_ideal(f)
        for gens in (jac.generators, (f,) + jac.generators):
            ideal = Ideal(ring, gens)
            assert local_colength(ideal) == _m_power_colength(Ideal(ring, gens)), f
            echelons += "echelon" in ideal._cache
    assert echelons  # the echelon ran, not only the graded route


def test_echelon_exponent_is_bounded_by_the_cap(ring, P, monkeypatch):
    """An echelon cached at N answers the cap N and refuses N - 1, searching no more."""
    jac = jacobian_ideal(P("x^4 + y^4 + z^4 + x*y^2*z^2"))
    assert local_colength(jac) == 27
    n, _ = jac._cache["echelon"]

    def no_search(*args, **kwargs):
        raise AssertionError("a cached echelon was searched again")

    monkeypatch.setattr(ideals_module, "_nakayama_echelon", no_search)
    assert local_colength(jac, degree_cap=n) == 27
    with pytest.raises(DegreeCapExceeded):
        local_colength(jac, degree_cap=n - 1)


def _witness_levels(ring):
    f = counterexample_polynomial()
    return f, [jk_ideal(f, maximal_ideal(ring), k) for k in (1, 2, 3)]


def _echelon_colength(ideal):
    """(N, local colength) read off the local echelon form alone."""
    n, pivots = ideals_module._local_echelon(ideal)
    return n, math.comb(n - 1 + ideal.ring.arity, ideal.ring.arity) - len(pivots)


def test_echelon_of_witness_levels_matches_buchberger(ring):
    """J_1..J_3 of the witness: N = 6, 10, 14 and the global colengths.

    Each J_k contains m^(4k+2), so its local colength is the global one.
    """
    _, levels = _witness_levels(ring)
    found = []
    for jk in levels:
        n, colength = _echelon_colength(jk)
        found.append(n)
        assert colength == Ideal(ring, jk.generators).colength()
    assert found == [6, 10, 14]


def _graded_germ(rng, P):
    """A Brieskorn-Pham germ x^a + y^b + z^c or a chain x^a*y + y^b + z^c.

    Returns (f, weights), the weights giving every term weight 1.
    """
    a, b, c = (rng.randint(2, 5) for _ in range(3))
    if rng.random() < 0.5:
        return P(f"x^{a} + y^{b} + z^{c}"), (Fraction(1, a), Fraction(1, b), Fraction(1, c))
    f = P(f"x^{a}*y + y^{b} + z^{c}")
    return f, (Fraction(b - 1, a * b), Fraction(1, b), Fraction(1, c))


def _no_echelon(*args, **kwargs):
    raise AssertionError("a graded ideal ran the local echelon")


def test_graded_route_matches_echelon_and_milnor_orlik(rng, ring, P, monkeypatch):
    """Weighted homogeneous Jacobian ideals: graded route = echelon = Milnor-Orlik."""
    for _ in range(10):
        f, weights = _graded_germ(rng, P)
        jac = jacobian_ideal(f)
        with monkeypatch.context() as m:
            m.setattr(ideals_module, "_nakayama_echelon", _no_echelon)
            graded = local_colength(jac, weights=weights)
        _, echelon = _echelon_colength(Ideal(ring, jac.generators))
        assert graded == echelon == prod(1 / w - 1 for w in weights), f


def _nonisolated_graded_germ(rng, P):
    """A weighted homogeneous germ singular along a curve through the origin.

    Either f is free of one variable (a Brieskorn-Pham or chain curve in
    the other two), or f = (x^a + y^b)^2 + z^c, singular along
    x^a + y^b = z = 0.
    """
    a, b, c = (rng.randint(2, 5) for _ in range(3))
    if rng.random() < 0.5:
        u, v = rng.sample("xyz", 2)
        return P(rng.choice([f"{u}^{a} + {v}^{b}", f"{u}^{a}*{v} + {v}^{b}"]))
    return P(f"(x^{a} + y^{b})^2 + z^{c}")


def test_nonisolated_graded_germs_are_infinite_without_the_echelon(rng, P, monkeypatch):
    """Seeded non-isolated weighted homogeneous germs: mu = tau = INFINITE, in ms."""
    monkeypatch.setattr(ideals_module, "_nakayama_echelon", _no_echelon)
    for _ in range(10):
        f = _nonisolated_graded_germ(rng, P)
        start = time.perf_counter()
        assert milnor_number(f) == tjurina_number(f) == INFINITE, f
        assert time.perf_counter() - start < 0.5, f


def test_wrong_weights_fall_through_to_the_echelon(ring, P):
    """The witness Jacobian is not graded for (1/4, 1/4, 1/4): the echelon gives 27."""
    jac = jacobian_ideal(P("x^4 + y^4 + z^4 + x*y^2*z^2"))
    assert local_colength(jac, weights=(Fraction(1, 4),) * 3) == 27
    assert "echelon" in jac._cache
    with pytest.raises(ValueError):
        local_colength(jac, weights=(1, 1))
    with pytest.raises(ValueError):
        local_colength(jac, weights=(1, 0, 1))


def test_witness_level_tests_run_no_buchberger(ring, monkeypatch):
    """f^k in J_k locally, for k = 1..3, is decided by the echelon alone."""
    f, levels = _witness_levels(ring)
    expected = [Ideal(ring, jk.generators).member(f**k) for k, jk in enumerate(levels, 1)]

    def no_buchberger(*args, **kwargs):
        raise AssertionError("an ungraded level test ran Buchberger")

    monkeypatch.setattr(ideals_module, "_buchberger", no_buchberger)
    got = [jk.local_member(f**k) for k, jk in enumerate(levels, 1)]
    assert got == expected == [False, False, False]


# Germs whose Jacobian ideals lack pure powers of the variables and on
# which the quotient route stays fast: on "x^4 + y^4 + x^2*y^3" and
# "x^3 + y^3 + z^3 + x*y*z^2" some quotients by such targets run > 1 s.
LOCAL_GERMS = [
    "x^3 + y^4 + x^2*y^2",
    "x^3 + y^5 + x*y^4",
    "x^2 + y^3 + z^4 + y^2*z^2",
    "x^3 + y^4 + x^2*y^2 + z^2",
]


def _no_quotient(self, p):
    raise AssertionError("local membership ran an ideal quotient")


def test_echelon_membership_matches_quotient_membership(rng, ring, ring2, monkeypatch):
    """A cached echelon answers local membership exactly as (I : p) does."""
    answers = []
    for text in LOCAL_GERMS:
        r = ring if "z" in text else ring2
        f = parse(text, r)
        jac = jacobian_ideal(f)
        local_colength(jac)
        assert "echelon" in jac._cache, text
        # Targets vanish at the origin: by a local unit such as
        # 8 + 9*x^2 - 6*x^3 the quotient route ran 100 s on one germ.
        targets = [f]
        for _ in range(8):
            p = random_polynomial(rng, r, max_terms=3, max_degree=rng.choice([2, 3, 4]))
            targets.append(p - Polynomial.constant(r, p.constant_term))
        targets += [Polynomial.monomial(r, (k,) + (0,) * (r.arity - 1)) for k in (2, 6)]
        expected = [_quotient_local_member(Ideal(r, jac.generators), p) for p in targets]
        with monkeypatch.context() as m:
            m.setattr(Ideal, "quotient", _no_quotient)
            got = [jac.local_member(p) for p in targets]
        assert got == expected, text
        answers += [(a, jac.member(p)) for a, p in zip(got, targets)]
    assert (False, False) in answers
    assert (True, True) in answers
    assert (True, False) in answers  # in I locally, not globally


def test_long_reductions_strip_content_every_64_pivots(ring2, monkeypatch):
    """A target that meets more than 64 pivots runs ``_pivot_reduce``'s periodic strip.

    I = ((1 + y)*g, (1 + x)*h) with g, h binary forms of degree 10 without
    a common factor, so N = 19 and 90 of the 190 monomials below degree 19
    are pivots.  The target (g + h)*(1 + x + y)^8 lies in I locally but
    not globally.  A target in I*O_0 reduces to zero, and
    a zero row takes no strip at its head, so every strip counted is a
    periodic one.  ``_quotient_member``, the route C2 takes, agrees.
    """
    g, h = (parse(t, ring2) for t in ("x^10 + 3*x^5*y^5 + y^10", "x^9*y + 2*x*y^9"))
    gens = [parse("1 + y", ring2) * g, parse("1 + x", ring2) * h]
    ideal = Ideal(ring2, gens)
    target = (g + h) * parse("(1 + x + y)^8", ring2)
    n, pivots = ideals_module._local_echelon(ideal)
    assert (n, len(pivots)) == (19, 90)
    strips = []
    real = ideals_module._strip_pair
    with monkeypatch.context() as m:
        m.setattr(ideals_module, "_strip_pair", lambda *args: strips.append(1) or real(*args))
        assert ideal.local_member(target)
    assert strips
    assert not ideal.member(target)
    assert Ideal(ring2, gens)._quotient_member(target)


def test_saito_test_reads_the_hull(ring, P, monkeypatch):
    """The witness keeps its negative verdict and obstruction, quotient-free."""
    monkeypatch.setattr(Ideal, "quotient", _no_quotient)
    verdict = is_quasi_homogeneous(P("x^4 + y^4 + z^4 + x*y^2*z^2"))
    assert not verdict.quasi_homogeneous
    assert verdict.witness is None
    assert verdict.obstruction == P("x*y^2*z^2")


def test_weighted_germs_are_quasi_homogeneous_without_rows(rng, ring, P, monkeypatch):
    """The Euler identity decides a germ with weights: no row is reduced, one basis is filled.

    The verdict equals the local membership of f in a fresh copy of its
    Jacobian ideal, the Tjurina ideal is the Jacobian ideal, so tau = mu
    from the one basis fill, and the witness, which has no weights, keeps
    its negative verdict and its distinct Tjurina ideal.  Fills are counted
    at ``_reduced_basis``, where a monomial Jacobian ideal, which skips
    ``_buchberger``, and every other one meet.
    """
    germs = [_graded_germ(rng, P)[0] for _ in range(10)] + [P(text) for text in GRADED_GERMS]
    for f in germs:
        expected = Ideal(ring, jacobian_ideal(f).generators).local_member(f)
        germ = Germ(f)
        fills = []
        real = ideals_module._reduced_basis
        with monkeypatch.context() as m:
            m.setattr(ideals_module, "_pivot_reduce", _no_rows)
            m.setattr(ideals_module, "_reduced_basis", lambda *args: fills.append(1) or real(*args))
            mu = milnor_number(germ)
            tau = tjurina_number(germ)
            verdict = is_quasi_homogeneous(germ)
        assert verdict.quasi_homogeneous is expected is True, f
        assert germ.weights is not None and verdict.witness == germ.weights, f
        assert germ.tjurina is germ.jacobian
        assert tau == mu and len(fills) == 1, f
    witness = Germ(P("x^4 + y^4 + z^4 + x*y^2*z^2"))
    verdict = is_quasi_homogeneous(witness)
    assert not verdict.quasi_homogeneous and verdict.witness is None
    assert witness.tjurina is not witness.jacobian
    assert (milnor_number(witness), tjurina_number(witness)) == (27, 25)


def _no_rows(*args, **kwargs):
    raise AssertionError("a weighted germ reduced a row")


def test_ideal_without_nakayama_exponent_takes_the_quotient_route(ring, P, monkeypatch):
    """On an ideal not isolated at the origin, local membership is decided through (I : p).

    The Jacobian ideal (y + 3*x^2, x) of x*y + x^3 vanishes along the
    z-axis, so no power of m lies in it at the origin, and the saturation
    test says so.  The quotient is taken by the normal form of the target
    modulo the basis (x, y): z, and z^2 for z^2 + x*z.
    """
    jac = jacobian_ideal(P("x*y + x^3"))
    calls = []
    real = Ideal.quotient
    monkeypatch.setattr(Ideal, "quotient", lambda self, p: calls.append(p) or real(self, p))
    assert not jac.local_member(P("z"))
    assert calls == [P("z")]
    assert jac.local_member(P("x*z + y^2"))  # global member, no quotient
    assert not jac.local_member(P("z^2 + x*z"))
    assert calls == [P("z"), P("z^2")]
    assert "echelon" not in jac._cache


@pytest.mark.parametrize("text", ["x*y + x^3", "x^2*y^2 + z^3 + x^5", "(x + y^2)^2 + z^3*x"])
def test_nonisolated_graded_germ_is_decided_fast(ring, P, text):
    """A weighted homogeneous germ singular along a curve has mu = tau = INFINITE in ms."""
    start = time.perf_counter()
    assert milnor_number(P(text)) == INFINITE
    assert tjurina_number(P(text)) == INFINITE
    assert time.perf_counter() - start < 2.0


def test_nongraded_nonisolated_germ_is_decided_fast(ring, P):
    """x*y + x^3 + x^2*y has no weights and is singular along the z-axis.

    Its Jacobian ideal climbs the echelon past its budget, and the
    saturation test then decides mu = tau = INFINITE.
    """
    f = P("x*y + x^3 + x^2*y")
    start = time.perf_counter()
    assert milnor_number(f) == tjurina_number(f) == INFINITE
    assert time.perf_counter() - start < 1.0
    assert Germ(f).weights is None


def test_isolation_decision_cases(ring, P):
    """The origin is isolated in V(I), or outside it, exactly when no saturation lies in m."""
    cases = [
        ([P("x"), P("y")], False),  # the z-axis
        ([P("x^2*y"), P("x*y^2"), P("z")], False),  # two axes
        ([], False),
        (maximal_ideal(ring).generators, True),
        ([P("x + 1")], True),  # the origin lies outside
        ([P("x*(x - 1)"), P("y"), P("z")], True),  # two points
        ([P("x*(y - 1)"), P("y*(y - 1)"), P("z")], True),  # a line missing the origin
        ([P("y + x^10"), P("x*y"), P("z")], True),
    ]
    for gens, isolated in cases:
        ideal = Ideal(ring, gens)
        assert ideals_module._isolated(ideal) is isolated, gens
        assert ideal._cache["isolated"] is isolated
        assert (local_colength(Ideal(ring, gens)) == INFINITE) is not isolated, gens


def test_isolated_ideal_past_the_budget_climbs_on(ring, P, monkeypatch):
    """(y + x^10, x*y, z) has budget 3*(2 - 1) + 1 = 4 and N = 11: one saturation test, then N."""
    asked = []
    real = ideals_module._isolated
    monkeypatch.setattr(ideals_module, "_isolated", lambda ideal: asked.append(1) or real(ideal))
    ideal = Ideal(ring, [P("y + x^10"), P("x*y"), P("z")])
    assert local_colength(ideal) == 11
    assert ideal._cache["echelon"][0] == 11 and len(asked) == 1
    assert ideal.local_member(P("x^11")) and not ideal.local_member(P("x^10"))
    # a stop by the budget proves isolation: no test runs
    asked.clear()
    assert local_colength(jacobian_ideal(P("x^4 + y^4 + z^4 + x*y^2*z^2"))) == 27
    assert not asked


# Above the Nakayama exponents of the isolated controls below, at most
# 3*(5 - 2) + 1 = 10: an isolation test that wrongly answers yes on a
# non-isolated germ fails with DegreeCapExceeded instead of climbing on.
GUARD = 12


def _independent_forms(rng, ring):
    """Two linearly independent linear forms with seeded coefficients."""
    while True:
        a, b = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
        if any(a[i] * b[j] != a[j] * b[i] for i in range(3) for j in range(i)):
            return tuple(
                sum((c * Polynomial.variable(ring, i) for i, c in enumerate(v)), ring.zero())
                for v in (a, b)
            )


def _nonisolated_germ(rng, ring, l1, l2):
    """A germ without weights in (l1, l2)^2, so singular along the line l1 = l2 = 0.

    f = l1^2*u + l1*l2*v + l2^2*w for seeded u, v, w: f and its gradient
    vanish on the line.
    """
    while True:
        u, v, w = (
            Polynomial.constant(ring, rng.randint(-3, 3))
            + random_polynomial(rng, ring, max_terms=1, max_degree=1, coeff_bound=3)
            for _ in range(3)
        )
        f = l1 * l1 * u + l1 * l2 * v + l2 * l2 * w
        if not f.is_zero() and Germ(f).weights is None:
            return f


def test_quotient_by_the_normal_form_equals_the_quotient_by_the_target(rng, ring):
    """(I : p) = (I : NF(p)) on Jacobian ideals singular along a coordinate axis.

    The germs of ``test_nonisolated_germs_without_weights_are_infinite``
    along each axis, with every monomial target of degree 1 and 2 (with
    seeded binomial targets the test ran 5 s on one seed): the two
    quotients contain each other, and their generators give the same
    constant-term verdict, which ``_quotient_member`` reads.
    """
    x = [Polynomial.variable(ring, i) for i in range(3)]
    targets = [
        Polynomial.monomial(ring, e)
        for d in (1, 2)
        for e in ideals_module._exponents_of_degree((1, 1, 1), d)
    ]
    verdicts = set()
    for l1, l2 in [(x[1], x[2]), (x[0], x[2]), (x[0], x[1])]:
        jac = jacobian_ideal(_nonisolated_germ(rng, ring, l1, l2))
        for p in targets:
            r = jac.normal_form(p)
            if r.is_zero():
                verdicts.add(True)
                continue
            by_r = jac.quotient(r)
            by_p = by_r if r == p else jac.quotient(p)
            assert by_p.contains_ideal(by_r) and by_r.contains_ideal(by_p), (jac, p)
            unit = any(g.constant_term != 0 for g in by_p.generators)
            assert unit == any(g.constant_term != 0 for g in by_r.generators), (jac, p)
            verdicts.add(unit)
    assert verdicts == {True, False}


def test_nonisolated_germs_without_weights_are_infinite(rng, ring):
    """Germs without weights, singular along a line through the origin: mu = tau = INFINITE.

    The line is each coordinate axis in turn, then that of two seeded
    linear forms.  The germ carries a guard, so an isolation test that
    wrongly answers yes fails here at once instead of climbing on.
    """
    x = [Polynomial.variable(ring, i) for i in range(3)]
    pairs = [(x[1], x[2]), (x[0], x[2]), (x[0], x[1])]  # the x-, y- and z-axis
    pairs += [_independent_forms(rng, ring) for _ in range(6)]
    for l1, l2 in pairs:
        f = _nonisolated_germ(rng, ring, l1, l2)
        germ = Germ(f, degree_cap=GUARD)
        start = time.perf_counter()
        assert milnor_number(germ) == tjurina_number(germ) == INFINITE, f
        assert time.perf_counter() - start < 1.0, f
        assert "echelon" not in germ.jacobian._cache, f


def test_isolated_controls_against_milnor_orlik(rng, ring, P):
    """Fermat germs plus terms of higher degree, under the guard: mu = (d - 1)^3 (Milnor-Orlik)."""
    for _ in range(6):
        d = rng.randint(3, 5)
        f = P(f"x^{d} + y^{d} + z^{d}")
        for e in rng.sample(list(ideals_module._exponents_of_degree((1, 1, 1), d + 1)), 2):
            f = f + rng.choice([-2, -1, 1, 2]) * Polynomial.monomial(ring, e)
        germ = Germ(f, degree_cap=GUARD)
        mu = milnor_number(germ)
        assert mu == (d - 1) ** 3, f
        assert tjurina_number(germ) <= mu, f


def test_unit_target_is_decided_before_the_quotient(ring2, monkeypatch):
    """A local unit outside an ideal inside m is refused without (I : p).

    Through the quotient this target ran for over 100 s.
    """
    f = parse("x^4 + y^4 + x^2*y^3", ring2)
    jac = Ideal(ring2, jacobian_ideal(f).generators)
    monkeypatch.setattr(Ideal, "quotient", _no_quotient)
    start = time.perf_counter()
    assert not jac.local_member(parse("8 + 9*x^2 - 6*x^3", ring2))
    assert time.perf_counter() - start < 2.0


def _quotient_local_member(ideal, p):
    """Reference: p lies in I locally when (I : p) holds a local unit."""
    if ideal.member(p):
        return True
    return any(g.constant_term != 0 for g in ideal.quotient(p).groebner_basis())


def test_local_unit_shortcuts_match_the_quotient_path(rng, ring2, monkeypatch):
    """Unit generators and unit targets answer as the quotient path does."""
    x, y = (Polynomial.variable(ring2, i) for i in range(2))
    verdicts = set()
    for case in range(40):
        # a factor x or y keeps the ideal without a pure power of each variable
        gens = [
            random_polynomial(rng, ring2, max_terms=2, max_degree=2, allow_zero=False)
            * (x if case % 2 else y)
            for _ in range(rng.randint(1, 2))
        ]
        unit_gen = case % 3 == 0
        if unit_gen:
            gens.append(Polynomial.constant(ring2, rng.randint(1, 5)) + x * y)
        p = random_polynomial(rng, ring2, max_terms=3, max_degree=2)
        if not unit_gen:
            p = p - Polynomial.constant(ring2, p.constant_term) + rng.randint(1, 9)
        expected = _quotient_local_member(Ideal(ring2, gens), p)
        with monkeypatch.context() as m:
            m.setattr(Ideal, "quotient", _no_quotient)
            assert Ideal(ring2, gens).local_member(p) == expected, (gens, p)
        verdicts.add((unit_gen, expected))
    assert verdicts == {(True, True), (False, False)}


def test_quotient_route_reads_generators_as_the_basis_route(rng, ring, P):
    """``_quotient_member`` reads (I : p)'s generators; the reference fills its reduced basis.

    Isolated Jacobian ideals of cubics with one quartic term, and Jacobian
    ideals singular along a coordinate axis, germs of
    ``test_nonisolated_germs_without_weights_are_infinite``.  Along the
    line of two seeded forms, one seed ran the reference past 100 s.
    """
    x = [Polynomial.variable(ring, i) for i in range(3)]
    germs = []
    for _ in range(2):
        e = rng.choice(list(ideals_module._exponents_of_degree((1, 1, 1), 4)))
        germs.append(P("x^3 + y^3 + z^3") + rng.choice([-1, 1, 2]) * Polynomial.monomial(ring, e))
    for l1, l2 in rng.sample([(x[1], x[2]), (x[0], x[2]), (x[0], x[1])], 2):
        germs.append(_nonisolated_germ(rng, ring, l1, l2))
    verdicts = set()
    for f in germs:
        jac = jacobian_ideal(f)
        # Monomial targets: a seeded binomial ran the reference 1.6 s on one germ.
        exps = rng.sample(list(ideals_module._exponents_of_degree((1, 1, 1), 1)), 2)
        exps += rng.sample(list(ideals_module._exponents_of_degree((1, 1, 1), 2)), 2)
        for p in [f] + [Polynomial.monomial(ring, e) for e in exps]:
            expected = _quotient_local_member(Ideal(ring, jac.generators), p)
            assert Ideal(ring, jac.generators)._quotient_member(p) == expected, (f, p)
            verdicts.add(expected)
    assert verdicts == {True, False}
