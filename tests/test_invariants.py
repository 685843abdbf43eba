"""Milnor and Tjurina numbers, quasi-homogeneity, weight detection."""

import warnings
from fractions import Fraction

import pytest

from singulens.analyzer import screen_isolated
from singulens.cli import bundled_corpus_text, load_corpus
from singulens.genus import classify, compute_genus, genus_ordinary, genus_weighted
from singulens.ideals import INFINITE, _exponents_of_degree
from singulens.invariants import (
    Germ,
    WeightSystem,
    find_weights,
    is_quasi_homogeneous,
    jacobian_ideal,
    milnor_number,
    sqh_obstruction,
    tjurina_number,
)
import singulens.polyring as polyring
from singulens.polyring import Polynomial, RingContext, integer_weights, parse
from singulens.sections import euler_check

from conftest import random_polynomial

CASES = 220


def _diagonal(ring, exponents):
    total = ring.zero()
    for i, a in enumerate(exponents):
        e = tuple(a if j == i else 0 for j in range(ring.arity))
        total = total + Polynomial.monomial(ring, e)
    return total


def test_weight_system_basics():
    w = WeightSystem((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    assert str(w) == "(1/2, 1/3, 1/5)"
    assert w.arity == 3
    assert w.rho((0, 0, 0)) == Fraction(31, 30)
    assert w.rho((1, 0, 0)) == Fraction(1, 2) * 2 + Fraction(1, 3) + Fraction(1, 5)
    assert list(w) == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
    with pytest.raises(ValueError):
        WeightSystem(())
    with pytest.raises(ValueError):
        WeightSystem((Fraction(0), Fraction(1, 2)))
    with pytest.raises(ValueError):
        w.rho((1, 2))


def test_weight_system_carries_its_integer_form(monkeypatch):
    """(W, L) is computed once, at construction, and integer_weights returns it."""
    w = WeightSystem((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))
    assert w.integers == ((15, 10, 6), 30) == integer_weights(tuple(w))
    assert "integers" not in repr(w)
    assert w == WeightSystem((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)))

    def no_fractions(*args):
        raise AssertionError("integer weights re-derived")

    monkeypatch.setattr(polyring, "Fraction", no_fractions)
    assert integer_weights(w) is w.integers


def test_jacobian_ideal(ring, P):
    jac = jacobian_ideal(P("x^2 + y^3 + z^5"))
    assert jac.generators == (P("2*x"), P("3*y^2"), P("5*z^4"))


def test_milnor_diagonal_frozen(ring):
    assert milnor_number(_diagonal(ring, (2, 2, 2))) == 1
    assert milnor_number(_diagonal(ring, (3, 3, 3))) == 8
    assert milnor_number(_diagonal(ring, (4, 4, 4))) == 27
    assert milnor_number(_diagonal(ring, (2, 3, 5))) == 8


def test_milnor_diagonal_product_formula(rng, ring):
    """For sums of pure powers the invariant factors as a product."""
    for _ in range(25):
        exponents = tuple(rng.randint(2, 6) for _ in range(3))
        expected = 1
        for a in exponents:
            expected *= a - 1
        assert milnor_number(_diagonal(ring, exponents)) == expected


def test_milnor_infinite_for_nonisolated(ring, P):
    assert milnor_number(P("x*y")) == INFINITE
    assert milnor_number(P("x^2")) == INFINITE


def test_nonvanishing_warning(ring, P):
    with pytest.warns(UserWarning, match="does not vanish at the origin"):
        milnor_number(P("1 + x^2 + y^2 + z^2"))
    with pytest.warns(UserWarning, match="does not vanish at the origin"):
        tjurina_number(P("1 + x^2 + y^2 + z^2"))


def test_witness_invariants_frozen(ring, P):
    f = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    assert milnor_number(f) == 27
    assert tjurina_number(f) == 25
    verdict = is_quasi_homogeneous(f)
    assert not verdict.quasi_homogeneous
    assert verdict.witness is None
    assert verdict.obstruction == P("x*y^2*z^2")


def test_fermat_quartic_is_quasi_homogeneous(ring, P):
    f = P("x^4 + y^4 + z^4")
    assert milnor_number(f) == tjurina_number(f) == 27
    verdict = is_quasi_homogeneous(f)
    assert verdict.quasi_homogeneous
    assert verdict.witness == WeightSystem((Fraction(1, 4),) * 3)
    assert verdict.obstruction is None


def test_quasi_homogeneous_rejects_nonisolated(ring, P):
    with pytest.raises(ValueError, match="non-isolated"):
        is_quasi_homogeneous(P("x*y"))


def test_corpus_mu_tau_qh_consistency(ring):
    """Equality of the two invariants tracks the quasi-homogeneity verdict."""
    entries = load_corpus(bundled_corpus_text())
    assert len(entries) == 10
    checked = 0
    for poly_text, notes in entries:
        f = parse(poly_text, ring)
        mu = milnor_number(f)
        tau = tjurina_number(f)
        assert str(mu) == notes["mu"]
        assert str(tau) == notes["tau"]
        verdict = is_quasi_homogeneous(f)
        assert verdict.quasi_homogeneous == (mu == tau)
        assert verdict.quasi_homogeneous == (notes["qh"] == "true")
        checked += 1
    assert checked == 10


def test_find_weights_frozen(ring, ring2, P):
    third = Fraction(1, 3)
    assert find_weights(P("x^3 + y^3 + z^3")) == WeightSystem((third,) * 3)
    assert find_weights(P("x^2 + y^3 + z^5")) == WeightSystem(
        (Fraction(1, 2), third, Fraction(1, 5))
    )
    assert find_weights(P("x^2*y + y^3 + z^4")) == WeightSystem(
        (third, third, Fraction(1, 4))
    )
    assert find_weights(P("x^4 + y^4 + z^4 + x*y^2*z^2")) is None
    assert find_weights(ring.zero()) is None


def test_find_weights_underdetermined(ring, ring2, P):
    w = find_weights(parse("x*y", ring2))
    assert w is not None
    assert all(weight > 0 for weight in w)
    assert w[0] + w[1] == 1
    # the Fourier-Motzkin point: a midpoint between two bounds, 1 above a lone lower one
    half = Fraction(1, 2)
    assert find_weights(P("x*y + z^2")) == WeightSystem((half,) * 3)
    ring4 = RingContext(tuple("xyzw"))
    for text, weights in (
        ("x*y + z^2", (half, half, half, 1)),
        ("x*y*z*w", (Fraction(1, 8), half, Fraction(1, 4), Fraction(1, 8))),
        ("x^2*y + z^3", (Fraction(1, 4), half, Fraction(1, 3), 1)),
    ):
        assert find_weights(parse(text, ring4)) == WeightSystem(tuple(map(Fraction, weights)))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_find_weights_on_underdetermined_supports(rng, n):
    """Fewer terms than variables: any weights found are positive and pass the Euler check.

    Half the supports are drawn inside one weighted degree, so they have
    positive weights, which the elimination must then find.
    """
    ring = RingContext(tuple("xyzwv"[:n]))
    found = 0
    for i in range(60):
        count = rng.randint(1, n - 1)
        if i % 2 == 0:
            ws = tuple(rng.randint(1, 3) for _ in range(n))
            degree = rng.randint(1, 8)
            support = list(_exponents_of_degree(ws, degree))
            exponents = rng.sample(support, min(count, len(support)))
        else:
            exponents = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count)]
        f = sum((Polynomial.monomial(ring, e, rng.randint(1, 5)) for e in exponents), ring.zero())
        if f.is_zero():
            continue
        w = find_weights(f)
        if i % 2 == 0:
            assert w is not None, f
        if w is not None:
            assert all(weight > 0 for weight in w) and euler_check(f, w), (f, w)
            found += 1
    assert found >= 30


def test_found_weights_satisfy_euler(rng, ring):
    """Any weight system the solver returns passes the derivative check."""
    found = 0
    for i in range(CASES):
        if i % 2 == 0:
            d = rng.randint(2, 5)
            f = ring.zero()
            for _ in range(rng.randint(1, 4)):
                e = [0, 0, 0]
                for _ in range(d):
                    e[rng.randrange(3)] += 1
                f = f + Polynomial.monomial(ring, tuple(e)) * rng.randint(1, 5)
        else:
            f = random_polynomial(rng, ring, max_terms=3, max_degree=4)
        if f.is_zero():
            continue
        w = find_weights(f)
        if w is not None:
            assert euler_check(f, w)
            found += 1
    assert found >= 100


def test_sqh_obstruction_certificate(ring, P):
    g = P("x^4 + y^4 + z^4")
    h = P("x*y^2*z^2")
    assert sqh_obstruction(g, h) is True
    assert not jacobian_ideal(g).member(h)


def test_sqh_obstruction_none_when_absorbable(ring, P):
    # x^5 is a multiple of the x-partial, so no conclusion follows
    assert sqh_obstruction(P("x^4 + y^4 + z^4"), P("x^5")) is False


def test_sqh_obstruction_hypothesis_errors(ring, P):
    quartic = P("x^4 + y^4 + z^4")
    with pytest.raises(ValueError, match="homogeneous and nonzero"):
        sqh_obstruction(P("x^4 + y^3"), P("x^5"))
    with pytest.raises(ValueError, match="homogeneous and nonzero"):
        sqh_obstruction(P("0"), P("x^5"))
    with pytest.raises(ValueError, match="degree at least 3"):
        sqh_obstruction(P("x^2 + y^2 + z^2"), P("x^3"))
    with pytest.raises(ValueError, match="degree one above"):
        sqh_obstruction(quartic, P("x^6"))
    with pytest.raises(ValueError, match="degree one above"):
        sqh_obstruction(quartic, P("x^4 + y^5"))
    with pytest.raises(ValueError, match="isolated critical point"):
        sqh_obstruction(P("x^4"), P("x^5"))


def test_tjurina_at_most_milnor(rng, ring):
    """The restricted quotient never has larger dimension.

    Every draw is decided, with or without weights: no guard is set, so no
    draw may be refused.
    """
    import warnings

    for _ in range(30):
        f = random_polynomial(rng, ring, max_terms=3, max_degree=3)
        if f.is_zero():
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            germ = Germ(f)
            mu = milnor_number(germ)
            tau = tjurina_number(germ)
        if mu == INFINITE:
            continue
        assert tau != INFINITE and tau <= mu


STAGES = (
    screen_isolated,
    milnor_number,
    tjurina_number,
    is_quasi_homogeneous,
    classify,
    compute_genus,
    genus_ordinary,
    genus_weighted,
)


def _outcome(stage, f):
    try:
        return stage(f)
    except (ValueError, RuntimeError) as err:
        return type(err), str(err)


def _semi_quasi_homogeneous(rng, ring):
    """x^a + y^b + z^c plus terms of weighted degree above 1: isolated at the origin."""
    exps = [rng.randint(2, 5) for _ in range(3)]
    f = _diagonal(ring, exps)
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.randint(0, e) for e in exps)
        if sum(Fraction(a, e) for a, e in zip(u, exps)) > 1:
            f = f + Polynomial.monomial(ring, u) * rng.choice((1, -1, 2, -3))
    return f


def test_stages_agree_on_a_germ_and_on_its_polynomial(rng, ring, P):
    """A germ shared by every stage gives each stage's answer on the bare polynomial."""
    polys = [parse(text, ring) for text, _ in load_corpus(bundled_corpus_text())]
    polys += [P(t) for t in ("x*y + x^3", "x*y", "1 + x^2 + y^2 + z^2", "x + y^2 + z^2")]
    polys += [_semi_quasi_homogeneous(rng, ring) for _ in range(12)]
    for f in polys:
        germ = Germ(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage in STAGES:
                assert _outcome(stage, germ) == _outcome(stage, f), (str(f), stage.__name__)
