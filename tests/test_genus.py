"""Singularity classification and the reduced genus by both routes."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

import singulens.genus as genus_module
import singulens.ideals as ideals_module
from singulens.cli import bundled_corpus_text, load_corpus
from singulens.genus import (
    ORDINARY_EXTRAPOLATION_NOTE,
    _count_rho_equal_one,
    _minimal_monomials,
    classify,
    compute_genus,
    genus_ordinary,
    genus_weighted,
)
from singulens.ideals import Ideal, maximal_ideal_power
from singulens.invariants import Germ, WeightSystem
from singulens.polyring import Polynomial, integer_weights, parse

CASES = 220


def _lattice_genus_oracle(weights):
    """Count exponents u with rho(u) = 1 by brute force over a safe box."""
    bounds = [math.ceil(1 / w) + 1 for w in weights]
    count = 0
    grid = [range(b + 1) for b in bounds]

    def walk(prefix):
        if len(prefix) == len(bounds):
            if weights.rho(tuple(prefix)) == 1:
                return 1
            return 0
        return sum(walk(prefix + [v]) for v in grid[len(prefix)])

    return walk([])


def _minimal_monomials_oracle(weights, threshold, strict):
    """Minimal exponents u with rho(u) >= threshold (> if strict), in Fraction.

    A minimal u with u_i > 0 has rho(u) - w_i <= threshold, so
    (u_i + 1) * w_i <= rho(u) <= threshold + w_i and u_i <= threshold / w_i.
    """

    def qualifies(u):
        r = weights.rho(u)
        return r > threshold if strict else r >= threshold

    n = weights.arity
    box = product(*(range(math.floor(threshold / w) + 1) for w in weights))
    return [
        u
        for u in box
        if qualifies(u)
        and not any(
            u[i] and qualifies(tuple(e - (j == i) for j, e in enumerate(u)))
            for i in range(n)
        )
    ]


def _span(ring, weights, threshold, strict=False):
    """The ideal of the x^u with rho(u) >= threshold (> if strict), from its integer bar.

    With L the common denominator of the weights, rho(u) >= t exactly when
    S(u) = L*rho(u) >= ceil(L*t), and rho(u) > t exactly when
    S(u) >= floor(L*t) + 1.
    """
    scale = integer_weights(weights)[1]
    bar = math.floor(threshold * scale) + 1 if strict else math.ceil(threshold * scale)
    return Ideal(ring, _minimal_monomials(ring, weights, (bar,))[0])


def _random_weights(rng, n):
    return WeightSystem(
        tuple(Fraction(rng.randint(1, 4), rng.randint(2, 9)) for _ in range(n))
    )


def test_multiplier_span_matches_the_lattice_oracle(rng, ring, ring2):
    """Integer thresholds give the Fraction oracle's minimal monomials, in order."""
    for case in range(80):
        r = ring if case % 2 else ring2
        weights = _random_weights(rng, r.arity)
        if case % 3:
            threshold = Fraction(1)
        else:
            threshold = Fraction(rng.randint(1, 5), rng.randint(2, 4))
        for strict in (False, True):
            got = _span(r, weights, threshold, strict=strict)
            expected = _minimal_monomials_oracle(weights, threshold, strict)
            assert [g.leading_monomial() for g in got.generators] == expected
            assert all(len(g) == 1 and g.leading_coefficient() == 1 for g in got.generators)
        if r is ring:
            assert _count_rho_equal_one(weights) == _lattice_genus_oracle(weights)


def test_weighted_genus_matches_the_lattice_count(rng, ring):
    """Seeded Brieskorn-Pham and chain germs x^a*y + y^b + z^c."""
    germs = []
    for _ in range(6):
        a, b, c = (rng.randint(2, 6) for _ in range(3))
        germs.append((f"x^{a} + y^{b} + z^{c}", (Fraction(1, a), Fraction(1, b), Fraction(1, c))))
        a, b, c = rng.randint(2, 4), rng.randint(2, 5), rng.randint(2, 6)
        wy = Fraction(1, b)
        germs.append((f"x^{a}*y + y^{b} + z^{c}", ((1 - wy) / a, wy, Fraction(1, c))))
    for text, ws in germs:
        weights = WeightSystem(ws)
        germ = Germ(parse(text, ring))
        assert germ.weights == weights, text
        result = genus_weighted(germ)
        assert result.g == _lattice_genus_oracle(weights), text
        assert result.log_canonical == (weights.rho((0, 0, 0)) >= 1), text
        for ideal, strict in ((result.multiplier, False), (result.adjoint, True)):
            expected = _minimal_monomials_oracle(weights, Fraction(1), strict)
            assert [g.leading_monomial() for g in ideal.generators] == expected, text


def test_classify_corpus(ring):
    for poly_text, notes in load_corpus(bundled_corpus_text()):
        cls = classify(parse(poly_text, ring))
        assert cls.tag == notes["class"], notes["name"]


def test_classify_details(ring, P):
    witness = classify(P("x^4 + y^4 + z^4 + x*y^2*z^2"))
    assert witness.is_ordinary and not witness.is_weighted
    assert witness.ordinary_multiplicity == 4
    cusp = classify(P("x^2*y + y^3 + z^4"))
    assert cusp.is_weighted and not cusp.is_ordinary
    assert cusp.weights == WeightSystem(
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4))
    )
    both = classify(P("x^2 + y^2 + z^2"))
    assert both.tag == "ordinary+weighted"
    assert both.ordinary_multiplicity == 2


def test_classify_rejections(ring, P):
    with pytest.raises(ValueError, match="does not vanish"):
        classify(P("1 + x^2"))
    with pytest.raises(ValueError, match="smooth point"):
        classify(P("x + y^2"))
    with pytest.raises(ValueError, match="non-isolated"):
        classify(P("x*y"))
    with pytest.raises(ValueError, match="does not vanish"):
        classify(P("0"))


def test_genus_lattice_oracle(ring):
    table = [
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)), 0),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), 1),
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)), 3),
        ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)), 0),
        ((Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)), 6),
    ]
    polys = {
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)): "x^2 + y^3 + z^5",
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)): "x^3 + y^3 + z^3",
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)): "x^4 + y^4 + z^4",
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)): "x^2*y + y^3 + z^4",
        (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)): "x^5 + y^5 + z^5",
    }
    for weights_tuple, expected in table:
        w = WeightSystem(weights_tuple)
        assert _lattice_genus_oracle(w) == expected
        germ = Germ(parse(polys[weights_tuple], ring))
        assert germ.weights == w
        result = genus_weighted(germ)
        assert result.g == expected


def test_fermat_genus_both_routes(ring):
    expected = {3: 1, 4: 3, 5: 6, 6: 10}
    for d, g in expected.items():
        f = parse(f"x^{d} + y^{d} + z^{d}", ring)
        by_blowup = genus_ordinary(f)
        by_weights = genus_weighted(f)
        assert by_blowup.g == by_weights.g == g
        assert by_blowup.log_canonical == by_weights.log_canonical == (d <= 3)
        merged = compute_genus(f)
        assert merged.g == g
        assert merged.provenance == "ordinary+weighted"


def test_genus_corpus(ring):
    for poly_text, notes in load_corpus(bundled_corpus_text()):
        result = compute_genus(parse(poly_text, ring))
        assert result is not None
        assert result.g == int(notes["g"]), notes["name"]
        assert result.log_canonical == (notes["lc"] == "true"), notes["name"]


def _forbidden(*args, **kwargs):
    raise AssertionError("a genus route filled a Buchberger basis or took a normal form")


def test_genus_routes_need_no_buchberger_or_normal_form(ring, monkeypatch):
    """Both genus routes decide their monomial ideals by divisibility and one sweep.

    ``classify`` fills the germ's own bases first; ``compute_genus`` then
    runs with ``_buchberger`` and ``Ideal.normal_form`` raising, and gives
    the result of a fresh germ.
    """
    for poly_text, notes in load_corpus(bundled_corpus_text()):
        f = parse(poly_text, ring)
        germ = Germ(f)
        classify(germ)
        with monkeypatch.context() as m:
            m.setattr(ideals_module, "_buchberger", _forbidden)
            m.setattr(Ideal, "normal_form", _forbidden)
            result = compute_genus(germ)
        assert result.to_dict() == compute_genus(f).to_dict(), notes["name"]
        assert result.provenance == notes["class"] and result.g == int(notes["g"])


def test_ordinary_route_ideals(ring, P):
    f = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    result = genus_ordinary(f)
    assert result.g == 3
    assert not result.log_canonical
    m = maximal_ideal_power(ring, 1)
    m2 = maximal_ideal_power(ring, 2)
    assert result.multiplier.contains_ideal(m) and m.contains_ideal(result.multiplier)
    assert result.adjoint.contains_ideal(m2) and m2.contains_ideal(result.adjoint)
    assert result.notes == ()
    # multiplicity 2 in three variables: both ideals collapse to the unit ideal
    quadric = genus_ordinary(P("x^2 + y^2 + z^2"))
    assert quadric.g == 0 and quadric.log_canonical
    one = Ideal(ring, [ring.one()])
    for ideal in (quadric.multiplier, quadric.adjoint):
        assert ideal.generators == (ring.one(),)
        assert ideal.contains_ideal(one)


def test_ordinary_route_extrapolation_note(ring, P):
    assert genus_ordinary(P("x^4 + y^4 + z^4")).notes == ()
    # degree three matches ambient dimension: formula applied outside its
    # stated case, and the result says so
    noted = genus_ordinary(P("x^3 + y^3 + z^3"))
    assert noted.notes == (ORDINARY_EXTRAPOLATION_NOTE,)


def test_ordinary_route_rejects_singular_cone(ring, P):
    with pytest.raises(ValueError, match="tangent cone is not smooth"):
        genus_ordinary(P("x^2*y + y^3 + z^4"))


def test_weighted_route_rejections(ring, P):
    with pytest.raises(ValueError, match="no weight system found"):
        genus_weighted(P("x^4 + y^4 + z^4 + x*y^2*z^2"))


def test_compute_genus_none_when_no_route(ring, P):
    # isolated singularity, singular tangent cone, no exact weights
    f = P("x^2*y + y^3 + z^4 + x^4")
    cls = classify(f)
    assert not cls.is_ordinary and not cls.is_weighted
    assert compute_genus(f) is None


def test_compute_genus_demands_agreement(ring, P, monkeypatch):
    """A weighted route that disagrees in g, or in the multiplier ideal, is refused."""
    f = P("x^4 + y^4 + z^4")
    real = genus_module.genus_weighted
    m2 = maximal_ideal_power(ring, 2)
    for tamper, g, same in [
        (lambda r: replace(r, g=r.g + 1), 4, True),
        (lambda r: replace(r, multiplier=m2), 3, False),
    ]:
        monkeypatch.setattr(genus_module, "genus_weighted", lambda germ: tamper(real(germ)))
        with pytest.raises(RuntimeError) as err:
            compute_genus(f)
        assert str(err.value) == (
            "ordinary and weighted genus computations disagree: "
            f"g 3 vs {g}, log canonical False vs False, ideals equal: {same}"
        )


def test_multiplier_span_membership_matches_rho(rng, ring):
    done = 0
    while done < CASES:
        weights = WeightSystem(
            tuple(
                Fraction(rng.randint(1, 4), rng.randint(2, 7))
                for _ in range(3)
            )
        )
        strict = rng.random() < 0.5
        ideal = _span(ring, weights, Fraction(1), strict=strict)
        u = tuple(rng.randint(0, 5) for _ in range(3))
        r = weights.rho(u)
        qualifies = r > 1 if strict else r >= 1
        assert ideal.member(Polynomial.monomial(ring, u)) == qualifies
        done += 1


def test_multiplier_span_generators_minimal(rng, ring):
    for _ in range(40):
        weights = WeightSystem(
            tuple(
                Fraction(1, rng.randint(2, 6))
                for _ in range(3)
            )
        )
        ideal = _span(ring, weights, Fraction(1))
        for gen in ideal.generators:
            u = gen.leading_monomial()
            assert weights.rho(u) >= 1
            for i in range(3):
                if u[i] > 0:
                    below = tuple(u[j] - (1 if j == i else 0) for j in range(3))
                    assert weights.rho(below) < 1


def test_rho_helper(ring):
    w = WeightSystem((Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)))
    assert w.rho((0, 0, 0)) == Fraction(3, 4)
    assert w.rho((1, 0, 0)) == 1
    assert w.rho((2, 1, 1)) == Fraction(7, 4)


def test_compute_genus_weighted_only_entries(ring, P):
    e8 = compute_genus(P("x^2 + y^3 + z^5"))
    assert e8.provenance == "weighted"
    assert e8.g == 0 and e8.log_canonical
    # rho(0) = 31/30 >= 1, so even the constant qualifies and the
    # multiplier ideal is the unit ideal
    assert e8.multiplier.member(ring.one())
    cusp = compute_genus(P("x^2*y + y^3 + z^4"))
    assert cusp.provenance == "weighted"
    assert cusp.g == 0 and not cusp.log_canonical
