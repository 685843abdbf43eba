"""Polynomial ring: arithmetic laws, orders, parser and printer."""

from fractions import Fraction

import pytest

from singulens.polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    parse,
)

CASES = 220


def test_ring_context_validation():
    with pytest.raises(ValueError):
        RingContext(())
    with pytest.raises(ValueError):
        RingContext(("x", "x"))
    with pytest.raises(ValueError):
        RingContext(("x", ""))


def test_ring_value_equality():
    a = RingContext(("x", "y", "z"))
    b = RingContext(("x", "y", "z"))
    assert a == b
    assert hash(a) == hash(b)
    assert parse("x + y", a) == parse("x + y", b)


def test_canonical_printing(P):
    assert str(P("x^4 + x*y^2*z^2 + y^4 + z^4")) == "x*y^2*z^2 + x^4 + y^4 + z^4"
    assert str(P("-3/2*x*y")) == "-3/2*x*y"
    assert str(P("0")) == "0"
    assert str(P("x - x + 7")) == "7"
    assert str(P("(x + y)^2")) == "x^2 + 2*x*y + y^2"


def test_parse_rational_coefficients(P):
    p = P("1/2*x + 2/4*x")
    assert p == Polynomial.variable(p.ring, "x")
    assert P("5/10") == Fraction(1, 2)


def test_parse_errors_carry_positions(ring):
    with pytest.raises(ParseError) as err:
        parse("x^", ring)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse("x^-2", ring)
    with pytest.raises(ParseError):
        parse("w + x", ring)
    with pytest.raises(ParseError):
        parse("x y", ring)
    with pytest.raises(ParseError):
        parse("", ring)
    with pytest.raises(ParseError, match="unknown variable 't__elim'"):
        parse("t__elim + x", ring)
    for text, position, message in [
        ("x $ y", 2, "unexpected character '$'"),
        ("x^1000000", 2, "exponent too large"),
        ("1/0*x", 2, "expected a positive integer denominator"),
        ("(x + y", 6, "expected ')'"),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text, ring)
        assert err.value.position == position
        assert str(err.value) == f"parse error at position {position}: {message}"



def test_roundtrip_random(rng, ring, random_poly):
    for _ in range(CASES):
        p = random_poly(rng, ring, max_terms=6, max_degree=5, coeff_bound=30)
        assert parse(str(p), ring) == p


def test_arithmetic_laws_random(rng, ring, random_poly):
    for _ in range(CASES):
        a = random_poly(rng, ring)
        b = random_poly(rng, ring)
        c = random_poly(rng, ring)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(ring)
        assert a * 1 == a
        assert a * 0 == Polynomial.zero(ring)


def test_power_matches_repeated_multiplication(rng, ring, random_poly):
    for _ in range(60):
        p = random_poly(rng, ring, max_terms=3, max_degree=2)
        expected = Polynomial.constant(ring, 1)
        for k in range(5):
            assert p**k == expected
            expected = expected * p
    with pytest.raises(ValueError):
        Polynomial.variable(ring, 0) ** (-1)


def test_scalar_coercion(P, ring):
    x = Polynomial.variable(ring, "x")
    assert x + 1 == P("x + 1")
    assert 1 + x == P("x + 1")
    assert x * Fraction(1, 2) == P("1/2*x")
    assert Fraction(3, 2) - x == P("3/2 - x")
    assert P("7") == 7
    assert P("7") != 8
    assert Polynomial.zero(ring) == 0


def test_leibniz_for_polynomials(rng, ring, random_poly):
    for _ in range(CASES):
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
        i = rng.randrange(ring.arity)
        lhs = (p * q).partial_derivative(i)
        rhs = p.partial_derivative(i) * q + p * q.partial_derivative(i)
        assert lhs == rhs


def test_partial_derivative_basics(P):
    f = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    assert f.partial_derivative("x") == P("4*x^3 + y^2*z^2")
    assert f.partial_derivative("y") == P("4*y^3 + 2*x*y*z^2")
    assert P("5").partial_derivative(0) == 0
    with pytest.raises(ValueError):
        f.partial_derivative("w")


def test_homogeneous_components(rng, ring, random_poly):
    for _ in range(CASES):
        p = random_poly(rng, ring)
        parts = p.homogeneous_components()
        total = Polynomial.zero(ring)
        for degree, part in parts.items():
            assert part.is_homogeneous()
            assert part.total_degree() == degree
            total = total + part
        assert total == p


def test_total_degree_and_homogeneity(P):
    assert P("x^2*y + z^3").total_degree() == 3
    assert P("x^2*y + z^3").is_homogeneous()
    assert not P("x^2 + z^3").is_homogeneous()
    assert P("0").total_degree() is None
    assert P("0").is_homogeneous()


def test_monomial_order_frozen_comparisons(ring):
    # degree 3 monomials xy^2 and x^2z agree in grlex until the tiebreak
    a = (1, 2, 0)
    b = (2, 0, 1)
    assert LEX.key(a) < LEX.key(b)
    assert GRLEX.key(a) < GRLEX.key(b)
    # grevlex prefers the monomial with the smaller power of the last variable
    assert GREVLEX.key(b) < GREVLEX.key(a)
    assert MonomialOrder.by_name("grevlex") is GREVLEX
    with pytest.raises(ValueError):
        MonomialOrder.by_name("mystery")


def test_orders_are_multiplicative(rng, ring):
    for order in (LEX, GRLEX, GREVLEX):
        for _ in range(CASES):
            a = tuple(rng.randint(0, 5) for _ in range(3))
            b = tuple(rng.randint(0, 5) for _ in range(3))
            w = tuple(rng.randint(0, 5) for _ in range(3))
            if order.key(a) == order.key(b):
                continue
            flipped = order.key(a) < order.key(b)
            shifted_a = tuple(x + y for x, y in zip(a, w))
            shifted_b = tuple(x + y for x, y in zip(b, w))
            assert (order.key(shifted_a) < order.key(shifted_b)) == flipped


def test_leading_terms_per_order(P):
    p = P("x^2*y + x*y^2 + 2*y*z^3")
    assert p.leading_monomial() == (0, 1, 3)
    assert p.leading_coefficient() == 2
    assert [e for e, _ in p.terms()] == [(0, 1, 3), (2, 1, 0), (1, 2, 0)]


def test_exact_division(rng, ring, random_poly):
    from singulens.polyring import exact_div

    for _ in range(CASES):
        p = random_poly(rng, ring, max_terms=3, max_degree=3)
        q = random_poly(rng, ring, max_terms=3, max_degree=3, allow_zero=False)
        assert exact_div(p * q, q) == p
    x, y = Polynomial.variable(ring, "x"), Polynomial.variable(ring, "y")
    assert exact_div(x, y) is None
    assert exact_div(x + 1, x) is None
