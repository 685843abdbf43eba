"""Packed monomials of the exact kernel: encoding, order, divisibility, limits.

A monomial e of a given arity and order is one int
M(e) = (K(e) << pbits) + P(e).  These tests check the encoding against the
order keys and exponent tuples it replaces: round trips, ``<`` against the
key tuples, additivity, the guard-bit divisibility test and the fieldwise
lcm against tuple arithmetic, and the refusal of exponents at the limit.
Four-variable germs and ideals are cross-checked against Milnor-Orlik and
sympy.
"""

from fractions import Fraction

import pytest
import sympy

import singulens.ideals as ideals
from singulens.ideals import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    Ideal,
    local_colength,
)
from singulens.invariants import Germ, milnor_number, tjurina_number
from singulens.polyring import (
    ELIM,
    GREVLEX,
    GRLEX,
    LEX,
    Polynomial,
    MonomialOrder,
    RingContext,
    parse,
)

from conftest import random_polynomial, to_sympy

ORDERS = [LEX, GRLEX, GREVLEX, ELIM]
ARITIES = [1, 2, 3, 4, 5]
TOP = EXPONENT_LIMIT - 1


def _divides(a, b):
    """Tuple divisibility, the test that the guard bits replace."""
    return all(x <= y for x, y in zip(a, b))


def _exponent(rng, arity, high=False):
    """A seeded exponent: small entries, or entries near the field limit."""
    if high:
        choices = (0, 1, TOP - 1, TOP, rng.randrange(EXPONENT_LIMIT))
        return tuple(rng.choice(choices) for _ in range(arity))
    return tuple(rng.randint(0, 6) for _ in range(arity))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("arity", ARITIES)
def test_pack_unpack_round_trip(rng, order, arity):
    pk = ideals._packing(arity, order)
    for _ in range(200):
        e = _exponent(rng, arity, high=rng.random() < 0.5)
        m = pk.pack(e)
        assert pk.unpack(m) == e
        assert not m & pk.guard
    assert pk.pack((0,) * arity) == 0


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
@pytest.mark.parametrize("arity", ARITIES)
def test_int_order_is_the_key_order_and_products_add(rng, order, arity):
    pk = ideals._packing(arity, order)
    for _ in range(300):
        high = rng.random() < 0.3
        a = _exponent(rng, arity, high)
        b = _exponent(rng, arity, high)
        assert (pk.pack(a) < pk.pack(b)) == (order.key(a) < order.key(b))
        assert (pk.pack(a) == pk.pack(b)) == (a == b)
        c = tuple(x + y for x, y in zip(a, b))
        if max(c) < EXPONENT_LIMIT:
            assert pk.pack(c) == pk.pack(a) + pk.pack(b)


@pytest.mark.parametrize("arity", ARITIES)
def test_guard_test_is_divisibility(rng, arity):
    """lm | m exactly when m - lm has no guard bit, also one below the limit."""
    pk = ideals._packing(arity, GREVLEX)
    checked = divisible = 0
    for _ in range(400):
        a = _exponent(rng, arity, high=rng.random() < 0.5)
        if rng.random() < 0.5:
            # a multiple of a, so that divisible pairs are frequent
            b = tuple(min(x + rng.randint(0, 2), TOP) for x in a)
        else:
            b = _exponent(rng, arity, high=rng.random() < 0.5)
        verdict = not (pk.pack(b) - pk.pack(a)) & pk.guard
        assert verdict == _divides(a, b)
        checked += 1
        divisible += verdict
    assert 0 < divisible < checked


@pytest.mark.parametrize("arity", ARITIES)
def test_fieldwise_lcm(rng, arity):
    pk = ideals._packing(arity, GREVLEX)
    mask = (1 << pk.pbits) - 1
    for _ in range(300):
        high = rng.random() < 0.5
        a = _exponent(rng, arity, high)
        b = _exponent(rng, arity, high)
        lcm = pk.lcm(pk.pack(a) & mask, pk.pack(b) & mask)
        assert lcm == pk.pack(tuple(map(max, a, b))) & mask


def test_graded_packings_put_the_degree_above_the_exponents():
    """grlex keys the degree alone (the exponents break ties as P); lex is P itself."""
    pk = ideals._packing(3, GRLEX)
    assert pk.pack((1, 2, 3)) >> pk.pbits == 6
    assert ideals._packing(3, LEX).pack((1, 2, 3)) == pk.pack((1, 2, 3)) & ((1 << pk.pbits) - 1)
    # orders compare by name, so an equal order finds the same packing
    assert ideals._packing(4, MonomialOrder("elim", ELIM.key)) is ideals._packing(4, ELIM)


def test_exponent_at_the_limit_is_refused_in_groebner_basis(ring, P):
    x = Polynomial.variable(ring, 0)
    below = Ideal(ring, [x**TOP + P("y")])
    assert [g.leading_monomial() for g in below.groebner_basis()] == [(TOP, 0, 0)]
    with pytest.raises(ExponentOverflow, match=f"exponent {EXPONENT_LIMIT} reached the kernel"):
        Ideal(ring, [x**EXPONENT_LIMIT + P("y")]).groebner_basis()
    # a product inside the kernel: x - y^2 rewrites x^(limit/2) into y^limit
    half = EXPONENT_LIMIT // 2
    assert Ideal(ring, [P("x - y^2"), x ** (half - 1)]).groebner_basis(LEX)[0] == parse(
        f"y^{2 * half - 2}", ring
    )
    with pytest.raises(ExponentOverflow, match="an exponent reached the kernel limit"):
        Ideal(ring, [P("x - y^2"), x**half]).groebner_basis(LEX)


def test_exponent_at_the_limit_is_refused_in_the_local_echelon(ring, P):
    x = Polynomial.variable(ring, 0)
    # not homogeneous: the colength comes from the local echelon
    assert local_colength(Ideal(ring, [P("x") + x**TOP, P("y"), P("z")])) == 1
    assert Ideal(ring, [P("x^2") + x**TOP, P("y"), P("z")]).local_member(P("x^3"))
    with pytest.raises(ExponentOverflow, match=f"exponent {EXPONENT_LIMIT} reached"):
        local_colength(Ideal(ring, [P("x") + x**EXPONENT_LIMIT, P("y"), P("z")]))
    with pytest.raises(ExponentOverflow):
        Ideal(ring, [P("x^2") + x**EXPONENT_LIMIT, P("y"), P("z")]).local_member(P("x^3"))


@pytest.fixture(scope="module")
def ring4():
    return RingContext(("x", "y", "z", "w"))


def _sympy_grevlex(ideal):
    symbols = sympy.symbols(ideal.ring.names)
    gens = [to_sympy(g).as_expr() for g in ideal.generators]
    theirs = sympy.groebner(gens, *symbols, order="grevlex")
    out = []
    for expr in theirs.exprs:
        poly = sympy.Poly(expr, *symbols)
        p = Polynomial(ideal.ring, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})
        out.append(p * (1 / p.leading_coefficient()))
    return sorted(out, key=lambda p: GREVLEX.key(p.leading_monomial()))


def test_sympy_grevlex_cross_check_in_four_variables(rng, ring4):
    sizes = []
    for _ in range(25):
        gens = [
            random_polynomial(
                rng, ring4, max_terms=3, max_degree=2, coeff_bound=5, allow_zero=False
            )
            for _ in range(rng.randint(2, 3))
        ]
        ideal = Ideal(ring4, gens)
        basis = ideal.groebner_basis(GREVLEX)
        assert list(basis) == _sympy_grevlex(ideal)
        sizes.append(len(basis))
    assert max(sizes) > 4


def test_four_variable_ordinary_germ(ring4):
    """mu of x^5 + y^5 + z^5 + w^5 + x*y^2*z^2*w by Milnor-Orlik on the principal part.

    The principal part is weighted homogeneous for weights 1/5, and the
    extra term has weight 6/5 > 1, so mu = prod(1/w_i - 1) = 4^4.
    """
    germ = Germ(parse("x^5 + y^5 + z^5 + w^5 + x*y^2*z^2*w", ring4))
    weights = [Fraction(1, 5)] * 4
    assert sum(Fraction(e) * w for e, w in zip((1, 2, 2, 1), weights)) == Fraction(6, 5)
    expected = 1
    for w in weights:
        expected *= 1 / w - 1
    mu = milnor_number(germ)
    assert mu == expected == 256
    assert tjurina_number(germ) <= mu
