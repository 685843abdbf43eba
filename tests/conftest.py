"""Shared fixtures: ring contexts, polynomial parsing, seeded randomness.

Every randomized test draws from a per-test random.Random stream derived
from a base seed and the test's own id, so a run is reproducible with
``pytest --seed N`` and shuffling test order cannot change the draws.
"""

import random
from operator import mul

import pytest
import sympy

import singulens.ideals as ideals
import singulens.sections as sections
from singulens.polyring import (
    GRLEX,
    LEX,
    Polynomial,
    RingContext,
    clear_denominators,
    integer_weights,
)
from singulens.polyring import parse as parse_poly

DEFAULT_SEED = 20250822


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=DEFAULT_SEED,
        help="base seed for randomized property tests",
    )


@pytest.fixture(scope="session")
def base_seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(base_seed, request):
    return random.Random(f"{base_seed}:{request.node.nodeid}")


@pytest.fixture(scope="session")
def ring():
    return RingContext(("x", "y", "z"))


@pytest.fixture(scope="session")
def ring2():
    return RingContext(("x", "y"))


@pytest.fixture(scope="session")
def P(ring):
    def _parse(text, target_ring=None):
        return parse_poly(text, target_ring if target_ring is not None else ring)

    return _parse


def random_polynomial(
    rnd,
    target_ring,
    max_terms=4,
    max_degree=3,
    coeff_bound=9,
    allow_zero=True,
):
    """Small random polynomial with integer coefficients."""
    total = Polynomial.zero(target_ring)
    lower = 0 if allow_zero else 1
    for _ in range(rnd.randint(lower, max_terms)):
        exponent = tuple(
            rnd.randint(0, max_degree) for _ in range(target_ring.arity)
        )
        coeff = rnd.randint(-coeff_bound, coeff_bound)
        total = total + Polynomial.monomial(target_ring, exponent) * coeff
    if not allow_zero and total.is_zero():
        return Polynomial.constant(target_ring, 1)
    return total


@pytest.fixture(scope="session")
def random_poly():
    return random_polynomial


# Weighted homogeneous germs with their equality verdicts pinned elsewhere.
GRADED_GERMS = (
    "x^3 + y^3 + z^3",
    "x^4 + y^4 + z^4",
    "x^5 + y^5 + z^5",
    "x^3 + y^4 + z^2",
    "x^2 + y^3 + z^5",
    "x^2*y + y^3 + z^4",
    "x^3*y + y^5 + z^6",
    "x^4*y + y^6 + z^4",
    "x^6*y + y^3 + z^5",
)


def add_rows_member(ideal, p, weights):
    """p in I by the Macaulay rows of ``ideals._add_rows`` in degree wdeg(p).

    For I and p weighted homogeneous for ``weights``: the rows m*g with
    wdeg(m) = wdeg(p) - wdeg(g), packed by the weighted packing, are reduced
    into one echelon form, and p lies in I when ``_pivot_reduce`` takes it
    to zero there.
    """
    if p.is_zero():
        return True
    ws, pk, degs = ideal._graded_degrees(weights)
    target = pk.pack_poly(ideals._int_poly(p))
    top = ideals._packed_degree(target, pk)
    assert top is not None
    pivots, shifts = {}, {}
    for g, d in zip(ideal._packed_generators(pk), degs):
        ideals._add_rows(pivots, g, top - d, ws, pk, shifts)
    return ideals._pivot_reduce(target, pivots) is None


def _tuple_weighted_degree(p, ws):
    degs = {sum(map(mul, e, ws)) for e in p}
    return degs.pop() if len(degs) == 1 else None


def tuple_graded_member(ideal, p, weights):
    """The graded level test on exponent tuples, lex-packed per row, as a reference."""
    ws = integer_weights(weights)[0]
    gens = [ideals._int_poly(g) for g in ideal.generators]
    degs = [_tuple_weighted_degree(g, ws) for g in gens]
    target = ideals._int_poly(p)
    top = _tuple_weighted_degree(target, ws)
    assert top is not None and None not in degs
    pk = ideals._packing(len(ws), LEX)
    pivots, shifts = {}, {}
    for g, d in zip(gens, degs):
        if d not in shifts:
            shifts[d] = [pk.pack(m) for m in ideals._exponents_of_degree(ws, top - d)]
        row0 = pk.pack_poly(g)
        for m in shifts[d]:
            head = ideals._pivot_reduce({e + m: c for e, c in row0.items()}, pivots)
            if head is not None:
                pivots[head[0]] = head[1:]
    return ideals._pivot_reduce(pk.pack_poly(target), pivots) is None


def to_sympy(p):
    """p as a sympy ``Poly`` over QQ in the variables of its ring."""
    coeffs = {e: sympy.Rational(c) for e, c in p.items()}
    return sympy.Poly.from_dict(coeffs, *map(sympy.Symbol, p.ring.names), domain="QQ")


def derive_numerator(f, p, i, order):
    """``sections._derive`` on integer polynomials: d_i(p) * f - (order + 1) * p * d_i(f).

    The numerator of d_i(p / f^(order+1)) over f^(order+2), computed by the
    library's packed-integer recurrence and returned as a ``Polynomial``.
    """
    pk = ideals._packing(f.ring.arity, GRLEX)

    def packed(q):
        ints, den = clear_denominators(q)
        assert den == 1, q
        return pk.pack_poly(ints)

    big_f = packed(f)
    out = sections._derive(packed(p), i, order, big_f, pk.partial(big_f, i), pk)
    return Polynomial(f.ring, {pk.unpack(m): c for m, c in out.items()})
