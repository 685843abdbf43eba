"""Groebner engine: bases, membership, quotients, colengths.

The reduced basis and the exact normal form are cross-checked against an
independent implementation (sympy) on random inputs and on the witness's
derivative ideals, the pair update against the chain-criterion loop it
replaced, graded membership against the ``_ff_reduce`` row loop it
replaced, colengths against a plain box scan, and monomial-ideal
membership in two variables against a brute-force divisibility oracle.
Monomial ideals, which skip Buchberger and normal forms, are checked
against the Buchberger basis and normal-form route in 2-4 variables, and
the lattice walk against a box filter.
"""

import heapq
import itertools
import math
import threading
from bisect import insort
from collections import Counter
from fractions import Fraction
from operator import add, mul, sub

import pytest
import sympy

import singulens.ideals as ideals
from singulens.genus import classify, compute_genus
from singulens.ideals import (
    DegreeCapExceeded,
    INFINITE,
    Ideal,
    InfiniteColengthError,
    local_colength,
    maximal_ideal,
    maximal_ideal_power,
    quotient_dimension,
)
from singulens.polyring import (
    ELIM,
    GREVLEX,
    GRLEX,
    LEX,
    Polynomial,
    RingContext,
    parse,
)
from singulens.sections import jk_ideal, level_ladder

from conftest import add_rows_member, random_polynomial, to_sympy

CASES = 220


def _random_ideal(rng, ring, max_gens=3, **kwargs):
    count = rng.randint(1, max_gens)
    gens = [
        random_polynomial(rng, ring, allow_zero=False, **kwargs)
        for _ in range(count)
    ]
    return Ideal(ring, gens)


def test_frozen_lex_basis(ring, P):
    ideal = Ideal(ring, [P("x^2 + y^2 - 1"), P("x*y - 1")])
    basis = ideal.groebner_basis(LEX)
    assert [str(p) for p in basis] == ["y^4 - y^2 + 1", "y^3 + x - y"]


def test_unit_and_zero_ideals(ring, P):
    one = (ring.one(),)
    assert Ideal(ring, [P("2")]).groebner_basis() == one
    assert Ideal(ring, []).groebner_basis() == ()
    assert Ideal(ring, [P("0")]).groebner_basis() == ()
    assert Ideal(ring, [P("x"), P("x + 1")]).groebner_basis() == one


def test_membership_basics(ring, P):
    jac = Ideal(ring, [P("x^3"), P("y^3"), P("z^3")])
    assert not jac.member(P("x*y^2*z^2"))
    assert jac.member(P("x^3*y + 7*z^5"))
    assert jac.member(P("x^4"))
    assert not jac.member(P("x^2*y^2*z^2"))


def test_normal_form_is_canonical(rng, ring, random_poly):
    ideal = Ideal(ring, [parse("x^2 - y", ring), parse("y^2 - z", ring)])
    for _ in range(80):
        p = random_poly(rng, ring)
        r = ideal.normal_form(p)
        assert ideal.member(p - r)
        assert ideal.normal_form(r) == r


def test_reduced_basis_unique_under_permutation_and_scaling(rng, ring, random_poly):
    done = 0
    while done < CASES:
        ideal = _random_ideal(rng, ring, max_terms=3, max_degree=2, coeff_bound=5)
        reference = ideal.groebner_basis(GREVLEX)
        gens = list(ideal.generators)
        rng.shuffle(gens)
        scaled = [
            g * Fraction(rng.choice([1, 2, 3, 5, -1, -2, 7]), rng.choice([1, 2, 3]))
            for g in gens
        ]
        other = Ideal(ideal.ring, scaled)
        assert other.groebner_basis(GREVLEX) == reference
        done += 1


def test_spolynomials_reduce_to_zero(rng, ring, random_poly):
    checked = 0
    while checked < CASES:
        ideal = _random_ideal(rng, ring, max_terms=3, max_degree=2, coeff_bound=5)
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


def _sympy_grevlex_basis(ideal):
    """The reduced grevlex basis of ``ideal`` computed by sympy, made monic and sorted."""
    symbols = sympy.symbols(ideal.ring.names)

    def from_sympy(expr):
        p = parse(str(expr).replace("**", "^").replace(" ", ""), ideal.ring)
        return p * (1 / p.leading_coefficient())

    theirs = sympy.groebner(
        [to_sympy(g).as_expr() for g in ideal.generators],
        *symbols,
        order="grevlex",
    )
    return sorted(
        (from_sympy(e) for e in theirs.exprs),
        key=lambda p: GREVLEX.key(p.leading_monomial()),
    )


def test_sympy_cross_check(rng, ring, random_poly):
    for _ in range(50):
        ideal = _random_ideal(rng, ring, max_terms=3, max_degree=3, coeff_bound=7)
        assert list(ideal.groebner_basis(GREVLEX)) == _sympy_grevlex_basis(ideal)


@pytest.mark.parametrize("k", [1, 2])
def test_sympy_cross_check_on_witness_derivative_ideals(ring, P, k):
    """J_1 and J_2 of the witness, 13 and 35 basis elements, where the pair criteria bite."""
    witness = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    ideal = jk_ideal(witness, maximal_ideal(ring), k)
    assert list(ideal.groebner_basis(GREVLEX)) == _sympy_grevlex_basis(ideal)


# The tuple-based kernel helpers of the reference loops below: exponent
# tuples as monomials, the order's key as the sort key.


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _reducer(p, lm, key):
    """The reducer record (deg, lmkey, lm, lc, tail) that ``_ff_reduce`` scans."""
    return (sum(lm), key(lm), lm, p[lm], tuple((e, c) for e, c in p.items() if e != lm))


def _spoly(pa, lma, pb, lmb):
    lca, lcb = pa[lma], pb[lmb]
    g = math.gcd(lca, lcb)
    ca = lcb // g
    cb = lca // g
    lcm = tuple(map(max, lma, lmb))
    sa = tuple(map(sub, lcm, lma))
    sb = tuple(map(sub, lcm, lmb))
    out = {}
    for e, c in pa.items():
        out[tuple(map(add, e, sa))] = c * ca
    for e, c in pb.items():
        t = tuple(map(add, e, sb))
        v = out.get(t, 0) - c * cb
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def _ff_reduce(p, reds, key):
    """Full normal form of p against sorted tuple records, fraction-free, with its scale."""
    work = dict(p)
    out = {}
    scale = Fraction(1)
    heap = [(tuple(-k for k in key(e)), e) for e in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        mdeg = sum(m)
        hit = None
        for deg, _, lm, lc, tail in reds:
            if deg > mdeg:
                break
            if _divides(lm, m):
                hit = (lm, lc, tail)
                break
        if hit is None:
            out[m] = c
            continue
        lm, lc, tail = hit
        g = math.gcd(c, lc)
        a = lc // g
        b = c // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for e in work:
                work[e] *= a
            for e in out:
                out[e] *= a
            c *= a
            scale *= a
        shift = tuple(map(sub, m, lm))
        for e, q in tail:
            t = tuple(map(add, e, shift))
            prev = work.get(t)
            v = (prev if prev is not None else 0) - b * q
            if v:
                work[t] = v
                if prev is None:
                    heapq.heappush(heap, (tuple(-k for k in key(t)), t))
            elif prev is not None:
                del work[t]
        steps += 1
        if steps % 64 == 0:
            scale /= ideals._strip_pair(work, out)
    return out, scale / ideals._strip_pair(work, out)


def _packed_reduced_basis(polys, order):
    """The reduced basis of tuple-keyed Groebner basis elements, by the packed kernel."""
    pk = ideals._packing(len(next(iter(polys[0]))), order)
    return ideals._reduced_basis([pk.pack_poly(p) for p in polys], pk.guard)


def _packed_buchberger(gens, order):
    """``ideals._buchberger`` on tuple-keyed generators, its basis unpacked."""
    pk = ideals._packing(len(next(iter(gens[0]))), order)
    basis = ideals._buchberger([pk.pack_poly(g) for g in gens], pk)
    return [{pk.unpack(m): c for m, c in p.items()} for p in basis]


def _chain_criterion_buchberger(gens, key):
    """The pair loop that the Gebauer-Moeller update replaced, kept as a reference.

    Pairs with coprime leading monomials are never queued; a popped pair is
    skipped when some other basis element's leading monomial divides its
    lcm and neither pair through that element is still pending.
    """
    basis, reds, pending, heap, seen = [], [], set(), [], set()

    def add(p):
        lm = max(p, key=key)
        if sum(lm) == 0:
            return True
        t = len(basis)
        basis.append((p, lm))
        insort(reds, _reducer(p, lm, key))
        for i in range(t):
            lmi = basis[i][1]
            if all(x == 0 or y == 0 for x, y in zip(lmi, lm)):
                continue
            lcm = tuple(max(x, y) for x, y in zip(lmi, lm))
            pending.add((i, t))
            heapq.heappush(heap, (sum(lcm), key(lcm), i, t, lcm))
        return False

    def unit_like(p):
        return [{(0,) * len(next(iter(p))): 1}]

    for g in gens:
        fp = frozenset(g.items())
        if not g or fp in seen:
            continue
        seen.add(fp)
        if add(g):
            return unit_like(g)
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.remove((i, j))
        chained = False
        for t in range(len(basis)):
            if t == i or t == j:
                continue
            if _divides(basis[t][1], lcm):
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    chained = True
                    break
        if chained:
            continue
        s = _spoly(basis[i][0], basis[i][1], basis[j][0], basis[j][1])
        if not s:
            continue
        r, _ = _ff_reduce(s, reds, key)
        if r and add(r):
            return unit_like(r)
    return [rec[0] for rec in basis]


def _sparse_generators(rng, max_degree, count):
    """``count`` primitive integer polynomials in 3 variables, 2-3 terms of degree 1..max_degree."""
    monomials = [
        e for e in itertools.product(range(max_degree + 1), repeat=3)
        if 1 <= sum(e) <= max_degree
    ]
    gens = []
    while len(gens) < count:
        p = {}
        for _ in range(rng.randint(2, 3)):
            e = rng.choice(monomials)
            p[e] = p.get(e, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        p = {e: c for e, c in p.items() if c}
        if p:
            gens.append(ideals._primitive(p))
    return gens


@pytest.mark.parametrize("order", [GREVLEX, GRLEX, LEX, ELIM], ids=lambda o: o.name)
def test_pair_update_matches_the_chain_criterion_loop(rng, order):
    """Same reduced bases as the old loop, on ideals large enough to delete queued pairs."""
    # lex and elimination bases of cubic draws can explode: those stay quadratic
    max_degree = 3 if order in (GREVLEX, GRLEX) else 2
    for _ in range(30):
        if order.name == "elim":
            # the shape of Ideal.quotient: t*g_i and (1 - t)*p, t first
            *base, p = _sparse_generators(rng, max_degree, rng.randint(3, 4))
            gens = [{(1,) + e: c for e, c in g.items()} for g in base]
            gens.append({**{(0,) + e: c for e, c in p.items()}, **{(1,) + e: -c for e, c in p.items()}})
        else:
            gens = _sparse_generators(rng, max_degree, rng.randint(3, 4))
        old = _packed_reduced_basis(_chain_criterion_buchberger(gens, order.key), order)
        new = _packed_reduced_basis(_packed_buchberger(gens, order), order)
        assert new == old


def test_pair_update_matches_the_chain_criterion_loop_on_the_witness(ring, P):
    witness = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    key = GREVLEX.key
    for k in range(3):
        gens = [ideals._int_poly(g) for g in jk_ideal(witness, maximal_ideal(ring), k).generators]
        old = _packed_reduced_basis(_chain_criterion_buchberger(gens, key), GREVLEX)
        assert _packed_reduced_basis(_packed_buchberger(gens, GREVLEX), GREVLEX) == old


# Monomial generators (in order) and the number of S-polynomials formed.
PAIR_UPDATE_CASES = {
    # (xyz, x) is pruned by the coprime candidate (y, x) of lcm xy
    "coprime-prunes": (("y", "x*y*z", "x"), 1),
    # x divides lcm(xy, yz) = xyz, which differs from xy and from yz
    "delete-queued": (("x*y", "y*z", "y"), 2),
    # x divides xyz, but lcm(yz, x) = xyz, so (xy, yz) stays queued
    "keep-queued": (("x*y", "y*z", "x"), 2),
    # (xz, xy) and (yz, xy) share the lcm xyz: one of them is queued
    "equal-lcm": (("x*z", "y*z", "x*y"), 2),
}


@pytest.mark.parametrize("case", sorted(PAIR_UPDATE_CASES))
def test_pair_update_rules_on_monomial_ideals(P, monkeypatch, case):
    """Each update rule, seen through the count of S-polynomials formed."""
    texts, expected = PAIR_UPDATE_CASES[case]
    formed = []
    spoly = ideals._spoly

    def counting(*args):
        formed.append(args)
        return spoly(*args)

    monkeypatch.setattr(ideals, "_spoly", counting)
    gens = [ideals._int_poly(P(t)) for t in texts]
    assert len(_packed_buchberger(gens, GREVLEX)) == len(texts)
    assert len(formed) == expected


def test_normal_form_matches_sympy_remainder(rng, ring):
    """The exact rational remainder, not only its class modulo I."""
    symbols = sympy.symbols("x y z")

    def rational_poly(**kwargs):
        total = Polynomial.zero(ring)
        for _ in range(2):
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            total = total + random_polynomial(rng, ring, **kwargs) * q
        return total

    def from_sympy(expr):
        terms = sympy.Poly(expr, *symbols).terms()
        return Polynomial(ring, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})

    checked = 0
    while checked < 150:
        gens = [rational_poly(max_terms=3, max_degree=2) for _ in range(rng.randint(1, 3))]
        ideal = Ideal(ring, gens)
        if not ideal.generators:
            continue
        theirs = sympy.groebner(
            [to_sympy(g).as_expr() for g in ideal.generators],
            *symbols,
            order="grevlex",
            domain="QQ",
        )
        for _ in range(5):
            p = rational_poly(max_terms=4, max_degree=4)
            assert ideal.normal_form(p) == from_sympy(theirs.reduce(to_sympy(p).as_expr())[1])
            checked += 1


def test_monomial_membership_against_divisibility_oracle(rng, ring2):
    for _ in range(CASES):
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            gens.append(Polynomial.monomial(ring2, e))
        ideal = Ideal(ring2, gens)
        target_exp = (rng.randint(0, 5), rng.randint(0, 5))
        target = Polynomial.monomial(ring2, target_exp)
        oracle = any(
            all(ge <= te for ge, te in zip(g.leading_monomial(), target_exp))
            for g in gens
        )
        assert ideal.member(target) == oracle


def test_ideal_operations(ring, P):
    a = Ideal(ring, [P("x")])
    b = Ideal(ring, [P("y")])
    assert (a + b).member(P("x + 3*y"))
    cube = Ideal(ring, [P("x^3")])
    assert a.contains_ideal(cube)
    assert not cube.contains_ideal(a)


def test_quotient_examples(ring, P):
    ideal = Ideal(ring, [P("x*y"), P("x*z")])
    q = ideal.quotient(P("x"))
    assert q.member(P("y")) and q.member(P("z"))
    assert not q.member(P("1"))
    principal = Ideal(ring, [P("x^2")])
    assert principal.quotient(P("x")).member(P("x"))


def test_quotient_generator_law(rng, ring, random_poly):
    done = 0
    while done < CASES:
        ideal = _random_ideal(rng, ring, max_terms=2, max_degree=2, coeff_bound=4)
        p = random_polynomial(
            rng, ring, max_terms=2, max_degree=2, coeff_bound=4, allow_zero=False
        )
        quotient = ideal.quotient(p)
        for q in quotient.generators:
            assert ideal.member(q * p)
            done += 1
        assert quotient.contains_ideal(ideal)


def test_local_membership_unit_complement(ring, P):
    principal = Ideal(ring, [P("x + x^2")])
    assert not principal.member(P("x"))
    assert principal.local_member(P("x"))
    assert not principal.local_member(P("y"))
    assert maximal_ideal(ring).local_member(P("x + x^2"))
    assert not maximal_ideal(ring).local_member(P("1 + x"))


def test_local_membership_matches_global_for_m_primary_ideals(rng, ring):
    jac = Ideal(ring, [parse("x^3", ring), parse("y^3", ring), parse("z^3", ring)])
    for _ in range(60):
        p = random_polynomial(rng, ring, max_terms=4, max_degree=4)
        assert jac.local_member(p) == jac.member(p)


def _random_form(rng, ring, degree, ws):
    """A random form of weighted degree ``degree`` for integer weights ``ws``."""
    monomials = [
        e for e in itertools.product(range(degree + 1), repeat=3)
        if sum(x * w for x, w in zip(e, ws)) == degree
    ]
    total = Polynomial.zero(ring)
    for _ in range(rng.randint(1, 3) if monomials else 0):
        total = total + Polynomial.monomial(ring, rng.choice(monomials)) * rng.randint(-5, 5)
    return total


# (rational weights, the same weights as integers, generator degrees,
# target degrees), degrees counted in the integer weights.
WEIGHT_SYSTEMS = {
    "uniform": ((Fraction(1, 3),) * 3, (1, 1, 1), (1, 3), (3, 5)),
    "mixed": ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), (3, 2, 1), (1, 6), (6, 9)),
}


@pytest.mark.parametrize("system", sorted(WEIGHT_SYSTEMS))
def test_graded_membership_matches_global_on_homogeneous_ideals(rng, ring, system):
    weights, ws, gen_degrees, target_degrees = WEIGHT_SYSTEMS[system]

    def wdeg(g):
        return sum(x * w for x, w in zip(g.leading_monomial(), ws))

    def random_gens():
        gens = [_random_form(rng, ring, rng.randint(*gen_degrees), ws) for _ in range(rng.randint(1, 3))]
        return [g for g in gens if not g.is_zero()] or [parse("x*y", ring)]

    members = 0
    for _ in range(40):
        gens = random_gens()
        target = rng.randint(*target_degrees)
        p = Polynomial.zero(ring)
        for g in gens:
            p = p + _random_form(rng, ring, target - wdeg(g), ws) * g
        if rng.random() < 0.5:
            p = p + _random_form(rng, ring, target, ws)
        expected = Ideal(ring, gens).member(p)
        members += expected
        assert add_rows_member(Ideal(ring, gens), p, weights) == expected
        assert _ff_reduce_graded_member(Ideal(ring, gens), p, weights) == expected
    assert 0 < members < 40
    # Below every generator's degree there is no row, so the answer is no.
    below = 0
    while below < 10:
        gens = random_gens()
        p = _random_form(rng, ring, rng.randint(0, min(map(wdeg, gens)) - 1), ws)
        if p.is_zero():
            continue
        below += 1
        assert not Ideal(ring, gens).member(p)
        assert not add_rows_member(Ideal(ring, gens), p, weights)
        assert not _ff_reduce_graded_member(Ideal(ring, gens), p, weights)


def _weighted_degree(p, ws):
    """The weighted degree of an exponent-tuple dict p when it is homogeneous, else None."""
    degs = {sum(map(mul, e, ws)) for e in p}
    return degs.pop() if len(degs) == 1 else None


def _ff_reduce_graded_member(ideal, p, weights):
    """The Macaulay row loop that the pivot dict replaced, kept as a reference.

    Each row m*g is reduced by ``_ff_reduce`` against the sorted records of
    the rows kept so far, and p lies in the ideal when it reduces to zero.
    """
    if p.is_zero():
        return True
    ws = ideals.integer_weights(weights)[0]
    target = ideals._int_poly(p)
    top = _weighted_degree(target, ws)
    gens = [ideals._int_poly(g) for g in ideal.generators]
    degs = [_weighted_degree(g, ws) for g in gens]
    assert top is not None and None not in degs
    key = GREVLEX.key
    reds = []
    for g, d in zip(gens, degs):
        for m in ideals._exponents_of_degree(ws, top - d):
            row = {tuple(x + y for x, y in zip(e, m)): c for e, c in g.items()}
            r = _ff_reduce(row, reds, key)[0]
            if r:
                insort(reds, _reducer(r, max(r, key=key), key))
    return not _ff_reduce(target, reds, key)[0]


# Graded germs and the verdicts of their level tests at k = 0..3.
LEVEL_VERDICTS = {
    "x^5 + y^5 + z^5": [False, False, True, True],
    "x^6 + y^6 + z^6": [False, False, False, True],
    "x^2*y + y^3 + z^4": [False, True, True, True],
    "x^3*y + y^5 + z^6": [False, False, False, True],
    "x^6*y + y^3 + z^5": [False, False, False, False],
}


@pytest.mark.parametrize("text", sorted(LEVEL_VERDICTS))
def test_pivot_elimination_matches_the_ff_reduce_row_loop(ring, P, text):
    """Level 0 and the graded ladder give the old row loop's verdicts on the jk generators."""
    f = P(text)
    cls = classify(f)
    multiplier = compute_genus(f).multiplier
    verdicts = [jk_ideal(f, multiplier, 0).local_member(f**0), *level_ladder(f, multiplier, 3)]
    for k, verdict in enumerate(verdicts):
        assert verdict == _ff_reduce_graded_member(jk_ideal(f, multiplier, k), f**k, cls.weights)
    assert verdicts == LEVEL_VERDICTS[text]


def test_colengths_frozen(ring, P):
    assert maximal_ideal(ring).colength() == 1
    assert maximal_ideal_power(ring, 2).colength() == 4
    assert maximal_ideal_power(ring, 0).generators == (P("1"),)
    assert Ideal(ring, [P("x^2"), P("y^2"), P("z^2")]).colength() == 8
    assert Ideal(ring, [P("x^3"), P("y^3"), P("z^3")]).colength() == 27
    assert Ideal(ring, [P("1")]).colength() == 0
    with pytest.raises(InfiniteColengthError):
        Ideal(ring, [P("x"), P("y")]).colength()


def _box_scan_colength(ideal):
    """Standard monomials counted by testing every box point against every leading monomial."""
    degs = ideal._pure_power_degrees()
    basis = ideal.groebner_basis()
    if basis[0].total_degree() == 0:
        return 0
    lts = [g.leading_monomial() for g in basis]
    return sum(
        1
        for e in itertools.product(*(range(d) for d in degs))
        if not any(all(a <= b for a, b in zip(lt, e)) for lt in lts)
    )


def test_colength_sweep_matches_a_box_scan(rng, ring, P):
    for _ in range(60):
        powers = [P(f"{v}^{rng.randint(1, 5)}") for v in "xyz"]
        extra = [
            random_polynomial(rng, ring, max_terms=3, max_degree=3, coeff_bound=5)
            for _ in range(rng.randint(0, 3))
        ]
        ideal = Ideal(ring, powers + extra)
        assert ideal.colength() == _box_scan_colength(ideal)
    witness = P("x^4 + y^4 + z^4 + x*y^2*z^2")
    levels = [jk_ideal(witness, maximal_ideal(ring), k) for k in range(4)]
    assert [j.colength() for j in levels] == [1, 29, 114, 286]
    assert [_box_scan_colength(j) for j in levels] == [1, 29, 114, 286]


def test_local_colength_cases(ring, P):
    assert local_colength(Ideal(ring, [P("1 + x")])) == 0
    assert local_colength(maximal_ideal(ring)) == 1
    assert local_colength(Ideal(ring, [P("x"), P("y")])) == INFINITE
    # unit multiple changes nothing locally
    shifted = Ideal(ring, [P("x*(1+x)"), P("y*(1+y)"), P("z*(1+z)")])
    assert local_colength(shifted) == 1
    # global colength can exceed the local one
    assert local_colength(Ideal(ring, [P("x + x^2"), P("y"), P("z")])) == 1


def test_local_colength_checks_the_grading_once(ring, P, monkeypatch):
    """Two calls on one ideal compute the generators' weighted degrees once, graded or not."""
    calls = []
    original = ideals._packed_degree

    def counted(p, pk):
        calls.append(pk)
        return original(p, pk)

    monkeypatch.setattr(ideals, "_packed_degree", counted)
    graded = Ideal(ring, [P("x^3"), P("y^3"), P("z^3")])
    ungraded = Ideal(ring, [P("x + x^2"), P("y"), P("z")])
    for ideal, colength in ((graded, 27), (ungraded, 1)):
        calls.clear()
        assert local_colength(ideal) == colength
        assert local_colength(ideal) == colength
        assert len(calls) == 3


def test_local_colength_degree_cap(ring, P):
    """The guard refuses only an isolated ideal whose N passes it.

    (x + y^2) vanishes on a surface, so it is INFINITE under any guard.
    Locally (y + x^10, x*y, z) = (y + x^10, x^11, z), so N = 11.
    """
    assert local_colength(Ideal(ring, [P("x + y^2")]), degree_cap=12) == INFINITE
    gens = [P("y + x^10"), P("x*y"), P("z")]
    with pytest.raises(DegreeCapExceeded, match="not stabilized by degree 10$"):
        local_colength(Ideal(ring, gens), degree_cap=10)
    assert local_colength(Ideal(ring, gens), degree_cap=11) == 11


def test_quotient_dimension(ring, P):
    m = maximal_ideal(ring)
    assert quotient_dimension(m, maximal_ideal_power(ring, 2)) == 3
    assert quotient_dimension(m, m) == 0
    with pytest.raises(ValueError):
        quotient_dimension(maximal_ideal_power(ring, 2), m)


def test_quotient_dimension_refuses_a_non_monomial_pair(ring, P):
    m = maximal_ideal(ring)
    small = Ideal(ring, [P("x + y^2"), P("y^3"), P("z")])
    for big, inner in ((m, small), (Ideal(ring, [P("x + y^2"), P("y"), P("z")]), small)):
        assert big.contains_ideal(inner) and not inner.contains_ideal(big)
        with pytest.raises(ValueError, match="needs two monomial ideals"):
            quotient_dimension(big, inner)


# -- monomial ideals stay monomial --------------------------------------------

MONOMIAL_COEFFS = (1, 1, 1, Fraction(3, 2), Fraction(-2, 5), -4)


def _monomial(rng, ring, e):
    return Polynomial.monomial(ring, e, rng.choice(MONOMIAL_COEFFS))


def _buchberger_basis(ideal, order=GREVLEX):
    """The reduced basis that ``_buchberger`` fills, as packed integer polynomials."""
    pk = ideals._packing(ideal.ring.arity, order)
    gens = [pk.pack_poly(ideals._int_poly(g)) for g in ideal.generators]
    return pk, ideals._reduced_basis(ideals._buchberger(gens, pk), pk.guard)


def _normal_form_contains(big, small):
    """The normal-form route: every generator of small reduces to 0 modulo a Buchberger basis."""
    pk, basis = _buchberger_basis(big)
    reds = [ideals._reducer(r, max(r)) for r in basis]
    return all(
        not ideals._ff_reduce(pk.pack_poly(ideals._int_poly(g)), reds, pk.guard)[0]
        for g in small.generators
    )


def _scan_colength(ideal):
    """The colength at the origin of a monomial ideal: a box scan over its Buchberger basis."""
    pk, basis = _buchberger_basis(ideal)
    lms = [pk.unpack(max(r)) for r in basis]
    if (0,) * ideal.ring.arity in lms:
        return 0
    degs = []
    for i in range(ideal.ring.arity):
        pure = [lm[i] for lm in lms if lm[i] and sum(lm) == lm[i]]
        if not pure:
            return INFINITE
        degs.append(min(pure))
    return sum(
        1
        for e in itertools.product(*map(range, degs))
        if not any(all(map(int.__le__, lm, e)) for lm in lms)
    )


def _quotient_dimension_oracle(big, small):
    """``quotient_dimension`` as it was before monomial pairs: normal forms and two colengths."""
    if big == small:
        return 0
    if not _normal_form_contains(big, small):
        raise ValueError("not nested")
    if _normal_form_contains(small, big):
        return 0
    a, b = _scan_colength(big), _scan_colength(small)
    if INFINITE in (a, b):
        raise InfiniteColengthError("infinite")
    return b - a


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


def _monomial_pairs(rng, ring):
    """Seeded pairs (big, small).

    They are nested and m-primary; nested with small not m-primary;
    unrelated; and one ideal, not m-primary, given by two generator lists.
    """
    n = ring.arity
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def draw(count, top):
        return [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(count)]

    def shift(e, by):
        return tuple(map(add, e, by))

    powers = [tuple(rng.randint(1, 3) * x for x in u) for u in unit]
    big = [e for e in draw(rng.randint(1, 4), 3) if any(e)] + powers
    rng.shuffle(big)
    multiples = [shift(rng.choice(big), e) for e in draw(rng.randint(1, 4), 1)]
    small = multiples + [tuple(x * rng.randint(1, 3) for x in p) for p in powers]
    j = rng.randrange(n)  # every generator of small carries x_j, so no pure power of another
    partial = [shift(rng.choice(big), shift(unit[j], e)) for e in draw(rng.randint(1, 4), 1)]
    pairs = [
        (big, small),
        (big, partial),
        (draw(rng.randint(1, 4), 3), draw(rng.randint(1, 4), 3)),
        (partial, partial[::-1] + [shift(partial[0], rng.choice(unit))]),
    ]

    def ideal(exponents):
        return Ideal(ring, [_monomial(rng, ring, e) for e in exponents])

    return [(ideal(a), ideal(b)) for a, b in pairs]


RINGS = [RingContext(tuple("xyzw"[:n])) for n in (2, 3, 4)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"n{r.arity}")
def test_monomial_quotient_dimension_matches_the_normal_form_route(rng, ring):
    """Divisibility and the one staircase sweep give the normal-form route's answers and errors."""
    seen = Counter()
    for _ in range(60):
        for big, small in _monomial_pairs(rng, ring):
            expected = _outcome(_quotient_dimension_oracle, big, small)
            assert _outcome(quotient_dimension, big, small) == expected, (big, small)
            seen[expected if isinstance(expected, type) else expected > 0] += 1
            for a, b in ((big, small), (small, big)):
                assert a.contains_ideal(b) == _normal_form_contains(a, b), (a, b)
    # every branch is reached: positive dimensions, 0, both errors
    assert set(seen) == {True, False, ValueError, InfiniteColengthError}, seen


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"n{r.arity}")
def test_monomial_containment_of_polynomials(rng, ring):
    """A monomial ideal contains g exactly when each term of g is a multiple of a generator."""
    for _ in range(60):
        big, small = rng.choice(_monomial_pairs(rng, ring))
        terms = [m for g in small.generators + big.generators for m, _ in g.items()]
        terms += [tuple(rng.randint(0, 3) for _ in range(ring.arity)) for _ in range(3)]
        sums = []
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(terms, rng.randint(2, 4))
            sums.append(sum((_monomial(rng, ring, e) for e in picked), ring.zero()))
        other = Ideal(ring, sums)
        assert big.contains_ideal(other) == _normal_form_contains(big, other), (big, other)
        # a self that is not monomial keeps its normal forms
        assert other.contains_ideal(big) == _normal_form_contains(other, big), (other, big)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"n{r.arity}")
def test_monomial_reordered_and_unit_ideals(rng, ring):
    """The same ideal with its generators reordered gives 0 even when not m-primary."""
    one = Ideal(ring, [Polynomial.constant(ring, Fraction(-3, 2))])
    for _ in range(30):
        for big, small in _monomial_pairs(rng, ring):
            for ideal in (big, small):
                gens = list(ideal.generators)
                rng.shuffle(gens)
                assert quotient_dimension(ideal, Ideal(ring, gens[::-1])) == 0
                assert _outcome(quotient_dimension, one, Ideal(ring, gens)) == _outcome(
                    _quotient_dimension_oracle, one, ideal
                )
                assert one.contains_ideal(ideal) and ideal.contains_ideal(Ideal(ring, []))
    variables = Ideal(ring, ring.gens()[1:])  # not m-primary
    assert quotient_dimension(variables, Ideal(ring, ring.gens()[:0:-1])) == 0
    with pytest.raises(InfiniteColengthError):
        quotient_dimension(one, variables)
    assert quotient_dimension(one, maximal_ideal(ring)) == 1
    assert quotient_dimension(one, Ideal(ring, [ring.one()])) == 0


@pytest.mark.parametrize("order", [GREVLEX, GRLEX, LEX, ELIM], ids=lambda o: o.name)
@pytest.mark.parametrize("ring", RINGS, ids=lambda r: f"n{r.arity}")
def test_monomial_groebner_basis_matches_buchberger(rng, ring, order):
    """Single-term generators skip ``_buchberger``, and the reduced basis is the same."""
    for _ in range(20):
        for ideal in _monomial_pairs(rng, ring)[0]:
            pk, basis = _buchberger_basis(ideal, order)
            expected = [{pk.unpack(m): Fraction(c, r[max(r)]) for m, c in r.items()} for r in basis]
            fresh = Ideal(ring, ideal.generators)
            assert [dict(g.items()) for g in fresh.groebner_basis(order)] == expected


def test_exponents_of_degree_match_a_box_filter(rng):
    """The walk that solves its last exponent gives the box filter's exponents, e_1 descending."""
    unreachable = 0
    for case in range(400):
        n = case % 4 + 1
        g = rng.choice((1, 1, 2, 3))  # weights with a common factor leave degrees unreachable
        ws = tuple(g * rng.randint(1, 4) for _ in range(n))
        degree = rng.randint(-2, 3 * max(ws))
        box = itertools.product(*(range(max(degree, 0) // w + 1) for w in ws))
        expected = sorted((e for e in box if sum(map(mul, e, ws)) == degree), reverse=True)
        assert list(ideals._exponents_of_degree(ws, degree)) == expected, (ws, degree)
        unreachable += not expected
    assert unreachable > 20
    assert list(ideals._exponents_of_degree((), 0)) == [()]
    assert list(ideals._exponents_of_degree((), 1)) == []


def test_is_m_primary(ring, P):
    assert Ideal(ring, [P("x^3"), P("y^3"), P("z^3")]).is_m_primary()
    assert Ideal(ring, [P("1")]).is_m_primary()
    assert not Ideal(ring, [P("x"), P("y")]).is_m_primary()
    assert not Ideal(ring, [P("x*y")]).is_m_primary()


def test_groebner_cache_is_thread_safe(ring, P):
    ideal = Ideal(
        ring,
        [P("x^2*y - z^3"), P("x*z - y^2"), P("y*z^2 - x^3 + x")],
    )
    results = []

    def work():
        results.append(ideal.groebner_basis(GREVLEX))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)


def test_structural_equality_and_hash(ring, P):
    a = Ideal(ring, [P("x"), P("y")])
    b = Ideal(ring, [P("x"), P("y")])
    c = Ideal(ring, [P("y"), P("x")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c  # generator order is part of the structure
    assert a.contains_ideal(c) and c.contains_ideal(a)
