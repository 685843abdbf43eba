"""The functional checker of ``singulens.refutation`` and the functionals it checks.

``Ideal._local_functional`` reads a functional lam off the local echelon,
and ``refutes`` checks it without the engine.  These tests pin the
witness's functionals for C6 and C7, show the checker refusing tampered
ones, hold it to a brute-force checker that evaluates lam on every row
below the degree bound, and check that the module imports only the
standard library.
"""

import ast
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import singulens.analyzer as analyzer_module
import singulens.refutation as refutation_module
from singulens.analyzer import counterexample_polynomial
from singulens.ideals import Ideal, local_colength, maximal_ideal, maximal_ideal_power
from singulens.invariants import Germ, jacobian_ideal
from singulens.polyring import Polynomial, parse
from singulens.refutation import refutes
from singulens.sections import jk_ideal

from conftest import random_polynomial

# {x*y^2*z^2: 1, x^4: -1/2, y^4: -3/4, z^4: -3/4}, below degree 6
WITNESS_FUNCTIONAL = {
    (1, 2, 2): Fraction(1),
    (4, 0, 0): Fraction(-1, 2),
    (0, 4, 0): Fraction(-3, 4),
    (0, 0, 4): Fraction(-3, 4),
}


def _witness():
    f = counterexample_polynomial()
    return f, f - Germ(f).cone.f, jk_ideal(f, maximal_ideal(f.ring), 1)


def test_witness_functionals_are_read_and_accepted():
    """C6 reads lam for h off J_1 + m^6, C7 for f off J_1; both stop at N = 6."""
    f, h, j1 = _witness()
    c6 = (j1 + maximal_ideal_power(f.ring, 6))._local_functional(h)
    c7 = j1._local_functional(f)
    assert c6 == c7 == (6, WITNESS_FUNCTIONAL)
    assert refutes(j1.generators, h, WITNESS_FUNCTIONAL, 6)
    assert refutes(j1.generators, f, WITNESS_FUNCTIONAL, 6)
    assert j1._local_functional(f + h) is None  # f + h lies in J_1 (C4)


def test_tampered_functionals_are_rejected():
    f, h, j1 = _witness()
    gens = j1.generators
    changed = {**WITNESS_FUNCTIONAL, (4, 0, 0): Fraction(-1, 3)}
    dropped = {e: v for e, v in WITNESS_FUNCTIONAL.items() if e != (0, 4, 0)}
    assert not refutes(gens, h, changed, 6)
    assert not refutes(gens, h, dropped, 6)
    # support at degree >= T: h itself has degree 5
    assert not refutes(gens, h, WITNESS_FUNCTIONAL, 5)
    assert not refutes(gens, h, {**WITNESS_FUNCTIONAL, (0, 0, 6): Fraction(1)}, 6)
    # a target inside J_1 gets lam(p) = 0
    assert not refutes(gens, f + h, WITNESS_FUNCTIONAL, 6)
    assert not refutes(gens, h, {e: float(v) for e, v in WITNESS_FUNCTIONAL.items()}, 6)
    assert not refutes(gens, h, {}, 6)


def test_c6_claimed_at_seven_is_rejected(monkeypatch):
    """C6 is a claim about m^6, so a functional claimed below degree 7 cannot carry it.

    The witness's lam checks at T = 7 as well, but that proves only the
    weaker h outside J_1 + m^7; the certificate requires N <= 6.  A lam
    that does use degree 6 fails, since x^6 lies in J_1 locally.
    """
    f, h, j1 = _witness()
    assert refutes(j1.generators, h, WITNESS_FUNCTIONAL, 7)
    assert not refutes(j1.generators, h, {**WITNESS_FUNCTIONAL, (6, 0, 0): Fraction(1)}, 7)
    cert = analyzer_module._cert_perturbation_outside_j1_plus_m6
    assert cert(f).verdict is True
    monkeypatch.setattr(Ideal, "_local_functional", lambda self, p: (7, WITNESS_FUNCTIONAL))
    assert cert(f).verdict is False


def test_a_row_met_once_is_checked():
    """In Q[x] with I = (x^2), p = x: the rows g and x*g each meet a bad lam alone."""
    g = {(2,): 1}
    assert refutes([g], {(1,): 1}, {(1,): 1}, 4)
    assert not refutes([g], {(1,): 1}, {(1,): 1, (2,): 1}, 3)  # only the row g meets x^2
    assert not refutes([g], {(1,): 1}, {(1,): 1, (3,): 1}, 4)  # only x*g meets x^3


def _brute_refutes(gens, p, lam, degree):
    """The checker's statement, evaluated on every row x^a*g with |a| < degree."""
    if not lam or any(sum(u) >= degree for u in lam):
        return False
    if sum(c * lam.get(e, 0) for e, c in p.items()) == 0:
        return False
    arity = len(next(iter(lam)))
    for a in product(range(degree), repeat=arity):
        if sum(a) >= degree:
            continue
        for g in gens:
            value = sum(c * lam.get(tuple(x + y for x, y in zip(a, e)), 0) for e, c in g.items())
            if value:
                return False
    return True


def test_read_functionals_pass_and_tampering_matches_brute_force(rng, ring2):
    """On seeded isolated ideals, lam exists exactly off I*O_0 and checks; tampering agrees."""
    seen = {True: 0, False: 0}
    for _ in range(12):
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        f = parse(f"x^{a} + y^{b}", ring2)
        f = f + random_polynomial(rng, ring2, max_terms=2, max_degree=3, allow_zero=True)
        f = f - Polynomial.constant(ring2, f.constant_term)
        jac = jacobian_ideal(f)
        if local_colength(jac) == float("inf"):
            continue
        for _ in range(6):
            p = random_polynomial(rng, ring2, max_terms=3, max_degree=3)
            p = p - Polynomial.constant(ring2, p.constant_term)
            found = jac._local_functional(p)
            assert (found is None) == jac.local_member(p), (f, p)
            if found is None:
                continue
            n, lam = found
            assert refutes(jac.generators, p, lam, n)
            assert _brute_refutes(jac.generators, p, lam, n)
            keys = list(lam)
            box = [u for u in product(range(n), repeat=2) if sum(u) < n]
            for tampered in (
                {**lam, rng.choice(keys): Fraction(rng.randint(-3, 3), rng.randint(1, 3))},
                {**lam, rng.choice(box): Fraction(rng.choice([-1, 1]))},
                {e: v for e, v in lam.items() if e != rng.choice(keys)},
            ):
                verdict = refutes(jac.generators, p, tampered, n)
                assert verdict == _brute_refutes(jac.generators, p, tampered, n), (f, p, tampered)
                seen[verdict] += 1
    assert seen[True] and seen[False]


def test_a_local_unit_ideal_admits_no_functional(ring2):
    """An ideal holding a local unit has N = 0: no term of p, not even a constant, lies below it."""
    unit = Ideal(ring2, [parse("1 + x", ring2), parse("y^2", ring2)])
    for text in ("1", "3 + x*y", "x", "y^5 - 2"):
        p = parse(text, ring2)
        assert unit.local_member(p)
        assert unit._local_functional(p) is None, text


def test_module_imports_only_the_standard_library():
    tree = ast.parse(Path(refutation_module.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            names.append(node.module)
    assert names
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in names), names
