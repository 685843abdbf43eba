"""Ideals in Q[x1..xn]: Groebner bases, membership, quotients, colengths.

The Buchberger loop works fraction-free on primitive integer polynomials
(dict exponent -> int).  Pairs are selected by minimal lcm degree (normal
strategy).  Which pairs exist is decided once per added element h by the
Gebauer-Moeller update (Gebauer and Moeller, On an installation of
Buchberger's algorithm, 1988; UPDATE in Becker and Weispfenning, Groebner
Bases, section 5.5): of the new pairs (g, h) only those with a minimal lcm
are queued, one per lcm and none with coprime leading monomials; a queued
pair (a, b) is deleted when lm(h) divides its lcm and that lcm differs from
lcm(a, h) and lcm(b, h); and the elements whose leading monomial lm(h)
divides are never paired again.  They stay reducers: they lie in the
ideal, and the chain through h covers the pairs they no longer form (see
``_buchberger``).  The reduced basis (minimal, monic, tails fully reduced)
is unique for a given monomial order and is cached on the Ideal per order
name; a cache fill is idempotent, so concurrent readers either see the
stored tuple or recompute an equal one.

One polynomial reducer, ``_ff_reduce``, serves Buchberger, basis
reduction and normal forms.  It rescales its integer state instead of
dividing and strips common content as it goes, and returns the primitive
remainder r with a rational ``scale`` such that r = scale * NF(p).
Buchberger and basis reduction need only r up to a unit;
``Ideal.normal_form`` clears the denominators of p
(p_int = den * p), reduces against integer multiples of the monic reduced
basis, and returns the exact rational normal form r / (scale * den).  The
normal form modulo a Groebner basis is unique, so it does not depend on
which multiples of the basis elements reduce it.

Questions about the local ring O_0 at the origin are answered without
local orders or Groebner bases, by one echelon form of Macaulay rows
(Greuel and Pfister, A Singular Introduction to Commutative Algebra,
sections 1.4 and 1.5; Dayton and Zeng, Computing the multiplicity
structure in solving polynomial systems, ISSAC 2005).  Modulo m^(T+1) a
local unit is invertible, so V_T = (I + m^(T+1))/m^(T+1) is the image of
I*O_0, and it is spanned by the products m*g truncated above degree T.
These rows are keyed (deg,) + e, so that ``_pivot_reduce`` pivots each on
its lowest-degree monomial, and they are eliminated degree by degree:
stage d reduces the rows of order d, which are the generators of order d,
x_i times each row that took a pivot of degree d - 1, and the rows whose
terms of lower degree all cancelled.  These rows suffice: a product
x_i*m*g is x_i times a row of lower order, which the rows reduced before
it span, and x_i times each of those is reduced at a later stage or
spanned by the pivot rows it reduced against.  The degree-d pivots are
then the leading monomials of the degree-d part of I*O_0 for the
lowest-degree order, the same for every T >= d.  The search stops at the
least N at which every monomial of degree N is a pivot: then m^N lies in
I*O_0 + m^(N+1), hence in I*O_0 (Nakayama's lemma), and N is the least
exponent with m^N inside I*O_0.  The local colength is the number of
non-pivot monomials of degree below N, and p lies in I*O_0 exactly when
its terms of degree below N reduce to zero against the pivots.  Both are
read off the echelon form below degree N, which is cached on I with N.
The search is bounded by a degree cap: on an ideal whose zero locus is
not isolated at the origin no N qualifies, ``local_colength`` raises
``DegreeCapExceeded``, and ``Ideal.local_member`` falls back to the ideal
quotient: p lies in I locally exactly when (I : p) contains an element
with nonzero constant term.

``local_colength`` has two routes.  An ideal checked to be weighted
homogeneous for positive weights (all ones by default) is measured
globally: t*x = (t^w_i x_i) keeps its zero locus, so each point of it lies
on a C*-orbit whose closure holds the origin, the origin is isolated
exactly when the global quotient is finite, and then the global colength
is the local one.  Every other ideal takes the echelon, and only there
does the degree cap bound N.

Graded inputs also take a shortcut to local membership: when
positive weights make every generator of I and the target p weighted
homogeneous, local membership is global membership (from
u*p = sum a_i g_i with u(0) != 0, the components of weighted degree
D = wdeg(p) give u(0)*p = sum (a_i)_(D - wdeg g_i) g_i), and global
membership is one linear system in degree D: p must lie in the span of
the products m*g_i with wdeg(m) = D - wdeg(g_i), the rows of the Macaulay
matrix of the generators in that degree (Lazard, Groebner bases, Gaussian
elimination and resolution of systems of algebraic equations, 1983).
Those rows are built from the primitive integer forms of the generators,
which an Ideal caches beside them (an ideal built from integer numerators,
as ``jk_ideal`` does, receives them with its generators), and brought to
row echelon form fraction-free by ``_pivot_reduce``.  All rows share one
weighted degree, so a row head divides a monomial only when the two are
equal: the kept rows sit in a dict keyed by pivot monomial, and finding a
row's reducer is one lookup, with no divisor scan and no Groebner basis.
Arithmetic stays in exact integers, so a target left with a monomial
outside the pivots proves non-membership.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Iterator

from .polyring import (
    ELIMINATION_VARIABLE,
    GREVLEX,
    Exponent,
    MonomialOrder,
    Polynomial,
    RingContext,
    _raw,
    clear_denominators,
    elimination_order,
    exact_div,
    exponent_box,
    integer_weights,
)

__all__ = [
    "DegreeCapExceeded",
    "INFINITE",
    "Ideal",
    "InfiniteColengthError",
    "local_colength",
    "maximal_ideal",
    "maximal_ideal_power",
    "quotient_dimension",
]

DEFAULT_DEGREE_CAP = 40

INFINITE = float("inf")


class InfiniteColengthError(ValueError):
    """Raised when a colength is requested for a non-finite quotient."""


class DegreeCapExceeded(RuntimeError):
    """Raised when no Nakayama exponent N up to the degree cap exists.

    The local echelon search eliminates the Macaulay rows degree by degree
    up to the cap and stops at the least N with m^N inside I + m^(N+1),
    hence inside I at the origin (see the module docstring).  On an ideal
    whose zero locus is not isolated at the origin no N qualifies.
    ``local_colength`` decides a weighted homogeneous ideal without it.
    """


def _divides(a: Exponent, b: Exponent) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


# ---------------------------------------------------------------------------
# integer polynomial layer used inside the Buchberger loop

_IntPoly = dict  # Exponent -> int, content 1


def _primitive(p: _IntPoly) -> _IntPoly:
    if not p:
        return p
    g = 0
    for v in p.values():
        g = math.gcd(g, v)
        if g == 1:
            return p
    return {e: v // g for e, v in p.items()}


def _int_poly(p: Polynomial) -> _IntPoly:
    return _primitive(clear_denominators(p)[0])


def _strip_pair(work: _IntPoly, out: _IntPoly) -> int:
    """Divide work and out by their common content and return it."""
    g = 0
    for v in work.values():
        g = math.gcd(g, v)
        if g == 1:
            return 1
    for v in out.values():
        g = math.gcd(g, v)
        if g == 1:
            return 1
    if g > 1:
        for e in work:
            work[e] //= g
        for e in out:
            out[e] //= g
    return g or 1


def _ff_reduce(p: _IntPoly, reds: list, key) -> tuple[_IntPoly, Fraction]:
    """Full normal form of p against reducer records, fraction-free.

    The one polynomial reducer: Buchberger, basis reduction and
    ``Ideal.normal_form`` all call it.  The Macaulay rows of a graded
    membership test and of the local echelon are eliminated by
    ``_pivot_reduce``.
    ``reds`` holds tuples (deg, lmkey, lm, lc, tail) sorted ascending, so
    the scan can stop once reducer head degrees exceed the current monomial
    degree.  The state is rescaled by integers along the way and its
    content is divided out; ``scale`` records both, so the primitive
    remainder r returned with it satisfies r = scale * NF(p).
    """
    work = dict(p)
    out: _IntPoly = {}
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
            scale /= _strip_pair(work, out)
    return out, scale / _strip_pair(work, out)


def _spoly(pa: _IntPoly, lma: Exponent, pb: _IntPoly, lmb: Exponent) -> _IntPoly:
    lca, lcb = pa[lma], pb[lmb]
    g = math.gcd(lca, lcb)
    ca = lcb // g
    cb = lca // g
    lcm = tuple(map(max, lma, lmb))
    sa = tuple(map(sub, lcm, lma))
    sb = tuple(map(sub, lcm, lmb))
    out: _IntPoly = {}
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


def _reducer(p: _IntPoly, lm: Exponent, key) -> tuple:
    """The reducer record (deg, lmkey, lm, lc, tail) that ``_ff_reduce`` scans."""
    return (sum(lm), key(lm), lm, p[lm], tuple((e, c) for e, c in p.items() if e != lm))


def _weighted_degree(p: _IntPoly, weights: tuple[int, ...]) -> int | None:
    """The weighted degree of p when p is weighted homogeneous, else None."""
    degs = {sum(map(mul, e, weights)) for e in p}
    return degs.pop() if len(degs) == 1 else None


def _pivot_reduce(work: dict, pivots: dict) -> tuple | None:
    """Eliminate the pivots of an echelon form from a row.

    The rows are dicts from monomial keys to integers: exponents for the
    rows of one weighted degree, (deg,) + exponent for the local echelon.
    ``pivots`` maps each kept row's pivot, its least key, to (coefficient,
    tail).  ``work`` is consumed in ascending key order,
    each pivot monomial met is cancelled fraction-free as in ``_ff_reduce``,
    and content is stripped along the way.  Returns None when the row
    reduces to zero, else (pivot, coefficient, tail) for its first monomial
    without a pivot: every other monomial left is larger, so the row joins
    the echelon form keyed by it.
    """
    heap = list(work)
    heapq.heapify(heap)
    steps = 0
    while heap:
        m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        hit = pivots.get(m)
        if hit is None:
            _strip_pair(work, {})
            c = work.pop(m)
            return m, c, list(work.items())
        lc, tail = hit
        del work[m]
        g = math.gcd(c, lc)
        a = lc // g
        b = c // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for e in work:
                work[e] *= a
        for t, q in tail:
            prev = work.get(t)
            v = (prev if prev is not None else 0) - b * q
            if v:
                work[t] = v
                if prev is None:
                    heapq.heappush(heap, t)
            elif prev is not None:
                del work[t]
        steps += 1
        if steps % 64 == 0:
            _strip_pair(work, {})
    return None


def _buchberger(gens: list[_IntPoly], key) -> list[_IntPoly]:
    """Groebner basis of the ideal spanned by ``gens`` for the key's order.

    Pairs are queued by the total degree of their lcm (normal strategy).
    Which pairs to queue is decided once, when an element h is added, by
    the update of Gebauer and Moeller (On an installation of Buchberger's
    algorithm, 1988; procedure UPDATE in Becker and Weispfenning, Groebner
    Bases, section 5.5):

    - the candidates (g, h) run over the active elements g; a candidate
      whose lcm is a multiple of another candidate's lcm is dropped, and of
      equal lcms one is kept.  Candidates with coprime leading monomials
      take part in this pruning but are never queued (their S-polynomials
      reduce to zero);
    - a queued pair (a, b) is deleted when lm(h) divides lcm(a, b) and that
      lcm differs from both lcm(a, h) and lcm(b, h) (chain criterion);
    - the active elements whose leading monomial lm(h) divides are
      deactivated and never paired again.

    Deactivated elements stay reducers.  They lie in the ideal, so reducing
    an S-polynomial by them to zero still gives it a standard
    representation over all the elements added, and a pair with a
    deactivated g that is never formed is covered by the chain through the
    element that deactivated it, whose leading monomial divides lm(g).
    ``_reduced_basis`` discards them, as multiples of other leading
    monomials.
    """
    basis: list[tuple[_IntPoly, Exponent]] = []
    reds: list = []
    active: list[int] = []
    heap: list = []
    seen: set = set()

    def add(h: _IntPoly) -> bool:
        lm = max(h, key=key)
        if sum(lm) == 0:
            return True
        t = len(basis)
        cands = []
        for i in active:
            lmi = basis[i][1]
            lcm = tuple(map(max, lmi, lm))
            cands.append((sum(lcm), sum(lcm) < sum(lmi) + sum(lm), lcm, i))
        # By degree, coprime first on ties: a candidate is kept exactly when
        # no lcm kept before it divides its own.
        cands.sort()
        minimal: list[Exponent] = []
        new = []
        for deg, shared, lcm, i in cands:
            if any(_divides(m, lcm) for m in minimal):
                continue
            minimal.append(lcm)
            if shared:
                new.append((deg, key(lcm), i, t, lcm))
        heap[:] = [
            q for q in heap
            if not _divides(lm, q[4])
            or q[4] == tuple(map(max, basis[q[2]][1], lm))
            or q[4] == tuple(map(max, basis[q[3]][1], lm))
        ]
        heap.extend(new)
        heapq.heapify(heap)
        active[:] = [i for i in active if not _divides(lm, basis[i][1])]
        active.append(t)
        basis.append((h, lm))
        insort(reds, _reducer(h, lm, key))
        return False

    def unit_like(p: _IntPoly) -> _IntPoly:
        arity = len(next(iter(p)))
        return {(0,) * arity: 1}

    for g in gens:
        if not g:
            continue
        fp = frozenset(g.items())
        if fp in seen:
            continue
        seen.add(fp)
        if add(g):
            return [unit_like(g)]

    while heap:
        _, _, i, j, _ = heapq.heappop(heap)
        s = _spoly(basis[i][0], basis[i][1], basis[j][0], basis[j][1])
        r, _ = _ff_reduce(s, reds, key)
        if r and add(r):
            return [unit_like(r)]
    return [rec[0] for rec in basis]


def _reduced_basis(polys: list[_IntPoly], key) -> list[dict[Exponent, Fraction]]:
    """Minimalize, tail-reduce and monicize a Groebner basis."""
    if not polys:
        return []
    with_lm = sorted(((max(p, key=key), p) for p in polys), key=lambda t: key(t[0]))
    kept: list[tuple[Exponent, _IntPoly]] = []
    for lm, p in with_lm:
        if any(_divides(km, lm) for km, _ in kept):
            continue
        kept.append((lm, p))
    # The kept leading monomials are distinct: each element is reduced by
    # the records of all the others, in their sorted order.
    records = sorted(_reducer(p, lm, key) for lm, p in kept)
    out = []
    for lm, p in kept:
        r, _ = _ff_reduce(p, [rec for rec in records if rec[2] != lm], key)
        rl = max(r, key=key)
        lc = r[rl]
        out.append((key(rl), {e: Fraction(c, lc) for e, c in r.items()}))
    out.sort(key=lambda t: t[0])
    return [d for _, d in out]


# ---------------------------------------------------------------------------
# exponent enumeration helpers


def _exponents_of_degree(weights: tuple[int, ...], degree: int) -> Iterator[Exponent]:
    """Exponents of weighted degree ``degree`` for positive integer weights, e_1 descending."""
    if not weights:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    for first in range(degree // w, -1, -1):
        for rest in _exponents_of_degree(weights[1:], degree - first * w):
            yield (first,) + rest


def maximal_ideal(ring: RingContext) -> "Ideal":
    """The ideal m generated by all the ring variables."""
    return Ideal(ring, ring.gens())


def maximal_ideal_power(ring: RingContext, k: int) -> "Ideal":
    """m^k, generated by the monomials of total degree k (unit ideal for k=0)."""
    if k < 0:
        raise ValueError("negative power of the maximal ideal")
    if k == 0:
        return Ideal(ring, (ring.one(),))
    gens = [Polynomial.monomial(ring, e) for e in _exponents_of_degree((1,) * ring.arity, k)]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with per-order cached reduced Groebner bases."""

    __slots__ = ("ring", "generators", "_cache")

    def __init__(self, ring: RingContext, generators: Iterable[Polynomial] = ()):
        gens = []
        for g in generators:
            if g.ring.names != ring.names:
                raise ValueError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_cache", {})

    @classmethod
    def _from_numerators(cls, ring: RingContext, numerators: Iterable[_IntPoly], den: int):
        """The ideal of the polynomials num / den, from integer numerator dicts.

        For callers that already hold the integers: the generators are built
        without re-validation, zero numerators are skipped, and the primitive
        integer forms num // content(num) are cached as those of the
        generators, in the same order.
        """
        nums = [num for num in numerators if num]
        gens = tuple(_raw(ring, {e: Fraction(v, den) for e, v in num.items()}) for num in nums)
        ideal = cls(ring)
        object.__setattr__(ideal, "generators", gens)
        ideal._cache["ints"] = [_primitive(num) for num in nums]
        return ideal

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def _int_generators(self) -> list[_IntPoly]:
        """The primitive integer forms of the generators, in order, cached."""
        ints = self._cache.get("ints")
        if ints is None:
            ints = [_int_poly(g) for g in self.generators]
            self._cache["ints"] = ints
        return ints

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"<ideal ({inside}) in {self.ring}>"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ring.names == other.ring.names
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.ring.names, self.generators))

    # -- basis and membership -------------------------------------------

    def groebner_basis(self, order: MonomialOrder = GREVLEX) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis: minimal, monic, fully tail-reduced.

        Unique for the given order, sorted by ascending leading monomial.
        """
        cached = self._cache.get(order.name)
        if cached is not None:
            return cached
        raw = _buchberger(self._int_generators(), order.key)
        reduced = _reduced_basis(raw, order.key)
        basis = tuple(Polynomial(self.ring, d) for d in reduced)
        self._cache[order.name] = basis
        return basis

    def normal_form(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        """Canonical remainder of p modulo the reduced basis."""
        if p.ring.names != self.ring.names:
            raise ValueError("polynomial from a different ring")
        reds = self._reducers(order)
        if not reds:
            return p
        ints, den = clear_denominators(p)
        r, scale = _ff_reduce(ints, reds, order.key)
        scale *= den
        return Polynomial(self.ring, {e: c / scale for e, c in r.items()})

    def _reducers(self, order: MonomialOrder) -> list:
        """Reducer records of the reduced basis, cached beside it."""
        slot = (order.name, "reducers")
        reds = self._cache.get(slot)
        if reds is None:
            key = order.key
            ints = map(_int_poly, self.groebner_basis(order))
            reds = sorted(_reducer(g, max(g, key=key), key) for g in ints)
            self._cache[slot] = reds
        return reds

    def member(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        return self.normal_form(p, order).is_zero()

    def __contains__(self, p: Polynomial) -> bool:
        return self.member(p)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.member(g) for g in other.generators)

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def is_unit(self) -> bool:
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].total_degree() == 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        return Ideal(self.ring, _dedup(self.generators + other.generators))

    def __mul__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        products = [a * b for a in self.generators for b in other.generators]
        return Ideal(self.ring, _dedup(products))

    def __pow__(self, k: int) -> "Ideal":
        if not isinstance(k, int) or k < 0:
            raise ValueError("ideal powers take a nonnegative int")
        result = Ideal(self.ring, (self.ring.one(),))
        for _ in range(k):
            result = result * self
        return result

    # -- quotient and local membership ----------------------------------

    def quotient(self, p: Polynomial) -> "Ideal":
        """The ideal quotient (I : p) = {q : q*p in I}.

        Computed through the intersection with (p): one auxiliary variable
        t is prepended, t*I + (1-t)*(p) is intersected with the base ring
        by a block order eliminating t, and the survivors are divided by p.
        """
        if p.is_zero():
            raise ValueError("quotient by the zero polynomial")
        if p.ring.names != self.ring.names:
            raise ValueError("polynomial from a different ring")
        if not self.generators:
            return Ideal(self.ring, ())
        ext = RingContext((ELIMINATION_VARIABLE,) + self.ring.names)
        t = Polynomial.variable(ext, 0)
        lifted = [_lift(g, ext) * t for g in self.groebner_basis()]
        lifted.append((ext.one() - t) * _lift(p, ext))
        order = elimination_order()
        raw = _buchberger([_int_poly(g) for g in lifted], order.key)
        reduced = _reduced_basis(raw, order.key)
        gens = []
        for d in reduced:
            if any(e[0] for e in d):
                continue
            low = Polynomial(self.ring, {e[1:]: c for e, c in d.items()})
            q = exact_div(low, p)
            if q is None:
                raise AssertionError("intersection member not divisible by p")
            gens.append(q)
        return Ideal(self.ring, gens)

    def local_member(self, p: Polynomial, weights: Iterable | None = None) -> bool:
        """Membership in the localization of I at the origin.

        With positive ``weights`` for which every generator and p are
        checked to be weighted homogeneous, local membership equals global
        membership (compare the components of weighted degree wdeg(p) in
        u*p = sum a_i g_i, u(0) != 0), and global membership is decided by
        one linear system in degree wdeg(p), without a Groebner basis.

        Otherwise a generator with nonzero constant term is a local unit,
        so I is the whole local ring; else I lies in the maximal ideal and
        a target with nonzero constant term, itself a local unit, lies
        outside.  Then the local echelon form of I (see the module
        docstring), searched up to the default degree cap and cached on
        I, decides: p lies in I locally exactly when its terms of degree
        below the Nakayama exponent N reduce to zero against the pivots.
        Only when no N up to the cap exists does ``_quotient_member``
        decide.
        """
        if p.is_zero():
            return True
        if weights is not None:
            verdict = self._graded_member(p, weights)
            if verdict is not None:
                return verdict
        if any(g.constant_term for g in self.generators):
            return True
        if p.constant_term:
            return False
        try:
            n, pivots = _local_echelon(self, DEFAULT_DEGREE_CAP)
        except DegreeCapExceeded:
            return self._quotient_member(p)
        row = {(sum(e),) + e: c for e, c in _int_poly(p).items() if sum(e) < n}
        return _pivot_reduce(row, pivots) is None

    def _quotient_member(self, p: Polynomial) -> bool:
        """Local membership of a nonzero p through the ideal quotient.

        p lies in I locally exactly when u*p lies in I for some u with
        u(0) != 0, that is, when p lies in I or (I : p) contains an
        element with nonzero constant term.  Needs no degree cap, but the
        elimination behind ``quotient`` can be slow.
        """
        if self.member(p):
            return True
        return any(g.constant_term != 0 for g in self.quotient(p).groebner_basis())

    def _graded_member(self, p: Polynomial, weights: Iterable) -> bool | None:
        """Membership of p by one linear system in degree wdeg(p); None when not graded.

        p lies in I exactly when it lies in the span of the products m*g
        with wdeg(m) = wdeg(p) - wdeg(g) (none when wdeg(g) > wdeg(p)).
        Those rows share one weighted degree, so a row head divides a
        monomial of theirs only when the two are equal, and the rows are
        eliminated without ``_ff_reduce``'s divisor scan: the kept rows are
        held in a dict from pivot (least monomial, lex) to row, and each new
        row, and finally p, is reduced fraction-free by ``_pivot_reduce``.
        A row that keeps a monomial outside the dict becomes a new pivot.
        The rows come from the cached integer generators.
        """
        graded = self._graded_degrees(weights)
        if graded is None:
            return None
        ws, degs = graded
        target = _int_poly(p)
        top = _weighted_degree(target, ws)
        if top is None:
            return None
        pivots: dict[Exponent, tuple[int, list]] = {}
        shifts: dict[int, list[Exponent]] = {}
        for g, d in zip(self._int_generators(), degs):
            if d not in shifts:
                shifts[d] = list(_exponents_of_degree(ws, top - d))
            for m in shifts[d]:
                row = {tuple(map(add, e, m)): c for e, c in g.items()}
                head = _pivot_reduce(row, pivots)
                if head is not None:
                    pivots[head[0]] = head[1:]
        return _pivot_reduce(target, pivots) is None

    def _graded_degrees(self, weights: Iterable) -> tuple[tuple[int, ...], list[int]] | None:
        """The integer weights and the weighted degrees of the generators.

        None when some generator is not weighted homogeneous for
        ``weights``; nonpositive weights or a wrong weight count raise
        ``ValueError``.
        """
        ws = integer_weights(weights)[0]
        if len(ws) != self.ring.arity:
            raise ValueError("weight count does not match the ring")
        degs = [_weighted_degree(g, ws) for g in self._int_generators()]
        return None if None in degs else (ws, degs)

    # -- finiteness and counting ----------------------------------------

    def is_m_primary(self) -> bool:
        """True when the quotient ring is finite dimensional over Q.

        Detected on the reduced basis: the unit ideal qualifies, otherwise a
        pure power of every variable must occur among the leading terms.
        """
        return self._pure_power_degrees() is not None

    def _pure_power_degrees(self) -> tuple[int, ...] | None:
        cached = self._cache.get("pure_powers", False)
        if cached is not False:
            return cached
        basis = self.groebner_basis()
        result: tuple[int, ...] | None
        if not basis:
            result = None
        elif basis[0].total_degree() == 0:
            result = (0,) * self.ring.arity
        else:
            arity = self.ring.arity
            degs = [None] * arity
            for g in basis:
                lm = g.leading_monomial()
                hot = [i for i, e in enumerate(lm) if e]
                if len(hot) == 1:
                    i = hot[0]
                    if degs[i] is None or lm[hot[0]] < degs[i]:
                        degs[i] = lm[hot[0]]
            result = None if any(d is None for d in degs) else tuple(degs)
        self._cache["pure_powers"] = result
        return result

    def colength(self) -> int:
        """dim_Q of the quotient ring, counting standard monomials.

        Every standard monomial lies in the box below the least pure powers
        of the leading monomials.  The box is swept in lex order, so e - e_i
        comes before e, and e is non-standard (a multiple of a leading
        monomial) exactly when e is a leading monomial or some e - e_i with
        e_i > 0 is non-standard.  The count is cached on the ideal.
        """
        count = self._cache.get("colength")
        if count is not None:
            return count
        degs = self._pure_power_degrees()
        if degs is None:
            raise InfiniteColengthError("infinite colength")
        basis = self.groebner_basis()
        if basis and basis[0].total_degree() == 0:
            return 0
        lts = {g.leading_monomial() for g in basis}
        nonstandard: set[Exponent] = set()
        count = 0
        for e in exponent_box(degs):
            if e in lts or any(
                x and e[:i] + (x - 1,) + e[i + 1 :] in nonstandard for i, x in enumerate(e)
            ):
                nonstandard.add(e)
            else:
                count += 1
        self._cache["colength"] = count
        return count


def _dedup(gens: Iterable[Polynomial]) -> list[Polynomial]:
    seen = set()
    out = []
    for g in gens:
        if g.is_zero() or g in seen:
            continue
        seen.add(g)
        out.append(g)
    return out


def _lift(p: Polynomial, ext: RingContext) -> Polynomial:
    return Polynomial(ext, {(0,) + e: c for e, c in p.items()})


# ---------------------------------------------------------------------------
# colengths at the origin


def local_colength(
    ideal: Ideal, degree_cap: int = DEFAULT_DEGREE_CAP, weights: Iterable | None = None
):
    """dim_Q of the localized quotient at the origin: an int, or INFINITE.

    Two routes.  An ideal whose generators are checked to be weighted
    homogeneous for ``weights`` (all ones when None; nonpositive weights or
    a wrong count raise ``ValueError``) is measured globally: its global
    colength when it is m-primary, else INFINITE.  Its zero locus is a
    union of closures of C*-orbits through the origin, so the origin is
    isolated in it exactly when the global quotient is finite.  Every other
    ideal is measured by its local echelon form of the module docstring:
    the colength is the number of monomials of degree below the Nakayama
    exponent N that are not pivots.  ``degree_cap`` bounds N, the least
    exponent with m^N inside I at the origin, on that route alone; when no
    N up to the cap exists, DegreeCapExceeded is raised.
    """
    if weights is None:
        weights = (1,) * ideal.ring.arity
    if ideal._graded_degrees(weights) is not None:
        return ideal.colength() if ideal.is_m_primary() else INFINITE
    n, pivots = _local_echelon(ideal, degree_cap)
    arity = ideal.ring.arity
    return math.comb(n - 1 + arity, arity) - len(pivots)


def _local_echelon(ideal: Ideal, degree_cap: int) -> tuple[int, dict]:
    """(N, pivots) of ``_nakayama_echelon``, cached on the ideal.

    N is the least exponent with m^N inside I at the origin, so a cached N
    above ``degree_cap`` refuses the call as a failed search does.
    """
    cached = ideal._cache.get("echelon")
    if cached is None:
        cached = _nakayama_echelon(ideal._int_generators(), ideal.ring.arity, degree_cap)
        if cached is not None:
            ideal._cache["echelon"] = cached
    if cached is None or cached[0] > degree_cap:
        raise DegreeCapExceeded(f"colength at the origin not stabilized by degree {degree_cap}")
    return cached


def _nakayama_echelon(gens: list[_IntPoly], arity: int, cap: int) -> tuple[int, dict] | None:
    """The least N <= cap with m^N inside (gens) + m^(N+1), and the echelon form below N.

    The rows, truncated above degree ``cap``, are eliminated degree by
    degree as in the module docstring.  The returned pivots are the pivot
    rows of degree below N, with their tails cut below N: they span
    ((gens) + m^N)/m^N.  None when no N up to the cap exists.
    """
    pending: dict[int, list[dict]] = {}
    for g in gens:
        row = {(sum(e),) + e: c for e, c in g.items() if sum(e) <= cap}
        if row:
            pending.setdefault(min(row)[0], []).append(row)
    # x_i as a shift of keys: one degree more, one more in exponent i
    steps = [(1,) + tuple(int(i == j) for j in range(arity)) for i in range(arity)]
    pivots: dict[tuple, tuple[int, list]] = {}
    fresh: list[tuple] = []
    for d in range(cap + 1):
        rows = pending.pop(d, [])
        for key, c, tail in fresh:
            for s in steps:
                row = {tuple(map(add, key, s)): c}
                for t, v in tail:
                    if t[0] < cap:
                        row[tuple(map(add, t, s))] = v
                rows.append(row)
        fresh = []
        for row in rows:
            head = _pivot_reduce(row, pivots)
            if head is None:
                continue
            key, c, tail = head
            if key[0] == d:
                pivots[key] = (c, tail)
                fresh.append(head)
            else:  # its terms of degree d cancelled: reduce it at its order
                row = dict(tail)
                row[key] = c
                pending.setdefault(key[0], []).append(row)
        if len(fresh) == math.comb(d + arity - 1, arity - 1):
            low = {
                key: (c, [(t, v) for t, v in tail if t[0] < d])
                for key, (c, tail) in pivots.items()
                if key[0] < d
            }
            return d, low
    return None


def quotient_dimension(big: Ideal, small: Ideal) -> int:
    """dim_Q (big/small) for nested ideals small inside big, at the origin.

    Both colengths are taken at the origin; for a pair of m-primary ideals
    this is the plain colength difference.
    """
    if big == small:
        return 0
    if not big.contains_ideal(small):
        raise ValueError("quotient_dimension needs the second ideal inside the first")
    if small.contains_ideal(big):
        return 0
    a = local_colength(big)
    b = local_colength(small)
    if a == INFINITE or b == INFINITE:
        raise InfiniteColengthError("quotient of a pair with infinite colength")
    return b - a
