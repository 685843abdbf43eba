"""Ideals in Q[x1..xn]: Groebner bases, membership, quotients, colengths.

Inside the exact kernel a monomial is one Python int (packed exponent
vectors: Bachmann and Schoenemann, Monomial representations for Groebner
bases computations, ISSAC 1998; Monagan and Pearce, Polynomial division
using dynamic arrays, heaps, and packed exponent vectors, CASC 2007).
Every order in use (lex, grlex, grevlex and the block order ``ELIM``) is
a linear form on exponents, so a monomial e packs as
M(e) = (K(e) << pbits) + P(e).  P(e) holds the exponents in fields of 15
value bits and one guard bit each, x_1 most significant, and
K(e) the order's key fields as signed digits, each digit wider than any
difference of its field on exponents below EXPONENT_LIMIT; a trailing run
of key fields equal to the exponents themselves is left to P, which
compares the same way.  Both parts are linear, so a product is ``+``.  M
compares as the key tuples do: the first key field that differs
outweighs all lower digits, and with equal keys P decides lexicographically.
lm divides m exactly when no guard bit of m - lm is set: a field with
m_i >= lm_i subtracts without a borrow and leaves its guard clear, and the
lowest field with m_i < lm_i borrows from its own guard.  An lcm is the
fieldwise max of the P parts, read off the guards of a difference.  An
exponent at EXPONENT_LIMIT = 2^15 would reach a guard bit: it is
refused with ``ExponentOverflow`` when an input is packed or when a
product creates it, never carried into the next field.  ``Polynomial`` and
every public signature keep exponent tuples; a kernel call packs its
inputs once with the packing of its arity and order and unpacks its
results.

The Buchberger loop works fraction-free on primitive integer polynomials
(dict monomial -> int).  Pairs are selected by minimal lcm degree (normal
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
remainder r with integers num, den such that den * r = num * NF(p).
Buchberger and basis reduction need only r up to a unit;
``Ideal.normal_form`` clears the denominators of p (p_int = d * p),
reduces against the primitive integer forms of the monic reduced grevlex
basis, and returns the exact rational normal form den * r / (num * d).
The normal form modulo a Groebner basis is unique, so it does not depend
on which multiples of the basis elements reduce it.  Normal forms and
membership are grevlex only; ``groebner_basis`` alone takes another order.

Monomial ideals, whose generators are single terms, stay monomial (Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, sections 2.4 and
5.3).  Their generators already form a Groebner basis for every order, so
``groebner_basis`` only minimalizes them; a polynomial lies in one exactly
when each of its terms is divisible by a generator, so ``contains_ideal``
tests divisibility; and the quotient of two nested monomial ideals is
spanned by the monomials in the larger one and not in the smaller one,
which ``quotient_dimension`` counts in one sweep of the box under the
smaller one's pure powers, the sweep that ``colength`` makes over the
leading monomials of a basis.

Questions about the local ring O_0 at the origin are answered without
local orders or Groebner bases, by one echelon form of Macaulay rows
(Greuel and Pfister, A Singular Introduction to Commutative Algebra,
sections 1.4 and 1.5; Dayton and Zeng, Computing the multiplicity
structure in solving polynomial systems, ISSAC 2005).  Modulo m^(T+1) a
local unit is invertible, so V_T = (I + m^(T+1))/m^(T+1) is the image of
I*O_0, and it is spanned by the products m*g truncated above degree T.
These rows are keyed by the grlex packing, (deg << pbits) + P(e), so that
``_pivot_reduce`` pivots each on its lowest-degree monomial and x_i times
a row adds the packed x_i; they are eliminated degree by degree:
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
No N exists when the origin is not an isolated point of V(I).
``_isolated`` decides that exactly, by saturations (Greuel and Pfister,
section 1.8): V(I : x_i^oo) is the closure of V(I) minus the hyperplane
x_i = 0, so the origin is isolated in V(I), or outside it, exactly when
no saturation I : x_i^oo lies inside m.  The echelon asks only when its
first climb, with rows truncated at the budget B = n*(e - 1) + 1, does
not stop by B; e is the largest order of a generator, and B is the socle
degree plus one of a complete intersection of n forms of degree e.  A
stop by B proves isolation, so B schedules the test and decides nothing.
A non-isolated ideal has colength INFINITE, and
``Ideal.local_member`` decides it through the ideal quotient, which C2
also takes on purpose: p lies in I locally exactly when (I : p) contains
an element with nonzero constant term.  The quotient is taken by the
normal form r of p, as (I : p) = (I : r); r = 0 answers at once.  An
isolated ideal climbs again, with no truncation, to its N.

A negative answer can also be handed out with its proof: a rational
functional lam below degree T that kills every product x^a*g of a
generator g but not p refutes p in I*O_0 outright, with no Nakayama
premise.  p in I*O_0 means u*p in I for some u with u(0) != 0, u is
invertible modulo m^T, so p lies in I + m^T for every T, and lam kills
I + m^T.  ``_functional`` reads such a lam off an echelon form at the
head of a row that stays nonzero, and ``Ideal._local_functional`` off
the local echelon below N.  The local equality ladder
(``sections.level_ladder``) refutes f^k in one class of the support
lattice, spanned by the differences of the exponents inside the supports
of f and of each generator of I, below a cut T_k, with no Nakayama
exponent: its class echelon and the head of f^k give lam the same way,
supported in that class.
``refutation.refutes`` checks lam without this module.

``local_colength`` has two routes.  An ideal checked to be weighted
homogeneous for positive weights (all ones by default) is measured
globally: t*x = (t^w_i x_i) keeps its zero locus, so each point of it lies
on a C*-orbit whose closure holds the origin, the origin is isolated
exactly when the global quotient is finite, and then the global colength
is the local one.  Every other ideal takes the echelon.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
from typing import Iterable, Iterator

from .polyring import (
    ELIM,
    GREVLEX,
    GRLEX,
    Exponent,
    MonomialOrder,
    Polynomial,
    RingContext,
    clear_denominators,
    exact_div,
    exponent_box,
    integer_weights,
)

__all__ = [
    "DegreeCapExceeded",
    "EXPONENT_LIMIT",
    "ExponentOverflow",
    "INFINITE",
    "Ideal",
    "InfiniteColengthError",
    "local_colength",
    "maximal_ideal",
    "maximal_ideal_power",
    "quotient_dimension",
]

INFINITE = float("inf")


class InfiniteColengthError(ValueError):
    """Raised when a colength is requested for a non-finite quotient."""


class DegreeCapExceeded(RuntimeError):
    """Raised when an isolated ideal's Nakayama exponent N passes a degree guard.

    The guard is optional and off by default (``local_colength``, ``Germ``).
    A non-isolated ideal is INFINITE under any guard.
    """


# ---------------------------------------------------------------------------
# packed monomials

# Value bits per exponent field.  Each field carries one more bit, its
# guard, so that the sum of two exponents below the limit cannot carry into
# the next field.
_FIELD_BITS = 15
EXPONENT_LIMIT = 1 << _FIELD_BITS


class ExponentOverflow(OverflowError):
    """Raised when an exponent in the exact kernel would reach EXPONENT_LIMIT.

    Packed monomials hold each exponent in a field below the limit; a
    larger exponent is refused at the kernel boundary or at the moment a
    product creates it, never carried silently into the next field.
    """


def _overflow(exponent: int | None = None) -> ExponentOverflow:
    what = "an exponent" if exponent is None else f"exponent {exponent}"
    return ExponentOverflow(f"{what} reached the kernel limit {EXPONENT_LIMIT}")


class _Packing:
    """Monomials of one arity and order as ints, M(e) = (K(e) << pbits) + P(e).

    P(e) holds the exponents in guarded fields, x_1 most significant, and
    K(e) the order's key fields in signed digits; both are read off the
    order key on the unit vectors, so M(e) = sum_i e_i * M(u_i).  A
    trailing run of key fields equal to the exponents themselves is left
    to P, which compares them the same way.
    """

    __slots__ = ("units", "pbits", "guard", "_shifts")

    def __init__(self, arity: int, key):
        width = _FIELD_BITS + 1
        eye = [tuple(int(i == j) for j in range(arity)) for i in range(arity)]
        if any(key((0,) * arity)):
            raise ValueError("monomial order key is not linear")
        rows = list(zip(*map(key, eye)))
        if rows[-arity:] == eye:
            rows = rows[:-arity]
        # Each digit is wider than any difference of its key field on
        # exponents below the limit, so M compares as the key tuples do.
        offsets = []
        offset = 0
        for row in reversed(rows):
            offsets.append(offset)
            offset += (sum(map(abs, row)) * (EXPONENT_LIMIT - 1)).bit_length()
        offsets.reverse()
        self.pbits = width * arity
        self._shifts = tuple(width * (arity - 1 - i) for i in range(arity))
        self.units = tuple(
            (sum(row[i] << o for row, o in zip(rows, offsets)) << self.pbits) + (1 << s)
            for i, s in enumerate(self._shifts)
        )
        self.guard = sum(1 << (s + _FIELD_BITS) for s in self._shifts)

    def pack(self, e: Exponent) -> int:
        if max(e) >= EXPONENT_LIMIT:
            raise _overflow(max(e))
        return sum(map(mul, e, self.units))

    def pack_poly(self, p: dict) -> dict:
        return {self.pack(e): c for e, c in p.items()}

    def unpack(self, m: int) -> Exponent:
        return tuple((m >> s) & (EXPONENT_LIMIT - 1) for s in self._shifts)

    def partial(self, p: dict, i: int) -> dict:
        """The partial derivative in x_i of a packed polynomial.

        Each term reads its exponent of x_i off field i and, when it is
        positive, moves down by the packed x_i.
        """
        s = self._shifts[i]
        unit = self.units[i]
        mask = EXPONENT_LIMIT - 1
        return {m - unit: c * e for m, c in p.items() if (e := (m >> s) & mask)}

    def lcm(self, a: int, b: int) -> int:
        """The fieldwise max of two exponent parts P."""
        guard = self.guard
        # the guard of a field of (a | guard) - b is set where a >= b
        g = ((a | guard) - b) & guard
        return b ^ ((a ^ b) & (g - (g >> _FIELD_BITS)))


_PACKINGS: dict[tuple, _Packing] = {}


def _packing(arity: int, order: MonomialOrder) -> _Packing:
    """The packing for an arity and order, built once."""
    slot = (arity, order)
    pk = _PACKINGS.get(slot)
    if pk is None:
        pk = _PACKINGS[slot] = _Packing(arity, order.key)
    return pk


def _weighted_packing(ws: tuple[int, ...]) -> _Packing:
    """The packing (wdeg(e) << pbits) + P(e) for positive integer weights.

    Its one key field is the weighted degree, so a term's weighted degree
    is ``m >> pbits``.  All-ones weights give the grlex packing itself.
    """
    if all(w == 1 for w in ws):
        return _packing(len(ws), GRLEX)
    slot = (len(ws), ws)
    pk = _PACKINGS.get(slot)
    if pk is None:
        pk = _PACKINGS[slot] = _Packing(len(ws), lambda e: (sum(map(mul, e, ws)), *e))
    return pk


# ---------------------------------------------------------------------------
# integer polynomial layer used inside the Buchberger loop

_IntPoly = dict  # monomial -> int, content 1


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


def _ff_reduce(p: _IntPoly, reds: list, guard: int) -> tuple[_IntPoly, int, int]:
    """Full normal form of packed p against reducer records, fraction-free.

    The one polynomial reducer: Buchberger, basis reduction and
    ``Ideal.normal_form`` all call it.  The Macaulay rows of a graded
    membership test and of the local echelon are eliminated by
    ``_pivot_reduce``.
    ``reds`` holds records (lm, lc, tail) sorted by packed leading
    monomial.  Terms are taken largest first off a heap of negated ints;
    the scan for a reducer of m tests lm | m by the guard bits of m - lm
    and stops at the first lm > m, since a divisor is never larger.  A term
    whose guard bits are set has an exponent at the limit and raises
    ``ExponentOverflow``.  The state is rescaled by integers along the way
    and its content is divided out; the integers num and den returned with
    the primitive remainder r record both, so that den * r = num * NF(p).
    """
    work = dict(p)
    out: _IntPoly = {}
    num = den = 1
    heap = [-m for m in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        if m & guard:
            raise _overflow()
        for lm, lc, tail in reds:
            if lm > m:
                tail = None
                break
            if not (m - lm) & guard:
                break
        else:
            tail = None
        if tail is None:  # no reducer divides m
            out[m] = c
            continue
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
            num *= a
        shift = m - lm
        for e, q in tail:
            t = e + shift
            prev = work.get(t)
            v = (prev if prev is not None else 0) - b * q
            if v:
                work[t] = v
                if prev is None:
                    heapq.heappush(heap, -t)
            elif prev is not None:
                del work[t]
        steps += 1
        if steps % 64 == 0:
            den *= _strip_pair(work, out)
    return out, num, den * _strip_pair(work, out)


def _spoly(pa: _IntPoly, lma: int, pb: _IntPoly, lmb: int, lcm: int) -> _IntPoly:
    lca, lcb = pa[lma], pb[lmb]
    g = math.gcd(lca, lcb)
    ca = lcb // g
    cb = lca // g
    sa = lcm - lma
    sb = lcm - lmb
    out: _IntPoly = {e + sa: c * ca for e, c in pa.items()}
    for e, c in pb.items():
        t = e + sb
        v = out.get(t, 0) - c * cb
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def _reducer(p: _IntPoly, lm: int) -> tuple:
    """The reducer record (lm, lc, tail) that ``_ff_reduce`` scans."""
    return (lm, p[lm], tuple((e, c) for e, c in p.items() if e != lm))


def _packed_degree(p: _IntPoly, pk: _Packing) -> int | None:
    """The degree of a packed p in pk's key field when p is homogeneous in it, else None.

    With a weighted packing the key field is the weighted degree, the top
    bits of every term, so the least and the largest term bound it.
    """
    d = max(p) >> pk.pbits
    return d if min(p) >> pk.pbits == d else None


def _pivot_reduce(work: dict, pivots: dict) -> tuple | None:
    """Eliminate the pivots of an echelon form from a row.

    The rows are dicts from packed monomials to integers: the weighted
    packing, whose key field is the weighted degree, for the rows of one
    weighted degree, and the grlex packing, whose key field is the degree,
    for the local echelon.
    ``pivots`` maps each kept row's pivot, its least monomial, to
    (coefficient, tail).  ``work`` is consumed in ascending order off a
    heap of ints, each pivot monomial met is cancelled fraction-free as in
    ``_ff_reduce``, and content is stripped along the way.  Returns None
    when the row reduces to zero, else (pivot, coefficient, tail) for its
    first monomial without a pivot: every other monomial left is larger, so
    the row joins the echelon form keyed by it.  The callers bound every
    exponent of their rows below the limit beforehand.
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


def _add_rows(
    pivots: dict,
    g: _IntPoly,
    gap: int,
    ws: tuple[int, ...],
    pk: _Packing,
    shifts: dict,
) -> None:
    """Reduce the rows m*g with wdeg(m) = gap into the echelon form ``pivots``.

    g is packed by pk, the weighted packing of the integer weights ws, so
    a shift by m is one addition; there are no rows when gap < 0.  Each
    row that keeps a monomial without a pivot joins ``pivots`` keyed by it.
    ``shifts`` caches the packed shifts by gap for the caller's sequence of
    calls.
    """
    if gap < 0:
        return
    ms = shifts.get(gap)
    if ms is None:
        ms = shifts[gap] = [pk.pack(m) for m in _exponents_of_degree(ws, gap)]
    for m in ms:
        head = _pivot_reduce({e + m: c for e, c in g.items()}, pivots)
        if head is not None:
            pivots[head[0]] = head[1:]


def _buchberger(gens: list[_IntPoly], pk: _Packing) -> list[_IntPoly]:
    """Groebner basis of the ideal spanned by packed ``gens`` for pk's order.

    Pairs are queued by the total degree of their lcm (normal strategy),
    then by the order.  Which pairs to queue is decided once, when an
    element h is added, by the update of Gebauer and Moeller (On an
    installation of Buchberger's algorithm, 1988; procedure UPDATE in
    Becker and Weispfenning, Groebner Bases, section 5.5):

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

    The update works on the exponent parts P of the leading monomials: an
    lcm is a fieldwise max of guarded fields, a divisibility test reads the
    guard bits of a difference, and leading monomials are coprime exactly
    when their lcm is their product.  Only a queued pair unpacks its lcm,
    for its degree and its packed monomial.
    """
    guard = pk.guard
    pmask = (1 << pk.pbits) - 1
    lcm = pk.lcm
    # (poly, lm, P(lm)) per element
    basis: list[tuple[_IntPoly, int, int]] = []
    reds: list = []
    active: list[int] = []
    heap: list = []
    seen: set = set()

    def add(h: _IntPoly) -> bool:
        lm = max(h)
        plm = lm & pmask
        if not plm:
            return True
        t = len(basis)
        cands = []
        for i in active:
            pi = basis[i][2]
            pl = lcm(pi, plm)
            cands.append((pl, pl != pi + plm, i))
        # P is the lex order, so an lcm comes after its proper divisors,
        # and coprime comes first on ties: a candidate is kept exactly when
        # no lcm kept before it divides its own.
        cands.sort()
        minimal: list[int] = []
        new = []
        for pl, shared, i in cands:
            for m in minimal:
                if not (pl - m) & guard:
                    break
            else:
                minimal.append(pl)
                if shared:
                    e = pk.unpack(pl)
                    new.append((sum(e), pk.pack(e), i, t, pl))
        heap[:] = [
            q for q in heap
            if (q[4] - plm) & guard
            or q[4] == lcm(basis[q[2]][2], plm)
            or q[4] == lcm(basis[q[3]][2], plm)
        ]
        heap.extend(new)
        heapq.heapify(heap)
        active[:] = [i for i in active if (basis[i][2] - plm) & guard]
        active.append(t)
        basis.append((h, lm, plm))
        insort(reds, _reducer(h, lm))
        return False

    for g in gens:
        fp = frozenset(g.items())
        if fp in seen:
            continue
        seen.add(fp)
        if add(g):
            return [{0: 1}]

    while heap:
        _, m, i, j, _ = heapq.heappop(heap)
        s = _spoly(basis[i][0], basis[i][1], basis[j][0], basis[j][1], m)
        r = _ff_reduce(s, reds, guard)[0]
        if r and add(r):
            return [{0: 1}]
    return [rec[0] for rec in basis]


def _reduced_basis(polys: list[_IntPoly], guard: int) -> list[_IntPoly]:
    """Minimalize and tail-reduce a packed Groebner basis.

    Returns the reduced basis as primitive integer polynomials with
    positive leading coefficients, by ascending leading monomial; each is
    unique for its order.
    """
    if not polys:
        return []
    kept: list[tuple[int, _IntPoly]] = []
    for lm, p in sorted(((max(p), p) for p in polys), key=itemgetter(0)):
        if any(not (lm - km) & guard for km, _ in kept):
            continue
        kept.append((lm, p))
    # The kept leading monomials are distinct and ascending: each element is
    # reduced by the records of all the others, in their sorted order, and
    # keeps its leading monomial.
    records = [_reducer(p, lm) for lm, p in kept]
    out = []
    for lm, p in kept:
        r = _ff_reduce(p, [rec for rec in records if rec[0] != lm], guard)[0]
        out.append(r if r[lm] > 0 else {e: -c for e, c in r.items()})
    return out


# ---------------------------------------------------------------------------
# exponent enumeration helpers


def _exponents_of_degree(weights: tuple[int, ...], degree: int) -> Iterator[Exponent]:
    """Exponents of weighted degree ``degree`` for positive integer weights, e_1 descending.

    The first exponents are walked and the last one is solved for: with
    one weight w left and degree D >= 0 left, the only exponent is D / w,
    when w divides D.
    """
    if len(weights) == 1:
        w = weights[0]
        if degree >= 0 and not degree % w:
            yield (degree // w,)
        return
    if not weights:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    rest = weights[1:]
    for first in range(degree // w, -1, -1):
        for tail in _exponents_of_degree(rest, degree - first * w):
            yield (first, *tail)


def _pure_powers(exponents: Iterable[Exponent], arity: int) -> tuple[int, ...] | None:
    """The least pure power of each variable among monomial exponents, or None when one is missing.

    The exponent 0, the unit monomial, gives the pure powers 0.
    """
    degs: list[int | None] = [None] * arity
    for e in exponents:
        hot = [i for i, x in enumerate(e) if x]
        if not hot:
            return (0,) * arity
        if len(hot) == 1:
            i = hot[0]
            if degs[i] is None or e[i] < degs[i]:
                degs[i] = e[i]
    return None if None in degs else tuple(degs)


def _box_multiples(degs: tuple[int, ...], *generator_sets: list[Exponent]) -> list[int]:
    """For each set of exponents, how many points of the box below degs are multiples of one.

    The box is swept once in lex order, each point e at its flat index
    sum_i e_i * stride_i, so that e - e_i, at index - stride_i, comes
    before e.  A point is a multiple exactly when it is in the set or some
    e - e_i with e_i > 0 is a multiple.  Exponents outside the box have no
    multiple inside it.
    """
    strides = [math.prod(degs[i + 1 :]) for i in range(len(degs))]
    size = math.prod(degs)
    marks = []
    for exponents in generator_sets:
        flags = bytearray(size)
        for e in exponents:
            if all(map(int.__lt__, e, degs)):
                flags[sum(map(mul, e, strides))] = 1
        marks.append(flags)
    for index, e in enumerate(exponent_box(degs)):
        steps = [s for x, s in zip(e, strides) if x]
        for flags in marks:
            if not flags[index] and any(flags[index - s] for s in steps):
                flags[index] = 1
    return [flags.count(1) for flags in marks]


def maximal_ideal(ring: RingContext) -> "Ideal":
    """The ideal m generated by all the ring variables."""
    return Ideal(ring, ring.gens())


def maximal_ideal_power(ring: RingContext, k: int) -> "Ideal":
    """m^k, generated by the monomials of total degree k (unit ideal for k=0)."""
    if k < 0:
        raise ValueError("negative power of the maximal ideal")
    gens = [Polynomial.monomial(ring, e) for e in _exponents_of_degree((1,) * ring.arity, k)]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------


class Ideal:
    """Finitely generated ideal with per-order cached reduced Groebner bases.

    ``generators`` holds the nonzero generators, in the order given.  Global
    questions (``member``, ``normal_form``, ``contains_ideal``, ``colength``)
    are answered on the reduced grevlex basis, local ones at the origin
    (``local_member``) on the local echelon form; ``quotient`` and ``+``
    build new ideals.
    """

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

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def _packed_generators(self, pk: _Packing) -> list[_IntPoly]:
        """The primitive integer forms of the generators packed by pk, in order.

        Cached per packing.
        """
        packed = self._cache.get(pk)
        if packed is None:
            packed = [pk.pack_poly(_int_poly(g)) for g in self.generators]
            self._cache[pk] = packed
        return packed

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
        Raises ``ExponentOverflow`` when an exponent of a generator or of a
        polynomial formed on the way reaches ``EXPONENT_LIMIT``.
        """
        cached = self._cache.get(order.name)
        if cached is None:
            pk = _packing(self.ring.arity, order)
            gens = self._packed_generators(pk)
            if any(len(g) != 1 for g in gens):  # single terms already form a Groebner basis
                gens = _buchberger(gens, pk)
            ints = _reduced_basis(gens, pk.guard)
            basis = tuple(
                Polynomial(self.ring, {pk.unpack(e): Fraction(c, r[lm]) for e, c in r.items()})
                for r, lm in zip(ints, map(max, ints))
            )
            # the reducer records of normal forms, stored with the basis
            cached = (basis, [_reducer(r, max(r)) for r in ints])
            self._cache[order.name] = cached
        return cached[0]

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical remainder of p modulo the reduced grevlex basis."""
        if p.ring.names != self.ring.names:
            raise ValueError("polynomial from a different ring")
        reds = self._reducers()
        if not reds:
            return p
        pk = _packing(self.ring.arity, GREVLEX)
        ints, d = clear_denominators(p)
        r, num, den = _ff_reduce(pk.pack_poly(ints), reds, pk.guard)
        # den * r = num * NF(d * p)
        return Polynomial(
            self.ring, {pk.unpack(e): Fraction(c * den, num * d) for e, c in r.items()}
        )

    def _reducers(self) -> list:
        """Reducer records of the reduced grevlex basis, filled with it."""
        cached = self._cache.get(GREVLEX.name)
        if cached is None:
            self.groebner_basis()
            cached = self._cache[GREVLEX.name]
        return cached[1]

    def member(self, p: Polynomial) -> bool:
        """Whether p lies in I: its grevlex normal form is zero."""
        return self.normal_form(p).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        """Whether every generator of ``other`` lies in this ideal.

        When every generator of this ideal is a single term, g lies in it
        exactly when each term of g is divisible by a generator; the test
        reads the guard bits of a difference of grlex-packed monomials.
        Any other ideal reduces each g to its normal form.
        """
        exponents = self._monomial_exponents()
        if exponents is None:
            return all(self.member(g) for g in other.generators)
        pk = _packing(self.ring.arity, GRLEX)
        guard = pk.guard
        lms = [pk.pack(e) for e in exponents]
        terms = {pk.pack(e) for g in other.generators for e, _ in g.items()}
        return all(any(not (m - lm) & guard for lm in lms) for m in terms)

    def _monomial_exponents(self) -> list[Exponent] | None:
        """The exponents of the generators when each is a single term, else None."""
        exponents = [e for g in self.generators if len(g) == 1 for e, _ in g.items()]
        return exponents if len(exponents) == len(self.generators) else None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        return Ideal(self.ring, _dedup(self.generators + other.generators))

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
        pk = _packing(self.ring.arity + 1, ELIM)
        lifted = [
            {pk.pack((1,) + e): c for e, c in _int_poly(g).items()} for g in self.groebner_basis()
        ]
        base = {pk.pack((0,) + e): c for e, c in _int_poly(p).items()}
        t = pk.units[0]
        lifted.append({**base, **{m + t: -c for m, c in base.items()}})  # (1 - t) * p
        gens = []
        for r in _t_free(lifted, pk):
            lc = r[max(r)]
            low = Polynomial(self.ring, {pk.unpack(m)[1:]: Fraction(c, lc) for m, c in r.items()})
            q = exact_div(low, p)
            if q is None:
                raise AssertionError("intersection member not divisible by p")
            gens.append(q)
        return Ideal(self.ring, gens)

    def local_member(self, p: Polynomial) -> bool:
        """Membership in the localization of I at the origin.

        A generator with nonzero constant term is a local unit, so I is the
        whole local ring; else I lies in the maximal ideal and a target
        with nonzero constant term, itself a local unit, lies outside.
        Then, when the origin is isolated in V(I), the local echelon form
        of I (see the module docstring) decides: p lies in I locally
        exactly when its terms of degree below the Nakayama exponent N
        reduce to zero against the pivots.  Otherwise ``_quotient_member``
        decides.
        """
        if p.is_zero():
            return True
        pk = _packing(self.ring.arity, GRLEX)
        if any(0 in g for g in self._packed_generators(pk)):  # 0 packs the exponent 0
            return True
        if p.constant_term:
            return False
        found = _local_echelon(self)
        if found is None:
            return self._quotient_member(p)
        return _echelon_head(pk.pack_poly(_int_poly(p)), found, pk) is None

    def _quotient_member(self, p: Polynomial) -> bool:
        """Local membership of a nonzero p through the ideal quotient.

        p lies in I locally exactly when u*p lies in I for some u with
        u(0) != 0, that is, when p lies in I or (I : p) contains an
        element with nonzero constant term.  The quotient is taken by the
        normal form r of p, computed once: r = 0 means p lies in I, and
        otherwise (I : p) = (I : r), as q*p and q*r differ by an element
        of I, and the elimination behind ``quotient`` starts from the
        reduced r.  (I : r) lies inside m exactly when each of its
        generators does, so their constant terms decide, with no Groebner
        basis of the quotient.  Needs no Nakayama exponent, but the
        elimination can be slow.
        """
        r = self.normal_form(p)
        if r.is_zero():
            return True
        return any(g.constant_term != 0 for g in self.quotient(r).generators)

    def _local_functional(self, p: Polynomial) -> tuple[int, dict[Exponent, Fraction]] | None:
        """(N, lam), lam a functional below degree N that refutes p in I*O_0.

        Read off the local echelon (N, pivots), whose pivot rows span
        (I + m^N)/m^N, by ``_functional`` at the head of the terms of p
        below degree N.  None when p reduces to zero, that is p lies in
        I*O_0, or when the origin is not isolated in V(I) and there is no
        echelon.  ``refutation.refutes`` checks lam without this module.
        """
        found = _local_echelon(self)
        if found is None:
            return None
        pk = _packing(self.ring.arity, GRLEX)
        head = _echelon_head(pk.pack_poly(_int_poly(p)), found, pk)
        if head is None:
            return None
        lam = _functional(found[1], head[0])
        return found[0], {pk.unpack(m): v for m, v in lam.items()}

    def _graded_degrees(
        self, weights: Iterable
    ) -> tuple[tuple[int, ...], _Packing, list[int]] | None:
        """The integer weights, their packing and the weighted degrees of the generators.

        A ``WeightSystem`` carries its integer weights, which are read off
        it.  The generators are read packed by ``_weighted_packing``, whose
        key field is the weighted degree.  None when some generator is not
        weighted homogeneous for ``weights``; nonpositive weights or a
        wrong weight count raise ``ValueError``.  Cached on the ideal,
        keyed by the integer weights.
        """
        ws = integer_weights(weights)[0]
        if len(ws) != self.ring.arity:
            raise ValueError("weight count does not match the ring")
        key = ("graded", ws)
        cached = self._cache.get(key, False)
        if cached is False:
            pk = _weighted_packing(ws)
            degs = [_packed_degree(g, pk) for g in self._packed_generators(pk)]
            cached = self._cache[key] = None if None in degs else (ws, pk, degs)
        return cached

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
        lms = [g.leading_monomial() for g in basis]
        result = _pure_powers(lms, self.ring.arity) if lms else None
        self._cache["pure_powers"] = result
        return result

    def colength(self) -> int:
        """dim_Q of the quotient ring, counting standard monomials.

        Every standard monomial lies in the box below the least pure powers
        of the leading monomials, and the others there are the multiples of
        a leading monomial, which ``_box_multiples`` counts in one sweep.
        The count is cached on the ideal.
        """
        count = self._cache.get("colength")
        if count is not None:
            return count
        degs = self._pure_power_degrees()
        if degs is None:
            raise InfiniteColengthError("infinite colength")
        lms = [g.leading_monomial() for g in self.groebner_basis()]
        count = math.prod(degs) - _box_multiples(degs, lms)[0]
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


# ---------------------------------------------------------------------------
# colengths at the origin


def local_colength(
    ideal: Ideal, degree_cap: int | None = None, weights: Iterable | None = None
):
    """dim_Q of the localized quotient at the origin: an int, or INFINITE.

    Two routes.  An ideal whose generators are checked to be weighted
    homogeneous for ``weights`` (all ones when None; nonpositive weights or
    a wrong count raise ``ValueError``) is measured globally: its global
    colength when it is m-primary, else INFINITE.  Its zero locus is a
    union of closures of C*-orbits through the origin, so the origin is
    isolated in it exactly when the global quotient is finite.  Every other
    ideal is measured by its local echelon form of the module docstring:
    INFINITE when the origin is not isolated in its zero locus, else the
    number of monomials of degree below the Nakayama exponent N that are
    not pivots.  ``degree_cap`` is an optional guard on that route: an
    isolated ideal whose N passes it raises DegreeCapExceeded.  A generator
    exponent at ``EXPONENT_LIMIT`` raises ``ExponentOverflow`` on either
    route.
    """
    if weights is None:
        weights = (1,) * ideal.ring.arity
    if ideal._graded_degrees(weights) is not None:
        return ideal.colength() if ideal.is_m_primary() else INFINITE
    found = _local_echelon(ideal, degree_cap)
    if found is None:
        return INFINITE
    n, pivots = found
    arity = ideal.ring.arity
    return math.comb(n - 1 + arity, arity) - len(pivots)


def _local_echelon(ideal: Ideal, degree_cap: int | None = None) -> tuple[int, dict] | None:
    """(N, pivots) of ``_nakayama_echelon``, cached on the ideal, or None when not isolated.

    The first climb stops at the budget B of the module docstring, its rows
    truncated there.  Past B ``_isolated`` decides, and an isolated ideal
    climbs again with no truncation.  A guard ``degree_cap`` refuses an
    isolated ideal whose N, cached or searched, passes it.
    """
    cached = ideal._cache.get("echelon")
    if cached is None and ideal._cache.get("isolated", True):
        pk = _packing(ideal.ring.arity, GRLEX)
        gens = ideal._packed_generators(pk)
        e = max((min(g) >> pk.pbits for g in gens), default=0)  # the largest order
        first = ideal.ring.arity * max(e - 1, 0) + 1
        if degree_cap is not None:
            first = min(first, degree_cap)
        cached = _nakayama_echelon(gens, pk, cap=first)
        if cached is None and first != degree_cap and _isolated(ideal):
            cached = _nakayama_echelon(gens, pk, cap=degree_cap)
        if cached is not None:
            ideal._cache["echelon"] = cached
    if cached is None and not _isolated(ideal):
        return None
    if cached is None or degree_cap is not None and cached[0] > degree_cap:
        raise DegreeCapExceeded(f"colength at the origin not stabilized by degree {degree_cap}")
    return cached


def _echelon_head(p: _IntPoly, echelon: tuple[int, dict], pk: _Packing) -> tuple | None:
    """The ``_pivot_reduce`` head of the terms of p below degree N against (N, pivots).

    p and the pivots are packed by the grlex packing pk, whose key field is
    the degree: a monomial of degree d packs to at least d << pbits and
    below (d + 1) << pbits.  None when those terms reduce to zero: p lies
    in I*O_0 for the ideal I of the echelon.  ``local_member``,
    ``_local_functional`` and the local equality ladder all read the
    echelon here.
    """
    n, pivots = echelon
    bound = n << pk.pbits
    return _pivot_reduce({m: c for m, c in p.items() if m < bound}, pivots)


def _functional(pivots: dict, head: int) -> dict[int, Fraction]:
    """The functional lam that kills every pivot row, with lam(head) = 1.

    ``pivots`` is an echelon form of ``_pivot_reduce``, pivot rows
    c*x^key + tail with every tail monomial above key, and ``head`` the
    head monomial of a row p reduced against it, itself without a pivot.
    lam(head) = 1, lam vanishes on every other monomial without a pivot,
    and one sweep over the pivots, largest first, sets
    lam(x^key) = -(1/c) * sum(tail * lam), so lam kills every pivot row.
    Reducing the monomials above head never changes the coefficient of
    head, so lam(p) != 0.  Keys are packed monomials, as in ``pivots``.
    """
    lam = {head: Fraction(1)}
    for key in sorted(pivots, reverse=True):
        c, tail = pivots[key]
        s = sum(v * lam.get(t, 0) for t, v in tail)
        if s:
            lam[key] = Fraction(-s, c)
    return lam


def _t_free(gens: list[_IntPoly], pk: _Packing) -> list[_IntPoly]:
    """The elements free of t of the reduced basis of (gens), t the first variable.

    pk packs (t, x) by ``ELIM``, which compares the exponent
    of t first, so an element whose leading monomial is free of t is free
    of t, and these elements are the reduced basis of (gens) meet Q[x].
    """
    return [
        r for r in _reduced_basis(_buchberger(gens, pk), pk.guard) if not pk.unpack(max(r))[0]
    ]


def _isolated(ideal: Ideal) -> bool:
    """Whether the origin is an isolated point of V(I), or outside it; cached on I.

    True when, for every variable x_i, the saturation I : x_i^oo =
    (I + (1 - t*x_i)) meet Q[x] has an element with nonzero constant term.
    Its zero locus is the closure of V(I) minus {x_i = 0}.  That closure
    misses an isolated or absent origin; a curve of V(I) through the origin
    lies off some {x_i = 0}, and then that closure holds the origin.
    """
    cached = ideal._cache.get("isolated")
    if cached is None:
        pk = _packing(ideal.ring.arity + 1, ELIM)
        # The reduced basis, not the raw generators: on germs with messy
        # critical points away from the origin, the elimination from the raw
        # generators ran many times longer.
        basis = ideal.groebner_basis()
        gens = [{pk.pack((0,) + e): c for e, c in _int_poly(g).items()} for g in basis]
        t = pk.units[0]
        cached = ideal._cache["isolated"] = all(
            any(0 in r for r in _t_free([*gens, {0: 1, t + x: -1}], pk))  # 0 packs 1
            for x in pk.units[1:]
        )
    return cached


def _nakayama_echelon(
    gens: list[_IntPoly], pk: _Packing, seed: dict | None = None, cap: int | None = None
) -> tuple[int, dict] | None:
    """The least N with m^N inside (gens) + m^(N+1), and the echelon form below N.

    The rows are eliminated degree by degree as in the module docstring.
    ``gens`` and the rows are packed by the grlex packing pk,
    (deg << pbits) + P(e), so x_i times a monomial adds the packed x_i,
    and a degree bound is one comparison.  A ``seed`` echelon form of rows
    of the ideal, whose products with the variables lie in its span plus
    that of the other rows, is taken over as the first pivots: the stop
    test counts them, and they are never multiplied.  The returned pivots
    are the pivot rows of degree below N, with their tails cut below N:
    they span ((gens) + m^N)/m^N.  A ``cap`` truncates the rows above
    degree cap and returns None when no N up to it exists.  The pivots of
    degree d do not depend on the truncation as long as it is at least d,
    so the rows are truncated below the exponent limit too; a climb that
    reaches the limit raises ``ExponentOverflow``.
    """
    arity = len(pk.units)
    dshift = pk.pbits
    top = EXPONENT_LIMIT - 1 if cap is None else min(cap, EXPONENT_LIMIT - 1)
    pending: dict[int, list[dict]] = {}
    for g in gens:
        row = {m: c for m, c in g.items() if m >> dshift <= top}
        if row:
            pending.setdefault(min(row) >> dshift, []).append(row)
    below_top = top << dshift
    pivots: dict[int, tuple[int, list]] = {} if seed is None else seed
    seeded = Counter(key >> dshift for key in pivots)
    fresh: list[tuple] = []
    for d in range(top + 1):
        rows = pending.pop(d, [])
        for key, c, tail in fresh:
            kept = [(t, v) for t, v in tail if t < below_top]
            for s in pk.units:
                row = {key + s: c}
                for t, v in kept:
                    row[t + s] = v
                rows.append(row)
        fresh = []
        for row in rows:
            head = _pivot_reduce(row, pivots)
            if head is None:
                continue
            key, c, tail = head
            if key >> dshift == d:
                pivots[key] = (c, tail)
                fresh.append(head)
            else:  # its terms of degree d cancelled: reduce it at its order
                row = dict(tail)
                row[key] = c
                pending.setdefault(key >> dshift, []).append(row)
        if len(fresh) + seeded[d] == math.comb(d + arity - 1, arity - 1):
            bound = d << dshift
            low = {
                key: (c, [(t, v) for t, v in tail if t < bound])
                for key, (c, tail) in pivots.items()
                if key < bound
            }
            return d, low
    if cap is None or cap > top:
        raise _overflow()
    return None


def quotient_dimension(big: Ideal, small: Ideal) -> int:
    """dim_Q (big/small) for nested ideals small inside big, at the origin.

    Equal ideals give 0; ``ValueError`` when big does not contain small;
    0 when small also contains big; ``InfiniteColengthError`` when small
    has infinite colength.  Otherwise both ideals must be monomial, as the
    genus routes' are, and any other pair raises ``ValueError``.  Two
    monomial ideals are compared by divisibility, and their quotient is
    spanned by the monomials in big and not in small: all of them lie in
    the box below small's pure powers, so one ``_box_multiples`` sweep
    counts them.  Small is m-primary exactly when it has a pure power of
    every variable, and then so is big.
    """
    if big == small:
        return 0
    if not big.contains_ideal(small):
        raise ValueError("quotient_dimension needs the second ideal inside the first")
    if small.contains_ideal(big):
        return 0
    outer, inner = big._monomial_exponents(), small._monomial_exponents()
    if outer is None or inner is None:
        raise ValueError("quotient_dimension needs two monomial ideals")
    degs = _pure_powers(inner, small.ring.arity)
    if degs is None:
        raise InfiniteColengthError("quotient of a pair with infinite colength")
    a, b = _box_multiples(degs, outer, inner)
    return a - b
