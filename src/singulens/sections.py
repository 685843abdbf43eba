"""The numerator ideals J_k of the sections d^b(g / f), and the Euler descent.

The order-k numerator ideal J_k of an ideal I collects, for each
generator g and each multi-index b with |b| <= k, the polynomial
f^(k+1) * d^b(g / f); membership of f^k in J_k at the origin is the
levelwise test used by the length certificates.  ``jk_ideal`` builds it
fraction-free from packed integer numerators N_b (one int per monomial,
see ``ideals``) by the quotient rule on numerators: no section g / f is
formed as a fraction.  The levels k >= 1 climb one ladder
(``level_ladder``) instead of rebuilding J_k, deriving only the N_b with
|b| = k at level k.  For a graded germ each level is one linear system in
the weighted degree of f^k on the rows of those numerators alone: the
Euler field turns the recurrence into
sum_i W_i x_i N_(b+e_i) = -(b.W - wdeg(G) + D) * F * N_b, so the rows of
lower numerators add nothing.  Other germs take the local route, on
J_k = F * J_(k-1) + (N_b : |b| = k), where each level starts from F times
the echelon form of the level below.  When every generator of I is
homogeneous for the grading by Z^n / L, L the lattice of the differences
of f's exponents, a level is first tested in f^k's class alone, below a
cut T_k = T_(k-1) + ord F from T_0 = 2: the cut is what keeps the seed
F times the level below exact.  A nonzero remainder refutes f^k in
J_k * O outright; otherwise, and for every other I, the level climbs the
full local echelon to its Nakayama exponent, from the echelon of I, and
its verdict stands.

The Euler layer certifies, for f weighted homogeneous with weights w, the
rewriting of a monomial section x^u / f^(k+1) as a weighted sum of first
partials of sections x^(u+e_i) / f^(k+1).  Each step stores its scale
1 / (rho(u) - (k+1)).  A chain checks the Euler identity of f once and is
replayed once before it is returned: step by step on one packed integer
form of f, each step's two sides are re-derived exactly, as one identity
between integer polynomials: both sections times f^(k+2), the common pole
of the partials, with the denominators of f and of the coefficients
cleared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator

from .ideals import (
    EXPONENT_LIMIT,
    INFINITE,
    ExponentOverflow,
    Ideal,
    _add_rows,
    _echelon_head,
    _exponents_of_degree,
    _int_poly,
    _local_echelon,
    _nakayama_echelon,
    _overflow,
    _packed_degree,
    _packing,
    _Packing,
    _pivot_reduce,
)
from .invariants import Germ, WeightSystem, _stage_colength, as_germ
from .polyring import (
    GRLEX,
    Exponent,
    Polynomial,
    _raw,
    clear_denominators,
    integer_weights,
)

__all__ = [
    "DescentChain",
    "DescentStep",
    "euler_check",
    "generation_descent",
    "jk_ideal",
    "level_ladder",
]


def _mul(a: dict, b: dict) -> dict:
    """Product of two packed integer polynomials (monomial -> int dicts)."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _derive(num: dict, i: int, order: int, big_f: dict, df: dict, pk: _Packing) -> dict:
    """N_(b+e_i) = d_i(N_b) * F - (|b| + 1) * N_b * d_i(F) from N_b with |b| = order.

    All packed by pk; ``df`` is d_i(F).
    """
    out: dict[int, int] = {}
    for ea, ca in pk.partial(num, i).items():
        for eb, cb in big_f.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    for ea, ca in num.items():
        ca *= order + 1
        for eb, cb in df.items():
            e = ea + eb
            out[e] = out.get(e, 0) - ca * cb
    return {e: c for e, c in out.items() if c}


def jk_ideal(f: Polynomial, ideal: Ideal, k: int) -> Ideal:
    """Order-k numerator ideal of the sections d^b(g / f), |b| <= k, g in I.

    Each generator is the polynomial f^(k+1) * d^b(g / f), a polynomial
    because d^b(g / f) has pole order at most |b| + 1 <= k + 1 along f.  It
    is built on integers: with f = F / c and g = G / d for integer
    polynomials F, G, the uncancelled numerators N_b = F^(|b|+1) * d^b(G / F)
    start at N_0 = G and obey
    N_(b+e_i) = d_i(N_b) * F - (|b| + 1) * N_b * d_i(F), and the generator
    is F^(k-|b|) * N_b / (d * c^k), with the powers of F built once.  No
    factor of f is cancelled along the way.  Distinct multi-indices are
    enumerated once, by taking derivatives in non-decreasing variable
    order.  One d, the lcm of the denominators over all generators of I,
    serves every g, so equal generators have equal integer numerators and
    are kept once, at their first occurrence.

    The numerators are packed integers in the grlex packing: a product is
    ``+`` and a partial reads the exponent field and subtracts the packed
    variable.  An exponent is at most k times the largest of F plus the
    largest of a G; ``ExponentOverflow`` is raised when that reaches
    ``EXPONENT_LIMIT``.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if f.is_zero():
        raise ValueError("denominator polynomial must be nonzero")
    if ideal.ring != f.ring:
        raise ValueError("ideal and polynomial live in different rings")
    ring = f.ring
    n = ring.arity
    pk = _packing(n, GRLEX)
    big_f, c = clear_denominators(f)
    numerators = [clear_denominators(g) for g in ideal.generators]
    top = max((max(e) for big_g, _ in numerators for e in big_g), default=0)
    if k * max(map(max, big_f)) + top >= EXPONENT_LIMIT:
        raise _overflow()
    big_f = pk.pack_poly(big_f)
    partials = [pk.partial(big_f, i) for i in range(n)]
    powers = [{0: 1}]  # 0 packs the exponent 0
    for _ in range(k):
        powers.append(_mul(powers[-1], big_f))
    d = math.lcm(*(den for _, den in numerators))
    out: list[dict] = []
    seen: set[frozenset] = set()

    def emit(num: dict, order: int) -> None:
        gen = num if order == k else _mul(powers[k - order], num)
        key = frozenset(gen.items())
        if gen and key not in seen:
            seen.add(key)
            out.append(gen)

    def walk(num: dict, order: int, start: int) -> None:
        emit(num, order)
        if order == k or not num:
            return
        for i in range(start, n):
            walk(_derive(num, i, order, big_f, partials[i], pk), order + 1, i)

    for big_g, d_g in numerators:
        walk({pk.pack(e): v * (d // d_g) for e, v in big_g.items()}, 0, 0)
    den = d * c**k
    return Ideal(
        ring, [_raw(ring, {pk.unpack(m): Fraction(v, den) for m, v in num.items()}) for num in out]
    )


# The cut T_0 of level 0's class echelon (see ``level_ladder``).
_FIRST_CUT = 2


def level_ladder(f: Polynomial | Germ, ideal: Ideal, max_level: int) -> Iterator[bool]:
    """The verdicts f^k in J_k at the origin for k = 1..max_level, one level per step.

    Each verdict equals ``jk_ideal(f, I, k).local_member(f**k)``.  With
    f = F / c and N_b the uncancelled numerators of ``jk_ideal``, level k
    derives only the N_b with |b| = k, in ``jk_ideal``'s walk order, and
    multiplies the packed F^(k-1) by F.  A ``Germ`` f lends its weights,
    guard and Milnor number.  Level k raises ``ExponentOverflow``, naming
    it, where an exponent of its numerators or rows would reach the limit;
    on the graded route that is where ``jk_ideal`` or the test would.  The
    route is decided once, from the germ's weights.

    A graded germ, one whose weights (``Germ.weights``) make every
    generator of I weighted homogeneous too, takes one linear system in
    weighted degree D_k = k * D, D = wdeg(F).  For weighted homogeneous
    inputs local membership is global membership (from u*p = sum a_i g_i
    with u(0) != 0, the components of weighted degree wdeg(p) give
    u(0)*p = sum (a_i)_(wdeg(p) - wdeg g_i) g_i), and global membership is
    the span R_k of the Macaulay rows m*g with wdeg(m) = D_k - wdeg(g)
    (Lazard, Groebner bases, Gaussian elimination and resolution of
    systems of algebraic equations, 1983), reduced by ``_add_rows``.  The
    rows of a generator F^(k-|b|) * N_b are m * F^(k-|b|) * N_b with
    wdeg(m) = gap_b = b.W - wdeg(G), for the integer weights W, so N_b has
    rows exactly when gap_b >= 0.  Level k needs only the rows of the N_b
    with |b| = k, by the Euler field E = sum_i W_i x_i d_i:
    E(N) = wdeg(N) * N and wdeg(N_b) = wdeg(G) + |b| D - b.W, so E applied
    to the recurrence gives
    sum_i W_i x_i N_(b+e_i) = F * E(N_b) - (|b| + 1) * N_b * E(F)
    = -(gap_b + D) * F * N_b.  Where N_b has rows the factor is nonzero,
    so m * F^(k-|b|) * N_b with |b| < k is a combination of the rows
    (m x_i) * F^(k-|b|-1) * N_(b+e_i), and by induction
    R_k = span{m * N_b : |b| = k}.  So each level starts a fresh echelon
    form and reduces F^k once.  b + e_i is derived only when some node of
    its subtree has rows by ``max_level``:
    wdeg(G) <= b.W + W_i + (max_level - |b| - 1) * max(W_i, ..., W_n).

    Other germs climb the local echelon (see ``ideals``) on
    J_k = F * J_(k-1) + (N_b : |b| = k).  F times an echelon form is again
    one, unreduced: min(F*r) = min(F) + min(r) in a linear packing, so
    distinct pivots stay distinct.  Each level first tries a refutation
    in one class of the support lattice, and climbs in full only where
    none shows.  Let L be the lattice of the differences of the exponents
    of f (``_Classes``).  Every term of f has one class [f] in Z^n / L,
    and d_i moves a class by -e_i, so when every generator of I has one
    class, the recurrence keeps every N_b of one class and f^k has class
    k[f].  Truncation below a degree T and projection to one class both
    act monomial by monomial, so f^k lies in J_k + m^T exactly when its
    terms below T lie in the span of the rows x^a * g, cut below T, with
    [x^a] + [g] = k[f]; a nonzero remainder refutes f^k in J_k * O for
    every T (see ``refutation``).  The class echelon of level 0 holds the
    class-0 rows x^a * G cut below T_0 = 2.  Level k cuts below
    T_k = T_(k-1) + ord F and is seeded with F times the class echelon of
    level k - 1: F * m^(T_(k-1)) lies in m^(T_k), so the seed spans the
    class part of F * J_(k-1) modulo m^(T_k), and would fall short of it
    under any larger cut.  The other rows are x^a * N_b with |b| = k and
    [x^a] = k[f] - [N_b].  T_0 = 1 missed level 1 on every ungraded
    frontier germ; T_0 = 2 refutes every level the full climb refutes
    there, and a larger T_0 only costs time.

    When f^k reduces to zero in its class, or when a generator of I spans
    more than one class, the level climbs in full, from the echelon of I
    through every level up to k, on the N_b the ladder kept; that
    verdict is the level's, and the later levels climb in full from it.
    With N' the Nakayama exponent of level k - 1 and P' its pivot rows
    cut below N', J_(k-1) * O = span(P') + m^N', so level k is seeded
    with F * P': the stop test counts those pivots, and they are never
    multiplied by a variable, as x_i * F * P' lies in
    span(F * P') + F * m^N'.  The other rows are x^a * F with |a| = N'
    and the N_b with |b| = k.  There is no degree cap: let f be isolated
    and I m-primary at the origin, and p != 0 near it, so G(p) != 0 for
    some G in I and grad F(p) != 0.  If F(p) != 0, F^k * G does not
    vanish at p.  If F(p) = 0, the recurrence reads
    N_(b+e_i)(p) = -(|b| + 1) * N_b(p) * d_iF(p), so
    N_(k*e_i)(p) = (-1)^k * k! * G(p) * (d_iF(p))^k != 0 for an i with
    d_iF(p) != 0.  So J_k is m-primary at the origin and the search for
    N_k ends.

    Before it climbs, the ladder refuses a germ of infinite Milnor number,
    and the local route also an I of infinite colength at the origin, with
    a ``ValueError`` naming the stage; a guard set on the germ
    (``Germ.degree_cap``) bounds both tests.
    """
    germ = as_germ(f)
    n = germ.f.ring.arity
    stage = "equality level 1"
    if _stage_colength(stage, "Jacobian ideal", germ.jacobian, germ, germ.weights) == INFINITE:
        raise ValueError(f"{stage}: the germ is not isolated at the origin (mu = infinite)")
    grading = None if germ.weights is None else ideal._graded_degrees(germ.weights)
    graded = grading is not None
    if not graded and _stage_colength(stage, "ideal I", ideal, germ, None) == INFINITE:
        raise ValueError(f"{stage}: the ideal I is not m-primary at the origin")
    ws, pk, degs = grading or ((1,) * n, _packing(n, GRLEX), repeat(None))
    big_f = pk.pack_poly(_int_poly(germ.f))
    deg_f = _packed_degree(big_f, pk)
    gens = ideal._packed_generators(pk)
    top_f = max(map(max, map(pk.unpack, big_f)))
    top_g = max((max(pk.unpack(m)) for g in gens for m in g), default=0)
    # reach[i]: the most b.W grows by one derivative in x_i or a later variable
    reach = [max(ws[i:]) for i in range(n)]
    partials = [pk.partial(big_f, i) for i in range(n)]
    low = min(big_f)
    ord_f = low >> pk.pbits
    classes = None if graded else _Classes([pk.unpack(m) for m in big_f], pk)
    e_f = pk.unpack(low)

    def lift(pivots: dict, bound: int | None = None) -> dict:
        """F times an echelon form, the tails cut below a packed ``bound``."""
        out = {}
        for p, (lc, tail) in pivots.items():
            row = _mul(big_f, {p: lc, **dict(tail)})
            c = row.pop(p + low)
            if bound is None:
                out[p + low] = (c, list(row.items()))
            else:
                out[p + low] = (c, [(t, v) for t, v in row.items() if t < bound])
        return out

    def class_rows(nums: list[dict], k: int, cut: int) -> Iterator[dict]:
        """The rows x^a * N cut below degree ``cut``, [x^a] = k[f] - [N], N in ``nums``."""
        bound = cut << pk.pbits
        for num in nums:
            least = min(num)
            terms = [(m, c) for m, c in num.items() if m < bound]
            shift = least >> pk.pbits << pk.pbits  # ord N in the degree field
            target = classes.of(tuple(k * u - v for u, v in zip(e_f, pk.unpack(least))))
            for a in classes.monomials(target, cut):
                if a + shift >= bound:  # the monomials ascend in degree
                    break
                yield {m + a: c for m, c in terms if m + a < bound}

    def full_step(nums: list[dict], echelon: tuple[int, dict]) -> tuple[int, dict]:
        """The full echelon of J_k from that of J_(k-1) and the N_b with |b| = k."""
        nak, pivots = echelon
        if nak + top_f >= EXPONENT_LIMIT:  # the largest exponent of x^a * F, |a| = N'
            raise _overflow()
        rows = list(nums)
        for a in map(pk.pack, _exponents_of_degree(ws, nak)):
            rows.append({m + a: c for m, c in big_f.items()})
        return _nakayama_echelon(rows, pk, lift(pivots))

    def climb() -> Iterator[bool]:
        # (N_b, b.W, first variable left to derive in, wdeg(G)) of the kept nodes
        nodes = [(g, 0, 0, d) for g, d in zip(gens, degs)]
        shifts: dict[int, list[int]] = {}
        power = {0: 1}  # 0 packs the exponent 0
        full = None  # the full echelon (N, pivots) of the last level, once climbed
        if not graded:
            cut = _FIRST_CUT
            classed = all(len({classes.of(pk.unpack(m)) for m in g}) == 1 for g in gens)
            if classed:  # level 0's class echelon; f^0 = 1 is not tested
                pivots = {}
                _class_level(pivots, class_rows(gens, 0, cut), power, cut << pk.pbits)
                kept = []  # the N_b of each level, for a full climb
            else:
                full = _local_echelon(ideal)
        for k in range(1, max_level + 1):
            try:
                if graded:
                    top = k * deg_f // min(ws)  # the largest exponent of a row of degree D_k
                elif full is None:
                    cut += ord_f
                    top = cut  # every row of the class route is cut below it
                else:
                    top = 0  # ``full_step`` bounds its own rows
                if max(k * top_f + top_g, top) >= EXPONENT_LIMIT:
                    raise _overflow()
                power = _mul(power, big_f)
                slack = max_level - k
                nodes = [
                    (child, bw + ws[i], i, d)
                    for num, bw, start, d in nodes
                    for i in range(start, n)
                    if (not graded or d <= bw + ws[i] + slack * reach[i])
                    and (child := _derive(num, i, k - 1, big_f, partials[i], pk))
                ]
                nums = [num for num, *_ in nodes]
                if graded:
                    pivots = {}
                    for num, bw, _, d in nodes:
                        _add_rows(pivots, num, bw - d, ws, pk, shifts)
                    left = _pivot_reduce(dict(power), pivots)
                elif full is None:
                    kept.append(nums)
                    bound = cut << pk.pbits
                    pivots = lift(pivots, bound)
                    left = _class_level(pivots, class_rows(nums, k, cut), power, bound)
                    if left is None:  # no refutation in the class: climb in full
                        full = _local_echelon(ideal)
                        for level in kept:
                            full = full_step(level, full)
                        kept.clear()
                        left = _echelon_head(power, full, pk)
                else:
                    full = full_step(nums, full)
                    left = _echelon_head(power, full, pk)
            except ExponentOverflow as err:
                raise ExponentOverflow(f"equality level {k}: {err}") from err
            yield left is None

    return climb()


class _Classes:
    """The classes of exponents modulo the lattice L of the differences of f's exponents.

    L gets an integer echelon (Hermite) basis: rows h, each with a
    positive pivot h[p] and zeros left of it, the pivot columns
    increasing.  Reducing u by each row in turn at its pivot column, so
    that 0 <= u[p] < h[p], leaves one representative per coset: two
    reduced u, v of one coset differ by sum c_h * h, and the first pivot
    column forces the first c_h to 0, and so on.  No Smith form is needed.
    The monomials, packed by ``pk``, are listed by class degree by degree:
    x^e * x_i for i at or after the last variable of x^e reaches each
    monomial once, and its class is that of [x^e] + e_i.
    """

    def __init__(self, exponents: list[Exponent], pk: _Packing):
        base = exponents[0]
        rows = [[a - b for a, b in zip(e, base)] for e in exponents[1:]]
        self._basis = []
        for col in range(len(base)):
            live = [r for r in rows if r[col]]
            while len(live) > 1:
                piv = min(live, key=lambda r: abs(r[col]))
                rows = [
                    r if r is piv or not r[col] else [a - r[col] // piv[col] * b for a, b in zip(r, piv)]
                    for r in rows
                ]
                live = [r for r in rows if r[col]]
            if live:
                piv = live[0]
                rows = [r for r in rows if r is not piv]
                self._basis.append((col, piv if piv[col] > 0 else [-a for a in piv]))
        self._pk = pk
        zero = self.of((0,) * len(base))
        # the packed monomials below degree _filled by class, ascending in degree;
        # (monomial, class, last variable) of those of degree _filled - 1
        self._listed = {zero: [0]}  # 0 packs the exponent 0
        self._frontier = [(0, zero, 0)]
        self._filled = 1
        self._moves: dict[tuple, Exponent] = {}

    def of(self, u: Exponent) -> Exponent:
        """The representative of the class of u."""
        for p, h in self._basis:
            q = u[p] // h[p]
            if q:
                u = tuple(a - q * b for a, b in zip(u, h))
        return tuple(u)

    def monomials(self, cls: Exponent, cut: int) -> list[int]:
        """The packed monomials of class ``cls``, at least those below degree ``cut``, by degree."""
        units = self._pk.units
        while self._filled < cut:
            frontier = []
            for m, c, last in self._frontier:
                for i in range(last, len(units)):
                    moved = self._moves.get((c, i))
                    if moved is None:
                        moved = self._moves[c, i] = self.of(c[:i] + (c[i] + 1,) + c[i + 1 :])
                    frontier.append((m + units[i], moved, i))
                    self._listed.setdefault(moved, []).append(m + units[i])
            self._frontier = frontier
            self._filled += 1
        return self._listed.get(cls, [])


def _class_level(pivots: dict, rows: Iterator[dict], power: dict, bound: int) -> tuple | None:
    """Reduce ``rows`` into the class echelon ``pivots``, then F^k cut below ``bound``.

    Returns the ``_pivot_reduce`` head of F^k, None when it reduces to
    zero.  All packed by the grlex packing, cut below the packed ``bound``.
    The rows go in by descending least monomial, which on the frontier
    germs ran faster than ascending or by length.
    """
    for row in sorted(rows, key=min, reverse=True):
        head = _pivot_reduce(row, pivots)
        if head is not None:
            pivots[head[0]] = head[1:]
    return _pivot_reduce({m: c for m, c in power.items() if m < bound}, pivots)


def _integer_form(f: Polynomial) -> tuple[_Packing, dict, list[dict]]:
    """F = c*f with integer coefficients, packed by grlex, and its partials."""
    pk = _packing(f.ring.arity, GRLEX)
    big_f = pk.pack_poly(clear_denominators(f)[0])
    return pk, big_f, [pk.partial(big_f, i) for i in range(f.ring.arity)]


def euler_check(f: Polynomial, weights: WeightSystem) -> bool:
    """Whether sum_i w_i x_i df/dx_i equals f exactly.

    Checked on integers: with f = F / c and W = L*w the weights scaled by
    their common denominator, the identity reads
    sum_i W_i x_i dF/dx_i = L*F on F packed.
    """
    if weights.arity != f.ring.arity:
        raise ValueError("weight system arity does not match the ring")
    pk, big_f, partials = _integer_form(f)
    ws, scale = integer_weights(weights)
    total: dict[int, int] = {}
    for w, unit, df in zip(ws, pk.units, partials):
        for m, v in df.items():
            t = m + unit
            total[t] = total.get(t, 0) + w * v
    return {m: v for m, v in total.items() if v} == {m: scale * v for m, v in big_f.items()}


@dataclass(frozen=True)
class DescentStep:
    """One certified rewriting of x^u / f^(k+1) through first partials.

    The step asserts x^u / f^(k+1) = scale * sum_i w_i d_i (x^(u+e_i) / f^(k+1))
    with scale = 1 / (rho(u) - (k+1)); ``DescentChain.replay`` re-derives
    both sides exactly.
    """

    u: Exponent
    level: int
    scale: Fraction
    weights: WeightSystem

    def inputs(self) -> tuple[Exponent, ...]:
        """The exponents u + e_i whose sections the rewriting consumes."""
        n = len(self.u)
        return tuple(
            tuple(self.u[j] + (1 if j == i else 0) for j in range(n))
            for i in range(n)
        )

    def _holds(self, pk: _Packing, big_f: dict, partials: list[dict]) -> bool:
        """Whether the step's identity holds, re-derived on integer numerators.

        Reads f = F / c in the packed integer form of ``_integer_form``.
        Both sides times f^(k+2) / c^(k+1) are polynomials:
        d_i (x^(u+e_i) / F^(k+1)) = ((u_i+1) x^u F - (k+1) x^(u+e_i) d_iF) / F^(k+2),
        so the identity reads
        scale * sum_i w_i ((u_i+1) x^u F - (k+1) x^(u+e_i) d_iF) = x^u F.
        Both sides are built on F packed, the coefficients scale * w_i
        brought to one denominator, and compared term by term.  Multiplying
        by the nonzero f^(k+2) / c^(k+1) is injective, so this is the
        identity of the sections.
        """
        n = len(partials)
        if len(self.u) != n or min(self.u) < 0:
            raise ValueError(f"bad exponent {self.u}")
        coeffs = [self.scale * w for w in self.weights]
        if len(coeffs) != n:
            raise ValueError("weight system arity does not match the ring")
        den = math.lcm(*(a.denominator for a in coeffs))
        x_u = pk.pack(self.u)
        pole = self.level + 1
        lhs: dict[int, int] = {}
        for i, a in enumerate(coeffs):
            a = a.numerator * (den // a.denominator)
            for shift, q, p in (
                (x_u, a * (self.u[i] + 1), big_f),
                (x_u + pk.units[i], -a * pole, partials[i]),
            ):
                for m, v in p.items():
                    t = m + shift
                    lhs[t] = lhs.get(t, 0) + q * v
        rhs = {x_u + m: den * v for m, v in big_f.items()}
        return {m: v for m, v in lhs.items() if v} == rhs

    def to_dict(self) -> dict:
        return {
            "u": list(self.u),
            "scale": str(self.scale),
            "operator": [
                {"variable_index": i, "coefficient": str(self.scale * w)}
                for i, w in enumerate(self.weights)
            ],
            "verified": True,
        }


@dataclass(frozen=True)
class DescentChain:
    """All rewriting steps at a fixed level, ordered for induction.

    Steps are listed in decreasing total degree of u, so every section a
    step consumes is either a base-case monomial (rho >= k + 1) or the
    target of an earlier step.
    """

    f: Polynomial
    weights: WeightSystem
    level: int
    steps: tuple[DescentStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self) -> bool:
        """Whether every step replays on f, whose integer form is built once."""
        form = _integer_form(self.f)
        return all(step._holds(*form) for step in self.steps)

    def to_dict(self) -> dict:
        return {
            "f": str(self.f),
            "weights": [str(w) for w in self.weights],
            "level": self.level,
            "steps": [step.to_dict() for step in self.steps],
        }


def generation_descent(f: Polynomial, weights: WeightSystem, k: int = 0) -> DescentChain:
    """Certified chain rewriting every x^u / f^(k+1) with rho(u) < k + 1.

    Exhausting these targets expresses 1 / f^(k+1) (and every section below
    the threshold) through first partials of sections at or above it.  With
    W = L*w the weights scaled by their common denominator L,
    rho(u) < k + 1 exactly when sum_i u_i W_i < (k + 1) L - sum_i W_i, so
    the targets are the exponents of each integer weighted degree below
    that bar, and every step's scale 1 / (rho(u) - (k + 1)) is defined.
    The Euler identity is checked once, and the chain is replayed once, as
    a whole, before it is returned: each step counts only after its
    identity is re-derived.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    if not euler_check(f, weights):
        raise ValueError("weights do not satisfy the Euler identity for f")
    ws, scale = integer_weights(weights)
    bar = (k + 1) * scale - sum(ws)
    targets = [u for d in range(bar) for u in _exponents_of_degree(ws, d)]
    targets.sort(key=lambda u: (-sum(u), u))
    steps = tuple(DescentStep(u, k, 1 / (weights.rho(u) - (k + 1)), weights) for u in targets)
    chain = DescentChain(f=f, weights=weights, level=k, steps=steps)
    if not chain.replay():
        raise AssertionError("descent chain failed its replay")
    return chain
