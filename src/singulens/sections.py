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
lower numerators add nothing.  Other germs climb the local echelon, where
J_k = F * J_(k-1) + (N_b : |b| = k) and each level starts from F times
the echelon form of the level below.

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


def level_ladder(f: Polynomial | Germ, ideal: Ideal, max_level: int) -> Iterator[bool]:
    """The verdicts f^k in J_k at the origin for k = 1..max_level, one level per step.

    Each verdict equals ``jk_ideal(f, I, k).local_member(f**k)``.  With
    f = F / c and N_b the uncancelled numerators of ``jk_ideal``, level k
    derives only the N_b with |b| = k, in ``jk_ideal``'s walk order, and
    multiplies the packed F^(k-1) by F.  A ``Germ`` f lends its weights,
    guard and Milnor number.  Level k raises ``ExponentOverflow``, naming
    it, where ``jk_ideal`` or the test would.  The route is decided once,
    from the germ's weights.

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

    Other germs climb the local echelon (see ``ideals``) from that of I,
    on J_k = F * J_(k-1) + (N_b : |b| = k).  F times an echelon form is
    again one, unreduced: min(F*r) = min(F) + min(r) in a linear packing,
    so distinct pivots stay distinct.  With N' the Nakayama exponent of
    level k - 1 and P' its pivot rows cut below N',
    J_(k-1) * O = span(P') + m^N', so level k is seeded with F * P': the
    stop test counts those pivots, and they are never multiplied by a
    variable, as x_i * F * P' lies in span(F * P') + F * m^N'.  The other
    rows are x^a * F with |a| = N' and the N_b with |b| = k.  There is no
    degree cap: let f be isolated and I m-primary at the origin, and
    p != 0 near it, so G(p) != 0 for some G in I and grad F(p) != 0.  If
    F(p) != 0, F^k * G does not vanish at p.  If F(p) = 0, the recurrence
    reads N_(b+e_i)(p) = -(|b| + 1) * N_b(p) * d_iF(p), so
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

    def climb() -> Iterator[bool]:
        # (N_b, b.W, first variable left to derive in, wdeg(G)) of the kept nodes
        nodes = [(g, 0, 0, d) for g, d in zip(gens, degs)]
        shifts: dict[int, list[int]] = {}
        if not graded:
            nak, pivots = _local_echelon(ideal)
        power = {0: 1}  # 0 packs the exponent 0
        for k in range(1, max_level + 1):
            try:
                # the largest exponent of a row: of degree D_k, or x^a * F with |a| = N'
                top = k * deg_f // min(ws) if graded else nak + top_f
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
                if graded:
                    pivots = {}
                    for num, bw, _, d in nodes:
                        _add_rows(pivots, num, bw - d, ws, pk, shifts)
                    left = _pivot_reduce(dict(power), pivots)
                else:
                    lifted = {}
                    for p, (lc, tail) in pivots.items():
                        row = _mul(big_f, {p: lc, **dict(tail)})
                        lifted[p + low] = (row.pop(p + low), list(row.items()))
                    rows = [num for num, *_ in nodes]
                    for a in map(pk.pack, _exponents_of_degree(ws, nak)):
                        rows.append({m + a: c for m, c in big_f.items()})
                    nak, pivots = _nakayama_echelon(rows, pk, lifted)
                    left = _echelon_head(power, (nak, pivots), pk)
            except ExponentOverflow as err:
                raise ExponentOverflow(f"equality level {k}: {err}") from err
            yield left is None

    return climb()


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
