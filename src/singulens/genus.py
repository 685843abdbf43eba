"""Reduced genus of an isolated hypersurface singularity, two ways.

For a point whose tangent cone is smooth (an ordinary point of
multiplicity d in n variables), a single blowup resolves and the
multiplier-style ideal and its adjoint companion are the powers m^(d-n)
and m^(d-n+1) of the maximal ideal, clamped at 0.  For a weighted
homogeneous polynomial the two ideals are spanned by the monomials x^u
with rho(u) >= 1 and rho(u) > 1, where rho(u) = sum_i (u_i + 1) w_i.  In
both cases the reduced genus is the vector-space dimension of the
quotient, and the singularity is log canonical exactly when the first
ideal is the whole ring.

When a germ admits both descriptions the two computations are run and
must agree; a mismatch raises instead of picking a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from .ideals import (
    INFINITE,
    Ideal,
    _exponents_of_degree,
    maximal_ideal_power,
    quotient_dimension,
)
from .invariants import Germ, WeightSystem, _stage_colength, as_germ
from .polyring import Polynomial, RingContext, exponent_box, integer_weights
from .sections import euler_check

__all__ = [
    "GenusResult",
    "SingularityClass",
    "classify",
    "compute_genus",
    "genus_ordinary",
    "genus_weighted",
]

ORDINARY_EXTRAPOLATION_NOTE = (
    "multiplicity is not ambient dimension plus one; "
    "single-blowup formula applied beyond its stated case"
)


@dataclass(frozen=True)
class SingularityClass:
    """Which genus routes apply to a germ: ordinary, weighted, both, or neither."""

    ordinary_multiplicity: int | None
    weights: WeightSystem | None

    @property
    def is_ordinary(self) -> bool:
        return self.ordinary_multiplicity is not None

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def tag(self) -> str:
        if self.is_ordinary and self.is_weighted:
            return "ordinary+weighted"
        if self.is_ordinary:
            return "ordinary"
        if self.is_weighted:
            return "weighted"
        return "unclassified"

    def to_dict(self) -> dict:
        return {
            "tag": self.tag,
            "ordinary_multiplicity": self.ordinary_multiplicity,
            "weights": None if self.weights is None else [str(w) for w in self.weights],
        }


def classify(f: Polynomial | Germ) -> SingularityClass:
    """Detect the ordinary and weighted homogeneous descriptions of the germ.

    Requires an isolated singular point at the origin, decided by the
    Tjurina number.  The ordinary test
    asks whether the Jacobian ideal of the tangent cone is primary for the
    maximal ideal (a smooth projective tangent cone); the weighted test
    searches for exact positive weights.
    """
    germ = as_germ(f)
    if reason := germ.no_singularity():
        raise ValueError(reason)
    tau = _stage_colength("classify", "Tjurina ideal", germ.tjurina, germ, germ.weights)
    if tau == INFINITE:
        raise ValueError("non-isolated singularity")
    ordinary = germ.cone.jacobian.is_m_primary()
    weights = germ.weights
    if weights is not None and not euler_check(germ.f, weights):
        raise AssertionError("weight search returned weights failing the Euler identity")
    return SingularityClass(germ.cone.f.total_degree() if ordinary else None, weights)


def _minimal_monomials(
    ring: RingContext, weights: WeightSystem, bars: tuple[int, ...]
) -> list[list[Polynomial]]:
    """For each integer bar T, the minimal monomials x^u with S(u) >= T, in lex order.

    With W = L*w the weights scaled by their common denominator L
    (``integer_weights``), S(u) = sum_i (u_i + 1) W_i is the integer
    L*rho(u), so rho(u) >= t exactly when S(u) >= ceil(L*t), and
    rho(u) > t exactly when S(u) >= floor(L*t) + 1.  The qualifying set is
    upward closed, since S increases in every coordinate, and its minimal
    monomials generate it.

    Since S(u - e_i) = S(u) - W_i, a qualifying u is minimal exactly when
    S(u) - W_i < T for every i with u_i > 0.  So a minimal u other than 0
    has sum_i u_i W_i below B = max(bars) + max(W) - sum(W), and so has its
    head (u_1, ..., u_(n-1)).  One lex sweep of the box of heads with
    u_i W_i < B finds the generators of every bar: for each head and bar
    the last exponent u_n is solved for, the least one with S(u) >= T, and
    u is kept when removing any x_i of the head drops S below T.  Each head
    gives at most one u per bar, so the generators come in lex order.
    """
    ws = integer_weights(weights)[0]
    *head, last = ws
    base = sum(ws)
    budget = max(max(bars) + max(ws) - base, 1)
    out: list[list[Polynomial]] = [[] for _ in bars]
    for u in exponent_box([(budget - 1) // w + 1 for w in head]):
        partial = base + sum(map(mul, u, head))
        for gens, bar in zip(out, bars):
            top = max(0, -((partial - bar) // last))
            s = partial + top * last
            if not any(e and s - w >= bar for e, w in zip(u, head)):
                gens.append(Polynomial.monomial(ring, (*u, top)))
    return out


@dataclass(frozen=True)
class GenusResult:
    """Reduced genus with the two ideals it is the quotient dimension of."""

    g: int
    multiplier: Ideal
    adjoint: Ideal
    log_canonical: bool
    provenance: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """The ``genus`` block of the JSON reports."""
        return {
            "g": self.g,
            "i0": [str(p) for p in self.multiplier.generators],
            "adj": [str(p) for p in self.adjoint.generators],
            "log_canonical": self.log_canonical,
            "provenance": self.provenance,
        }


def genus_ordinary(f: Polynomial | Germ) -> GenusResult:
    """Reduced genus of an ordinary point via the single-blowup ideals."""
    cone = as_germ(f).cone
    ring = cone.f.ring
    n = ring.arity
    d = cone.f.total_degree()
    if not cone.jacobian.is_m_primary():
        raise ValueError("tangent cone is not smooth; ordinary route does not apply")
    multiplier = maximal_ideal_power(ring, max(d - n, 0))
    adjoint = maximal_ideal_power(ring, max(d - n + 1, 0))
    g = quotient_dimension(multiplier, adjoint)
    if g != math.comb(d - 1, n - 1):
        raise AssertionError("quotient dimension disagrees with the closed form")
    notes = () if d == n + 1 else (ORDINARY_EXTRAPOLATION_NOTE,)
    return GenusResult(
        g=g,
        multiplier=multiplier,
        adjoint=adjoint,
        log_canonical=d <= n,
        provenance="ordinary",
        notes=notes,
    )


def genus_weighted(f: Polynomial | Germ) -> GenusResult:
    """Reduced genus of a weighted homogeneous germ via rho thresholds.

    The thresholds use the germ's weights (``Germ.weights``), which give
    every term of f weight 1, so they satisfy the Euler identity.
    """
    germ = as_germ(f)
    ring = germ.f.ring
    weights = germ.weights
    if weights is None:
        raise ValueError("no weight system found; weighted route does not apply")
    # rho(u) >= 1 and rho(u) > 1 are S(u) >= L and S(u) >= L + 1
    scale = integer_weights(weights)[1]
    i0, adj = _minimal_monomials(ring, weights, (scale, scale + 1))
    multiplier, adjoint = Ideal(ring, i0), Ideal(ring, adj)
    g = quotient_dimension(multiplier, adjoint)
    lattice = _count_rho_equal_one(weights)
    if g != lattice:
        raise AssertionError("quotient dimension disagrees with the lattice count")
    return GenusResult(
        g=g,
        multiplier=multiplier,
        adjoint=adjoint,
        log_canonical=weights.rho(ring.zero_exponent()) >= 1,
        provenance="weighted",
        notes=(),
    )


def _count_rho_equal_one(weights: WeightSystem) -> int:
    """#{u : rho(u) = 1}, counted as #{u : u.W = L - sum(W)} on the integer weights."""
    ws, scale = integer_weights(weights)
    return sum(1 for _ in _exponents_of_degree(ws, scale - sum(ws)))


def compute_genus(f: Polynomial | Germ) -> GenusResult | None:
    """Reduced genus by every applicable route, demanding agreement.

    The routes are those ``classify`` finds on the germ, whose ideals,
    weights and tangent cone are cached, so a germ classified before
    costs one Euler check more.  Returns None when neither the ordinary
    nor the weighted description applies.  When both apply, the results
    must agree in genus, log canonicity, and both ideals.
    """
    germ = as_germ(f)
    cls = classify(germ)
    ordinary = genus_ordinary(germ) if cls.is_ordinary else None
    weighted = genus_weighted(germ) if cls.is_weighted else None
    if ordinary is not None and weighted is not None:
        pairs = ((ordinary.multiplier, weighted.multiplier), (ordinary.adjoint, weighted.adjoint))
        same_ideals = all(a == b or (a.contains_ideal(b) and b.contains_ideal(a)) for a, b in pairs)
        if (
            ordinary.g != weighted.g
            or ordinary.log_canonical != weighted.log_canonical
            or not same_ideals
        ):
            raise RuntimeError(
                "ordinary and weighted genus computations disagree: "
                f"g {ordinary.g} vs {weighted.g}, "
                f"log canonical {ordinary.log_canonical} vs {weighted.log_canonical}, "
                f"ideals equal: {same_ideals}"
            )
        return GenusResult(
            g=ordinary.g,
            multiplier=ordinary.multiplier,
            adjoint=ordinary.adjoint,
            log_canonical=ordinary.log_canonical,
            provenance="ordinary+weighted",
            notes=ordinary.notes + weighted.notes,
        )
    return ordinary if ordinary is not None else weighted
