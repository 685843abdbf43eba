"""Numerical invariants of a hypersurface singularity at the origin.

Milnor and Tjurina numbers are colengths at the origin of the Jacobian
ideal and of (f) plus the Jacobian ideal.  Quasi-homogeneity is decided by
the membership criterion of K. Saito: f lies in its Jacobian ideal locally
exactly when f is quasi-homogeneous in suitable coordinates.  In the
given coordinates a positive rational weight vector is searched for
exactly; one that is found proves the membership by the Euler identity,
so that the Tjurina ideal is then the Jacobian ideal.  A two-part
decomposition f = g + h into consecutive homogeneous pieces with h
outside the Jacobian ideal of g certifies the negative case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .ideals import INFINITE, DegreeCapExceeded, ExponentOverflow, Ideal, local_colength
from .polyring import Exponent, Polynomial, integer_weights

__all__ = [
    "Germ",
    "QHVerdict",
    "WeightSystem",
    "find_weights",
    "is_quasi_homogeneous",
    "jacobian_ideal",
    "milnor_number",
    "tjurina_number",
    "sqh_obstruction",
]


@dataclass(frozen=True)
class WeightSystem:
    """Positive rational weights, one per ring variable.

    ``integers`` is their integer form (W, L), W = L*w with L the lcm of
    the denominators, computed once; ``integer_weights`` returns it.
    """

    weights: tuple[Fraction, ...]
    integers: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("empty weight system")
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "integers", integer_weights(ws))

    @property
    def arity(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def rho(self, u: Exponent) -> Fraction:
        """The shifted weight sum (u_1+1)w_1 + ... + (u_n+1)w_n."""
        if len(u) != len(self.weights):
            raise ValueError("exponent arity does not match the weight system")
        return sum((e + 1) * w for e, w in zip(u, self.weights))

    def __str__(self) -> str:
        return "(" + ", ".join(str(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class QHVerdict:
    """Outcome of the quasi-homogeneity test.

    ``witness`` carries weights making f weighted homogeneous in the given
    coordinates when such weights exist; ``obstruction`` carries the
    higher homogeneous piece h of a certified f = g + h decomposition
    proving the negative verdict.
    """

    quasi_homogeneous: bool
    witness: WeightSystem | None = None
    obstruction: Polynomial | None = None

    def to_dict(self) -> dict:
        """The ``qh`` block of the JSON reports."""
        return {
            "quasi_homogeneous": self.quasi_homogeneous,
            "witness_weights": (
                None if self.witness is None else [str(w) for w in self.witness]
            ),
            "obstruction": None if self.obstruction is None else str(self.obstruction),
        }


def jacobian_ideal(f: Polynomial) -> Ideal:
    """The ideal of all first partial derivatives of f."""
    return Ideal(f.ring, [f.partial_derivative(i) for i in range(f.ring.arity)])


class Germ:
    """f at the origin, with its Jacobian and Tjurina ideals, each built once.

    Their bases and local echelon forms fill lazily and are shared by every
    stage handed this germ; the weights, the Tjurina ideal and the tangent
    cone (a germ) come on first use.  Every colength of the germ's ideals
    is exact: INFINITE when the origin is not isolated in the ideal's zero
    locus (see ``local_colength``).  ``degree_cap`` is an optional guard,
    off by default: a local echelon search on an isolated ideal whose
    Nakayama exponent passes it raises ``DegreeCapExceeded``.
    """

    def __init__(self, f: Polynomial, degree_cap: int | None = None):
        self.f = f
        self.degree_cap = degree_cap
        self.jacobian = jacobian_ideal(f)

    @cached_property
    def weights(self) -> WeightSystem | None:
        return find_weights(self.f)

    @cached_property
    def tjurina(self) -> Ideal:
        """(f) + the Jacobian ideal: the Jacobian ideal itself when f has weights.

        Weights give every term of f weight 1, so the Euler identity
        f = sum_i w_i x_i df/dx_i puts f in its Jacobian ideal.
        """
        if self.weights is not None:
            return self.jacobian
        return Ideal(self.f.ring, (self.f, *self.jacobian.generators))

    @cached_property
    def cone(self) -> Germ:
        """The tangent cone: the lowest homogeneous part of f, of degree mult(f)."""
        parts = self.f.homogeneous_components()
        return self if len(parts) == 1 else Germ(parts[min(parts)])

    def no_singularity(self) -> str | None:
        """Why the origin is not a singular point of f = 0, or None when it is."""
        if self.f.is_zero() or self.f.constant_term:
            return "no singularity: polynomial does not vanish at the origin"
        if any(g.constant_term for g in self.jacobian.generators):
            return "no singularity: origin is a smooth point"
        return None


def as_germ(f: Polynomial | Germ) -> Germ:
    """f itself when it is a germ, else a fresh germ of the polynomial f."""
    return f if isinstance(f, Germ) else Germ(f)


def _warned_germ(f: Polynomial | Germ) -> Germ:
    germ = as_germ(f)
    if germ.f.constant_term:
        warnings.warn("polynomial does not vanish at the origin", stacklevel=3)
    return germ


def _stage_colength(stage: str, name: str, ideal: Ideal, germ: Germ, weights):
    """``local_colength`` under the germ's guard; a refusal names the stage and the ideal."""
    try:
        return local_colength(ideal, germ.degree_cap, weights)
    except (DegreeCapExceeded, ExponentOverflow) as err:
        count = len(ideal.generators)
        raise type(err)(f"{stage} on the {name} ({count} generators): {err}") from err


def milnor_number(f: Polynomial | Germ):
    """Colength of the Jacobian ideal at the origin; INFINITE if non-isolated."""
    germ = _warned_germ(f)
    return _stage_colength("milnor_number", "Jacobian ideal", germ.jacobian, germ, germ.weights)


def tjurina_number(f: Polynomial | Germ):
    """Colength of (f) + Jacobian ideal at the origin; INFINITE if non-isolated."""
    germ = _warned_germ(f)
    return _stage_colength("tjurina_number", "Tjurina ideal", germ.tjurina, germ, germ.weights)


def is_quasi_homogeneous(f: Polynomial | Germ) -> QHVerdict:
    """Decide whether f is quasi-homogeneous as a germ at the origin.

    The verdict is the local membership of f in its Jacobian ideal, after
    the Milnor number, taken on the same ideal, is checked finite.  A germ
    with weights is quasi-homogeneous by the Euler identity
    f = sum_i w_i x_i df/dx_i, as its weights give every term of f weight 1.
    Only a germ without weights asks ``Ideal.local_member``; when the
    Milnor number took the local echelon form, the form stays cached on the
    ideal and answers.  The weights are attached as the witness, and a
    homogeneous two-piece obstruction certificate is attached when the
    verdict is negative and such a decomposition applies.
    """
    germ = _warned_germ(f)
    mu = _stage_colength(
        "is_quasi_homogeneous", "Jacobian ideal", germ.jacobian, germ, germ.weights
    )
    if mu == INFINITE:
        raise ValueError("non-isolated singularity")
    verdict = germ.weights is not None or germ.jacobian.local_member(germ.f)
    obstruction = None if verdict else _try_sqh_decomposition(germ)
    return QHVerdict(verdict, germ.weights, obstruction)


def _try_sqh_decomposition(germ: Germ) -> Polynomial | None:
    parts = germ.f.homogeneous_components()
    if len(parts) != 2:
        return None
    h = parts[max(parts)]
    try:
        return h if sqh_obstruction(germ.cone, h) else None
    except ValueError:
        return None


def sqh_obstruction(principal: Polynomial | Germ, perturbation: Polynomial) -> bool:
    """Whether principal + perturbation is certified not quasi-homogeneous.

    Valid when the principal part g is homogeneous of degree d >= 3 with
    an isolated critical point and the perturbation h is homogeneous of
    degree d + 1: then g + h is not quasi-homogeneous when h lies outside
    the Jacobian ideal of g.  True when it does, False when h lies inside
    (no conclusion).  Hypothesis violations raise ValueError individually.
    A germ of the principal part lends its Jacobian ideal.
    """
    cone = as_germ(principal)
    g, h = cone.f, perturbation
    if g.is_zero() or not g.is_homogeneous():
        raise ValueError("principal part must be homogeneous and nonzero")
    d = g.total_degree()
    if d < 3:
        raise ValueError("principal part must have degree at least 3")
    if h.is_zero() or not h.is_homogeneous() or h.total_degree() != d + 1:
        raise ValueError("perturbation must be homogeneous of degree one above the principal part")
    if not cone.jacobian.is_m_primary():
        raise ValueError("principal part must have an isolated critical point")
    return not cone.jacobian.member(h)


# ---------------------------------------------------------------------------
# weight detection: solve <u, w> = 1 over Q for every exponent u of f


def find_weights(f: Polynomial) -> WeightSystem | None:
    """Positive rational weights giving every term of f weight exactly 1.

    With a unique solution, positivity decides.  When the linear system is
    underdetermined, Fourier-Motzkin elimination over the free parameters
    finds a strictly positive solution when one exists.  No vertex of
    {Aw = 1, w >= 0} is one: a vertex has at least n - rank(A) > 0 zero
    coordinates (Schrijver, Theory of Linear and Integer Programming,
    section 8).
    """
    if f.is_zero():
        return None
    rows = [e for e, _ in f.items()]
    n = f.ring.arity
    sol = _solve_affine([list(r) for r in rows], [Fraction(1)] * len(rows), n)
    if sol is None:
        return None
    particular, nullspace = sol
    if not nullspace:
        return WeightSystem(tuple(particular)) if all(w > 0 for w in particular) else None
    point = _strictly_positive_point(particular, nullspace)
    return None if point is None else WeightSystem(tuple(point))


def _solve_affine(rows: list[list], rhs: list[Fraction], n: int):
    """Exact solve of rows * w = rhs: (particular, nullspace basis) or None."""
    aug = [[Fraction(v) for v in row] + [r] for row, r in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    if any(aug[i][n] for i in range(r, len(aug))):
        return None
    particular = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        particular[col] = aug[i][n]
    free = [c for c in range(n) if c not in pivots]
    nullspace = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        nullspace.append(vec)
    return particular, nullspace


def _strictly_positive_point(particular, nullspace):
    """A strictly positive point of the affine solution set, or None.

    Fourier-Motzkin elimination over the free parameters with strict
    inequalities w_i(s) > 0.
    """
    r = len(nullspace)
    n = len(particular)
    # inequality i: particular[i] + sum_j nullspace[j][i] * s_j > 0
    ineqs = [
        ([nullspace[j][i] for j in range(r)], particular[i]) for i in range(n)
    ]
    point = _fm_solve(ineqs, r)
    if point is None:
        return None
    w = [
        particular[i] + sum(nullspace[j][i] * point[j] for j in range(r))
        for i in range(n)
    ]
    if any(v <= 0 for v in w):
        raise AssertionError("elimination produced a non-positive point")
    return w


def _fm_solve(ineqs, r):
    """Point satisfying all strict inequalities coeffs . s + const > 0, or None.

    Each s_j has a lower bound at every depth: nullspace vector j has a 1
    in its own free column, where the particular solution and the other
    vectors are 0, so s_j > 0 is an inequality, and it passes unchanged
    through the elimination of the other parameters.
    """
    if r == 0:
        return [] if all(c > 0 for _, c in ineqs) else None
    lowers, uppers, passed = [], [], []
    for coeffs, const in ineqs:
        a = coeffs[r - 1]
        head = coeffs[: r - 1]
        if a > 0:
            lowers.append((a, head, const))
        elif a < 0:
            uppers.append((a, head, const))
        else:
            passed.append((head, const))
    projected = list(passed)
    for al, hl, cl in lowers:
        for au, hu, cu in uppers:
            # (-au) * (first) + al * (second) eliminates s_{r-1}
            coeffs = [(-au) * x + al * y for x, y in zip(hl, hu)]
            projected.append((coeffs, (-au) * cl + al * cu))
    inner = _fm_solve(projected, r - 1)
    if inner is None:
        return None
    low = None
    for a, head, const in lowers:
        v = -(const + sum(x * s for x, s in zip(head, inner))) / a
        low = v if low is None else max(low, v)
    high = None
    for a, head, const in uppers:
        v = -(const + sum(x * s for x, s in zip(head, inner))) / a
        high = v if high is None else min(high, v)
    if high is None:
        value = low + 1
    elif low >= high:
        return None
    else:
        value = (low + high) / 2
    return inner + [value]
