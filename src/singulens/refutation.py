"""A checker for refutations of local membership by a linear functional.

A rational functional lam on the polynomials of degree below T, given by
its values on finitely many monomials, refutes p in I + m^T when it kills
every row x^a * g (g a generator of I, a any exponent) and lam(p) != 0: it
then kills I and m^T, but not p.  The same lam refutes p in I*O_0, the
localization at the origin, with no further premise: p in I*O_0 means
u*p in I for some u with u(0) != 0, and u is invertible modulo m^T, so p
lies in I + m^T.

Only the rows that meet supp lam can be nonzero under lam, and x^a * g
meets it exactly when a = u - e for some u in supp lam and e in supp g, so
``refutes`` evaluates lam on those rows alone.  Nothing here needs a
Groebner basis or the echelon that produced lam: the check uses only the
standard library.
"""

from __future__ import annotations

from numbers import Rational
from operator import add, sub

__all__ = ["refutes"]


def refutes(generators, p, lam, degree: int) -> bool:
    """Whether ``lam`` certifies p outside (generators) + m^degree, hence outside I*O_0.

    ``generators`` and ``p`` are polynomials given by their ``items()``,
    (exponent tuple, rational coefficient) pairs, as a ``Polynomial`` or a
    dict gives them; ``lam`` maps exponent tuples to rationals.  True when
    every exponent in ``lam`` has the same length as those of p and the
    generators, has degree below ``degree``, lam(p) != 0, and lam(x^a * g)
    == 0 for every generator g and every shift a that meets supp lam.
    """
    if not lam or any(not isinstance(v, Rational) for v in lam.values()):
        return False
    arity = len(next(iter(lam)))
    target = list(p.items())
    gens = [list(g.items()) for g in generators]
    if any(len(e) != arity for e in lam) or any(
        len(e) != arity for poly in (target, *gens) for e, _ in poly
    ):
        return False
    if any(sum(u) >= degree for u in lam):
        return False
    if _apply(lam, (0,) * arity, target) == 0:
        return False
    for g in gens:
        for a in {tuple(map(sub, u, e)) for u in lam for e, _ in g}:
            if min(a) >= 0 and _apply(lam, a, g) != 0:
                return False
    return True


def _apply(lam, a, poly) -> Rational:
    """lam(x^a * poly), summed over the terms that land in supp lam."""
    total = 0
    for e, c in poly:
        v = lam.get(tuple(map(add, a, e)))
        if v is not None:
            total += c * v
    return total
