"""The benchmark's three workloads: seeded pools of germs and their checks.

A pool is a list of items.  One op runs one item through the public API
and checks the result with the oracles in ``oracles``; a run repeats the
pool in passes (see ``run.py``).  Generation uses only ``random.Random``,
seeded from ``--seed`` (for sqh-local, see ``SQH_POOL_SEED``), so a seed
fixes every input.  All germs live in Q[x, y, z].

Why each workload and what it contains is recorded in WORKLOADS.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

VARS = ("x", "y", "z")

# A copy of the ten bundled corpus entries with their hand-written
# annotations, pinned so that the workload stays fixed when the bundled
# corpus grows.
CORPUS = """\
x^2 + y^2 + z^2 ; name=A1, mu=1, tau=1, qh=true, class=ordinary+weighted, g=0, lc=true, bound=2, level=0
x^3 + y^2 + z^2 ; name=A2, mu=2, tau=2, qh=true, class=weighted, g=0, lc=true, bound=2, level=0
x^3 + y^4 + z^2 ; name=E6, mu=6, tau=6, qh=true, class=weighted, g=0, lc=true, bound=2, level=0
x^2 + y^3 + z^5 ; name=E8, mu=8, tau=8, qh=true, class=weighted, g=0, lc=true, bound=2, level=0
x^3 + y^3 + z^3 ; name=fermat3, mu=8, tau=8, qh=true, class=ordinary+weighted, g=1, lc=true, bound=3, level=0
x^4 + y^4 + z^4 ; name=fermat4, mu=27, tau=27, qh=true, class=ordinary+weighted, g=3, lc=false, bound=5, level=1
x^5 + y^5 + z^5 ; name=fermat5, mu=64, tau=64, qh=true, class=ordinary+weighted, g=6, lc=false, bound=8, level=2
x^6 + y^6 + z^6 ; name=fermat6, mu=125, tau=125, qh=true, class=ordinary+weighted, g=10, lc=false, bound=12, level=3
x^2*y + y^3 + z^4 ; name=cusp-cone, mu=12, tau=12, qh=true, class=weighted, g=0, lc=false, bound=2, level=1
x^4 + y^4 + z^4 + x*y^2*z^2 ; name=witness, mu=27, tau=25, qh=false, class=ordinary, g=3, lc=false, bound=5, level=unknown, refuted1=true
"""

# Exponent shapes of the weighted homogeneous draws, as (family, a, b, c):
# "bp" is x^a + y^b + z^c, "chain" is x^a*y + y^b + z^c.  The shapes are
# fixed and the seed draws the sign of every term and the order of the
# pool: the cost of an op depends on its shape and variable order (a
# different variable order moves it by up to 20%), hardly on the signs, so
# every seed gives the pool the same cost profile.  Light shapes (mu <= 40)
# decide by level 2 in about 30 ms, medium ones need level 3 (0.3-0.8 s)
# and heavy ones reach generation_descent.  Medium shapes are the majority
# so that the median and the tail fall among ops long enough to average
# out the host's speed changes, which move a 30 ms op by up to 40%.
LIGHT_SHAPES = (("bp", 2, 3, 7), ("bp", 3, 4, 5), ("chain", 2, 3, 6), ("chain", 4, 3, 4))
MEDIUM_SHAPES = (
    ("bp", 3, 5, 7), ("bp", 4, 5, 6), ("bp", 4, 4, 7),
    ("chain", 3, 5, 6), ("chain", 5, 4, 4), ("chain", 4, 6, 4), ("chain", 5, 3, 5),
    ("chain", 5, 2, 6), ("chain", 5, 3, 4), ("chain", 6, 2, 5), ("chain", 6, 2, 6),
    ("chain", 6, 5, 3),
)
HEAVY_SHAPES = (("bp", 7, 7, 7), ("chain", 6, 3, 5))

SQH_ISOLATED = 28
NON_ISOLATED_FIXED = ("x*y + x^3", "x^2*y^2 + z^3 + x^5")
NON_ISOLATED_DRAWN = 2
# The sqh-local pool is drawn with this generator seed on every run, and
# the run seed only shuffles it: from one generator seed to the next the
# pool holds 1 to 8 stalls among its 28 isolated germs, each costing the
# full per-op limit, which moves ops_per_s by about 30% between seeds.
SQH_POOL_SEED = 7

WITNESS_ITEMS = 30

# Per-op limits in seconds: far above every decided op on the corpus and
# witness pools.  On the sqh-local pool the decided ops take at most about
# 0.5 s, one slow op 2.4-4.4 s and the stalls from 19 s to over 10 min;
# 2 s lies in the gap and keeps a pass short enough to run it twice.
OP_LIMIT_S = {"corpus-graded": 30.0, "sqh-local": 2.0, "witness-suite": 10.0}
SQH_DEGREE_CAP = 10


@dataclass
class Item:
    """One op: what to run, and how to check what it returned.

    ``text`` is the germ (None for the witness suite, which uses its own
    bundled germ); ``run(f, p)`` calls the library for pass ``p``, with
    ``f`` the parsed germ; ``check(report)`` returns mismatches.
    """

    label: str
    text: str | None
    run: Callable
    check: Callable
    isolated: bool = True


Term = tuple[int, tuple[int, ...]]


def render(terms: list[Term]) -> str:
    """Polynomial text in the library grammar for (coefficient, exponent) terms."""
    chunks = []
    for coeff, u in terms:
        mono = "*".join(
            v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, u) if e
        )
        mag = abs(coeff)
        body = mono if mag == 1 else f"{mag}*{mono}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)


def _shape_terms(family: str, a: int, b: int, c: int) -> list[tuple[int, ...]]:
    if family == "bp":
        return [(a, 0, 0), (0, b, 0), (0, 0, c)]
    return [(a, 1, 0), (0, b, 0), (0, 0, c)]


def _permute(u: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(u)
    for i, e in enumerate(u):
        out[perm[i]] = e
    return tuple(out)


def _coeff(rng: random.Random) -> int:
    return rng.choice((1, 1, 2, 3, -1, -2, -3))


def _analyze(**kwargs):
    def run(f, p):
        import singulens

        return singulens.analyze(f, **kwargs)

    return run


def corpus_graded(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for line in CORPUS.splitlines():
        text, _, notes = line.partition(";")
        expected = dict(kv.strip().split("=") for kv in notes.split(","))
        items.append(Item(
            f"corpus:{expected['name']}", text.strip(), _analyze(),
            lambda r, e=expected: oracles.check_annotations(r, e),
        ))
    for shape in LIGHT_SHAPES + MEDIUM_SHAPES + HEAVY_SHAPES:
        support = _shape_terms(*shape)
        w = oracles.solve_weights(support)
        text = render([(rng.choice((1, -1)), u) for u in support])
        items.append(Item(
            f"draw:{shape[0]}", text, _analyze(),
            lambda r, w=w: oracles.check_weighted(r, w),
        ))
    rng.shuffle(items)
    return items


def _sqh_germ(rng: random.Random) -> tuple[str, tuple[Fraction, ...]]:
    """Brieskorn-Pham principal part plus 1-2 terms of weighted degree in (1, 3/2]."""
    a, b, c = sorted(rng.randint(2, 5) for _ in range(3))
    perm = tuple(rng.sample(range(3), 3))
    principal = [_permute(u, perm) for u in _shape_terms("bp", a, b, c)]
    w = oracles.solve_weights(principal)
    top = [int(Fraction(3, 2) / wi) + 1 for wi in w]
    above = [
        u for u in (
            (i, j, k) for i in range(top[0]) for j in range(top[1]) for k in range(top[2])
        )
        if 1 < oracles.weighted_degree(u, w) <= Fraction(3, 2)
    ]
    extra = rng.sample(above, rng.randint(1, 2))
    terms = [(_coeff(rng), u) for u in principal + extra]
    return render(terms), w


def _non_isolated_germ(rng: random.Random) -> str:
    """A germ singular along a coordinate axis, in a seeded variable order."""
    kind = rng.randrange(3)
    if kind == 0:
        support = [(1, 1, 0), (rng.randint(3, 5), 0, 0)]
    elif kind == 1:
        support = [(2, 2, 0), (0, 0, rng.randint(3, 4)), (rng.randint(4, 6), 0, 0)]
    else:
        support = [(2, 0, 1), (0, rng.randint(3, 4), 0), (rng.randint(4, 5), 0, 0)]
    perm = tuple(rng.sample(range(3), 3))
    return render([(_coeff(rng), _permute(u, perm)) for u in support])


def sqh_local(seed: int) -> list[Item]:
    rng = random.Random(SQH_POOL_SEED)
    run = _analyze(degree_cap=SQH_DEGREE_CAP)
    items = []
    for _ in range(SQH_ISOLATED):
        text, w = _sqh_germ(rng)
        items.append(Item(
            "sqh", text, run, lambda r, w=w: oracles.check_sqh(r, w),
        ))
    texts = list(NON_ISOLATED_FIXED)
    texts += [_non_isolated_germ(rng) for _ in range(NON_ISOLATED_DRAWN)]
    for text in texts:
        items.append(Item(
            "non-isolated", text, run, oracles.check_non_isolated, isolated=False,
        ))
    random.Random(seed).shuffle(items)
    return items


def witness_suite(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(WITNESS_ITEMS):
        base = rng.randrange(2**31)

        def run(f, p, base=base):
            import singulens

            # A fresh shuffle seed on every pass.
            return singulens.counterexample_suite(seed=base + p)

        items.append(Item("witness", None, run, oracles.check_witness_suite))
    return items


WORKLOADS = {
    "corpus-graded": corpus_graded,
    "sqh-local": sqh_local,
    "witness-suite": witness_suite,
}
