"""Answers for the benchmark's germs, computed without the library.

Everything here works on exponent supports and exact fractions, so that a
wrong answer from the library cannot also be the expected answer:

* weights of a weighted homogeneous germ, by Gaussian elimination on
  <u, w> = 1 over the support;
* the Milnor number of an isolated weighted homogeneous germ, by the
  Milnor-Orlik product prod(1/w_i - 1);
* the genus of such a germ, by counting lattice points u >= 0 with
  sum_i (u_i + 1) w_i = 1;
* the report checks: corpus annotations field by field, Saito's
  criterion (qh exactly when tau = mu), tau <= mu, and the witness facts.

A check returns the list of mismatches it found; an empty list passes.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

Exponent = tuple[int, ...]


def solve_weights(support: list[Exponent]) -> tuple[Fraction, ...] | None:
    """The unique positive w with <u, w> = 1 for every u in the support.

    Returns None when the system is inconsistent, underdetermined, or its
    solution has a nonpositive entry.
    """
    n = len(support[0])
    rows = [[Fraction(e) for e in u] + [Fraction(1)] for u in support]
    pivots = []
    r = 0
    for c in range(n):
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                k = rows[i][c]
                rows[i] = [a - k * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(not any(row[:n]) and row[n] for row in rows):
        return None
    if len(pivots) < n:
        return None
    w = tuple(rows[i][n] for i in range(n))
    return w if all(x > 0 for x in w) else None


def milnor_orlik(weights: tuple[Fraction, ...]) -> int:
    """prod_i (1/w_i - 1), the Milnor number of an isolated qh germ."""
    mu = prod(1 / w - 1 for w in weights)
    if mu.denominator != 1:
        raise ValueError(f"weights {weights} give a non-integral Milnor number")
    return int(mu)


def lattice_genus(weights: tuple[Fraction, ...]) -> int:
    """#{u >= 0 : sum_i (u_i + 1) w_i = 1}."""

    def count(i: int, left: Fraction) -> int:
        if i == len(weights):
            return 1 if left == 0 else 0
        total = 0
        u = 0
        while (u + 1) * weights[i] <= left:
            total += count(i + 1, left - (u + 1) * weights[i])
            u += 1
        return total

    return count(0, Fraction(1))


def weighted_degree(u: Exponent, weights: tuple[Fraction, ...]) -> Fraction:
    return sum((e * w for e, w in zip(u, weights)), Fraction(0))


# ---------------------------------------------------------------------------
# report checks; ``r`` is an AnalysisReport, read only through its fields


def _num(v) -> str:
    if v is None:
        return "none"
    return "infinite" if v == float("inf") else str(int(v))


def _flag(v) -> str:
    return "none" if v is None else ("true" if v else "false")


def report_fields(r) -> dict[str, str]:
    """The corpus annotation fields of a report, rendered as text."""
    eq = r.equality
    if eq is None:
        level = "none"
    elif eq.status == "proven_at_level":
        level = str(eq.level)
    elif eq.status == "proven_by_descent":
        level = "descent"
    else:
        level = "unknown"
    cls = r.singularity_class
    return {
        "mu": _num(r.mu),
        "tau": _num(r.tau),
        "qh": _flag(None if r.qh is None else r.qh.quasi_homogeneous),
        "class": "none" if cls is None else cls.tag,
        "g": "none" if r.genus is None else str(r.genus.g),
        "lc": _flag(None if r.genus is None else r.genus.log_canonical),
        "bound": "none" if r.bound is None else str(r.bound),
        "level": level,
        "refuted1": _flag(None if eq is None else eq.refuted_at_level_one),
    }


def check_annotations(r, expected: dict[str, str]) -> list[str]:
    """Every annotated field except the name must match the report."""
    got = report_fields(r)
    out = []
    for key, want in expected.items():
        if key == "name":
            continue
        if key not in got:
            out.append(f"unknown annotation {key}")
        elif got[key] != want:
            out.append(f"{key}: expected {want}, got {got[key]}")
    return out


def check_weighted(r, weights: tuple[Fraction, ...]) -> list[str]:
    """An isolated weighted homogeneous germ with equality proven."""
    mu = milnor_orlik(weights)
    g = lattice_genus(weights)
    got = report_fields(r)
    out = []
    for key, want in (
        ("mu", str(mu)), ("tau", str(mu)), ("qh", "true"),
        ("g", str(g)), ("bound", str(g + 2)),
    ):
        if got[key] != want:
            out.append(f"{key}: expected {want}, got {got[key]}")
    if got["level"] not in ("0", "1", "2", "3", "descent"):
        out.append(f"equality not proven: {got['level']}")
    return out


def check_sqh(r, principal_weights: tuple[Fraction, ...]) -> list[str]:
    """An isolated semi-quasi-homogeneous germ: mu from its principal part."""
    mu = milnor_orlik(principal_weights)
    got = report_fields(r)
    out = []
    if got["mu"] != str(mu):
        out.append(f"mu: expected {mu}, got {got['mu']}")
    if got["tau"] in ("none", "infinite") or int(got["tau"]) > mu:
        out.append(f"tau: expected at most {mu}, got {got['tau']}")
    elif got["qh"] != _flag(int(got["tau"]) == mu):
        out.append(f"Saito: qh={got['qh']} but tau={got['tau']}, mu={mu}")
    return out


def check_non_isolated(r) -> list[str]:
    mu = _num(r.mu)
    return [] if mu == "infinite" else [f"mu: expected infinite, got {mu}"]


WITNESS_FACTS = {"mu": "27", "tau": "25", "qh": "false", "g": "3", "bound": "5"}


def check_witness_suite(r) -> list[str]:
    """All seven certificates pass and the strict inequality is concluded."""
    out = []
    names = sorted(c.name for c in r.certificates)
    if names != [f"C{i}" for i in range(1, 8)]:
        out.append(f"certificates: expected C1..C7, got {names}")
    failed = [c.name for c in r.certificates if not c.verdict]
    if failed:
        out.append(f"certificates failed: {failed}")
    if r.strict is not True:
        out.append(f"strict: expected true, got {r.strict}")
    got = report_fields(r)
    for key, want in WITNESS_FACTS.items():
        if got[key] != want:
            out.append(f"{key}: expected {want}, got {got[key]}")
    return out
