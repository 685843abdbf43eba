"""End-to-end singularity analysis and the strict-inequality witness suite.

The analysis pipeline screens a polynomial for an isolated singular point,
computes its Milnor and Tjurina numbers, decides quasi-homogeneity,
classifies the germ, computes the reduced genus g, reports the length
lower bound g + 2, and attempts to certify equality levelwise or through
a weighted homogeneous descent chain.

A fixed witness polynomial, a quartic cone with one quintic perturbation,
is bundled together with seven independently checkable certificates.  The
suite evaluates every certificate from scratch; when all pass and the
level-one equality test is refuted, the reported conclusion is that the
module length strictly exceeds the bound, with the final Hodge-filtration
strictness step recorded as trusted rather than re-verified.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from dataclasses import dataclass, field, replace

from .genus import GenusResult, SingularityClass, classify, compute_genus
from .ideals import INFINITE, Ideal, _local_echelon, maximal_ideal, maximal_ideal_power
from .invariants import (
    Germ,
    QHVerdict,
    as_germ,
    is_quasi_homogeneous,
    milnor_number,
    tjurina_number,
)
from .polyring import Polynomial, RingContext, parse
from .refutation import refutes
from .sections import generation_descent, jk_ideal, level_ladder

__all__ = [
    "AnalysisReport",
    "Certificate",
    "EqualityVerdict",
    "ScreenResult",
    "analyze",
    "counterexample_certificates",
    "counterexample_polynomial",
    "counterexample_suite",
    "equality_certificate",
    "length_bound",
    "qh_verdict",
    "screen_isolated",
    "COUNTEREXAMPLE_TEXT",
]

COUNTEREXAMPLE_TEXT = "x^4 + y^4 + z^4 + x*y^2*z^2"

# citation anchors: stable names for the mathematical facts a verdict rests on
CITE_LOWER_BOUND = "length-lower-bound:genus-plus-two"
CITE_EQUALITY = "equality-criterion:unit-section-generation"
CITE_GENUS_ORDINARY = "genus:ordinary-blowup-ideals"
CITE_GENUS_WEIGHTED = "genus:weighted-rho-thresholds"
CITE_DESCENT = "euler-descent:weighted-rewriting"
CITE_SQH = "sqh-criterion:jacobian-obstruction"
CITE_SAITO = "quasi-homogeneity:jacobian-membership"
CITE_HODGE = "hodge-strictness:trusted-not-reverified"


@dataclass(frozen=True)
class ScreenResult:
    """Whether the singular point of f = 0 at the origin is isolated.

    ``isolated`` is tau < infinity: the origin is an isolated point of
    V(f, gradient f), or outside it.  ``jacobian_m_primary`` is
    mu < infinity, the same of V(gradient f).  For f(0) = 0 the two agree,
    as f is constant on each curve of critical points (Milnor's curve
    selection lemma).  Both are local: (x^2 + y^2 + z^2)*(x - 1)^2 reads
    true and true, with mu = tau = 1, though its singular locus contains
    the plane x = 1.
    """

    isolated: bool
    jacobian_m_primary: bool

    def to_dict(self) -> dict:
        return {
            "isolated": self.isolated,
            "jacobian_m_primary": self.jacobian_m_primary,
        }


def screen_isolated(f: Polynomial | Germ) -> ScreenResult:
    """Screen the origin by the exact Tjurina and Milnor numbers of the germ."""
    germ = as_germ(f)
    mu = milnor_number(germ)
    return ScreenResult(tjurina_number(germ) != INFINITE, mu != INFINITE)


def qh_verdict(germ: Germ, mu) -> QHVerdict | None:
    """``is_quasi_homogeneous`` where the reports ask it, else None.

    It is asked exactly when the Milnor number mu of the germ is finite
    and the origin is a singular point of f = 0 (``Germ.no_singularity``
    is None); ``analyze`` and the ``invariants`` command share this rule.
    """
    if mu == INFINITE or germ.no_singularity() is not None:
        return None
    return is_quasi_homogeneous(germ)


def length_bound(genus: GenusResult) -> int:
    """Lower bound g + 2 for the length of the localization module."""
    return genus.g + 2


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of the equality certification for the length bound.

    ``status`` is one of ``proven_at_level`` (f^k lies in the order-k
    numerator ideal locally for the recorded level), ``proven_by_descent``
    (a replayed weighted rewriting chain generates the unit section), or
    ``unknown_up_to`` (every level test up to the recorded level failed
    and no descent applies).
    """

    status: str
    level: int | None
    level_results: tuple[tuple[int, bool], ...]
    descent_steps: int | None = None

    @property
    def refuted_at_level_one(self) -> bool:
        """Whether the level-1 test ran and failed."""
        return any(k == 1 and not ok for k, ok in self.level_results)

    def label(self) -> str:
        if self.status == "proven_at_level":
            return f"equality proven at level {self.level}"
        if self.status == "proven_by_descent":
            return f"equality proven by descent ({self.descent_steps} steps)"
        suffix = "; level-1 test refuted" if self.refuted_at_level_one else ""
        return f"equality unknown up to level {self.level}{suffix}"

    def to_dict(self) -> dict:
        """The verdict's keys of the report's ``length`` block."""
        return {
            "equality": self.status,
            "level": self.level,
            "refuted_at_level_one": self.refuted_at_level_one,
            "level_results": [
                {"level": k, "member": ok} for k, ok in self.level_results
            ],
            "descent_steps": self.descent_steps,
        }


def equality_certificate(
    f: Polynomial | Germ, multiplier: Ideal, max_level: int = 3
) -> EqualityVerdict:
    """Try to certify that the length equals its lower bound.

    Levelwise: for k = 0..max_level test whether f^k lies, locally at the
    origin, in the order-k numerator ideal J_k of the multiplier ideal.
    The first success proves equality.  If every level fails and the germ
    has weights (``Germ.weights``, which satisfy the Euler identity by
    construction), a level-0 descent chain, replayed once as it is built,
    proves equality for the weighted homogeneous case.  Level 0 holds when
    a generator of ``jk_ideal(f, I, 0)`` is a local unit; levels
    1..max_level climb ``level_ladder``, which reads the same germ's
    weights for its grading and its Milnor number for its refusals.
    """
    if max_level < 0:
        raise ValueError("maximum level must be nonnegative")
    germ = as_germ(f)
    f = germ.f
    ok = jk_ideal(f, multiplier, 0).local_member(f.ring.one())
    results = [(0, ok)]
    if not ok and max_level:
        for k, ok in enumerate(level_ladder(germ, multiplier, max_level), 1):
            results.append((k, ok))
            if ok:
                break
    if ok:
        return EqualityVerdict("proven_at_level", len(results) - 1, tuple(results))
    if germ.weights is not None:
        # generation_descent replays the chain before it returns it
        chain = generation_descent(f, germ.weights, 0)
        return EqualityVerdict("proven_by_descent", None, tuple(results), len(chain))
    return EqualityVerdict("unknown_up_to", max_level, tuple(results))


@dataclass(frozen=True)
class Certificate:
    """One named, independently checkable claim with its verdict."""

    name: str
    statement: str
    verdict: bool
    citation: str
    details: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "verdict": self.verdict,
            "citation": self.citation,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analysis pipeline established about one polynomial."""

    input_text: str
    variables: tuple[str, ...]
    screen: ScreenResult
    mu: object
    tau: object
    qh: QHVerdict | None
    singularity_class: SingularityClass | None
    genus: GenusResult | None
    bound: int | None
    equality: EqualityVerdict | None
    certificates: tuple[Certificate, ...]
    strict: bool | None
    conclusion: str
    citations: tuple[str, ...]
    notes: tuple[str, ...]
    elapsed: float

    def to_dict(self) -> dict:
        def number(v):
            if v is None:
                return None
            return "infinite" if v == INFINITE else int(v)

        if self.equality is None:
            equality = {
                "equality": None,
                "level": None,
                "refuted_at_level_one": None,
                "level_results": [],
                "descent_steps": None,
            }
        else:
            equality = self.equality.to_dict()
        return {
            "input": self.input_text,
            "ring": {"variables": list(self.variables), "order": "grevlex"},
            "class": (
                None
                if self.singularity_class is None
                else self.singularity_class.to_dict()
            ),
            "invariants": {
                "mu": number(self.mu),
                "tau": number(self.tau),
                "qh": None if self.qh is None else self.qh.to_dict(),
            },
            "genus": None if self.genus is None else self.genus.to_dict(),
            "length": {"lower_bound": self.bound, **equality, "strict": self.strict},
            "certificates": [c.to_dict() for c in self.certificates],
            "screen": self.screen.to_dict(),
            "conclusion": self.conclusion,
            "citations": list(self.citations),
            "notes": list(self.notes),
            "elapsed_seconds": round(self.elapsed, 6),
        }

    def all_certificates_pass(self) -> bool:
        return bool(self.certificates) and all(c.verdict for c in self.certificates)


def analyze(
    f: Polynomial,
    max_level: int = 3,
    degree_cap: int | None = None,
) -> AnalysisReport:
    """Full pipeline: screen, invariants, classification, genus, bound, equality.

    Every stage runs on one ``Germ(f, degree_cap)``; the optional guard is
    off by default.
    """
    t0 = time.perf_counter()
    ring = f.ring
    notes: list[str] = []
    citations: list[str] = []
    if f.is_zero():
        raise ValueError("cannot analyze the zero polynomial")
    if f.constant_term:
        notes.append("polynomial does not vanish at the origin")

    germ = Germ(f, degree_cap)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        screen = screen_isolated(germ)
        mu = milnor_number(germ)
        tau = tjurina_number(germ)
        qh = qh_verdict(germ, mu)
        if qh is not None:
            citations.append(CITE_SAITO)
            if qh.obstruction is not None:
                citations.append(CITE_SQH)

        cls = None
        genus = None
        bound = None
        equality = None
        try:
            cls = classify(germ)
        except ValueError as err:
            notes.append(str(err))
        if cls is not None:
            if ring.arity < 3:
                notes.append(
                    "genus and length bound are stated for at least three variables; skipped"
                )
            elif cls.is_ordinary or cls.is_weighted:
                genus = compute_genus(germ)
            else:
                notes.append(
                    "germ is neither ordinary nor recognizably weighted homogeneous; "
                    "no genus route applies"
                )
        if genus is not None:
            if cls.is_ordinary:
                citations.append(CITE_GENUS_ORDINARY)
            if cls.is_weighted:
                citations.append(CITE_GENUS_WEIGHTED)
            notes.extend(genus.notes)
            bound = length_bound(genus)
            citations.append(CITE_LOWER_BOUND)
            equality = equality_certificate(germ, genus.multiplier, max_level)
            citations.append(CITE_EQUALITY)
            if equality.status == "proven_by_descent":
                citations.append(CITE_DESCENT)

    if bound is None:
        conclusion = "no length bound computed"
    elif equality is not None and equality.status in (
        "proven_at_level",
        "proven_by_descent",
    ):
        conclusion = (
            f"module length equals the lower bound {bound} ({equality.label()})"
        )
    else:
        conclusion = (
            f"module length at least {bound}; {equality.label()}"
        )
    return AnalysisReport(
        input_text=str(f),
        variables=ring.names,
        screen=screen,
        mu=mu,
        tau=tau,
        qh=qh,
        singularity_class=cls,
        genus=genus,
        bound=bound,
        equality=equality,
        certificates=(),
        strict=None,
        conclusion=conclusion,
        citations=tuple(dict.fromkeys(citations)),
        notes=tuple(dict.fromkeys(notes)),
        elapsed=time.perf_counter() - t0,
    )


def counterexample_polynomial() -> Polynomial:
    """The bundled witness polynomial, in Q[x,y,z]."""
    return parse(COUNTEREXAMPLE_TEXT, RingContext(("x", "y", "z")))


def _detail(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple((k, str(v)) for k, v in kwargs.items())


def _cert_perturbation_outside_principal_jacobian(f: Polynomial) -> Certificate:
    cone = Germ(f).cone
    rest = f - cone.f
    outside = (not rest.is_zero()) and not cone.jacobian.member(rest)
    return Certificate(
        name="C1",
        statement=(
            "the above-cone part lies outside the Jacobian ideal "
            "of the tangent cone"
        ),
        verdict=outside,
        citation=CITE_SQH,
        details=_detail(tangent_cone=cone.f, above_cone_part=rest),
    )


def _cert_not_quasi_homogeneous(f: Polynomial) -> Certificate:
    germ = Germ(f)
    # The direct test takes the other route to local membership, the ideal
    # quotient, so that it checks the echelon verdict of is_quasi_homogeneous.
    direct = not germ.jacobian._quotient_member(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            qh = is_quasi_homogeneous(germ)
            obstructed = qh.obstruction is not None and not qh.quasi_homogeneous
        except ValueError:
            obstructed = False
    return Certificate(
        name="C2",
        statement=(
            "f is not quasi-homogeneous: f lies outside its Jacobian ideal "
            "locally, and the consecutive-piece criterion certifies it"
        ),
        verdict=direct and obstructed,
        citation=CITE_SAITO,
        details=_detail(direct_nonmembership=direct, obstruction_certificate=obstructed),
    )


def _cert_ordinary_genus(f: Polynomial) -> Certificate:
    ring = f.ring
    germ = Germ(f)
    try:
        cls = classify(germ)
        genus = compute_genus(germ)
    except (ValueError, RuntimeError) as err:
        ok, details = False, _detail(error=err)
    else:
        m = maximal_ideal(ring)
        m2 = maximal_ideal_power(ring, 2)
        ok = (
            cls.ordinary_multiplicity == 4
            and genus is not None
            and genus.g == 3
            and genus.multiplier.contains_ideal(m)
            and m.contains_ideal(genus.multiplier)
            and genus.adjoint.contains_ideal(m2)
            and m2.contains_ideal(genus.adjoint)
            and not genus.log_canonical
        )
        details = _detail(
            ordinary_multiplicity=cls.ordinary_multiplicity,
            genus=None if genus is None else genus.g,
        )
    return Certificate(
        name="C3",
        statement="ordinary multiplicity-4 point with reduced genus 3",
        verdict=ok,
        citation=CITE_GENUS_ORDINARY,
        details=details,
    )


def _cert_f_plus_perturbation_in_j1(f: Polynomial) -> Certificate:
    """C4 by an explicit combination of generators of J_1, with no Groebner basis.

    For the generator G = x_i of m, ``jk_ideal`` emits N_(e_i) = F - x_i*dF/dx_i
    divided by d*c, that is f - x_i*df/dx_i.  So when every summand of the
    combination is a generator of J_1 (or zero) and their sum replays to
    -(f + h), f + h lies in J_1: ``global_membership`` reads both checks.
    """
    ring = f.ring
    rest = f - Germ(f).cone.f
    j1 = jk_ideal(f, maximal_ideal(ring), 1)
    target = f + rest
    summands = [f - x * f.partial_derivative(i) for i, x in enumerate(ring.gens())]
    witness = sum(summands, ring.zero()) == -target
    member = witness and all(s.is_zero() or s in j1.generators for s in summands)
    return Certificate(
        name="C4",
        statement=(
            "f plus its above-cone part lies in the order-1 numerator ideal, "
            "with the explicit combination sum_i (f - x_i df/dx_i) = -(f + h)"
        ),
        verdict=member,
        citation=CITE_EQUALITY,
        details=_detail(global_membership=member, explicit_combination_replayed=witness),
    )


def _cert_m6_inside_j1(f: Polynomial) -> Certificate:
    """C5 locally: m^6 lies in J_1*O_0 exactly when J_1's Nakayama exponent N is at most 6.

    N is read off J_1's own local echelon, as C6 and C7 read theirs, with
    no Groebner basis; no echelon (the origin not isolated in V(J_1)) reads
    False.  The local statement carries the paper's argument: it gives
    J_1*O_0 = (J_1 + m^6)*O_0; C6 puts h outside J_1 + m^6, which is
    m-primary, so h lies outside J_1*O_0; and as f + h lies in J_1 (C4), f
    lies outside J_1*O_0, C7's claim.
    """
    ring = f.ring
    j1 = jk_ideal(f, maximal_ideal(ring), 1)
    found = _local_echelon(j1)
    ok = found is not None and found[0] <= 6
    return Certificate(
        name="C5",
        statement=(
            "every monomial of degree 6 lies in the order-1 numerator ideal "
            "locally at the origin"
        ),
        verdict=ok,
        citation=CITE_EQUALITY,
        details=_detail(monomial_count=math.comb(ring.arity + 5, 6)),
    )


def _cert_perturbation_outside_j1_plus_m6(f: Polynomial) -> Certificate:
    """C6 by a checked functional, with no Groebner basis.

    An ideal holding m^6 is either the unit ideal or m-primary, and then
    it contains m^N for its Nakayama exponent N <= 6, so J_1 + m^6 =
    J_1 + m^N and its local echelon decides the global statement.  The
    functional read off that echelon is checked by ``refutes`` against the
    generators of J_1 below degree N, and N <= 6 makes it vanish on m^6.
    """
    ring = f.ring
    rest = f - Germ(f).cone.f
    j1 = jk_ideal(f, maximal_ideal(ring), 1)
    found = (j1 + maximal_ideal_power(ring, 6))._local_functional(rest)
    ok = found is not None and found[0] <= 6 and refutes(j1.generators, rest, found[1], found[0])
    return Certificate(
        name="C6",
        statement=(
            "the above-cone part stays outside the order-1 numerator ideal "
            "even after adding all degree-6 monomials"
        ),
        verdict=ok,
        citation=CITE_EQUALITY,
        details=_detail(above_cone_part=rest),
    )


def _cert_f_outside_j1_locally(f: Polynomial) -> Certificate:
    """C7 by the functional read off the local echelon and checked by ``refutes``.

    A functional exists only when f lies outside J_1 locally, so
    ``local_member`` is asked only when none comes back, for the
    ``local_membership`` detail.  Without an echelon (the origin not
    isolated in V(J_1)) nothing certifies the refutation, and C7 reads
    False.
    """
    ring = f.ring
    j1 = jk_ideal(f, maximal_ideal(ring), 1)
    found = j1._local_functional(f)
    member = found is None and j1.local_member(f)
    ok = found is not None and refutes(j1.generators, f, found[1], found[0])
    return Certificate(
        name="C7",
        statement=(
            "f lies outside the order-1 numerator ideal locally at the origin, "
            "refuting the level-1 equality test"
        ),
        verdict=ok,
        citation=CITE_EQUALITY,
        details=_detail(local_membership=member),
    )


_CERTIFICATE_BUILDERS = (
    _cert_perturbation_outside_principal_jacobian,
    _cert_not_quasi_homogeneous,
    _cert_ordinary_genus,
    _cert_f_plus_perturbation_in_j1,
    _cert_m6_inside_j1,
    _cert_perturbation_outside_j1_plus_m6,
    _cert_f_outside_j1_locally,
)


def counterexample_certificates(seed: int | None = None) -> tuple[Certificate, ...]:
    """Evaluate the seven witness certificates, each from scratch.

    A seed shuffles evaluation order; the result is always reported in
    name order and must not depend on the evaluation order.
    """
    return _certificates(counterexample_polynomial(), seed)


def _certificates(f: Polynomial, seed: int | None) -> tuple[Certificate, ...]:
    builders = list(_CERTIFICATE_BUILDERS)
    if seed is not None:
        random.Random(seed).shuffle(builders)
    certs = [build(f) for build in builders]
    certs.sort(key=lambda c: c.name)
    return tuple(certs)


def counterexample_suite(seed: int | None = None) -> AnalysisReport:
    """Analysis of the bundled witness plus its strictness certificates.

    Levelwise equality testing stops at level 1; the suite's point is the
    refutation there.  When every certificate passes, the conclusion is the
    strict inequality: length greater than the bound, at least 6, with the
    closing strictness argument trusted rather than re-verified.
    """
    t0 = time.perf_counter()
    f = counterexample_polynomial()
    base = analyze(f, max_level=1)
    certs = _certificates(f, seed)
    all_pass = bool(certs) and all(c.verdict for c in certs)
    refuted = base.equality is not None and base.equality.refuted_at_level_one
    strict = all_pass and refuted and base.bound is not None
    citations = list(base.citations) + [c.citation for c in certs]
    if strict:
        citations.append(CITE_HODGE)
        conclusion = (
            f"module length strictly exceeds the lower bound {base.bound}: "
            f"length at least {base.bound + 1} "
            "(closing strictness step trusted, not re-verified)"
        )
    else:
        failed = [c.name for c in certs if not c.verdict]
        conclusion = (
            "strict inequality not established"
            + (f"; failed certificates: {', '.join(failed)}" if failed else "")
        )
    return replace(
        base,
        certificates=certs,
        strict=strict,
        conclusion=conclusion,
        citations=tuple(dict.fromkeys(citations)),
        elapsed=time.perf_counter() - t0,
    )
