"""Analysis pipeline, equality certification, and the witness suite."""

import time

import pytest

import singulens.analyzer as analyzer_module
import singulens.ideals as ideals_module
import singulens.sections as sections_module
from singulens.analyzer import (
    CITE_DESCENT,
    CITE_HODGE,
    CITE_LOWER_BOUND,
    COUNTEREXAMPLE_TEXT,
    Certificate,
    ScreenResult,
    analyze,
    counterexample_certificates,
    counterexample_polynomial,
    counterexample_suite,
    equality_certificate,
    length_bound,
    screen_isolated,
)
from singulens.genus import classify, compute_genus
from singulens.ideals import DegreeCapExceeded, Ideal, maximal_ideal, maximal_ideal_power
from singulens.invariants import Germ, milnor_number
from singulens.polyring import GREVLEX, Polynomial, RingContext, parse
from singulens.sections import jk_ideal, level_ladder

from conftest import GRADED_GERMS, tuple_graded_member


def test_screen(ring, P):
    assert screen_isolated(P("x*y")) == screen_isolated(P("x*y"))
    s = screen_isolated(P("x*y"))
    assert not s.isolated and not s.jacobian_m_primary
    s = screen_isolated(P("x"))
    assert s.isolated and s.jacobian_m_primary
    s = screen_isolated(P("x^2 + y^2"))
    assert not s.isolated
    s = screen_isolated(P("x^2 + y^2 + z^2"))
    assert s.isolated and s.jacobian_m_primary
    assert s.to_dict() == {"isolated": True, "jacobian_m_primary": True}


def test_screen_is_local(ring, P):
    """A singular plane away from the origin does not touch the screen; mu = tau = 1."""
    f = P("(x^2 + y^2 + z^2)*(x - 1)^2")
    assert screen_isolated(f) == ScreenResult(isolated=True, jacobian_m_primary=True)
    report = analyze(f)
    assert (report.mu, report.tau) == (1, 1)
    assert report.screen.to_dict() == {"isolated": True, "jacobian_m_primary": True}
    # singular along the z-axis, and without weights
    s = screen_isolated(P("x*y + x^3 + x^2*y"))
    assert not s.isolated and not s.jacobian_m_primary


def test_length_bound(ring, P):
    assert length_bound(compute_genus(P("x^3 + y^3 + z^3"))) == 3
    assert length_bound(compute_genus(P("x^4 + y^4 + z^4"))) == 5


def test_equality_proven_at_level_zero(ring, P):
    f = P("x^2 + y^3 + z^5")
    genus = compute_genus(f)
    verdict = equality_certificate(f, genus.multiplier, max_level=1)
    assert verdict.status == "proven_at_level"
    assert verdict.level == 0
    assert not verdict.refuted_at_level_one
    assert verdict.level_results == ((0, True),)
    assert verdict.label() == "equality proven at level 0"


def test_equality_proven_at_level_one(ring, P):
    f = P("x^4 + y^4 + z^4")
    genus = compute_genus(f)
    verdict = equality_certificate(f, genus.multiplier, max_level=3)
    assert verdict.status == "proven_at_level"
    assert verdict.level == 1
    assert verdict.refuted_at_level_one is False
    assert verdict.level_results == ((0, False), (1, True))


def test_equality_proven_by_descent(ring, P):
    f = P("x^4 + y^4 + z^4")
    verdict = equality_certificate(f, maximal_ideal(ring), max_level=0)
    assert verdict.status == "proven_by_descent"
    assert verdict.level is None
    assert verdict.descent_steps == 1
    assert verdict.level_results == ((0, False),)
    assert verdict.label() == "equality proven by descent (1 steps)"


@pytest.mark.parametrize("ideal", ["m^2", "m^5", "x, y, z^2"])
def test_equality_descent_needs_the_leaves_in_the_ideal(ring, P, ideal):
    """The chain of x^4 + y^4 + z^4 reaches only x, y and z: an I missing one proves nothing."""
    f = P("x^4 + y^4 + z^4")
    if ideal.startswith("m^"):
        ideal = maximal_ideal_power(ring, int(ideal[2:]))
    else:
        ideal = Ideal(ring, [P(g) for g in ideal.split(", ")])
    for max_level in (0, 2):
        verdict = equality_certificate(f, ideal, max_level)
        assert verdict.status == "unknown_up_to"
        assert verdict.level == max_level and verdict.descent_steps is None
        assert verdict.level_results == tuple((k, False) for k in range(max_level + 1))


def test_equality_unknown_for_witness(ring):
    f = counterexample_polynomial()
    genus = compute_genus(f)
    verdict = equality_certificate(f, genus.multiplier, max_level=1)
    assert verdict.status == "unknown_up_to"
    assert verdict.level == 1
    assert verdict.refuted_at_level_one
    assert verdict.level_results == ((0, False), (1, False))
    assert "refuted" in verdict.label()
    with pytest.raises(ValueError):
        equality_certificate(f, genus.multiplier, max_level=-1)


def _record_levels(monkeypatch):
    """Wrap the analyzer's jk_ideal; list the levels it is asked for."""
    levels = []
    real = analyzer_module.jk_ideal

    def recording(f, ideal, k):
        levels.append(k)
        return real(f, ideal, k)

    monkeypatch.setattr(analyzer_module, "jk_ideal", recording)
    return levels


def _level_by_level(f, multiplier, max_level, weights=None):
    """Each level tested on its own J_k, as the reference: graded rows when weights are given."""
    out = []
    for k in range(max_level + 1):
        jk = jk_ideal(f, multiplier, k)
        if weights is None:
            out.append((k, jk.local_member(f**k)))
        else:
            out.append((k, tuple_graded_member(jk, f**k, weights)))
        if out[-1][1]:
            break
    return tuple(out)


@pytest.mark.parametrize("text", GRADED_GERMS + ("x^7 + y^7 + z^7",))
def test_graded_equality_climbs_the_ladder_from_level_one(ring, P, monkeypatch, text):
    f = P(text)
    cls = classify(f)
    multiplier = compute_genus(f).multiplier
    expected = _level_by_level(f, multiplier, 5, cls.weights)
    levels = _record_levels(monkeypatch)
    verdict = equality_certificate(f, multiplier, 5)
    assert verdict.level_results == expected
    assert levels == [0]


def test_ungraded_multiplier_climbs_the_local_ladder(ring, P, monkeypatch):
    f = P("x^4 + y^4 + z^4")
    # x^2 + y^3 is not weighted homogeneous for the weights (1/4, 1/4, 1/4)
    multiplier = compute_genus(f).multiplier + Ideal(ring, [P("x^2 + y^3")])
    expected = _level_by_level(f, multiplier, 2)
    levels = _record_levels(monkeypatch)
    verdict = equality_certificate(f, multiplier, 2)
    assert verdict.level_results == expected == ((0, False), (1, True))
    assert levels == [0]
    levels.clear()
    verdict = equality_certificate(f, compute_genus(f).multiplier, 2)
    assert verdict.level_results == expected
    assert levels == [0]


@pytest.mark.parametrize(
    "text",
    (
        "x^5 + y^5 + z^5",
        "x^3*y + y^5 + z^6",
        COUNTEREXAMPLE_TEXT,
        "x^4 + y^4 + z^4 + x^3*y*z",
        "x^5 + y^5 + z^5 + x^4*y^2",
    ),
)
def test_analyze_builds_j_k_only_at_level_zero(ring, P, monkeypatch, text):
    """Graded and ungraded germs alike: levels 1 and up climb the ladder, not jk_ideal."""
    levels = _record_levels(monkeypatch)
    report = analyze(P(text), max_level=4)
    assert len(report.equality.level_results) >= 3
    assert levels == [0]


def test_analyze_quasi_homogeneous_surface(ring, P):
    report = analyze(P("x^3 + y^3 + z^3"), max_level=1)
    assert report.mu == report.tau == 8
    assert report.qh.quasi_homogeneous
    assert report.genus.g == 1
    assert report.bound == 3
    assert report.equality.status == "proven_at_level"
    assert report.equality.level == 0
    assert report.conclusion == (
        "module length equals the lower bound 3 (equality proven at level 0)"
    )
    assert CITE_LOWER_BOUND in report.citations
    assert report.strict is None and report.certificates == ()


def test_analyze_report_shape(ring, P):
    d = analyze(P("x^4 + y^4 + z^4"), max_level=1).to_dict()
    assert d["input"] == "x^4 + y^4 + z^4"
    assert d["ring"] == {"variables": ["x", "y", "z"], "order": "grevlex"}
    assert d["class"]["tag"] == "ordinary+weighted"
    assert d["invariants"]["mu"] == 27
    assert d["invariants"]["tau"] == 27
    assert d["invariants"]["qh"]["quasi_homogeneous"] is True
    assert d["genus"]["g"] == 3
    assert d["genus"]["log_canonical"] is False
    assert d["genus"]["i0"] == ["x", "y", "z"]
    assert len(d["genus"]["adj"]) == 6
    assert d["length"]["lower_bound"] == 5
    assert d["length"]["equality"] == "proven_at_level"
    assert d["length"]["level"] == 1
    assert d["certificates"] == []


def test_analyze_nonisolated(ring, P):
    report = analyze(P("x*y"))
    assert report.bound is None
    assert report.conclusion == "no length bound computed"
    assert any("non-isolated" in note for note in report.notes)
    d = report.to_dict()
    assert d["invariants"]["mu"] == "infinite"
    assert d["class"] is None


def test_analyze_two_variables_skips_genus(ring2):
    report = analyze(parse("x^3 + y^4", ring2))
    assert report.genus is None and report.bound is None
    assert any("at least three variables" in note for note in report.notes)


def test_analyze_unclassified_germ_has_no_genus_route(ring, P):
    report = analyze(P("x^3 + y^4 + z^5 + x*y^2*z^2"))
    assert report.singularity_class.tag == "unclassified"
    assert report.genus is None and report.bound is None
    assert report.conclusion == "no length bound computed"
    assert any("no genus route applies" in note for note in report.notes)


def test_analyze_proves_equality_by_descent(ring, P):
    report = analyze(P("x^7 + y^7 + z^7"))
    assert report.equality.status == "proven_by_descent"
    assert report.equality.descent_steps == 20
    assert CITE_DESCENT in report.citations


def test_analyze_rejects_zero(ring):
    with pytest.raises(ValueError, match="zero polynomial"):
        analyze(ring.zero())


def test_analyze_smooth_point_noted(ring, P):
    report = analyze(P("x + y^2"))
    assert report.bound is None
    assert any("smooth point" in note for note in report.notes)


def test_counterexample_polynomial_default():
    f = counterexample_polynomial()
    assert f == parse(COUNTEREXAMPLE_TEXT, f.ring)
    assert str(f) == "x*y^2*z^2 + x^4 + y^4 + z^4"
    assert f.ring == RingContext(("x", "y", "z"))


def test_counterexample_certificates_pass(ring):
    certs = counterexample_certificates()
    assert [c.name for c in certs] == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]
    assert all(c.verdict for c in certs)
    assert all(c.statement and c.citation for c in certs)
    d = certs[0].to_dict()
    assert d["name"] == "C1" and d["verdict"] is True


def test_counterexample_certificates_order_independent(ring):
    base = counterexample_certificates(seed=None)
    for seed in (0, 7, 12345):
        assert counterexample_certificates(seed=seed) == base


def test_counterexample_suite_honest(ring):
    report = counterexample_suite(seed=3)
    assert report.mu == 27 and report.tau == 25
    assert not report.qh.quasi_homogeneous
    assert report.genus.g == 3
    assert report.bound == 5
    assert report.equality.status == "unknown_up_to"
    assert report.equality.refuted_at_level_one
    assert report.all_certificates_pass()
    assert report.strict is True
    assert report.conclusion == (
        "module length strictly exceeds the lower bound 5: length at least 6 "
        "(closing strictness step trusted, not re-verified)"
    )
    assert CITE_HODGE in report.citations


def test_counterexample_suite_deterministic(ring):
    a = counterexample_suite(seed=1).to_dict()
    b = counterexample_suite(seed=2).to_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_counterexample_suite_tampered(monkeypatch):
    monkeypatch.setattr(analyzer_module, "COUNTEREXAMPLE_TEXT", "x^4 + y^4 + z^4")
    report = counterexample_suite()
    verdicts = {c.name: c.verdict for c in report.certificates}
    assert verdicts == {
        "C1": False,
        "C2": False,
        "C3": True,
        "C4": True,
        "C5": False,
        "C6": False,
        "C7": False,
    }
    assert not report.all_certificates_pass()
    assert report.strict is False
    assert report.conclusion.startswith("strict inequality not established")
    assert "C1" in report.conclusion and "C7" in report.conclusion
    assert CITE_HODGE not in report.citations


def _above_cone_germs(rng, ring, P):
    """The tampered Fermat quartic (h = 0), the witness, and ten seeded germs.

    Each seeded germ is a Fermat quartic or quintic plus one or two terms
    one degree above it.
    """
    germs = [P("x^4 + y^4 + z^4"), counterexample_polynomial()]
    for _ in range(10):
        d = rng.choice([4, 4, 5])
        f = P(f"x^{d} + y^{d} + z^{d}")
        above = list(ideals_module._exponents_of_degree((1, 1, 1), d + 1))
        for e in rng.sample(above, rng.randint(1, 2)):
            f = f + rng.choice([-2, -1, 1, 3]) * Polynomial.monomial(ring, e)
        germs.append(f)
    return germs


def test_c6_and_c7_functionals_match_membership(rng, ring, P):
    """C6 against the global route (J_1 + m^6).member(h), C7 against local_member.

    Fermat quartics and quintics plus one or two above-cone terms, and the
    tampered Fermat quartic, whose h is zero.
    """
    below_six, c7 = set(), set()
    for f in _above_cone_germs(rng, ring, P):
        h = f - Germ(f).cone.f
        j1 = jk_ideal(f, maximal_ideal(ring), 1)
        enlarged = j1 + ideals_module.maximal_ideal_power(ring, 6)
        outside = not h.is_zero() and not enlarged.member(h)
        assert analyzer_module._cert_perturbation_outside_j1_plus_m6(f).verdict == outside, f
        if not h.is_zero() and min(sum(e) for e, _ in h.items()) < 6:
            below_six.add(outside)
        verdict = analyzer_module._cert_f_outside_j1_locally(f).verdict
        assert verdict == (not j1.local_member(f)), f
        c7.add(verdict)
    assert below_six == c7 == {True, False}  # some h of degree 5 lies in J_1 + m^6


def test_c4_and_c5_match_their_groebner_routes(rng, ring, P):
    """C4's generator combination and C5's Nakayama exponent against Groebner bases of J_1.

    C4 reads as the Groebner route did: J_1.member(f + h) and the replayed
    combination.  On a quartic cone that is J_1.member(f + h).  On a
    quintic cone the combination sums to -2*f_5 - 3*h, not -(f + h), so it
    proves nothing, though f + h may lie in J_1; one fixed quintic germ
    joins the seeded ones so that every seed sees that case.  C5 reads
    whether the Nakayama exponent N of J_1 is at most 6, which every
    degree-6 monomial's local membership confirms, and m^6 inside J_1
    globally implies it.
    """
    m6 = ideals_module.maximal_ideal_power(ring, 6)
    c4, c5 = set(), set()
    for f in _above_cone_germs(rng, ring, P) + [P("x^5 + y^5 + z^5 + x^3*y^3")]:
        h = f - Germ(f).cone.f
        j1 = jk_ideal(f, maximal_ideal(ring), 1)
        member = j1.member(f + h)
        summands = (f - x * f.partial_derivative(i) for i, x in enumerate(ring.gens()))
        combination = sum(summands, ring.zero())
        cert = analyzer_module._cert_f_plus_perturbation_in_j1(f)
        assert cert.verdict == (member and combination == -(f + h)), f
        if Germ(f).cone.f.total_degree() == 4:
            assert cert.verdict == member, f
        c4.add(cert.verdict)
        verdict = analyzer_module._cert_m6_inside_j1(f).verdict
        assert verdict == all(j1.local_member(g) for g in m6.generators), f
        if j1.contains_ideal(m6):
            assert verdict, f
        c5.add(verdict)
    assert c4 == c5 == {True, False}


def test_c4_rejects_a_summand_that_is_not_a_generator(ring, P, monkeypatch):
    """A J_1 in which f - x*df/dx is replaced by twice itself is the same ideal.

    f + h still lies in it, but the summand f - x*df/dx is no longer a
    generator, so the combination proves nothing and C4 reads False.
    """
    real = analyzer_module.jk_ideal

    def doubled(f, ideal, k):
        summand = f - ring.gens()[0] * f.partial_derivative(0)
        gens = [2 * g if g == summand else g for g in real(f, ideal, k).generators]
        return Ideal(ring, gens)

    f = counterexample_polynomial()
    assert analyzer_module._cert_f_plus_perturbation_in_j1(f).verdict
    monkeypatch.setattr(analyzer_module, "jk_ideal", doubled)
    h = f - Germ(f).cone.f
    assert doubled(f, maximal_ideal(ring), 1).member(f + h)
    cert = analyzer_module._cert_f_plus_perturbation_in_j1(f)
    assert cert.verdict is False
    assert cert.details == (
        ("global_membership", "False"),
        ("explicit_combination_replayed", "True"),
    )


def test_c7_without_an_echelon_reads_false(ring, P):
    """f is singular along the z-axis, so J_1 has no local echelon and no functional.

    The quotient route still finds f outside J_1 locally, but nothing
    certifies that refutation, so C7 reads False.
    """
    f = P("x^2 + y^3 + x*y*z")
    cert = analyzer_module._cert_f_outside_j1_locally(f)
    assert cert.verdict is False
    assert cert.details == (("local_membership", "False"),)


def test_descent_citation_available(ring, P):
    report = analyze(P("x^2*y + y^3 + z^4"), max_level=1)
    assert report.equality.status == "proven_at_level"
    assert report.equality.level == 1
    assert CITE_DESCENT not in report.citations


def test_counterexample_suite_elapsed_covers_certificates(ring, monkeypatch):
    bases = []
    real_analyze = analyzer_module.analyze

    def recording_analyze(*args, **kwargs):
        bases.append(real_analyze(*args, **kwargs))
        return bases[-1]

    def slow_builder(f):
        time.sleep(0.2)
        return Certificate("C1", "slow certificate", True, CITE_HODGE)

    monkeypatch.setattr(analyzer_module, "analyze", recording_analyze)
    monkeypatch.setattr(analyzer_module, "_CERTIFICATE_BUILDERS", (slow_builder,))
    report = counterexample_suite()
    assert len(bases) == 1
    assert report.elapsed >= bases[0].elapsed + 0.2


def _graded_levels(germ, multiplier, max_level):
    """Level 0 on jk_ideal, then the ladder, which a graded germ climbs on graded rows."""
    ladder = level_ladder(germ, multiplier, max_level)
    return [jk_ideal(germ.f, multiplier, 0).local_member(germ.f.ring.one()), *ladder]


@pytest.mark.parametrize("text", GRADED_GERMS)
def test_graded_level_tests_agree_with_general_path(ring, P, text):
    f = P(text)
    multiplier = compute_genus(f).multiplier
    for k, verdict in enumerate(_graded_levels(Germ(f), multiplier, 3)):
        fresh = Ideal(ring, jk_ideal(f, multiplier, k).generators)
        assert verdict == fresh.local_member(f**k), (f, k)


def test_graded_level_tests_run_no_buchberger(ring, P, monkeypatch):
    germ = Germ(P("x^5 + y^5 + z^5"))
    f = germ.f
    multiplier = compute_genus(germ).multiplier
    levels = [jk_ideal(f, multiplier, k) for k in range(4)]
    expected = [Ideal(ring, jk.generators).local_member(f**k) for k, jk in enumerate(levels)]
    assert milnor_number(germ) == 64  # measured before the ban, as analyze does

    def no_buchberger(*args, **kwargs):
        raise AssertionError("a graded level test ran Buchberger")

    monkeypatch.setattr(ideals_module, "_buchberger", no_buchberger)
    assert _graded_levels(germ, multiplier, 3) == expected
    assert expected == [False, False, True, True]


def test_ungraded_input_takes_the_general_path(ring, monkeypatch):
    f = counterexample_polynomial()
    j1 = jk_ideal(f, maximal_ideal(ring), 1)
    asked = []
    real_member = Ideal.member

    def recording_member(self, p, *args, **kwargs):
        asked.append(p)
        return real_member(self, p, *args, **kwargs)

    monkeypatch.setattr(Ideal, "member", recording_member)
    assert not j1.local_member(f)
    # the ungraded level test is decided by the local echelon form alone
    assert "echelon" in j1._cache
    assert asked == []
    assert not Ideal(ring, j1.generators).local_member(f)
    assert asked == []


def _record_fills(monkeypatch):
    """Wrap Ideal.groebner_basis; list (generators, order) at each ideal's first request."""
    asked, fills = [], []
    real = Ideal.groebner_basis

    def recording(self, order=GREVLEX):
        if not any(ideal is self and name == order.name for ideal, name in asked):
            asked.append((self, order.name))
            fills.append((self.generators, order.name))
        return real(self, order)

    monkeypatch.setattr(Ideal, "groebner_basis", recording)
    return fills


@pytest.mark.parametrize(
    "text", ("x^6 + y^6 + z^6", COUNTEREXAMPLE_TEXT, "x^2 + y^2 + z^2", "x^3 + y^4 + z^2")
)
def test_analyze_fills_each_basis_once(ring, P, monkeypatch, text):
    """One germ serves every stage: no basis and no local echelon is built twice."""
    fills = _record_fills(monkeypatch)
    searched = []
    real_echelon = ideals_module._local_echelon

    def recording_echelon(ideal, degree_cap=None):
        if "echelon" not in ideal._cache:
            searched.append(ideal.generators)
        return real_echelon(ideal, degree_cap)

    monkeypatch.setattr(ideals_module, "_local_echelon", recording_echelon)
    analyze(P(text))
    assert fills and len(set(fills)) == len(fills)
    assert len(set(searched)) == len(searched)


@pytest.mark.parametrize("text", (COUNTEREXAMPLE_TEXT, "x^4 + y^4 + z^4 + x^3*y*z"))
def test_the_degree_cap_follows_the_germ(ring, P, monkeypatch, text):
    """Every local echelon search of analyze runs under its guard, or unguarded in the ladder."""
    caps = []
    for module in (ideals_module, sections_module):
        real = module._local_echelon

        def recording(ideal, degree_cap=None, real=real):
            caps.append(degree_cap)
            return real(ideal, degree_cap)

        monkeypatch.setattr(module, "_local_echelon", recording)
    report = analyze(P(text), max_level=4, degree_cap=12)
    assert report.equality is not None
    assert 12 in caps and None in caps
    assert set(caps) <= {12, None}


def test_level_ladder_refuses_past_the_germs_degree_cap(ring, P):
    """Both refusal checks of the ladder read Germ.degree_cap; N = 7 for this Jacobian."""
    f = P("x^4 + y^4 + z^4 + x^3*y*z")
    with pytest.raises(DegreeCapExceeded, match="Jacobian ideal .*not stabilized by degree 6"):
        next(level_ladder(Germ(f, degree_cap=6), maximal_ideal(ring), 1))
    # not homogeneous; O/I = Q[x]/(x^8) with m = (x), so m^N lies in I + m^(N+1) from N = 8
    ideal = Ideal(ring, [P("x^8"), P("y + x^2"), P("z")])
    with pytest.raises(DegreeCapExceeded, match="ideal I .*not stabilized by degree 7"):
        level_ladder(Germ(f, degree_cap=7), ideal, 1)
    assert list(level_ladder(Germ(f, degree_cap=8), ideal, 1)) == [
        jk_ideal(f, ideal, 1).local_member(f)
    ]


def test_counterexample_certificates_share_nothing_with_analyze(ring, monkeypatch):
    """Each certificate takes the bare polynomial and builds its own ideals."""
    phase = ["analyze"]
    filled: dict[str, list] = {}
    real_basis = Ideal.groebner_basis
    real_quotient = Ideal.quotient
    quotients, arguments = [], []

    def recording_basis(self, order=GREVLEX):
        filled.setdefault(phase[0], []).append(self)
        return real_basis(self, order)

    def recording_quotient(self, p):
        quotients.append(phase[0])
        return real_quotient(self, p)

    def tracked(build):
        def run(f):
            arguments.append(f)
            phase[0] = build.__name__
            try:
                return build(f)
            finally:
                phase[0] = "suite"

        return run

    monkeypatch.setattr(Ideal, "groebner_basis", recording_basis)
    monkeypatch.setattr(Ideal, "quotient", recording_quotient)
    builders = tuple(tracked(b) for b in analyzer_module._CERTIFICATE_BUILDERS)
    monkeypatch.setattr(analyzer_module, "_CERTIFICATE_BUILDERS", builders)
    report = counterexample_suite(seed=1)
    assert report.strict is True
    assert len(arguments) == 7
    assert all(type(f) is Polynomial and not isinstance(f, Germ) for f in arguments)
    owners = {}
    for name, ideals in filled.items():
        for ideal in ideals:
            owners.setdefault(id(ideal), set()).add(name)
    assert all(len(names) == 1 for names in owners.values())
    # C6 checks a functional read off the local echelon: no Groebner basis
    assert "_cert_perturbation_outside_j1_plus_m6" not in filled
    # C2's direct test names the quotient route
    assert "_cert_not_quasi_homogeneous" in quotients
