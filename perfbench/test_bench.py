"""Tests of the benchmark's own oracles and tracer.

    python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("support, weights", [
    ([(3, 0, 0), (0, 4, 0), (0, 0, 2)], (F(1, 3), F(1, 4), F(1, 2))),  # E6
    ([(2, 1, 0), (0, 3, 0), (0, 0, 4)], (F(1, 3), F(1, 3), F(1, 4))),  # cusp cone
    ([(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 2, 0)], (F(1, 4),) * 3),  # overdetermined
])
def test_solve_weights(support, weights):
    assert oracles.solve_weights(support) == weights


@pytest.mark.parametrize("support", [
    [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 2, 2)],  # the witness: no weights
    [(2, 0, 0), (0, 2, 0)],  # free in z: underdetermined
    [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0)],  # inconsistent
])
def test_solve_weights_none(support):
    assert oracles.solve_weights(support) is None


@pytest.mark.parametrize("weights, mu, g", [
    ((F(1, 2),) * 3, 1, 0),  # A1
    ((F(1, 2), F(1, 3), F(1, 5)), 8, 0),  # E8
    ((F(1, 3),) * 3, 8, 1),  # fermat3
    ((F(1, 4),) * 3, 27, 3),  # fermat4
    ((F(1, 6),) * 3, 125, 10),  # fermat6
    ((F(1, 3), F(1, 3), F(1, 4)), 12, 0),  # cusp cone
    ((F(1, 2), F(1, 4), F(1, 4)), 9, 1),  # x^2 + y^4 + z^4
])
def test_milnor_orlik_and_lattice_genus(weights, mu, g):
    assert oracles.milnor_orlik(weights) == mu
    assert oracles.lattice_genus(weights) == g


def fake_report(mu, tau, qh, g=None, level=None):
    status = {"descent": "proven_by_descent", "unknown": "unknown_up_to"}.get(
        level, "proven_at_level"
    )
    eq = None if level is None else SimpleNamespace(
        status=status, level=level, refuted_at_level_one=False
    )
    return SimpleNamespace(
        mu=mu, tau=tau, qh=SimpleNamespace(quasi_homogeneous=qh),
        singularity_class=None, equality=eq, certificates=(), strict=None,
        genus=None if g is None else SimpleNamespace(g=g, log_canonical=False),
        bound=None if g is None else g + 2,
    )


def test_check_weighted():
    w = (F(1, 4),) * 3
    assert oracles.check_weighted(fake_report(27, 27, True, 3, 1), w) == []
    assert oracles.check_weighted(fake_report(27, 27, True, 3, "descent"), w) == []
    assert oracles.check_weighted(fake_report(27, 26, True, 3, 1), w)
    assert oracles.check_weighted(fake_report(27, 27, True, 2, 1), w)
    assert oracles.check_weighted(fake_report(27, 27, True, 3, "unknown"), w)


def test_check_sqh_saito_and_tau():
    w = (F(1, 4),) * 3
    assert oracles.check_sqh(fake_report(27, 25, False), w) == []
    assert oracles.check_sqh(fake_report(27, 27, True), w) == []
    assert oracles.check_sqh(fake_report(27, 25, True), w)  # Saito broken
    assert oracles.check_sqh(fake_report(27, 28, False), w)  # tau > mu
    assert oracles.check_sqh(fake_report(26, 25, False), w)  # wrong mu
    assert oracles.check_non_isolated(fake_report(float("inf"), None, None)) == []
    assert oracles.check_non_isolated(fake_report(4, 4, True))


def test_check_annotations():
    r = fake_report(27, 27, True, 3, 1)
    assert oracles.check_annotations(r, {"name": "f4", "mu": "27", "g": "3", "level": "1"}) == []
    assert oracles.check_annotations(r, {"mu": "27", "level": "2"}) == ["level: expected 2, got 1"]


def test_render():
    assert workloads.render([(2, (1, 0, 2)), (-1, (0, 3, 0)), (1, (0, 0, 1))]) == "2*x*z^2 - y^3 + z"
    assert workloads.render([(-3, (0, 1, 0))]) == "-3*y"


def test_pools_are_seeded():
    for make in workloads.WORKLOADS.values():
        assert [it.text for it in make(5)] == [it.text for it in make(5)]
    texts = [it.text for it in workloads.corpus_graded(5)]
    assert texts != [it.text for it in workloads.corpus_graded(6)]
    sqh = [it.text for it in workloads.sqh_local(5)]
    assert sqh != [it.text for it in workloads.sqh_local(6)]
    assert sorted(sqh) == sorted(it.text for it in workloads.sqh_local(6))
    assert len(texts) == 10 + len(workloads.LIGHT_SHAPES) + len(workloads.MEDIUM_SHAPES) + len(
        workloads.HEAVY_SHAPES
    )


def test_innermost_public_function():
    import singulens

    with pytest.raises(singulens.ParseError) as info:
        singulens.parse("x +", singulens.RingContext(("x",)))
    assert run.innermost_public(info.tb) == "singulens.polyring.parse"


def test_tracer_patches_every_binding_and_restores():
    import singulens
    import singulens.analyzer

    f = singulens.parse("x^3 + y^3 + z^3", singulens.RingContext(("x", "y", "z")))
    original = singulens.analyze
    t = tracer.Tracer()
    t.install()
    try:
        assert singulens.analyze is not original
        t.start_op(0)
        singulens.analyze(f)
        t.end_op()
    finally:
        t.uninstall()
    assert singulens.analyze is original
    names = {rec[tracer.NAME] for rec in t.spans}
    # bound in analyzer by ``from .invariants import milnor_number``
    assert {"analyzer.analyze", "invariants.milnor_number", "ideals.groebner_basis",
            "sections.jk_ideal", "analyzer.equality_certificate"} <= names
    m = tracer.per_layer(t.spans, set())
    assert m["analyzer.equality.level0.s"] > 0
    assert m["ideals.groebner_basis.fills"] <= m["ideals.groebner_basis.calls"]
    roots = [r for r in t.spans if r[tracer.PARENT] < 0]
    assert [r[tracer.NAME] for r in roots] == ["analyzer.analyze"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracer.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (u, b) for _, u, b in tracer.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_op_limit_is_not_swallowed_and_reports_are_checked():
    import signal

    def swallowing(f, p):
        while True:
            try:
                sum(range(1000))
            except Exception:
                pass

    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        slow = run.run_op(0, workloads.Item("slow", None, swallowing, list), None, 0, 0.2)
        odd = run.run_op(1, workloads.Item("odd", None, lambda f, p: object(),
                                           oracles.check_non_isolated), None, 0, 5.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (slow.status, slow.latency) == ("timeout", 0.2)
    assert odd.status == "wrong"
