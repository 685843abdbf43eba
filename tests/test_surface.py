"""The public surface re-exported from the package root, and what ``Ideal`` answers."""

import ast
import inspect
import sys
from pathlib import Path

import singulens
import singulens.polyring as polyring
from singulens import Ideal, Polynomial

PUBLIC = [
    "AnalysisReport",
    "Certificate",
    "DegreeCapExceeded",
    "DescentChain",
    "DescentStep",
    "EqualityVerdict",
    "ExponentOverflow",
    "GREVLEX",
    "GRLEX",
    "GenusResult",
    "Germ",
    "INFINITE",
    "Ideal",
    "InfiniteColengthError",
    "LEX",
    "MonomialOrder",
    "ParseError",
    "Polynomial",
    "QHVerdict",
    "RingContext",
    "ScreenResult",
    "SingularityClass",
    "WeightSystem",
    "analyze",
    "classify",
    "compute_genus",
    "counterexample_certificates",
    "counterexample_polynomial",
    "counterexample_suite",
    "equality_certificate",
    "euler_check",
    "find_weights",
    "generation_descent",
    "genus_ordinary",
    "genus_weighted",
    "is_quasi_homogeneous",
    "jacobian_ideal",
    "jk_ideal",
    "length_bound",
    "local_colength",
    "maximal_ideal",
    "maximal_ideal_power",
    "milnor_number",
    "parse",
    "quotient_dimension",
    "screen_isolated",
    "sqh_obstruction",
    "tjurina_number",
]


def test_the_public_surface_is_pinned():
    """Adding or removing a re-export is a deliberate change to this list."""
    assert singulens.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(singulens, name) is not None, name
    # sqh_obstruction is a verdict, a step replays through its chain, the
    # elimination order is one constant, and the witness runs are fixed
    assert inspect.signature(singulens.sqh_obstruction).return_annotation == "bool"
    assert not hasattr(singulens.DescentStep, "replay")
    assert polyring.ELIM == polyring.MonomialOrder("elim", polyring.ELIM.key)
    assert not hasattr(polyring, "elimination_order")
    assert list(inspect.signature(singulens.counterexample_polynomial).parameters) == []
    for fn in (singulens.counterexample_suite, singulens.counterexample_certificates):
        assert list(inspect.signature(fn).parameters) == ["seed"], fn.__name__


# Ideal answers global questions on its grevlex basis and local ones on its
# echelon; only groebner_basis takes a monomial order.
IDEAL_PUBLIC = [
    "colength",
    "contains_ideal",
    "generators",
    "groebner_basis",
    "is_m_primary",
    "local_member",
    "member",
    "normal_form",
    "quotient",
    "ring",
]

GREVLEX_ONLY = {
    Ideal.normal_form: ["self", "p"],
    Ideal.member: ["self", "p"],
    Ideal._reducers: ["self"],
    Polynomial.terms: ["self"],
    Polynomial.leading_monomial: ["self"],
    Polynomial.leading_coefficient: ["self"],
}


def test_ideal_members_are_pinned():
    """Adding or removing a member of Ideal is a deliberate change to this list."""
    assert sorted(name for name in dir(Ideal) if not name.startswith("_")) == IDEAL_PUBLIC
    for name in ("__mul__", "__pow__", "__contains__", "is_zero", "is_unit"):
        assert not hasattr(Ideal, name), name
    assert hasattr(Ideal, "__add__")


def test_only_groebner_basis_takes_an_order():
    for fn, params in GREVLEX_ONLY.items():
        assert list(inspect.signature(fn).parameters) == params, fn.__qualname__
    assert list(inspect.signature(Ideal.groebner_basis).parameters) == ["self", "order"]


def test_the_runtime_imports_only_the_standard_library():
    """Every absolute import of a library module names a standard-library package."""
    modules = sorted(Path(singulens.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
