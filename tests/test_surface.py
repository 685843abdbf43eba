"""The public surface re-exported from the package root."""

import singulens

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
    "RationalSection",
    "RingContext",
    "ScreenResult",
    "SingularityClass",
    "SqhObstruction",
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
