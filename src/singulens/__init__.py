"""Exact invariants of isolated hypersurface singularities.

Computes Milnor and Tjurina numbers, quasi-homogeneity, multiplier-style
ideal data and the reduced genus of an isolated hypersurface singularity,
and certifies the genus-plus-two lower bound for the length of the module
of meromorphic functions with poles along the hypersurface over the ring
of differential operators, including the bundled counterexample worksheet
showing the bound can be strict.
"""

from .polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    RingContext,
    parse,
)
from .ideals import (
    DegreeCapExceeded,
    ExponentOverflow,
    INFINITE,
    Ideal,
    InfiniteColengthError,
    local_colength,
    maximal_ideal,
    maximal_ideal_power,
    quotient_dimension,
)
from .invariants import (
    Germ,
    QHVerdict,
    WeightSystem,
    find_weights,
    is_quasi_homogeneous,
    jacobian_ideal,
    milnor_number,
    sqh_obstruction,
    tjurina_number,
)
from .sections import (
    DescentChain,
    DescentStep,
    euler_check,
    generation_descent,
    jk_ideal,
)
from .genus import (
    GenusResult,
    SingularityClass,
    classify,
    compute_genus,
    genus_ordinary,
    genus_weighted,
)
from .analyzer import (
    AnalysisReport,
    Certificate,
    EqualityVerdict,
    ScreenResult,
    analyze,
    counterexample_certificates,
    counterexample_polynomial,
    counterexample_suite,
    equality_certificate,
    length_bound,
    screen_isolated,
)

__all__ = [
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

__version__ = "0.1.0"
