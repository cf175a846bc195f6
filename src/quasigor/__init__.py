"""quasigor: exact Groebner-basis and linkage computations, with a
Q-divisor section-ring calculator on the projective line.

The package is organized bottom-up: fields and rings (exact scalars,
sparse polynomials, text formats), the Buchberger engine, ideal algebra
(colon, intersection, elimination, dimension, Hilbert functions), liaison
(canonical modules as colon/link with Nakayama generator counts), and the
divisor calculator.  ``quasigor.cli`` provides the command-line front end;
``verify_counterexample`` runs the built-in deformed-Segre pipeline.
"""

from .errors import (
    InputError,
    ParseError,
    QuasigorError,
    RingMismatchError,
    UnsupportedRequestError,
    VerificationError,
)
from .fields import QQ, PrimeField, RationalField
from .orders import GrevlexOrder, LexOrder, MatrixOrder, elimination_order
from .rings import Polynomial, PolyRing
from .parse import parse_generators, parse_polynomial, parse_ring
from .groebner import (
    GroebnerBasis,
    buchberger,
    exact_quotient,
    normal_form,
    s_polynomial,
)
from .ideals import Ideal
from .linkage import (
    CanonicalModulePresentation,
    LinkagePair,
    build_linkage,
    is_quasi_gorenstein,
    is_unmixed,
    minimal_generator_count,
    present_canonical_module,
    select_complete_intersection,
    unmixed_part,
    verify_counterexample,
    verify_quotient_ring,
)
from .divisors import (
    CurvePoint,
    EllipticCohomologyTable,
    P1CohomologyTable,
    QDivisor,
    SectionSpace,
    generator_degrees,
    h0,
    h1,
    parse_divisor,
    quasi_gorenstein_hilbert_check,
    section_basis,
    segre_hilbert,
    segre_local_cohomology_dim,
    watanabe_gorenstein,
)
from .reporting import Step, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "QQ",
    "CanonicalModulePresentation",
    "CurvePoint",
    "EllipticCohomologyTable",
    "GrevlexOrder",
    "GroebnerBasis",
    "Ideal",
    "InputError",
    "LexOrder",
    "LinkagePair",
    "MatrixOrder",
    "P1CohomologyTable",
    "ParseError",
    "Polynomial",
    "PolyRing",
    "PrimeField",
    "QDivisor",
    "QuasigorError",
    "RationalField",
    "RingMismatchError",
    "SectionSpace",
    "Step",
    "UnsupportedRequestError",
    "VerificationError",
    "VerificationReport",
    "buchberger",
    "build_linkage",
    "elimination_order",
    "exact_quotient",
    "generator_degrees",
    "h0",
    "h1",
    "is_quasi_gorenstein",
    "is_unmixed",
    "minimal_generator_count",
    "normal_form",
    "parse_divisor",
    "parse_generators",
    "parse_polynomial",
    "parse_ring",
    "present_canonical_module",
    "quasi_gorenstein_hilbert_check",
    "s_polynomial",
    "section_basis",
    "segre_hilbert",
    "segre_local_cohomology_dim",
    "select_complete_intersection",
    "unmixed_part",
    "verify_counterexample",
    "verify_quotient_ring",
    "watanabe_gorenstein",
]
