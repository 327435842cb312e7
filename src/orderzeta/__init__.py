"""Exact arithmetic for one-variable orders over F_q[[t]]: counting
polynomials for ideal lattices, their symmetry and value identities, and
conjugacy-class integrals with bounds."""

__version__ = "0.1.0"

from .errors import (BadFactorization, CeilingExceeded, InvariantViolation,
                     MethodDisagreement, NonIntegralInput,
                     NonIntegralSpecialValue, NotSquarefree, OrderZetaError,
                     ParseError, PrecisionExhausted, PreconditionViolated,
                     RankDeficient, TruncationFailure)
from .fq import Fq
from .orders import base_change_order, build_order, n_lines_order
from .lattices import (class_count_mod_lambda, enumeration_ceiling,
                       hnf_from_generators, identity_lattice, relative_length,
                       sandwich_representatives)
from .partitions import hilb_count_regular, m_poly, n_poly
from .parsing import (format_order_description, format_xpoly, parse_field,
                      parse_order_description, parse_xpoly)
from .zeta import (nlines_closed_form, per_class_refinement, quot_series,
                   special_values, variant_zeta, zeta_polynomial)
from .orbital import (cross_validated_orbital, elliptic_ideal_formula,
                      levi_fiber_check, levi_product, orbital_bounds)
from .report import (analyze_report, mnpoly_report, nlines_report,
                     selftest_report)

__all__ = [
    "__version__",
    "BadFactorization", "CeilingExceeded", "InvariantViolation",
    "MethodDisagreement", "NonIntegralInput", "NonIntegralSpecialValue",
    "NotSquarefree", "OrderZetaError", "ParseError", "PrecisionExhausted",
    "PreconditionViolated", "RankDeficient", "TruncationFailure",
    "Fq",
    "base_change_order", "build_order", "n_lines_order",
    "class_count_mod_lambda", "enumeration_ceiling", "hnf_from_generators",
    "identity_lattice", "relative_length", "sandwich_representatives",
    "hilb_count_regular", "m_poly", "n_poly",
    "format_order_description", "format_xpoly", "parse_field",
    "parse_order_description", "parse_xpoly",
    "nlines_closed_form", "per_class_refinement", "quot_series",
    "special_values", "variant_zeta", "zeta_polynomial",
    "cross_validated_orbital", "elliptic_ideal_formula", "levi_fiber_check",
    "levi_product", "orbital_bounds",
    "analyze_report", "mnpoly_report", "nlines_report", "selftest_report",
]
