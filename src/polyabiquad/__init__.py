"""Polya groups of bicyclic biquadratic number fields.

Exact-arithmetic computation of the order of the group of strongly ambiguous
ideal classes of K = Q(sqrt(d1), sqrt(d2)) and its three quadratic subfields,
via closed unit-index formulas, together with a brute-force ambiguous-ideal
oracle (exponent vectors of radical products, membership in rad(p) by
xi^e_p in p*O_K, principality search) that verifies every formula and
builds no ideal lattice.  The two routes share only the continued-fraction
fundamental unit of each quadratic subfield and the square test in one
quadratic subfield: the formula route decides the unit index from
Tr(eps) + 2 by tests on rational integers, takes no square root in K,
solves j2 (the class of the prime above 2 lies outside the image of
the subfield ambiguous classes) from |H^1(G, O_K^x)| and builds no ideal.
"""

from .biquadratic import BiquadField, biquadratic_field
from .errors import (Budget, BudgetExceededError, DomainError, InconsistencyError,
                     InvalidInputError)
from .lattice import AmbiguousIdealOracle, principal_ideal_generator
from .polya import j2_value, kernel_order, polya_report, verify_biquad, verify_quad
from .quadratic import (QuadIdeal, QuadraticField, ambiguous_oracle_quad,
                        polya_order_quad, prime_above, principal_generator_quad,
                        quadratic_field)
from .report import OutputRecord, QuadRecord, quad_record, render_records
from .units import UnitStructure, integral_square_root, unit_structure

__version__ = "0.1.0"

__all__ = [
    "AmbiguousIdealOracle", "BiquadField", "Budget", "BudgetExceededError",
    "DomainError", "InconsistencyError", "InvalidInputError", "OutputRecord",
    "QuadIdeal", "QuadRecord", "QuadraticField", "UnitStructure",
    "ambiguous_oracle_quad", "biquadratic_field",
    "integral_square_root", "j2_value", "kernel_order",
    "polya_order_quad", "polya_report", "prime_above", "principal_generator_quad",
    "principal_ideal_generator", "quad_record", "quadratic_field", "render_records",
    "unit_structure", "verify_biquad", "verify_quad",
]
