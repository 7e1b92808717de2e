"""Exact arithmetic for the level-2 poly-Cauchy sequence and its convolution identities.

The package computes the sequence C_{2n}^(k) and the level-2 triangle [[n, m]]
by several independent routes, and mechanically verifies the closed-form
convolution identities that relate them, all over exact rationals.
"""

from .convolution import (
    CheckRow,
    ConjecturePolynomial,
    IDENTITY_NAMES,
    IdentityReport,
    conjecture_prefactor,
    convolution_sweep,
    extract_conjecture_polynomials,
    verify_identity,
)
from .exact import (
    binomial,
    harmonic,
    rational_to_text,
)
from .polycauchy import (
    IntegralCheck,
    PolyCauchyTable,
    arcsinh_power_egf,
    integral_representation_check,
    level2_by_formula,
    level2_by_series,
    level2_series_values,
)
from .series import BUILTIN_SERIES_NAMES, builtin_series
from .stirling import (
    CentralFactorialTriangle,
    FormulaCheck,
    Level2Triangle,
    StirlingTriangle,
    central_factorial_even,
    central_factorial_triangle,
    closed_form_fixtures,
    level2_by_classical_combination,
    level2_by_recurrence,
    level2_by_rising_factorial,
    level2_by_symmetric_sum,
    level2_text_rows,
    stirling1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "rational_to_text",
    "binomial",
    "harmonic",
    "builtin_series",
    "BUILTIN_SERIES_NAMES",
    "StirlingTriangle",
    "Level2Triangle",
    "CentralFactorialTriangle",
    "stirling1",
    "level2_by_recurrence",
    "level2_text_rows",
    "level2_by_rising_factorial",
    "level2_by_symmetric_sum",
    "level2_by_classical_combination",
    "central_factorial_triangle",
    "central_factorial_even",
    "closed_form_fixtures",
    "FormulaCheck",
    "level2_by_formula",
    "level2_by_series",
    "PolyCauchyTable",
    "IntegralCheck",
    "integral_representation_check",
    "arcsinh_power_egf",
    "level2_series_values",
    "convolution_sweep",
    "CheckRow",
    "IdentityReport",
    "verify_identity",
    "IDENTITY_NAMES",
    "ConjecturePolynomial",
    "extract_conjecture_polynomials",
    "conjecture_prefactor",
]
