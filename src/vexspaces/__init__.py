"""Variable-exponent function-space quasi-norms on the periodic unit torus.

The package computes Lebesgue, mixed Lebesgue-sequence and 2-microlocal
Besov / Triebel-Lizorkin quasi-norms of sampled periodic signals, and ships
verification suites that measure the constants in the standard embedding,
lifting, maximal-function and Fourier-multiplier inequalities for these
scales.
"""

from .grid import (
    Grid,
    GridFunction,
    FunctionSequence,
    quadrature,
    coefficients,
    synthesize,
    convolve,
    spectral_derivative,
)
from .exponents import VariableExponent, LogHolderReport, log_holder_estimate, conjugate
from .lebesgue import ModularResult, modular, norm, holder_pairing, characteristic_norm_check
from .weights import WeightSequence, AdmissibilityReport, verify_admissible
from .mixed import lp_lq_norm, lq_lp_norm, lq_lp_modular, eta_kernel, smooth_sequence
from .analysis import (
    AnalysisSystem,
    admissible_system,
    littlewood_paley,
    peetre_maximal,
    local_means,
    lift,
    apply_multiplier,
    MultiplierSymbol,
)
from .spaces import (
    SpaceSpec,
    Band,
    EquivalenceReport,
    standard_corpus,
    quasi_norm,
    quasi_norm_maximal,
    quasi_norm_local_means,
    pair_independence_check,
    lifting_check,
    schwartz_embedding_checks,
    multiplier_bound_checks,
    derivative_sum_check,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridFunction",
    "FunctionSequence",
    "quadrature",
    "coefficients",
    "synthesize",
    "convolve",
    "spectral_derivative",
    "VariableExponent",
    "LogHolderReport",
    "log_holder_estimate",
    "conjugate",
    "ModularResult",
    "modular",
    "norm",
    "holder_pairing",
    "characteristic_norm_check",
    "WeightSequence",
    "AdmissibilityReport",
    "verify_admissible",
    "lp_lq_norm",
    "lq_lp_norm",
    "lq_lp_modular",
    "eta_kernel",
    "smooth_sequence",
    "AnalysisSystem",
    "admissible_system",
    "littlewood_paley",
    "peetre_maximal",
    "local_means",
    "lift",
    "apply_multiplier",
    "MultiplierSymbol",
    "SpaceSpec",
    "Band",
    "EquivalenceReport",
    "standard_corpus",
    "quasi_norm",
    "quasi_norm_maximal",
    "quasi_norm_local_means",
    "pair_independence_check",
    "lifting_check",
    "schwartz_embedding_checks",
    "multiplier_bound_checks",
    "derivative_sum_check",
    "__version__",
]
