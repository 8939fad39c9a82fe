"""VC entropy of linear classifiers on multiplet-structured data.

Counts admissible dichotomies (labelings constant on each multiplet) by
three independent routes — an exact counting recursion, generating-function
asymptotics, and Monte Carlo sampling with exact separability decisions —
and locates the data-driven satisfiability transition that structured data
exhibits beyond the storage capacity.
"""

from .asymptotics import (
    AsymptoticForm,
    FssResult,
    TransitionResult,
    annealed_threshold_margin,
    annealed_threshold_pairs,
    asymptotic_log_count,
    entropic_term,
    fss_rescale,
    transition_load,
)
from .errors import (
    BracketError,
    BudgetError,
    DimensionError,
    DivergenceError,
    DomainError,
    InsufficientConditioningError,
    NoCrossingError,
    NoTransitionError,
    OutOfGridError,
    UnsupportedStructureError,
    ValidationError,
    VclabError,
)
from .montecarlo import (
    Dataset,
    PhasePoint,
    SatProbe,
    admissible_exists,
    count_admissible_dichotomies,
    crossover_load,
    estimate_mean_count,
    random_classifier_probe,
    sample_dataset,
    sat_fraction_scan,
)
from .numerics import (
    Rng,
    bisect_root,
    sample_orthonormal_frame,
)
from .recursion import (
    CountTable,
    build_count_table,
    cover_count_exact,
    crossing_load,
)
from .separability import max_margin
from .structure import (
    PsiVector,
    StructureSpec,
    ThetaCoefficients,
    psi2,
    psi_m_estimate,
    psi_vector,
    sample_multiplet,
    theta_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticForm",
    "BracketError",
    "BudgetError",
    "CountTable",
    "Dataset",
    "DimensionError",
    "DivergenceError",
    "DomainError",
    "FssResult",
    "InsufficientConditioningError",
    "NoCrossingError",
    "NoTransitionError",
    "OutOfGridError",
    "PhasePoint",
    "PsiVector",
    "Rng",
    "SatProbe",
    "StructureSpec",
    "ThetaCoefficients",
    "TransitionResult",
    "UnsupportedStructureError",
    "ValidationError",
    "VclabError",
    "admissible_exists",
    "annealed_threshold_margin",
    "annealed_threshold_pairs",
    "asymptotic_log_count",
    "bisect_root",
    "build_count_table",
    "count_admissible_dichotomies",
    "cover_count_exact",
    "crossing_load",
    "crossover_load",
    "entropic_term",
    "estimate_mean_count",
    "fss_rescale",
    "max_margin",
    "psi2",
    "psi_m_estimate",
    "psi_vector",
    "random_classifier_probe",
    "sample_dataset",
    "sample_multiplet",
    "sample_orthonormal_frame",
    "sat_fraction_scan",
    "theta_coefficients",
    "transition_load",
]
