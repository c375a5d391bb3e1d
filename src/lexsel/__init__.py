"""lexsel: parent selection for evolutionary computation.

Selection methods (weighted-aggregation ``dalex`` plus the lexicase
family), exact selection-probability oracles for small instances,
fidelity metrics between selection distributions, a miniature
evolutionary harness, and benchmark utilities.
"""

from .bench import (
    REGIMES,
    BenchRecord,
    make_regime_matrices,
    run_bench,
    time_selection,
)
from .core import (
    EquivalenceClassing,
    RandomSource,
    build_classes,
    expand_class_selection,
    load_error_matrix,
    load_support_matrix,
    save_matrix,
    singleton_classes,
    standardize_per_case,
)
from .evolve import (
    PROBLEM_KINDS,
    GenerationRecord,
    Population,
    RunResult,
    SyntheticProblem,
    downsample_cases,
    fidelity_trace,
    run_evolution,
    umad_mutate,
)
from .exceptions import (
    ConfigError,
    InstanceTooLargeError,
    LexselError,
    ParseError,
    ShapeError,
)
from .metrics import (
    JS_MAX,
    FidelityReport,
    FidelitySummary,
    aggregate_fidelity,
    js_divergence,
    probability_ratio,
)
from .oracle import (
    SelectionDistribution,
    distribution_over_individuals,
    empirical_distribution,
    exact_epsilon_lexicase_probs,
    exact_lexicase_probs,
)
from .selectors import (
    SelectorConfig,
    batch_lexicase_select,
    config_from_mapping,
    config_to_mapping,
    dalex_select,
    epsilon_for_cases,
    epsilon_lexicase_select,
    lexicase_select,
    sample_importance,
    select_classes,
    select_parents,
    softmax_rows,
    weighted_fitness,
)

__version__ = "0.1.0"

__all__ = [
    "RandomSource",
    "EquivalenceClassing",
    "build_classes",
    "singleton_classes",
    "expand_class_selection",
    "standardize_per_case",
    "load_error_matrix",
    "load_support_matrix",
    "save_matrix",
    "SelectorConfig",
    "config_from_mapping",
    "config_to_mapping",
    "sample_importance",
    "softmax_rows",
    "dalex_select",
    "lexicase_select",
    "epsilon_for_cases",
    "epsilon_lexicase_select",
    "batch_lexicase_select",
    "weighted_fitness",
    "select_classes",
    "select_parents",
    "SelectionDistribution",
    "exact_lexicase_probs",
    "exact_epsilon_lexicase_probs",
    "empirical_distribution",
    "distribution_over_individuals",
    "JS_MAX",
    "js_divergence",
    "probability_ratio",
    "FidelityReport",
    "FidelitySummary",
    "aggregate_fidelity",
    "PROBLEM_KINDS",
    "Population",
    "SyntheticProblem",
    "GenerationRecord",
    "RunResult",
    "umad_mutate",
    "downsample_cases",
    "run_evolution",
    "fidelity_trace",
    "REGIMES",
    "BenchRecord",
    "make_regime_matrices",
    "time_selection",
    "run_bench",
    "LexselError",
    "ParseError",
    "ShapeError",
    "ConfigError",
    "InstanceTooLargeError",
]
