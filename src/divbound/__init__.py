"""divbound: symmetric divergence measures and certified Bayes-error bounds
for finite discrete probability distributions."""

from .kernel import (
    SWITCH_EPS,
    ArgumentError,
    DivboundError,
    DomainError,
    OrderParameter,
    ProbeFailure,
    Regime,
    convexity_probe,
    invert_decreasing,
    x_ln_x,
)
from .distributions import (
    PERMISSIVE,
    STRICT,
    SUM_TOL,
    DiscreteDistribution,
    ValidationFailure,
    validate,
)
from .measures import (
    BASE_TAGS,
    CHAIN_TOL,
    DIFF_TAGS,
    ChainReport,
    MeasureId,
    base_measure,
    chain_check,
    difference_measure,
    measure_value,
    xi,
    zeta,
)
from .generators import (
    CATALOG_KEYS,
    GeneratingFunction,
    csiszar_sum,
    generator,
    limit_constants,
    probe_generator,
    probe_star,
    star,
    xi_f_inf,
    zeta_f_inf,
)
from .bounds import (
    BoundEntry,
    BoundReport,
    BoundUnavailable,
    ComparisonResult,
    TwoClassProblem,
    average_f_divergence,
    averaged_xi,
    averaged_zeta,
    bayes_error,
    bound_report,
    comparison_check,
    generic_upper_bound,
    kailath_bound,
    lower_bound_family,
    toussaint_bounds,
    upper_bound_difference,
    upper_bound_xi,
    upper_bound_zeta,
    xi_point,
    zeta_point,
)
from .verify import SuiteResult, random_problem, random_strict_pair, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
