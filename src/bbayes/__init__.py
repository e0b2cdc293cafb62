"""Bayesian support-boundary recovery for Poisson point processes."""

from .grid import (
    GridFunction,
    PointPattern,
    constraint_satisfied,
    h_statistic,
    integral,
    positive_part_integral,
    simulate_minima,
    simulate_ppp,
)
from .wavelets import WaveletCoefficients, haar_analysis, haar_synthesis
from .priors import (
    CoefficientDistribution,
    FinitePrior,
    PriorSpec,
    build_prior,
    holder_test_function,
)
from .posterior import (
    DegeneratePosteriorError,
    PosteriorEnsemble,
    exact_truncated_posterior,
    importance_posterior,
    log_posterior_weight,
    mcmc_posterior,
    posterior_mass,
    posterior_mass_at_least,
    sample_posterior,
)
from .estimators import (
    check_posterior_below_mle,
    mle_lipschitz,
    mle_piecewise_constant,
    np_test,
)
from .complexity import (
    FunctionDictionary,
    covering_number,
    default_bracket_pool,
    one_sided_bracketing_number,
    separation_quantity,
)
from .harness import (
    RateStudyConfig,
    run_posterior_decay_study,
    run_rate_study,
    run_small_ball_study,
)

__version__ = "0.1.0"
