"""Bayesian support-boundary recovery for Poisson point processes."""

from .grid import (
    DominationError,
    GridFunction,
    PointPattern,
    constraint_satisfied,
    h_statistic,
    hellinger_affinity,
    hellinger_distance_sq,
    integral,
    kl_divergence,
    l1_distance,
    log_likelihood_ratio,
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
    posterior_mean,
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
