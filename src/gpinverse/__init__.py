"""GP surrogates via Bayesian optimization plus least-squares Bayesian inversion.

The package builds Gaussian-process surrogates of expensive scalar models
with uncertainty-aware adaptive sampling, then performs inverse-problem
inference on the surrogate: multistart MAP estimation, Laplace credible
intervals, posterior level sets, and MCMC diagnostics.
"""

from .benchmarks import (
    BENCHMARKS,
    HighFidelityModel,
    eval_benchmark,
    get_benchmark,
    sample_initial_design,
)
from .baselines import DeterministicSurrogate, eval_deterministic, fit_deterministic
from .bo import (
    AcquisitionSpec,
    BoConfig,
    BoTrace,
    acquire_batch,
    expected_improvement,
    run_bo,
    upper_confidence_bound,
    validation_mse,
)
from .data import Dataset
from .errors import (
    ConfigurationError,
    DegenerateDataError,
    DomainError,
    GpInverseError,
    InferenceError,
    NumericalError,
    ShapeError,
    UnsupportedDimensionError,
)
from .gp import (
    GpModel,
    KernelSpec,
    gp_fit,
    gp_optimize_hyperparameters,
    gp_predict_many,
    kernel_eval,
    log_marginal_likelihood,
)
from .inversion import (
    GaussianPrior,
    InverseProblem,
    LaplaceResult,
    MapCluster,
    PosteriorSummary,
    evaluate_profile_grid,
    high_probability_region,
    laplace_approximation,
    ls_functional,
    map_gaussian_prior,
    map_multistart,
    nls_profile,
)
from .sampling import (
    ChainResult,
    GridPosterior,
    McmcConfig,
    grid_posterior,
    kde_estimate,
    run_mcmc,
    silverman_bandwidth,
)

__version__ = "0.1.0"
