"""Underdamped Langevin Monte Carlo with randomized-midpoint discretization.

Library layout:
  targets   gradient-oracle targets (quadratics, logistic regression)
  brownian  exact correlated Gaussian increments and the path store
  samplers  steppers, chain drivers and (epsilon, kappa) schedules
  analysis  moment oracles, Gaussian W2, coupled error experiments
  cli       command-line front end (`ulmc`)
"""

__version__ = "0.1.0"

from .analysis import (
    ContractionResult,
    CoupledErrorResult,
    MomentTrace,
    StationaryStudyResult,
    W2Result,
    contraction_check,
    coupled_error_experiment,
    exact_uld_moments,
    gaussian_w2,
    rmm_moment_oracle,
    stationary_error_study,
)
from .brownian import (
    BrownianPathStore,
    IntervalStats,
    StepIncrements,
    parallel_step_increments,
    sample_interval,
    split,
    step_increments,
)
from .errors import (
    ConfigError,
    DatasetFormatError,
    InvalidTargetError,
    ScheduleError,
    UlmcError,
    UnsupportedTargetError,
)
from .samplers import (
    SamplerState,
    Schedule,
    euler_uld_step,
    exponential_euler_uld_step,
    overdamped_lmc_step,
    parallel_rmm_run,
    parallel_rmm_step,
    rmm_run,
    rmm_run_ensemble,
    rmm_step,
    run_chain,
    schedule,
    schedule_parallel,
)
from .targets import (
    Dataset,
    TargetSpec,
    estimate_smoothness,
    load_libsvm,
    logistic_target,
    quadratic_target,
)
