"""Minimax tooling for linear regression under covariate shift.

The package has three layers:

* problem setup and linear algebra: :mod:`covshift.model`,
  :mod:`covshift.psdlinalg`;
* the two sides of the minimax problem: :mod:`covshift.lowerbound`
  (information-theoretic lower bound and the hardest prior) and
  :mod:`covshift.precond` / :mod:`covshift.estimators` (preconditioned
  one-pass estimator and its risk objective);
* streaming optimization and its exact risk accounting:
  :mod:`covshift.asgd`, :mod:`covshift.riskoracle`, with experiment
  drivers in :mod:`covshift.experiments` and a CLI in
  :mod:`covshift.cli`.
"""
from .asgd import (
    ASGDConfig,
    InfeasibleSchedule,
    RiskBound,
    Trajectory,
    choose_parameters,
    choose_rate_parameters,
    effective_dimension,
    risk_bound,
    run,
    run_batch,
)
from .estimators import (
    DEFAULT_BIAS_COEFF,
    ObjectiveValue,
    RiskEstimate,
    default_noise_coeff,
    estimate,
    eval_upper_objective,
    mc_risk,
)
from .experiments import (
    BoundCheckReport,
    DualityReport,
    EmergenceReport,
    ExperimentSpec,
    RateFit,
    RateSweepReport,
    run_bound_check,
    run_duality,
    run_emergence,
    run_rate_sweep,
    spec_from_json,
    spec_hash,
    spec_to_json,
)
from .lowerbound import (
    CosSquaredPrior,
    DegeneratePrior,
    LowerBoundCertificate,
    MaxIterationsError,
    maximize_F,
    prior_from_certificate,
    prior_information_matrix,
    sample_prior,
)
from .model import (
    PowerLawSpec,
    ProblemInstance,
    Samples,
    SpectralTriple,
    excess_risk,
    instance_from_json,
    instance_to_json,
    make_power_law_instance,
    sample_source,
    whiten,
)
from .precond import (
    DiagonalSolution,
    PrecondProgram,
    Preconditioner,
    precond_to_json,
    recover_A_from_F,
    solve_diagonal,
    solve_general,
    solve_stack,
)
from .psdlinalg import (
    EigenDecomposition,
    EigenSolverError,
    NotPSD,
    eigh,
    project_psd_nuclear_ball,
    psd_roots,
    spectral_norm,
    sym,
)
from .riskoracle import (
    DivergentStationaryState,
    SemiStochastic,
    StationaryPair,
    eig_pair_pm,
    lambda_dagger,
    lambda_ddagger,
    semi_stochastic,
    semi_stochastic_variance_bound,
    spectral_radius,
    stationary_U,
)

__version__ = "0.1.0"
