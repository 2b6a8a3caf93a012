"""Preconditioned linear estimators and their risk surrogate.

The estimator family is

    w_hat(A) = (1/n) M^{-1/2} A M^{1/2} S^{-1} sum_i x_i y_i

where A acts in the whitened coordinates. A = I is the plain unbiased
least-squares statistic; shrinking A trades bias for variance. The matching
risk surrogate (an upper bound on worst-case target excess risk over the
constraint ellipsoid) is

    bias_coeff * |(I-A)' T' (I-A)|  +  noise_coeff * <T', A S'^{-1} A'>

with noise_coeff = (2 sigma2 + 2 psi |S'|)/n for the moment-based guarantee,
psi = 3 the Gaussian design's fourth-moment constant (ProblemInstance.psi),
and sigma2/n for the information-theoretic matching variant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lowerbound import DEFAULT_RADIUS
from .model import ProblemInstance, Samples, SpectralTriple, excess_risk, sample_source
from .psdlinalg import NotPSD, spectral_norm

__all__ = [
    "RiskEstimate",
    "ObjectiveValue",
    "default_noise_coeff",
    "estimate",
    "eval_upper_objective",
    "mc_risk",
]


@dataclass(frozen=True)
class ObjectiveValue:
    objective: float
    bias_term: float
    variance_term: float


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float
    median: float
    n_seeds: int


DEFAULT_BIAS_COEFF = DEFAULT_RADIUS
"""Bias-term weight under which the preconditioner program's optimum meets
the information-theoretic lower bound: the dual trace budget 1/pi^2."""


def default_noise_coeff(inst: ProblemInstance, n: int) -> float:
    """(2 sigma2 + 2 psi |S'|)/n — the moment-based variance coefficient."""
    return (2 * inst.sigma2 + 2 * inst.psi * inst.c_finite) / n


def eval_upper_objective(
    triple: SpectralTriple, A, noise_coeff: float, bias_coeff: float = 1.0
) -> ObjectiveValue:
    """Evaluate the risk surrogate at A; returns the two terms separately."""
    _require_pd(triple.S_prime)
    return _upper_objective(triple, A, noise_coeff, bias_coeff)


def _require_pd(S_prime):
    """Raise NotPSD unless S' is positive definite (its Cholesky factor
    exists); ``_upper_objective`` solves with S' and assumes it is."""
    try:
        np.linalg.cholesky(S_prime)
    except np.linalg.LinAlgError as e:
        raise NotPSD(f"S' is not positive definite: {e}") from e


def _upper_objective(triple, A, noise_coeff, bias_coeff) -> ObjectiveValue:
    """The risk surrogate at A, for a positive definite triple.S_prime."""
    A = np.asarray(A, dtype=float)
    R = np.eye(triple.d) - A
    bias = bias_coeff * spectral_norm(R.T @ triple.T_prime @ R)
    quad = float(np.sum(triple.T_prime * (A @ np.linalg.solve(triple.S_prime, A.T))))
    var = noise_coeff * quad
    return ObjectiveValue(objective=bias + var, bias_term=bias, variance_term=var)


def estimate(inst: ProblemInstance, A, samples: Samples) -> np.ndarray:
    """Apply the preconditioned estimator to a batch of samples.

    One pass accumulates the moment vector (1/n) sum_i x_i y_i, then a single
    solve against S and the whitening sandwich produce the estimate.
    """
    A = np.asarray(A, dtype=float)
    n = len(samples)
    moment = samples.X.T @ samples.y / n
    try:
        z = np.linalg.solve(inst.S, moment)
    except np.linalg.LinAlgError as e:
        raise NotPSD(f"S is singular: {e}") from e
    return inst.M_inv_sqrt @ (A @ (inst.M_sqrt @ z))


def mc_risk(inst: ProblemInstance, A, n: int, seeds) -> RiskEstimate:
    """Monte-Carlo excess risk of w_hat(A) over a list of data seeds: the
    excess risk of ``estimate`` on each seed's draw.

    Deterministic given the seed list; per-seed draws are independent and the
    reduction is in seed order.
    """
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds for a standard error")
    risks = np.array([excess_risk(inst, estimate(inst, A, sample_source(inst, n, seed)))
                      for seed in seeds])
    mean = float(np.mean(risks))
    stderr = float(np.std(risks, ddof=1) / np.sqrt(len(seeds)))
    return RiskEstimate(mean=mean, stderr=stderr, median=float(np.median(risks)),
                        n_seeds=len(seeds))
