"""Metamorphic gates: reported numbers against the symmetries of the problem.

* Target scaling T -> 2^k T: every risk and floor is linear in T, and a
  power of two scales each float operation exactly, so the scaled number
  is 2^k times the unscaled one, bit for bit.
* Joint rotation (S, T, M, w*) -> (QSQ', QTQ', QMQ', Qw*): the risks are
  invariant. The rotated instance is decomposed in another basis, so the
  test allows the rounding error of that eigendecomposition, stated below
  from u and the condition number of S.

The known failures are strict xfails that name the ROADMAP item whose change
removes the mark.
"""
import numpy as np
import pytest

from covshift.asgd import choose_parameters, risk_bound
from covshift.estimators import DEFAULT_BIAS_COEFF
from covshift.model import PowerLawSpec, ProblemInstance, SpectralTriple, make_power_law_instance
from covshift.precond import PrecondProgram, solve_stack
from covshift.riskoracle import semi_stochastic

D = 30
BASE = make_power_law_instance(PowerLawSpec(d=D, a=2.0, s=1.0, r=0.0), seed=0)


def rotated(inst, seed=0):
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((inst.d, inst.d)))
    Q = Q * np.sign(np.diag(R))
    return ProblemInstance(S=Q @ inst.S @ Q.T, T=Q @ inst.T @ Q.T, M=Q @ inst.M @ Q.T,
                           w_star=Q @ inst.w_star, sigma2=inst.sigma2)


def with_target_scaled(inst, scale):
    return ProblemInstance(S=inst.S, T=scale * inst.T, M=inst.M, w_star=inst.w_star,
                           sigma2=inst.sigma2)


def reported(inst, cfg):
    """The semi-stochastic bias and variance totals and the bound's total."""
    bias, variance = semi_stochastic(inst, cfg)
    return bias.total, variance.total, risk_bound(inst, cfg).total


# The momentum schedule of the unrotated instance, used for both, so a
# rotation changes the instance alone.
SCHEDULES = {n: choose_parameters(BASE, n, require_admissible=False) for n in (2**8, 2**12)}


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("n", sorted(SCHEDULES))
@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_scaling_the_target_scales_the_oracle_and_the_bound_exactly(rotate, n, k):
    inst = rotated(BASE) if rotate else BASE
    cfg = SCHEDULES[n]
    scaled = reported(with_target_scaled(inst, 2.0**k), cfg)
    assert scaled == tuple(2.0**k * value for value in reported(inst, cfg))


def rotation_tolerance(inst):
    # a backward-stable eigh moves each eigenvalue of S by about d u |S|,
    # so the smallest by a relative d u kappa(S); the bias and the bound are
    # sums of positive per-direction terms, smooth in the eigenpairs (here
    # M = I, s = 1), which move relatively by no more than that
    lam = inst.eig_S.eigenvalues
    return inst.d * np.finfo(float).eps * lam.max() / lam.min()


@pytest.mark.parametrize("n", sorted(SCHEDULES))
def test_a_joint_rotation_keeps_the_bias_and_the_bound(n):
    cfg = SCHEDULES[n]
    (bias, _, bound), (bias_rot, _, bound_rot) = reported(BASE, cfg), reported(rotated(BASE), cfg)
    tol = rotation_tolerance(BASE)
    assert abs(bias_rot - bias) <= tol * bias
    assert abs(bound_rot - bound) <= tol * bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: the momentum variance recursion "
                   "cancels terms about 4x its result; it moves 3.6e-7 under this rotation")
def test_a_joint_rotation_keeps_the_variance():
    cfg = SCHEDULES[2**12]
    variance = reported(BASE, cfg)[1]
    variance_rot = reported(rotated(BASE), cfg)[1]
    assert abs(variance_rot - variance) <= rotation_tolerance(BASE) * variance


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: FISTA's stopping rules are absolute "
                   "below 1, so this floor stops after 156 iterations, not 335, 1.5e-8 off")
def test_scaling_the_target_scales_the_floor_exactly():
    # a dense d = 8 program at n = 2^16, its target scaled by 2^-10
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 8, 8))
    S, T = A @ A.T / 8 + 0.1 * np.eye(8), B @ B.T / 8
    progs = [PrecondProgram(SpectralTriple(S, scale * T), DEFAULT_BIAS_COEFF, 2.0**-16)
             for scale in (1.0, 2.0**-10)]
    floor, scaled = (prec.certificate.value for prec in solve_stack(progs))
    assert scaled == 2.0**-10 * floor
