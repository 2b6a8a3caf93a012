"""Metamorphic gates: reported numbers against the symmetries of the problem.

* Target scaling T -> 2^k T: every risk and floor is linear in T, and a
  power of two scales each float operation exactly, so the scaled number
  is 2^k times the unscaled one, bit for bit.
* Source and noise scaling (S, sigma2) -> (2^k S, 2^k sigma2): the program
  sees S'/nu alone, so the preconditioner, its objective and gap and the
  dual certificate keep their bits; the schedule choose_parameters picks
  for the scaled instance has steps 2^-k times as long, under which the
  semi-stochastic risks and the bound keep theirs too.
* Joint rotation (S, T, M, w*) -> (QSQ', QTQ', QMQ', Qw*): the risks are
  invariant. The rotated instance is decomposed in another basis, so the
  test allows the rounding error of that eigendecomposition, stated below
  from u and the condition number of S.
* Coordinate permutation (S, T, M, w*) -> (PSP', PTP', PMP', Pw*) of the
  diagonal power-law instance: its eigendecomposition sorts the same
  eigenvalues, so the schedule and the risks keep their bits and the
  water-filled floor permutes; sums taken in coordinate order move the
  floor and the objective within d u.

The known failures are strict xfails that name the ROADMAP item whose change
removes the mark.
"""
import numpy as np
import pytest

from covshift.asgd import choose_parameters, risk_bound
from covshift.estimators import DEFAULT_BIAS_COEFF
from covshift.lowerbound import maximize_F
from covshift.model import (
    PowerLawSpec,
    ProblemInstance,
    SpectralTriple,
    make_power_law_instance,
    whiten,
)
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


def with_source_and_noise_scaled(inst, scale):
    return ProblemInstance(S=scale * inst.S, T=inst.T, M=inst.M, w_star=inst.w_star,
                           sigma2=scale * inst.sigma2)


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("n", sorted(SCHEDULES))
def test_scaling_the_source_and_the_noise_keeps_the_oracle_and_the_bound(n, k):
    scaled = with_source_and_noise_scaled(BASE, 2.0**k)
    cfg = choose_parameters(scaled, n, require_admissible=False)
    assert cfg.delta0 == 2.0**-k * SCHEDULES[n].delta0
    assert reported(scaled, cfg) == reported(BASE, SCHEDULES[n])


def dense_program():
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((2, 8, 8))
    return A @ A.T / 8 + 0.1 * np.eye(8), B @ B.T / 8


def commuting_program():
    # S and T share a rotated eigenbasis, so the water-filling candidate
    # competes with the dual's recovery
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return (Q * rng.uniform(0.1, 2.0, 6)) @ Q.T, (Q * rng.uniform(0.0, 1.0, 6)) @ Q.T


@pytest.mark.parametrize("k", [-10, 10])
@pytest.mark.parametrize("n", [16, 2**16])
@pytest.mark.parametrize("program", [dense_program, commuting_program],
                         ids=["dense", "commuting"])
def test_scaling_the_source_and_the_noise_keeps_the_preconditioner(program, n, k):
    S, T = program()
    sigma2 = 0.25
    progs = [PrecondProgram(SpectralTriple(scale * S, T), DEFAULT_BIAS_COEFF, scale * sigma2 / n)
             for scale in (1.0, 2.0**k)]
    prec, scaled = solve_stack(progs)
    assert np.array_equal(scaled.A, prec.A)
    assert (scaled.objective_value, scaled.gap) == (prec.objective_value, prec.gap)
    cert, cert_scaled = prec.certificate, scaled.certificate
    assert np.array_equal(cert_scaled.F, cert.F)
    assert (cert_scaled.value, cert_scaled.iterations, cert_scaled.stop_reason) == (
        cert.value, cert.iterations, cert.stop_reason)


def permuted(inst, seed=0):
    """(p, the instance with its coordinates permuted by p), p seeded."""
    p = np.random.default_rng(seed).permutation(inst.d)
    ix = np.ix_(p, p)
    return p, ProblemInstance(S=inst.S[ix], T=inst.T[ix], M=inst.M[ix],
                              w_star=inst.w_star[p], sigma2=inst.sigma2)


@pytest.mark.parametrize("n", sorted(SCHEDULES))
def test_permuting_the_coordinates_keeps_the_schedule_the_oracle_and_the_bound(n):
    _, perm = permuted(BASE)
    cfg = choose_parameters(perm, n, require_admissible=False)
    assert cfg == SCHEDULES[n]
    assert reported(perm, cfg) == reported(BASE, SCHEDULES[n])


@pytest.mark.parametrize("n", sorted(SCHEDULES))
def test_permuting_the_coordinates_permutes_the_floor(n):
    p, perm = permuted(BASE)
    tol = D * np.finfo(float).eps
    cert, cert_perm = (maximize_F(whiten(inst), inst.sigma2, n) for inst in (BASE, perm))
    assert (cert.iterations, cert_perm.iterations) == (1, 1)  # both water-filled
    # the water level and the active set keep their bits; the step that puts
    # tr F back at the radius sums f in coordinate order
    F = cert.F[np.ix_(p, p)]
    assert np.array_equal(cert_perm.F != 0, F != 0)
    assert np.abs(cert_perm.F - F).max() <= tol * np.trace(F)
    assert abs(cert_perm.value - cert.value) <= tol * cert.value
    prec, prec_perm = solve_stack([PrecondProgram(whiten(inst), DEFAULT_BIAS_COEFF,
                                                  inst.sigma2 / n) for inst in (BASE, perm)])
    assert abs(prec_perm.objective_value - prec.objective_value) <= tol * prec.objective_value
