import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift.asgd import choose_parameters, risk_bound
from covshift.lowerbound import maximize_F, prior_from_certificate, sample_prior
from covshift.model import ProblemInstance, whiten
from covshift.psdlinalg import (
    EigenSolverError,
    NotPSD,
    _simplex_cap_project,
    eigh,
    project_psd_nuclear_ball,
    psd_roots,
    spectral_norm,
    sym,
)
from covshift.riskoracle import semi_stochastic


def rand_sym(rng, d, scale=1.0):
    G = rng.standard_normal((d, d))
    return scale * sym(G)


def rand_pd(rng, d, scale=1.0):
    G = rng.standard_normal((d, d))
    return scale * (G @ G.T / d + 0.1 * np.eye(d))


def test_sym_is_symmetric_and_idempotent():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 5))
    S = sym(X)
    assert np.array_equal(S, S.T)
    assert np.allclose(sym(S), S)


def test_eigh_descending_and_reconstructs():
    rng = np.random.default_rng(1)
    X = rand_sym(rng, 8)
    dec = eigh(X)
    w, U = dec.eigenvalues, dec.eigenvectors
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(U @ np.diag(w) @ U.T, X, atol=1e-10)
    assert np.allclose(U.T @ U, np.eye(8), atol=1e-12)


def spectral_test_matrices(rng, d):
    """(name, matrix) pairs: random symmetric, PSD, low-rank PSD, and PD
    with every eigenvalue repeated (ties exercise the stable sort)."""
    G = rng.standard_normal((d, d))
    B = rng.standard_normal((d, max(1, d // 3)))
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    tied = np.repeat(rng.uniform(0.5, 2.0, (d + 1) // 2), 2)[:d]
    return [
        ("symmetric", sym(G)),
        ("psd", rand_pd(rng, d)),
        ("low_rank", B @ B.T),
        ("tied", sym((Q * tied) @ Q.T)),
    ]


def flip_eigenvector_signs(monkeypatch):
    """From now on np.linalg.eigh negates every other eigenvector (columns
    0, 2, 4, ... in LAPACK's ascending order): an equally valid answer."""
    real_eigh = np.linalg.eigh

    def flipped_eigh(X):
        w, U = real_eigh(X)
        U = U.copy()
        U[:, ::2] *= -1.0
        return w, U

    monkeypatch.setattr(np.linalg, "eigh", flipped_eigh)


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_spectral_functions_ignore_eigenvector_signs(d, monkeypatch):
    # each function returns U f(w) U', where a negated column of U cancels
    # bit for bit
    rng = np.random.default_rng(100 + d)
    cases = []
    for name, X in spectral_test_matrices(rng, d):
        dec = eigh(X)
        radius = 0.5 * float(np.abs(dec.eigenvalues).sum())
        roots = psd_roots(X) if name in ("psd", "tied") else None
        cases.append((X, dec, radius, project_psd_nuclear_ball(X, radius), roots))
    flip_eigenvector_signs(monkeypatch)
    for X, dec, radius, projection, roots in cases:
        flipped = eigh(X)
        assert np.array_equal(flipped.eigenvalues, dec.eigenvalues)
        assert not np.array_equal(flipped.eigenvectors, dec.eigenvectors)
        assert np.array_equal(project_psd_nuclear_ball(X, radius), projection)
        if roots is not None:
            for got, ref in zip(psd_roots(X), roots):
                assert np.array_equal(got, ref)


def test_instance_outputs_ignore_eigenvector_signs(monkeypatch):
    # dense S, T, M: the instance's roots and risk terms are U f(w) U' forms
    # and come out bit for bit; the certificate's prior only reflects
    # coordinates, so its draws keep their M-norms
    d, rng = 12, np.random.default_rng(31)
    S, T, M = (rand_pd(rng, d) for _ in range(3))
    w = rng.standard_normal(d)
    w /= 1.25 * np.sqrt(w @ M @ w)

    def outputs():
        inst = ProblemInstance(S=S, T=T, M=M, w_star=w, sigma2=0.5)
        cfg = choose_parameters(inst, 2**10, require_admissible=False)
        cert = maximize_F(whiten(inst), inst.sigma2, 2**10)
        W = sample_prior(prior_from_certificate(cert.F, inst.M), 500, seed=4)
        return inst, {
            "source_factor": inst.source_factor,
            "M_sqrt": inst.M_sqrt,
            "M_inv_sqrt": inst.M_inv_sqrt,
            "bias": semi_stochastic(inst, cfg)[0].total,
            "bound": risk_bound(inst, cfg).total,
            "F": cert.F,
        }, np.einsum("nd,de,ne->n", W, M, W)

    inst, ref, ref_norms = outputs()
    flip_eigenvector_signs(monkeypatch)
    flipped, got, norms = outputs()
    assert not np.array_equal(flipped.eig_S.eigenvectors, inst.eig_S.eigenvectors)
    for key, value in ref.items():
        assert np.array_equal(got[key], value), key
    assert np.allclose(norms, ref_norms, rtol=0.0, atol=1e-14)


def test_spectral_functions_keep_reconstruction_check(monkeypatch):
    # a decomposition that misses the 1e-9 reconstruction tolerance is
    # rejected by every function built on eigh
    real_eigh = np.linalg.eigh

    def perturbed_eigh(X):
        w, U = real_eigh(X)
        return w + 1e-6, U

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    X = rand_pd(np.random.default_rng(9), 5)
    for fn in (lambda A: project_psd_nuclear_ball(A, 1.0), psd_roots, eigh):
        with pytest.raises(EigenSolverError, match="residual"):
            fn(X)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    X = rand_pd(rng, 6)
    R = psd_roots(X)[0]
    assert np.allclose(R @ R, X, atol=1e-10)
    assert np.allclose(R, R.T)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_roots(np.diag([1.0, -0.5]))


def test_psd_inv_sqrt_inverts():
    rng = np.random.default_rng(3)
    X = rand_pd(rng, 5)
    W = psd_roots(X)[1]
    assert np.allclose(W @ X @ W, np.eye(5), atol=1e-9)


def test_psd_inv_sqrt_rejects_singular():
    with pytest.raises(NotPSD):
        psd_roots(np.diag([1.0, 0.0]))


def test_spectral_norm_matches_eigvalsh():
    rng = np.random.default_rng(4)
    X = rand_sym(rng, 7)
    assert spectral_norm(X) == pytest.approx(np.abs(np.linalg.eigvalsh(X)).max())


def test_project_clips_negative_part():
    # eigenvalues (2, -1) with radius 1 -> (1, 0): the negative direction is
    # dropped and the positive one is capped by the trace budget
    P = project_psd_nuclear_ball(np.diag([2.0, -1.0]), 1.0)
    assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)


def test_project_pinned_value():
    # independently computed reference: eigenvalues (0.9, 0.5, -0.2) projected
    # onto trace <= 1/pi^2 keep a single active eigenvalue 0.101321183642338
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    X = Q @ np.diag([0.9, 0.5, -0.2]) @ Q.T
    P = project_psd_nuclear_ball(X, 1.0 / math.pi**2)
    vals = np.sort(np.linalg.eigvalsh(P))[::-1]
    assert vals[0] == pytest.approx(0.101321183642338, abs=1e-12)
    assert abs(vals[1]) < 1e-12 and abs(vals[2]) < 1e-12


def test_project_noop_inside_ball():
    rng = np.random.default_rng(6)
    X = rand_pd(rng, 4, scale=0.01)
    assert np.trace(X) < 1.0
    assert np.allclose(project_psd_nuclear_ball(X, 1.0), X, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
def test_project_feasible_and_idempotent(seed, radius):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    X = rand_sym(rng, d, scale=2.0)
    P = project_psd_nuclear_ball(X, radius)
    w = np.linalg.eigvalsh(P)
    assert w.min() >= -1e-12
    assert w.sum() <= radius + 1e-9
    # projecting a feasible point is a no-op
    assert np.allclose(project_psd_nuclear_ball(P, radius), P, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_project_is_closest_feasible_point(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    radius = float(rng.uniform(0.1, 2.0))
    X = rand_sym(rng, d, scale=2.0)
    P = project_psd_nuclear_ball(X, radius)
    dist = np.linalg.norm(X - P)
    for _ in range(20):
        C = rand_pd(rng, d, scale=rng.uniform(0.01, 1.0))
        C *= min(1.0, radius / np.trace(C))  # feasible competitor
        assert np.linalg.norm(X - C) >= dist - 1e-9


# ------------------------------------------------------------------- stacks
# The lockstep dual solver steps a (B, d, d) stack of independent programs
# with one LAPACK call per operation and relies on each slice getting the
# bits of its own 2-D call.

STACK_DIMS = [2, 5, 20, 40]


def random_stack(rng, d, size):
    G = rng.standard_normal((size, d, d))
    return G + G.swapaxes(-1, -2)


@pytest.mark.parametrize("d", STACK_DIMS)
def test_numpy_stacked_calls_equal_per_slice_calls(d):
    # platform canary: a numpy or BLAS build whose stacked linalg calls or
    # matrix products round differently from per-slice calls fails here
    rng = np.random.default_rng(600 + d)
    for size in (2, 7, 14):
        X = random_stack(rng, d, size)
        M = np.eye(d) + X @ X / (4.0 * d)  # positive definite
        w, U = np.linalg.eigh(X)
        vals = np.linalg.eigvalsh(X)
        inv = np.linalg.inv(M)
        solved = np.linalg.solve(M, X)
        product = inv @ X @ inv.swapaxes(-1, -2)
        sums = (M * X).sum((-2, -1))
        for k in range(size):
            w_k, U_k = np.linalg.eigh(X[k])
            assert np.array_equal(w[k], w_k) and np.array_equal(U[k], U_k)
            assert np.array_equal(vals[k], np.linalg.eigvalsh(X[k]))
            assert np.array_equal(inv[k], np.linalg.inv(M[k]))
            assert np.array_equal(inv[k], np.linalg.solve(M[k], np.eye(d)))
            assert np.array_equal(solved[k], np.linalg.solve(M[k], X[k]))
            assert np.array_equal(product[k], inv[k] @ X[k] @ inv[k].T)
            assert sums[k] == np.sum(M[k] * X[k])


@pytest.mark.parametrize("d", STACK_DIMS)
def test_eigh_and_projection_on_a_stack_equal_per_slice_calls(d):
    # slice 0 has every eigenvalue repeated, so that stack takes the stable
    # argsort; the others take the reversal of LAPACK's ascending order
    rng = np.random.default_rng(700 + d)
    X = random_stack(rng, d, 6)
    X[0] = dict(spectral_test_matrices(rng, d))["tied"]
    radius = rng.uniform(0.05, 3.0, len(X))
    for stack in (X, X[1:]):
        dec = eigh(stack)
        P = project_psd_nuclear_ball(stack, radius[-len(stack):])
        for k, (Xk, r) in enumerate(zip(stack, radius[-len(stack):])):
            one = eigh(Xk)
            assert np.array_equal(dec.eigenvalues[k], one.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], one.eigenvectors)
            assert dec.eigenvectors[k].strides == one.eigenvectors.strides
            assert np.array_equal(P[k], project_psd_nuclear_ball(Xk, float(r)))
        assert np.array_equal(sym(stack)[0], sym(stack[0]))
    assert np.array_equal(project_psd_nuclear_ball(X, 0.5)[3], project_psd_nuclear_ball(X[3], 0.5))


def scalar_simplex_cap_project(v, radius):
    """The one-vector loop form of the capped-simplex projection, the
    reference for the vectorized one."""
    if v.sum() <= radius:
        return v
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = int(np.max(j[u - (css - radius) / j > 0]))
    theta = (css[rho - 1] - radius) / rho
    return np.maximum(v - theta, 0.0)


def test_simplex_projection_of_rows_equals_the_loop_form():
    # rows inside and outside their radius in one stack, and single rows
    rng = np.random.default_rng(8)
    for d in (1, 2, 9, 40):
        V = rng.uniform(0.0, 1.0, (5, d)) ** 3
        radius = np.array([0.3, 100.0, 1.0, 4.0, 0.01])
        capped = _simplex_cap_project(V, radius)
        for row, r, got in zip(V, radius, capped):
            ref = scalar_simplex_cap_project(row, float(r))
            assert np.array_equal(got, ref)
            assert np.array_equal(_simplex_cap_project(row, float(r)), ref)
        assert np.array_equal(capped[1], V[1])  # inside the ball: unchanged


def test_a_failed_reconstruction_in_one_slice_fails_the_stack(monkeypatch):
    real_eigh = np.linalg.eigh

    def one_bad_slice(X):
        w, U = real_eigh(X)
        w = w.copy()
        w[2] += 1e-6
        return w, U

    monkeypatch.setattr(np.linalg, "eigh", one_bad_slice)
    X = random_stack(np.random.default_rng(10), 5, 4)
    with pytest.raises(EigenSolverError, match="residual"):
        eigh(X)


@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_eigh_fails_on_a_nan_entry(stacked):
    # NaN compares false with everything: the reconstruction check fails it
    X = np.array([[np.nan, 0.0], [0.0, 1.0]])
    if stacked:
        X = np.stack([np.eye(2), X, np.eye(2)])
    with pytest.raises(EigenSolverError, match="residual nan"):
        eigh(X)
