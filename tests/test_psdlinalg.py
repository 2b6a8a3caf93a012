import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covshift.psdlinalg import (
    EigenSolverError,
    NotPSD,
    _eigh_unsigned,
    _fix_signs,
    _simplex_cap_project,
    eigh,
    project_psd_nuclear_ball,
    psd_inv_sqrt,
    psd_sqrt,
    spectral_norm,
    sym,
)


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


def fix_signs_loop(U):
    """Reference sign convention, one column at a time: flip the column if
    its first entry with |u| > 1e-12 (its largest, if none is) is negative."""
    U = U.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        k = idx[0] if idx.size else int(np.argmax(np.abs(col)))
        if col[k] < 0:
            U[:, j] = -col
    return U


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_fix_signs_matches_per_column_loop(d):
    rng = np.random.default_rng(d)
    for _ in range(25):
        U = rng.standard_normal((d, d))
        U[: d // 2, ::2] *= 1e-14  # leading entries below the threshold
        U[0, ::3] = -0.0  # signed zeros must keep their sign bit
        U[:, -1] = 1e-13 * rng.standard_normal(d)  # an all-tiny column
        if d > 2:
            U[:, 1] = 0.0
            U[:, 2] = 0.0
            U[0, 2] = -0.0  # an all-zero column led by -0.0 is not flipped
        got, ref = _fix_signs(U), fix_signs_loop(U)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
    assert _fix_signs(np.zeros((0, 0))).shape == (0, 0)


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


@pytest.mark.parametrize("d", [1, 2, 7, 30])
def test_spectral_functions_ignore_eigenvector_signs(d):
    # each function equals U f(w) U' built from the sign-fixed eigh, bit
    # for bit; the projection decomposes without the sign convention
    rng = np.random.default_rng(100 + d)
    flipped = 0
    for name, X in spectral_test_matrices(rng, d):
        dec = eigh(X)
        w, U = dec.eigenvalues, dec.eigenvectors
        flipped += int(np.any(U != _eigh_unsigned(X)[1]))
        radius = 0.5 * float(np.abs(w).sum())
        ref = sym((U * _simplex_cap_project(np.maximum(w, 0.0), radius)) @ U.T)
        assert np.array_equal(project_psd_nuclear_ball(X, radius), ref)
        if name != "symmetric":
            ref = sym((U * np.sqrt(np.maximum(w, 0.0))) @ U.T)
            assert np.array_equal(psd_sqrt(X), ref)
        if name in ("psd", "tied"):
            assert np.array_equal(psd_inv_sqrt(X), sym((U / np.sqrt(w)) @ U.T))
    if d > 1:
        assert flipped  # the sign convention changed some eigenvectors


def test_spectral_functions_keep_reconstruction_check(monkeypatch):
    # a decomposition that misses the 1e-9 reconstruction tolerance is
    # rejected on the sign-free path too
    real_eigh = np.linalg.eigh

    def perturbed_eigh(X):
        w, U = real_eigh(X)
        return w + 1e-6, U

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    X = rand_pd(np.random.default_rng(9), 5)
    for fn in (lambda A: project_psd_nuclear_ball(A, 1.0), psd_sqrt, psd_inv_sqrt, eigh):
        with pytest.raises(EigenSolverError, match="residual"):
            fn(X)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    X = rand_pd(rng, 6)
    R = psd_sqrt(X)
    assert np.allclose(R @ R, X, atol=1e-10)
    assert np.allclose(R, R.T)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_inv_sqrt_inverts():
    rng = np.random.default_rng(3)
    X = rand_pd(rng, 5)
    W = psd_inv_sqrt(X)
    assert np.allclose(W @ X @ W, np.eye(5), atol=1e-9)


def test_psd_inv_sqrt_rejects_singular():
    with pytest.raises(NotPSD):
        psd_inv_sqrt(np.diag([1.0, 0.0]))


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
