"""Accelerated SGD with an exponentially decaying step-size ladder.

The method runs floor(log2 n) stages of K = floor(n / stages) steps each; in
stage l the step sizes are delta0/4^(l-1) and gamma0/4^(l-1). Each step uses
one fresh sample (single global counter, leftovers unused):

    u <- alpha w + (1 - alpha) v
    g <- (x'u - y) x
    w <- u - delta g
    v <- beta u + (1 - beta) v - gamma g

starting from w = v = 0. With gamma = delta the v-iterate coincides with w
bit-for-bit and the method collapses to plain SGD on the same ladder.

Also here: the schedule chooser (with its admissibility requirement), the
effective dimension k*, and the closed-form excess-risk bound for the
schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import SAMPLE_TILE, ProblemInstance, excess_risk, sample_source
from .psdlinalg import eigh, psd_inv_sqrt, psd_sqrt, spectral_norm, sym

__all__ = [
    "ASGDConfig",
    "Trajectory",
    "RiskBound",
    "InfeasibleSchedule",
    "choose_parameters",
    "choose_rate_parameters",
    "run",
    "run_batch",
    "effective_dimension",
    "risk_bound",
    "admissibility_ratio",
]

ADMISSIBILITY_FLOOR = 16.0


class InfeasibleSchedule(ValueError):
    """The chosen parameters violate the schedule admissibility requirement
    n (1 - alpha (1 - beta)) / (log2 n * ln n) >= 16; carries ``ratio``."""

    def __init__(self, message, ratio):
        super().__init__(message)
        self.ratio = ratio


@dataclass(frozen=True)
class ASGDConfig:
    """Stage schedule and momentum constants.

    delta0/gamma0 are the stage-1 step sizes (quartered each stage); alpha
    and beta are the momentum mixers. Derived constants: c = alpha(1-beta)
    and q = alpha delta + (1-alpha) gamma, with the exact identity
    (q - c delta)/(1 - c) == (gamma + delta)/2, which pins down the step
    ladder seen by a single eigendirection.
    """

    n: int
    delta0: float
    gamma0: float
    alpha: float
    beta: float
    stages: int = field(init=False)
    stage_len: int = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError("n must be an integer >= 2")
        if not 0 < self.delta0 <= self.gamma0:
            raise ValueError("need gamma0 >= delta0 > 0")
        if not 0 < self.beta <= 1:
            raise ValueError("need 0 < beta <= 1")
        if not 0 < self.alpha <= 1:
            raise ValueError("need 0 < alpha <= 1")
        stages = int(math.floor(math.log2(self.n)))
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "stage_len", self.n // stages)
        identity_gap = (self.q - self.c * self.delta0) / (1.0 - self.c) - (
            self.gamma0 + self.delta0
        ) / 2.0
        if abs(identity_gap) > 1e-12:
            raise ValueError(
                "step/momentum constants are inconsistent: need alpha = 1/(1+beta) "
                f"or gamma0 = delta0 (identity residual {identity_gap:.3e})"
            )

    @property
    def c(self) -> float:
        return self.alpha * (1.0 - self.beta)

    @property
    def q(self) -> float:
        return self.alpha * self.delta0 + (1.0 - self.alpha) * self.gamma0

    @property
    def vanilla_sgd(self) -> bool:
        return self.gamma0 == self.delta0

    @property
    def admissible(self) -> bool:
        return admissibility_ratio(self) >= ADMISSIBILITY_FLOOR

    def stage_steps(self, ell: int) -> tuple[float, float, float]:
        """(delta, gamma, q) in stage ell (1-based on the 4^-(ell-1) ladder)."""
        scale = 4.0 ** -(ell - 1)
        return self.delta0 * scale, self.gamma0 * scale, self.q * scale

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta0": self.delta0,
            "gamma0": self.gamma0,
            "alpha": self.alpha,
            "beta": self.beta,
            "stages": self.stages,
            "stage_len": self.stage_len,
        }


def admissibility_ratio(cfg: ASGDConfig) -> float:
    """n (1 - alpha(1-beta)) / (log2 n * ln n); schedules need this >= 16."""
    return (
        cfg.n * (1.0 - cfg.alpha * (1.0 - cfg.beta))
        / (math.log2(cfg.n) * math.log(cfg.n))
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded checkpoints (global step, excess risk, stage) plus finals."""

    final_w: np.ndarray
    final_v: np.ndarray
    steps: np.ndarray
    risks: np.ndarray
    stage_of_step: np.ndarray
    stage_boundaries: tuple
    n_used: int
    iterates: np.ndarray | None = None


def choose_parameters(
    inst: ProblemInstance,
    n: int,
    kappa_tilde: int | None = None,
    delta_prime: float | None = None,
    gamma_prime: float | None = None,
    require_admissible: bool = True,
) -> ASGDConfig:
    """Schedule constants from the source spectrum.

    With lambda the eigenvalues of S and kt = kappa_tilde:

        delta' = 1/(psi tr S)            (or any smaller value)
        gamma' in [delta', 1/(psi sum_{i>kt} lambda_i)]   (default: the cap)
        beta   = delta'/(4376 psi kt gamma' ln n),  alpha = 1/(1+beta)
        delta0 = delta'/(2188 ln n),     gamma0 = gamma'/(2188 ln n)

    The contraction analysis behind the risk bound additionally demands
    n(1-alpha(1-beta))/(log2 n * ln n) >= 16, which for these beta values
    is out of reach below n ~ 1e8 on typical spectra; pass
    require_admissible=False to use the schedule anyway (the bound can still
    be evaluated, it is just not certified by the admissibility lemma).
    """
    if n < 16:
        raise ValueError("need n >= 16")
    lam = np.sort(np.linalg.eigvalsh(inst.S))[::-1]
    d = lam.size
    if kappa_tilde is None:
        kappa_tilde = min(10, d - 1)
    if not 1 <= kappa_tilde < d:
        raise ValueError("need 1 <= kappa_tilde < d")
    psi = inst.psi
    ln_n = math.log(n)
    delta_cap = 1.0 / (psi * float(lam.sum()))
    if delta_prime is None:
        delta_prime = delta_cap
    elif not 0 < delta_prime <= delta_cap * (1 + 1e-12):
        raise ValueError("delta_prime must lie in (0, 1/(psi tr S)]")
    tail = float(lam[kappa_tilde:].sum())
    if tail <= 0:
        raise ValueError("source spectrum vanishes beyond kappa_tilde")
    gamma_cap = 1.0 / (psi * tail)
    if gamma_prime is None:
        gamma_prime = gamma_cap
    elif not delta_prime * (1 - 1e-12) <= gamma_prime <= gamma_cap * (1 + 1e-12):
        raise ValueError("gamma_prime must lie in [delta_prime, 1/(psi tail sum)]")
    beta = delta_prime / (4376.0 * psi * kappa_tilde * gamma_prime * ln_n)
    alpha = 1.0 / (1.0 + beta)
    cfg = ASGDConfig(
        n=n,
        delta0=delta_prime / (2188.0 * ln_n),
        gamma0=gamma_prime / (2188.0 * ln_n),
        alpha=alpha,
        beta=beta,
    )
    if require_admissible and not cfg.admissible:
        raise InfeasibleSchedule(
            f"admissibility ratio {admissibility_ratio(cfg):.3e} < "
            f"{ADMISSIBILITY_FLOOR}; increase n or pass require_admissible=False",
            ratio=admissibility_ratio(cfg),
        )
    return cfg


def choose_rate_parameters(
    inst: ProblemInstance,
    n: int,
    a: float = 2.0,
    s: float = 1.0,
    r: float = 0.0,
    nu: int = 0,
    n_ref: int = 256,
    base: float | None = None,
    exponent: float | None = None,
) -> ASGDConfig:
    """Plain-SGD schedule (gamma = delta, momentum inert) whose base step
    scales as n^((a-b+nu-1)/(b-nu+1)) with b = (1+r)a — the step-size
    scaling under which the power-law excess risk follows its minimax-rate
    power law. Default base is the stability cap 1/(psi tr S) at n = n_ref;
    ``exponent`` overrides the n-scaling (e.g. -1/(a+1) for plateau targets).
    The step never exceeds ``base``: for n below n_ref a decaying schedule
    would extrapolate above the stability region, so it saturates there.
    """
    if base is None:
        base = 1.0 / (inst.psi * float(np.trace(inst.S)))
    if exponent is None:
        b = (1.0 + r) * a
        exponent = (a - b + nu - 1.0) / (b - nu + 1.0)
    step = base * min(1.0, (n / n_ref) ** exponent)
    return ASGDConfig(n=n, delta0=step, gamma0=step, alpha=0.5, beta=1.0)


# Sample-buffer budget of the lockstep kernel, in float64 elements (32 MB).
SAMPLE_BUDGET = 1 << 22


def _lockstep(inst, cfg, seeds, population=False, on_step=None):
    """Advance one trajectory per seed in lockstep; returns (W, V), row j
    for seeds[j]. Each seed draws its n samples from its own PCG64 stream in
    time blocks of whole SAMPLE_TILEs, which shrink as rows are added to keep
    the buffer within SAMPLE_BUDGET and never change a bit of a row.
    ``on_step(t, ell, W)`` runs after step t (1-based) of stage ell.
    """
    rows, d = len(seeds), inst.d
    W = np.zeros((rows, d))
    V = np.zeros((rows, d))
    if not population:
        s_sqrt = psd_sqrt(inst.S)
        gens = [np.random.default_rng(seed) for seed in seeds]
        tiles = max(1, SAMPLE_BUDGET // (max(rows, 1) * (d + 1) * SAMPLE_TILE))
        block = min(tiles * SAMPLE_TILE, cfg.n)
        X = np.empty((rows, block, d))
        Y = np.empty((rows, block))
    alpha, beta = cfg.alpha, cfg.beta
    t = 0
    for ell in range(1, cfg.stages + 1):
        delta, gamma, _ = cfg.stage_steps(ell)
        for _ in range(cfg.stage_len):
            U = W + (1.0 - alpha) * (V - W)
            if population:
                g = (inst.S @ (U - inst.w_star).T).T
            else:
                i = t % block
                if i == 0:
                    m = min(block, cfg.n - t)
                    for j, gen in enumerate(gens):
                        samples = sample_source(inst, m, gen, s_sqrt=s_sqrt)
                        X[j, :m], Y[j, :m] = samples.X, samples.y
                x = X[:, i]
                # one dot product per row: the same bits as x @ u on each row
                dots = np.matmul(x[:, None, :], U[:, :, None])[:, 0, 0]
                g = (dots - Y[:, i])[:, None] * x
            W = U - delta * g
            V = (V + beta * (U - V)) - gamma * g
            t += 1
            if on_step is not None:
                on_step(t, ell, W)
    return W, V


def run(
    inst: ProblemInstance,
    cfg: ASGDConfig,
    seed: int = 0,
    population: bool = False,
    record_every: int | None = None,
    record_iterates: bool = False,
) -> Trajectory:
    """One trajectory: the one-seed case of the lockstep kernel behind
    ``run_batch``, so its final risk equals ``run_batch``'s for the same
    seed bit for bit. ``population=True`` replaces the sampled gradient by
    the exact-moment gradient g = S(u - w*) (deterministic, noiseless);
    otherwise the n samples of ``sample_source(inst, n, seed)`` are used in
    order and the last n - stages*stage_len are left unused.
    record_every=None records only the final point; record_every <= 0 means
    once per stage (every stage_len steps).
    """
    if record_every is not None and record_every <= 0:
        record_every = cfg.stage_len
    steps, risks, stage_of, iterates = [], [], [], []

    def record(t, stage, w):
        steps.append(t)
        risks.append(excess_risk(inst, w))
        stage_of.append(stage)
        if record_iterates:
            iterates.append(w.copy())

    on_step = None
    if record_every is not None:
        def on_step(t, ell, W):
            if t % record_every == 0:
                record(t, ell, W[0])

    W, V = _lockstep(inst, cfg, [seed], population, on_step)
    n_used = cfg.stages * cfg.stage_len
    if not steps or steps[-1] != n_used:
        record(n_used, cfg.stages, W[0])
    return Trajectory(
        final_w=W[0],
        final_v=V[0],
        steps=np.array(steps, dtype=int),
        risks=np.array(risks),
        stage_of_step=np.array(stage_of, dtype=int),
        stage_boundaries=tuple(range(0, n_used + 1, cfg.stage_len)),
        n_used=n_used,
        iterates=np.array(iterates) if record_iterates else None,
    )


def run_batch(inst: ProblemInstance, cfg: ASGDConfig, seeds) -> np.ndarray:
    """Final excess risk for each seed: element i equals
    ``run(inst, cfg, seed=seeds[i]).risks[-1]`` bit for bit, however the
    seeds are grouped into calls. The one lockstep kernel runs all seeds as
    rows of (len(seeds), d) arrays to amortize the per-step Python cost; its
    sample buffer holds max(SAMPLE_BUDGET, SAMPLE_TILE * len(seeds) * (d+1))
    floats at most, whatever n is.
    """
    W, _ = _lockstep(inst, cfg, list(seeds))
    # per-row excess_risk so the reduction order (hence every bit) matches run()
    return np.array([excess_risk(inst, w) for w in W])


def effective_dimension(cfg: ASGDConfig, lam, n: int | None = None) -> int:
    """k* = max{k : lambda_k > 32 ln n / ((gamma+delta) K)} for a
    non-increasing spectrum (0 if empty). Cross-checked against the
    equivalent threshold 16(1-c) ln n / ((q - c delta) K); the two coincide
    exactly for valid configs."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if np.any(np.diff(lam) > 0):
        raise ValueError("lambda must be sorted non-increasing")
    if n is None:
        n = cfg.n
    ln_n = math.log(n)
    K = cfg.stage_len
    thresh_main = 32.0 * ln_n / ((cfg.gamma0 + cfg.delta0) * K)
    thresh_alt = 16.0 * (1.0 - cfg.c) * ln_n / ((cfg.q - cfg.c * cfg.delta0) * K)
    k_main = int(np.sum(lam > thresh_main))
    k_alt = int(np.sum(lam > thresh_alt))
    if k_main != k_alt:
        raise ValueError(
            f"effective-dimension forms disagree ({k_main} vs {k_alt}); "
            "config identity violated"
        )
    return k_main


@dataclass(frozen=True)
class RiskBound:
    """Closed-form excess-risk bound for the schedule: an effective-variance
    term on the k* well-conditioned directions plus step-size-squared tail
    variance, and a bias term split into a rapidly-contracted head and a
    4 |T'_tail| remainder. total == effective_variance + effective_bias."""

    k_star: int
    effective_variance: float
    effective_bias: float
    total: float
    variance_head: float
    variance_tail: float
    bias_head: float
    bias_tail: float
    K: int
    stages: int
    admissible: bool

    def to_json(self) -> dict:
        return {
            "k_star": self.k_star,
            "effective_variance": self.effective_variance,
            "effective_bias": self.effective_bias,
            "total": self.total,
            "variance_head": self.variance_head,
            "variance_tail": self.variance_tail,
            "bias_head": self.bias_head,
            "bias_tail": self.bias_tail,
            "K": self.K,
            "stages": self.stages,
            "admissible": self.admissible,
        }


def _masked_whitened_norm(U, T_tilde, m_inv_sqrt, keep) -> float:
    """Spectral norm of the whitened block of T obtained by zeroing the
    rows/columns outside ``keep`` in S's eigenbasis."""
    if not keep.any():
        return 0.0
    Tb = T_tilde * np.outer(keep, keep)
    back = U @ Tb @ U.T
    return spectral_norm(sym(m_inv_sqrt @ back @ m_inv_sqrt))


def risk_bound(inst: ProblemInstance, cfg: ASGDConfig) -> RiskBound:
    """Evaluate the closed-form bound

        (sigma2 + 2 c_finite) [ sum_{i<=k*} 2 t_ii/(K lambda_i)
            + (128/15) K (gamma+delta)^2 sum_{i>k*} lambda_i t_ii ]
        + |T'_head| / (8 n^2 (log2 n)^4) + 4 |T'_tail|

    where t_ii is the diagonal of T in S's eigenbasis and the head/tail
    blocks zero the complementary rows/columns there before whitening.
    Evaluated regardless of admissibility (the flag is reported)."""
    n = cfg.n
    if n < 16:
        raise ValueError("bound needs n >= 16")
    dec = eigh(inst.S)
    lam, U = dec.eigenvalues, dec.eigenvectors
    T_tilde = U.T @ inst.T @ U
    t_diag = np.maximum(np.diag(T_tilde), 0.0)
    K = cfg.stage_len
    k_star = effective_dimension(cfg, lam, n)
    head = np.arange(lam.size) < k_star
    noise_scale = inst.sigma2 + 2.0 * inst.c_finite
    variance_head = noise_scale * float(
        np.sum(2.0 * t_diag[head] / (K * lam[head]))
    )
    variance_tail = noise_scale * (128.0 / 15.0) * K * (
        cfg.gamma0 + cfg.delta0
    ) ** 2 * float(np.sum(lam[~head] * t_diag[~head]))
    m_inv_sqrt = psd_inv_sqrt(inst.M)
    log2_n = math.log2(n)
    bias_head = _masked_whitened_norm(U, T_tilde, m_inv_sqrt, head) / (
        8.0 * n**2 * log2_n**4
    )
    bias_tail = 4.0 * _masked_whitened_norm(U, T_tilde, m_inv_sqrt, ~head)
    variance = variance_head + variance_tail
    bias = bias_head + bias_tail
    return RiskBound(
        k_star=k_star,
        effective_variance=variance,
        effective_bias=bias,
        total=variance + bias,
        variance_head=variance_head,
        variance_tail=variance_tail,
        bias_head=bias_head,
        bias_tail=bias_tail,
        K=K,
        stages=cfg.stages,
        admissible=cfg.admissible,
    )
