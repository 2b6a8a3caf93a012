"""Accelerated SGD with an exponentially decaying step-size ladder.

The method runs floor(log2 n) stages of K = floor(n / stages) steps each; in
stage l the step sizes are delta0/4^(l-1) and gamma0/4^(l-1). Each step uses
one fresh sample (single global counter, leftovers unused):

    u <- alpha w + (1 - alpha) v,   alpha = 1/(1 + beta)
    g <- (x'u - y) x
    w <- u - delta g
    v <- beta u + (1 - beta) v - gamma g

starting from w = v = 0. The schedule is (n, delta0, gamma0, beta); alpha is
derived from beta, the choice under which a single eigendirection sees the
step ladder (gamma + delta)/2 for any step pair. With gamma = delta
the v-iterate coincides with w bit-for-bit and the method collapses to plain
SGD on the same ladder, so the kernel then steps w alone.

``run``, ``run_batch`` and ``run_grid`` share one lockstep kernel. It steps
several schedules on one set of seeds and draws each seed's samples once,
for the largest n, so a study's n-grid costs the draws of its largest n. On
exactly diagonal S it draws the seeds' samples element by element and,
given enough seeds, ``run_batch`` and ``run_grid`` split the seeds into one
block per worker of a thread pool sized by the process's CPU affinity mask,
each block running the whole kernel; the bits do not depend on the number
of CPUs (see ``_final_risks``).

Also here: the schedule chooser (with its admissibility requirement), the
effective dimension k*, and the closed-form excess-risk bound for the
schedule.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import SAMPLE_TILE, ProblemInstance, excess_risk, sample_source
from .psdlinalg import spectral_norm, sym

__all__ = [
    "ASGDConfig",
    "Trajectory",
    "RiskBound",
    "InfeasibleSchedule",
    "choose_parameters",
    "choose_rate_parameters",
    "run",
    "run_batch",
    "run_grid",
    "effective_dimension",
    "risk_bound",
    "admissibility_ratio",
]

ADMISSIBILITY_FLOOR = 16.0

POOL_MIN_SEEDS = 16
"""``run_batch`` and ``run_grid`` hand the seeds to a thread pool only when
each worker's block gets at least this many seeds: each block runs its own
Python step loop, and with fewer seeds that loop costs more than the
parallel draws and steps save."""


class InfeasibleSchedule(ValueError):
    """The chosen parameters violate the schedule admissibility requirement
    n (1 - c) / (log2 n * ln n) >= 16; carries ``ratio``."""

    def __init__(self, message, ratio):
        super().__init__(message)
        self.ratio = ratio


@dataclass(frozen=True)
class ASGDConfig:
    """Stage schedule and momentum constants.

    delta0/gamma0 are the stage-1 step sizes (quartered each stage) and beta
    is the momentum mixer. Derived: alpha = 1/(1+beta), c = alpha(1-beta)
    and q = alpha delta + (1-alpha) gamma, so that in exact arithmetic
    (q - c delta)/(1 - c) == (gamma + delta)/2, the step ladder seen by a
    single eigendirection.
    """

    n: int
    delta0: float
    gamma0: float
    beta: float
    alpha: float = field(init=False)
    stages: int = field(init=False)
    stage_len: int = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"n must be an integer >= 2, not {self.n}")
        if not 0 < self.delta0 <= self.gamma0:
            raise ValueError("need gamma0 >= delta0 > 0")
        if not 0 < self.beta <= 1:
            raise ValueError("need 0 < beta <= 1")
        stages = int(math.floor(math.log2(self.n)))
        object.__setattr__(self, "alpha", 1.0 / (1.0 + self.beta))
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "stage_len", self.n // stages)

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


def admissibility_ratio(cfg: ASGDConfig) -> float:
    """n (1 - c) / (log2 n * ln n); schedules need this >= 16."""
    return cfg.n * (1.0 - cfg.c) / (math.log2(cfg.n) * math.log(cfg.n))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The final w-iterate and, when recorded, every iterate: row t - 1 is
    w after step t."""

    final_w: np.ndarray
    iterates: np.ndarray | None = None


def choose_parameters(
    inst: ProblemInstance,
    n: int,
    require_admissible: bool = True,
) -> ASGDConfig:
    """Schedule constants from the source spectrum.

    With lambda the eigenvalues of S, largest first, and kt = min(10, d - 1)
    (the distribution's kappa-tilde, fixed here by d):

        delta' = 1/(psi tr S),  gamma' = 1/(psi sum_{i>kt} lambda_i)
        beta   = delta'/(4376 psi kt gamma' ln n),  alpha = 1/(1+beta)
        delta0 = delta'/(2188 ln n),     gamma0 = gamma'/(2188 ln n)

    ValueError for n < 16 or d < 2. The contraction analysis behind the
    risk bound additionally demands
    n(1-c)/(log2 n * ln n) >= 16 with c = alpha(1-beta), which for these
    beta values is out of reach below n ~ 1e8 on typical spectra; pass
    require_admissible=False to use the schedule anyway (the bound can still
    be evaluated, it is just not certified by the admissibility lemma).
    """
    if n < 16:
        raise ValueError(f"the momentum schedule needs n >= 16, not n = {n}")
    # not inst.eig_S: on dense S its eigenvalues differ from eigvalsh's in the
    # last bits, and delta' and gamma' are sums of them
    lam = np.sort(np.linalg.eigvalsh(inst.S))[::-1]
    d = lam.size
    if d < 2:
        raise ValueError(f"the momentum schedule needs d >= 2, not d = {d}")
    kt = min(10, d - 1)
    psi = inst.psi
    ln_n = math.log(n)
    delta_prime = 1.0 / (psi * float(lam.sum()))
    tail = float(lam[kt:].sum())
    if tail <= 0:
        raise ValueError(f"source spectrum vanishes beyond its {kt} leading eigenvalues")
    gamma_prime = 1.0 / (psi * tail)
    cfg = ASGDConfig(
        n=n,
        delta0=delta_prime / (2188.0 * ln_n),
        gamma0=gamma_prime / (2188.0 * ln_n),
        beta=delta_prime / (4376.0 * psi * kt * gamma_prime * ln_n),
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
    n_ref: int,
    exponent: float,
    base: float | None = None,
) -> ASGDConfig:
    """Plain-SGD schedule (gamma = delta, momentum inert) with the step
    base * min(1, (n/n_ref)^exponent), base by default the stability cap
    1/(psi tr S): below n_ref a decaying schedule would extrapolate above
    the stability region, so the step saturates at base. The studies choose
    the exponent. ValueError where (n/n_ref)^exponent overflows."""
    if base is None:
        base = 1.0 / (inst.psi * float(np.trace(inst.S)))
    try:
        step = base * min(1.0, (n / n_ref) ** exponent)
    except OverflowError as err:
        raise ValueError(f"no rate schedule at n = {n}, n_ref = {n_ref}: {err}") from None
    return ASGDConfig(n=n, delta0=step, gamma0=step, beta=1.0)


def _cores() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _lockstep(inst, cfgs, seeds, population=False, on_step=None):
    """Advance one trajectory per (config, seed) pair in lockstep; returns
    the final w-iterates W of shape (len(cfgs), len(seeds), d), row [k, j]
    for cfgs[k] and seeds[j]. ``on_step(W)`` runs after every step; ``run``
    uses it with one config, whose W then has shape (len(seeds), d).

    The configs share the seeds' sample streams. Each seed draws the
    max(cfg.n) samples of the largest config from its own PCG64 stream, one
    tile of min(SAMPLE_TILE, max(cfg.n)) rows at a time, which reproduces a
    whole draw bit for bit; a config with fewer samples reads a prefix of
    that stream, which ``sample_source`` makes the bits of its own draw. The
    buffer holds one tile for each seed, X laid out (seeds, tile, d) so each
    step reads contiguous rows, and y as (seeds, tile). The kernel is
    serial: it fills the tile seed by seed on the calling thread
    (``_final_risks`` runs it once per seed block, each on its own worker).

    Each config steps while t is below its stages * stage_len, on its own
    4^-(l-1) ladder. The configs are ordered by that length, longest first,
    so the live ones are a leading slice of a (live, seeds, d) array and
    their step constants are (live, 1, 1) arrays: a broadcast product rounds
    each element as the scalar product does, so every row gets the bits of
    its config run alone. Once one config is left it steps a (seeds, d)
    array with scalar constants, as a one-config call does throughout. The
    constants change only at stage boundaries and the sample tile only at
    tile boundaries, between runs of steps.

    Under plain SGD (gamma0 == delta0 for every config) the v-iterate equals
    w bit for bit by induction (V - W is +0, so u = w and both updates
    subtract the same step), so only W is stepped.
    """
    rows, d, K = len(seeds), inst.d, len(cfgs)
    used = [cfg.stages * cfg.stage_len for cfg in cfgs]
    order = sorted(range(K), key=lambda k: -used[k])
    vanilla = all(cfg.vanilla_sgd for cfg in cfgs)
    W = np.zeros((K, rows, d) if K > 1 else (rows, d))
    V = W if vanilla else np.zeros_like(W)
    W_out = np.empty((K, rows, d))
    block = max(used)
    if not population:
        n_max = max(cfg.n for cfg in cfgs)
        gens = [np.random.default_rng(seed) for seed in seeds]
        block = min(SAMPLE_TILE, n_max)
        X = np.empty((rows, block, d))
        Y = np.empty((rows, block))
    live, t = K, 0
    while live:
        live_cfgs = [cfgs[k] for k in order[:live]]
        if not population and t % block == 0:
            m = min(block, n_max - t)
            for j, gen in enumerate(gens):
                samples = sample_source(inst, m, gen)
                X[j, :m], Y[j, :m] = samples.X, samples.y
        consts = [
            (*cfg.stage_steps(t // cfg.stage_len + 1)[:2], 1.0 - cfg.alpha, cfg.beta)
            for cfg in live_cfgs
        ]
        if live == 1:
            delta, gamma, keep, beta = consts[0]
        else:
            delta, gamma, keep, beta = np.array(consts).T[:, :, None, None]
        stop = min((t // cfg.stage_len + 1) * cfg.stage_len for cfg in live_cfgs)
        stop = min(stop, (t // block + 1) * block)
        for t in range(t, stop):
            U = W if vanilla else W + keep * (V - W)
            if population:
                g = (inst.S @ (U - inst.w_star).T).T
            else:
                x, y = X[:, t % block], Y[:, t % block]
                # one dot product per row: the same bits as x @ u on each row
                dots = np.matmul(x[..., None, :], U[..., None])[..., 0, 0]
                g = (dots - y)[..., None] * x
            if not vanilla:
                V = (V + beta * (U - V)) - gamma * g
            g *= delta  # in place: the bits of delta * g
            W = U - g
            if on_step is not None:
                on_step(W)
        t = stop
        while live and used[order[live - 1]] == t:
            live -= 1
            k = order[live]
            W_out[k] = W[live] if W.ndim == 3 else W
        if live == 1 and W.ndim == 3:
            W, V = W[0], V[0]
        elif live > 1:
            W, V = W[:live], V[:live]
    return W_out


def run(
    inst: ProblemInstance,
    cfg: ASGDConfig,
    seed: int = 0,
    population: bool = False,
    record_iterates: bool = False,
) -> Trajectory:
    """One trajectory: the one-seed case of the lockstep kernel behind
    ``run_batch``, so ``excess_risk(inst, run(...).final_w)`` equals
    ``run_batch``'s risk for the same seed bit for bit. ``population=True``
    replaces the sampled gradient by the exact-moment gradient
    g = S(u - w*) (deterministic, noiseless); otherwise the n samples of
    ``sample_source(inst, n, seed)`` are used in order and the last
    n - stages*stage_len are left unused. ``record_iterates=True`` keeps
    every step's w-iterate.
    """
    iterates = []
    on_step = (lambda W: iterates.append(W[0].copy())) if record_iterates else None
    W = _lockstep(inst, [cfg], [seed], population, on_step)
    return Trajectory(
        final_w=W[0, 0], iterates=np.array(iterates) if record_iterates else None
    )


def run_grid(inst: ProblemInstance, cfgs, seeds) -> np.ndarray:
    """Final excess risks of several schedules on one set of seeds: a
    (len(cfgs), len(seeds)) array whose row k equals
    ``run_batch(inst, cfgs[k], seeds)`` bit for bit. The schedules share
    each seed's sample stream, so a seed's samples are drawn once, for the
    largest n, and a schedule with a smaller n reads a prefix of them."""
    return _final_risks(inst, list(cfgs), list(seeds))


def run_batch(inst: ProblemInstance, cfg: ASGDConfig, seeds) -> np.ndarray:
    """Final excess risk for each seed: element i equals
    ``excess_risk(inst, run(inst, cfg, seed=seeds[i]).final_w)`` bit for
    bit, however the seeds are grouped into calls and however many CPUs the
    process may use; it is the one-config case of ``run_grid``. The one
    lockstep kernel runs all seeds as rows of (len(seeds), d) arrays to
    amortize the per-step Python cost; its sample buffer holds
    SAMPLE_TILE * len(seeds) * (d+1) floats, whatever n is. The draws scale
    normals by the instance's ``source_factor``, so a call makes no
    eigendecomposition. When that factor is a vector (S exactly diagonal),
    with at least 2 * POOL_MIN_SEEDS seeds and more than one CPU in the
    affinity mask, the seeds are split into contiguous blocks of at least
    POOL_MIN_SEEDS, one per worker of a thread pool that lives for this
    call, and each worker draws and steps its block alone.
    """
    return _final_risks(inst, [cfg], list(seeds))[0]


def _final_risks(inst, cfgs, seeds) -> np.ndarray:
    # run_batch and run_grid share this body rather than call each other, so
    # a tracer that wraps the public names times each call once. Rows never
    # interact, so a contiguous block of seeds run alone on a worker keeps
    # its rows' bits, and its generators are advanced by that thread alone.
    rows = len(seeds)
    workers = min(_cores(), rows // POOL_MIN_SEEDS) if inst.source_factor.ndim == 1 else 1
    if workers < 2:
        W = _lockstep(inst, cfgs, seeds)
    else:  # slices, not a numpy array, so each generator gets the caller's seed
        cuts = [rows * i // workers for i in range(workers + 1)]
        blocks = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
        with ThreadPoolExecutor(workers) as pool:  # list() raises a worker's error here
            parts = list(pool.map(lambda block: _lockstep(inst, cfgs, block), blocks))
        W = np.concatenate(parts, axis=1)
    # per-row excess_risk so the reduction order (hence every bit) matches run()
    return np.array([[excess_risk(inst, w) for w in Wk] for Wk in W])


def effective_dimension(cfg: ASGDConfig, lam) -> int:
    """k* = max{k : lambda_k > 32 ln n / ((gamma0+delta0) K)} for a
    non-increasing spectrum (0 if empty). In exact arithmetic the threshold
    equals 16(1-c) ln n / ((q - c delta0) K), since alpha = 1/(1+beta); that
    form divides rounding by 1 - c, which is tiny when beta is."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if np.any(np.diff(lam) > 0):
        raise ValueError("lambda must be sorted non-increasing")
    thresh = 32.0 * math.log(cfg.n) / ((cfg.gamma0 + cfg.delta0) * cfg.stage_len)
    return int(np.sum(lam > thresh))


@dataclass(frozen=True)
class RiskBound:
    """Closed-form excess-risk bound for the schedule: an effective-variance
    term on the k* well-conditioned directions plus step-size-squared tail
    variance, and a bias term split into a rapidly-contracted head and a
    4 |T'_tail| remainder. total == effective_variance + effective_bias.
    The schedule's K, stages and admissibility are read from its config."""

    k_star: int
    effective_variance: float
    effective_bias: float
    total: float
    variance_head: float
    variance_tail: float
    bias_head: float
    bias_tail: float


def _masked_whitened_norm(inst: ProblemInstance, keep) -> float:
    """Spectral norm of the whitened block of T obtained by zeroing the
    rows/columns outside ``keep`` in S's eigenbasis."""
    if not keep.any():
        return 0.0
    U, m_inv_sqrt = inst.eig_S.eigenvectors, inst.M_inv_sqrt
    Tb = inst.T_tilde * np.outer(keep, keep)
    back = U @ Tb @ U.T
    return spectral_norm(sym(m_inv_sqrt @ back @ m_inv_sqrt))


def risk_bound(inst: ProblemInstance, cfg: ASGDConfig) -> RiskBound:
    """Evaluate the closed-form bound

        (sigma2 + 2 c_finite) [ sum_{i<=k*} 2 t_ii/(K lambda_i)
            + (128/15) K (gamma+delta)^2 sum_{i>k*} lambda_i t_ii ]
        + |T'_head| / (8 n^2 (log2 n)^4) + 4 |T'_tail|

    where t_ii is the diagonal of T in S's eigenbasis and the head/tail
    blocks zero the complementary rows/columns there before whitening;
    K = cfg.stage_len. Evaluated regardless of ``cfg.admissible``."""
    n = cfg.n
    if n < 16:
        raise ValueError("bound needs n >= 16")
    lam = inst.eig_S.eigenvalues
    t_diag = np.maximum(np.diag(inst.T_tilde), 0.0)
    K = cfg.stage_len
    k_star = effective_dimension(cfg, lam)
    head = np.arange(lam.size) < k_star
    noise_scale = inst.sigma2 + 2.0 * inst.c_finite
    variance_head = noise_scale * float(
        np.sum(2.0 * t_diag[head] / (K * lam[head]))
    )
    variance_tail = noise_scale * (128.0 / 15.0) * K * (
        cfg.gamma0 + cfg.delta0
    ) ** 2 * float(np.sum(lam[~head] * t_diag[~head]))
    log2_n = math.log2(n)
    bias_head = _masked_whitened_norm(inst, head) / (8.0 * n**2 * log2_n**4)
    bias_tail = 4.0 * _masked_whitened_norm(inst, ~head)
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
    )
