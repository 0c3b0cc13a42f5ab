"""Sampling-based estimation beyond exact-enumeration sizes.

Default estimator: sample matrices and compute each one's undetected
error probability exactly from its weight distribution, which removes
channel noise entirely (the between-matrix variance is the quantity of
interest).  Channel-sampling mode exists for shapes whose code and row
space both exceed the enumeration budget; its report carries the
within-matrix sampling variance so the between-matrix variance can be
debiased, and it keeps the standard error of the mean positive when no
trial of any matrix goes undetected, the usual case when P_U ~ 2^-m.

One loop samples the matrices for both modes and scores each one at
every eps, so all eps values see the same matrices.  Reproducibility: the
matrices and channel trials come from one counter-based Philox stream
keyed by the seed, so the output depends only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensemble import BernoulliEnsemble, Bsc
from .gf2 import BitMatrix, pu_from_weights, weight_distribution

# Two-sided normal level of the z = 4 intervals reported: +-4 standard
# errors for sample means, Wilson score intervals for channel hit rates.
CI_Z = 4.0
CI_LEVEL = 0.9999367


@dataclass(frozen=True)
class SimConfig:
    ensemble: BernoulliEnsemble
    eps: float
    matrix_samples: int
    channel_trials: int = 0      # 0 = exact per-matrix P_U
    seed: int = 0


@dataclass
class SampleStats:
    """Single-pass mean/variance accumulator (Welford), mergeable."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)

    def merge(self, other: "SampleStats") -> "SampleStats":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.min = other.min
            self.max = other.max
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def variance(self) -> float:
        """Unbiased sample variance (divides by count - 1)."""
        if self.count < 2:
            return math.nan
        return self.m2 / (self.count - 1)

    @property
    def mean_se(self) -> float:
        if self.count < 2:
            return math.nan
        return math.sqrt(self.variance / self.count)

    @property
    def variance_se(self) -> float:
        """Normal-approximation standard error of the sample variance."""
        if self.count < 2:
            return math.nan
        return self.variance * math.sqrt(2.0 / (self.count - 1))


def worker_rng(seed: int, worker: int) -> np.random.Generator:
    """Counter-based Philox substream, stable per (seed, worker)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(worker))


def sample_matrix(ens: BernoulliEnsemble, rng: np.random.Generator) -> BitMatrix:
    """One matrix with i.i.d. Bernoulli(p) entries."""
    bits = rng.random((ens.m, ens.n)) < ens.p
    packed = np.packbits(bits, axis=1, bitorder="little")
    rows = tuple(int.from_bytes(packed[i].tobytes(), "little")
                 for i in range(ens.m))
    return BitMatrix(ens.m, ens.n, rows)


def sample_pu_stats(ens: BernoulliEnsemble, eps_list: Sequence[float],
                    matrix_samples: int, seed: int = 0,
                    channel_trials: int = 0) -> dict[float, SampleStats]:
    """P_U statistics per eps over matrices shared by every eps.

    Exact mode (channel_trials = 0) scores each matrix from its weight
    distribution, computed once; channel mode runs channel_trials BSC
    transmissions through the matrix for each eps.
    """
    for eps in eps_list:
        Bsc(eps)  # raises unless 0 < eps < 1/2
    if matrix_samples < 1:
        raise ValueError("matrix_samples must be >= 1")
    if channel_trials < 0:
        raise ValueError("channel_trials must be >= 0")
    stats = {eps: SampleStats() for eps in eps_list}
    rng = worker_rng(seed, 0)
    for _ in range(matrix_samples):
        h = sample_matrix(ens, rng)
        if channel_trials:
            for eps, s in stats.items():
                s.update(estimate_pu_channel(h, eps, channel_trials,
                                             rng)["estimate"])
        else:
            wd = weight_distribution(h)
            for eps, s in stats.items():
                s.update(pu_from_weights(wd.counts, ens.n, eps))
    return stats


def estimate_pu_channel(h: BitMatrix, eps: float, trials: int,
                        rng: np.random.Generator) -> dict:
    """Frequency estimate of P_U(H) by sampling BSC error vectors."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    # The syndrome is a float32 BLAS product reduced mod 2: every sum is an
    # integer of at most n, so it is exact.  Generator.random fills
    # sequentially, so the chunk size does not change the draws.
    ht = np.array([[(r >> j) & 1 for r in h.rows] for j in range(h.n)],
                  dtype=np.float32)
    hits = 0
    remaining = trials
    chunk = 1 << 12
    while remaining > 0:
        t = min(chunk, remaining)
        errs = (rng.random((t, h.n)) < eps).astype(np.float32)
        syndrome = np.fmod(errs @ ht, 2.0)
        undetected = (~syndrome.any(axis=1)) & errs.any(axis=1)
        hits += int(undetected.sum())
        remaining -= t
    p_hat = hits / trials
    center, half = _wilson(p_hat, trials)
    return {
        "estimate": p_hat,
        "se": math.sqrt(p_hat * (1.0 - p_hat) / trials),
        "ci_low": 0.0 if hits == 0 else max(0.0, center - half),
        "ci_high": min(1.0, center + half),
        "ci_level": CI_LEVEL,
        "trials": trials,
    }


def _wilson(p_hat: float, trials: int) -> tuple[float, float]:
    """Center and half-width of the Wilson score interval at z = CI_Z.

    Unlike p_hat +- z se it keeps a positive upper end when no trial goes
    undetected (Wilson 1927).
    """
    z2 = CI_Z * CI_Z / trials
    center = (p_hat + z2 / 2) / (1 + z2)
    half = CI_Z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                            + z2 / (4 * trials)) / (1 + z2)
    return center, half


def pu_report(eps: float, stats: SampleStats, channel_trials: int,
              seed: int) -> dict:
    """Mean and variance of P_U from sample_pu_stats, with 4-SE normal
    confidence intervals.  In channel mode mean_se is never below the
    pooled Wilson half-width over z."""
    # In channel mode the plug-in variance includes the per-matrix
    # sampling noise p(1-p)/T; subtracting its average debiases it.  The
    # average of p(1-p) over the matrices is mean (1 - mean) - m2 / count.
    within_var = 0.0
    mean_se = stats.mean_se
    if channel_trials:
        within_var = (stats.mean * (1.0 - stats.mean)
                      - stats.m2 / stats.count) / channel_trials
        # The spread across matrices is 0 when no trial of any matrix went
        # undetected; the Wilson half-width of all count * T trials pooled,
        # in units of z, bounds the SE from below.  One matrix has no
        # spread at all (nan), and the pooled term stands alone.
        pooled = _wilson(stats.mean, stats.count * channel_trials)[1] / CI_Z
        mean_se = pooled if math.isnan(mean_se) else max(mean_se, pooled)
    return {
        "eps": eps,
        "mean": stats.mean,
        "mean_se": mean_se,
        "mean_ci_low": stats.mean - CI_Z * mean_se,
        "mean_ci_high": stats.mean + CI_Z * mean_se,
        "var": stats.variance - within_var,
        "var_se": stats.variance_se,
        "within_matrix_var": within_var,
        "ci_level": CI_LEVEL,
        "min": stats.min,
        "max": stats.max,
        "samples": stats.count,
        "mode": "channel" if channel_trials else "exact",
        "seed": seed,
    }


def estimate_pu_distribution(cfg: SimConfig) -> dict:
    """pu_report for the single eps of cfg."""
    stats = sample_pu_stats(cfg.ensemble, [cfg.eps], cfg.matrix_samples,
                            cfg.seed, cfg.channel_trials)
    return pu_report(cfg.eps, stats[cfg.eps], cfg.channel_trials, cfg.seed)
