"""Sampling-based estimation beyond exact-enumeration sizes.

Default estimator: sample matrices and compute each one's undetected
error probability exactly from its weight distribution, which removes
channel noise entirely (the between-matrix variance is the quantity of
interest).  Channel-sampling mode exists for shapes whose code and row
space both exceed the enumeration budget; its report carries the
within-matrix sampling variance so the between-matrix variance can be
debiased, and it keeps the standard errors of the mean and variance
positive when no trial of any matrix goes undetected, the usual case when
P_U ~ 2^-m.  It draws the error positions of a chunk of trials from their
geometric gaps, one exponential per bit error rather than one uniform per
bit, and a trial's syndrome is the XOR of H's bit-packed columns there,
read off by gf2's one rows-to-columns transpose, `_packed_columns`.
A chunk expects about 2^15 error positions and holds at least one trial,
so until eps n passes 2^15 its temporaries take about 1 MB at every eps,
plus 256 KB for each 64-bit syndrome word past the first.

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
from .gf2 import (BitMatrix, _packed_columns, pu_from_weights,
                  weight_distribution)

# Two-sided normal level of the z = 4 intervals reported: +-4 standard
# errors for sample means, Wilson score intervals for channel hit rates.
CI_Z = 4.0
CI_LEVEL = 0.9999367
# Doubles drawn at once by sample_matrix, and expected error positions per
# chunk of estimate_pu_channel.  A chunk holds at least one trial, so about
# max(_BLOCK, eps n) positions; its int64 temporaries take 8 bytes a
# position, 256 KB (near L2 size) while eps n <= _BLOCK.
_BLOCK = 1 << 15


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
    # Rows are drawn in blocks of at most _BLOCK doubles, or one row.
    # Generator.random fills row-major from one stream, so the blocks give
    # the same matrix as one m x n draw.
    block = max(1, _BLOCK // ens.n)
    rows = []
    for start in range(0, ens.m, block):
        bits = rng.random((min(block, ens.m - start), ens.n)) < ens.p
        packed = np.packbits(bits, axis=1, bitorder="little")
        rows += [int.from_bytes(r.tobytes(), "little") for r in packed]
    return BitMatrix(ens.m, ens.n, tuple(rows))


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
    if not 0 <= seed < 1 << 128:
        raise ValueError("seed must be in [0, 2^128)")
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
    Bsc(eps)
    # A chunk's t x n error bits are one Bernoulli(eps) stream, drawn by
    # its error positions.  A trial's syndrome is the XOR of H's columns
    # at its positions; it is undetected if it has an error and a zero
    # syndrome.
    cols = _packed_columns(h.rows, h.n)
    # A chunk expects about _BLOCK error positions and holds at least one
    # trial.  It does not depend on m, so matrices with the same columns
    # see the same stream.  A chunk of many trials spans at most
    # 2^62 / _BLOCK bits: _error_positions then sums fewer than 2 _BLOCK
    # gaps of at most that many bits, and no int64 position overflows.
    cap = (1 << 62) // _BLOCK // h.n
    chunk = max(1, int(min(_BLOCK / (eps * h.n), cap)))
    hits = 0
    for start in range(0, trials, chunk):
        pos = _error_positions(min(chunk, trials - start) * h.n, eps, rng)
        if pos.size == 0:
            continue
        trial = pos // h.n
        first = np.empty(pos.size, dtype=bool)
        first[0] = True
        np.not_equal(trial[1:], trial[:-1], out=first[1:])
        syndrome = np.bitwise_xor.reduceat(
            np.take(cols, pos - trial * h.n, axis=0), np.flatnonzero(first))
        hits += int(np.count_nonzero(~syndrome.any(axis=1)))
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


def _error_positions(bits: int, eps: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Sorted positions of the ones in bits Bernoulli(eps) draws.

    The gaps between ones are geometric, floor(E / -ln(1 - eps)) + 1 with
    E ~ Exp(1) (Devroye 1986, ch. X): the ceiling save on a null set, and
    never 0.  So the stream costs about one draw per one.  The gap that
    crosses the end is dropped; by memorylessness the next stream may
    start afresh.
    """
    rate = -math.log1p(-eps)
    # A batch reaches 4 standard deviations past the mean count of ones,
    # so one batch almost always covers the stream.
    mean = eps * bits
    batch = int(mean + 4.0 * math.sqrt(mean)) + 1
    parts = []
    last = -1
    while last < bits:
        gaps = rng.standard_exponential(batch)
        # A subnormal rate overflows gaps to inf, which the minimum clips.
        with np.errstate(over="ignore"):
            gaps /= rate
        np.minimum(gaps, bits, out=gaps)  # any longer gap ends the stream
        pos = gaps.astype(np.int64)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        parts.append(pos)
        last = int(pos[-1])
    pos = np.concatenate(parts)
    return pos[:np.searchsorted(pos, bits)]


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
    pooled Wilson half-width over z, and when no trial of any matrix went
    undetected var_se is the pooled Wilson upper end over z."""
    # In channel mode the plug-in variance includes the per-matrix
    # sampling noise p(1-p)/T; subtracting its average debiases it.  The
    # average of p(1-p) over the matrices is mean (1 - mean) - m2 / count.
    within_var = 0.0
    mean_se, var_se = stats.mean_se, stats.variance_se
    if channel_trials:
        within_var = (stats.mean * (1.0 - stats.mean)
                      - stats.m2 / stats.count) / channel_trials
        # The spread across matrices is 0 when no trial of any matrix went
        # undetected; the Wilson half-width of all count * T trials pooled,
        # in units of z, bounds the SE from below.  One matrix has no
        # spread at all (nan), and the pooled term stands alone.
        center, half = _wilson(stats.mean, stats.count * channel_trials)
        pooled = half / CI_Z
        mean_se = pooled if math.isnan(mean_se) else max(mean_se, pooled)
        if stats.max == 0.0:
            # With no hit the spread reads 0 as well; since 0 <= P_U <= 1,
            # Var[P_U] <= E[P_U], which the pooled upper end bounds.
            var_se = (center + half) / CI_Z
    return {
        "eps": eps,
        "mean": stats.mean,
        "mean_se": mean_se,
        "mean_ci_low": stats.mean - CI_Z * mean_se,
        "mean_ci_high": stats.mean + CI_Z * mean_se,
        "var": stats.variance - within_var,
        "var_se": var_se,
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
