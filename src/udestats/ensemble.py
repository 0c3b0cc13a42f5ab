"""Closed-form finite-size statistics of Bernoulli and random matrix
ensembles: average weight distribution, mean/variance of the undetected
error probability, weight-distribution covariance, and joint-pass
probabilities.

Everything is computed in base-2 log domain (see logreal); every term in
the formulas handled here is nonnegative for p <= 1/2, so no signed log
arithmetic is required.  The random ensemble (k = n/2, z = 0) takes exact
branches and, where a closed form exists, the generic summation is
cross-checked against it on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logreal import LogReal, log2_expm1_exp, log2_sum

_LN2 = math.log(2.0)


class OverlapRangeError(ValueError):
    """Support overlap v outside [max(0, w1+w2-n), min(w1, w2)]."""


@dataclass(frozen=True, slots=True)
class Bsc:
    """Binary symmetric channel with crossover probability eps."""

    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"need 0 < eps < 1/2, got {self.eps}")


@dataclass(frozen=True, slots=True)
class BernoulliEnsemble:
    """m x n binary matrices with i.i.d. entries, ones density p = k/n.

    k is the average row weight, any positive real <= n/2; k = n/2 is the
    uniform (random) ensemble.
    """

    m: int
    n: int
    k: float

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not 0 < self.k <= self.n / 2:
            raise ValueError(f"need 0 < k <= n/2, got k={self.k}, n={self.n}")

    @property
    def p(self) -> float:
        return float(self.k) / self.n

    @property
    def z(self) -> float:
        return 1.0 - 2.0 * self.p

    @property
    def is_random(self) -> bool:
        return self.z == 0.0

    @classmethod
    def random(cls, m: int, n: int) -> "BernoulliEnsemble":
        return cls(m, n, n / 2)


def log2_binom(n: int, w: int) -> float:
    """log2 C(n, w) from the exact integer, to about 1 ulp at every n."""
    if not 0 <= w <= n:
        return -math.inf
    return math.log2(math.comb(n, w))


def _zpow(z: float, w: int) -> float:
    """z^w with the z = 0 (random ensemble) branch handled exactly."""
    if w == 0:
        return 1.0
    if z == 0.0:
        return 0.0
    return math.exp(w * math.log(z))


def _log2_half_1p(t: float) -> float:
    """log2((1 + t) / 2) for t >= 0."""
    return math.log1p(t) / _LN2 - 1.0


def avg_weight(ens: BernoulliEnsemble, w: int) -> LogReal:
    """E[A_w] = ((1 + z^w)/2)^m C(n, w)."""
    if not 0 <= w <= ens.n:
        raise ValueError(f"need 0 <= w <= n, got {w}")
    return LogReal(ens.m * _log2_half_1p(_zpow(ens.z, w))
                   + log2_binom(ens.n, w))


def _log2_bsc_term(n: int, w: int, eps: float) -> float:
    """log2 of eps^w (1-eps)^(n-w)."""
    return (w * math.log(eps) + (n - w) * math.log1p(-eps)) / _LN2


def avg_pu(ens: BernoulliEnsemble, ch: Bsc) -> LogReal:
    """E[P_U] over the ensemble, by the weighted sum over weights.

    For the random ensemble the closed form 2^-m (1 - (1-eps)^n) is also
    evaluated and the two routes are required to agree to 1e-12 relative.
    """
    n, eps = ens.n, ch.eps
    total = LogReal(log2_sum(
        avg_weight(ens, w).log2 + _log2_bsc_term(n, w, eps)
        for w in range(1, n + 1)))
    if ens.is_random:
        closed = _avg_pu_random_closed(ens.m, n, eps)
        if not total.isclose(closed, rel_tol=1e-12):
            raise ArithmeticError(
                f"summation {total.log2} vs closed form {closed.log2}")
    return total


def _avg_pu_random_closed(m: int, n: int, eps: float) -> LogReal:
    # 2^-m (1 - (1-eps)^n)
    log_1me_n = n * math.log1p(-eps)
    return LogReal(-m + math.log1p(-math.exp(log_1me_n)) / _LN2)


def joint_pass_prob(ens: BernoulliEnsemble, w1: int, w2: int, v: int) -> LogReal:
    """Pr[H x^t = 0 and H y^t = 0] for |x| = w1, |y| = w2, |supp overlap| = v."""
    n = ens.n
    if not (0 <= w1 <= n and 0 <= w2 <= n):
        raise ValueError("weights out of range")
    if not max(0, w1 + w2 - n) <= v <= min(w1, w2):
        raise OverlapRangeError(
            f"overlap v={v} invalid for w1={w1}, w2={w2}, n={n}")
    z = ens.z
    s = _zpow(z, w1) + _zpow(z, w2) + _zpow(z, w1 + w2 - 2 * v)
    # (1 + s)/4 <= 1; log1p keeps precision when s is tiny.
    return LogReal(ens.m * (math.log1p(s) / _LN2 - 2.0))


def second_moment_weight(ens: BernoulliEnsemble, w1: int, w2: int) -> LogReal:
    """E[A_w1 A_w2] as the overlap sum of joint-pass probabilities."""
    n = ens.n
    if not (1 <= w1 <= n and 1 <= w2 <= n):
        raise ValueError("weights out of range")
    if w1 > w2:
        w1, w2 = w2, w1
    terms = []
    for v in range(max(0, w1 + w2 - n), w1 + 1):
        count = (log2_binom(n, w1) + log2_binom(w1, v)
                 + log2_binom(n - w1, w2 - v))
        terms.append(count + joint_pass_prob(ens, w1, w2, v).log2)
    return LogReal(log2_sum(terms))


def _cov_weight_random(m: int, n: int, w1: int, w2: int) -> LogReal:
    if w1 != w2:
        return LogReal.ZERO
    # 2^-2m C(n, w) (2^m - 1)
    return LogReal(-2 * m + log2_binom(n, w1)
                   + m + math.log1p(-(2.0 ** -m)) / _LN2)


def cov_weight(ens: BernoulliEnsemble, w1: int, w2: int) -> LogReal:
    """Cov(A_w1, A_w2); always >= 0 for p <= 1/2.

    Each overlap term carries a factor ((1 + y)^m - 1) with
    y = z^(w1+w2-2v) (1 - z^(2v)) / ((1+z^w1)(1+z^w2)) >= 0, computed as
    expm1(m log1p(y)) in log domain so nothing cancels.
    """
    n, m, z = ens.n, ens.m, ens.z
    if not (1 <= w1 <= n and 1 <= w2 <= n):
        raise ValueError("weights out of range")
    if w1 > w2:
        w1, w2 = w2, w1
    if ens.is_random:
        return _cov_weight_random(m, n, w1, w2)
    pref = m * (_log2_half_1p(_zpow(z, w1)) + _log2_half_1p(_zpow(z, w2)))
    denom = (1.0 + _zpow(z, w1)) * (1.0 + _zpow(z, w2))
    # z = 0 gives expm1(-inf) = -1 below, reproducing the random branch.
    log_z = math.log(z) if z > 0.0 else -math.inf
    terms = []
    for v in range(max(0, w1 + w2 - n), w1 + 1):
        if v == 0:
            continue  # z^(w1+w2) - z^(w1+w2) = 0 exactly
        # numerator z^(w1+w2-2v) - z^(w1+w2) = z^(w1+w2-2v) (1 - z^(2v))
        y = _zpow(z, w1 + w2 - 2 * v) * (-math.expm1(2 * v * log_z)) / denom
        if y < 0.0:
            raise ArithmeticError(f"negative overlap term {y} at v={v}")
        if y == 0.0:
            continue
        count = (log2_binom(n, w1) + log2_binom(w1, v)
                 + log2_binom(n - w1, w2 - v))
        terms.append(count + log2_expm1_exp(m * math.log1p(y)))
    return LogReal(pref + log2_sum(terms))


def cov_matrix(ens: BernoulliEnsemble) -> list[list[LogReal]]:
    """Full covariance matrix Cov(A_w1, A_w2) for 1 <= w1, w2 <= n.

    Indexed [w1][w2] with dummy 0 row/column (A_0 is constant, zero
    covariance).
    """
    n = ens.n
    mat = [[LogReal.ZERO] * (n + 1) for _ in range(n + 1)]
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            c = cov_weight(ens, w1, w2)
            mat[w1][w2] = c
            mat[w2][w1] = c
    return mat


def var_pu(ens: BernoulliEnsemble, ch: Bsc) -> LogReal:
    """Var[P_U] = sum over (w1, w2) of Cov(A_w1, A_w2) weighted by the
    BSC probabilities of the two weights.

    For the random ensemble the closed form
    (1 - 2^-m) 2^-m ((eps^2 + (1-eps)^2)^n - (1-eps)^(2n)) is also
    evaluated and required to agree to 1e-12 relative.
    """
    total = var_pu_from_cov(ens, cov_matrix(ens), ch.eps)
    if ens.is_random:
        closed = _var_pu_random_closed(ens.m, ens.n, ch.eps)
        if not total.isclose(closed, rel_tol=1e-12):
            raise ArithmeticError(
                f"double sum {total.log2} vs closed form {closed.log2}")
    return total


def var_pu_from_cov(ens: BernoulliEnsemble, cov: list[list[LogReal]],
                    eps: float) -> LogReal:
    """The Var[P_U] double sum given a precomputed covariance matrix."""
    n = ens.n
    terms = []
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            c = cov[w1][w2]
            if c.is_zero:
                continue
            t = c.log2 + _log2_bsc_term(2 * n, w1 + w2, eps)
            terms.append(t if w1 == w2 else t + 1.0)  # off-diagonal twice
    return LogReal(log2_sum(terms))


def _var_pu_random_closed(m: int, n: int, eps: float) -> LogReal:
    la = n * math.log2(eps * eps + (1.0 - eps) * (1.0 - eps))
    lb = 2 * n * math.log1p(-eps) / _LN2
    # la >= lb always (sum of squares vs one square term)
    diff = la + math.log1p(-(2.0 ** (lb - la))) / _LN2
    return LogReal(math.log1p(-(2.0 ** -m)) / _LN2 - m + diff)


def finite_n_exponent(ens: BernoulliEnsemble, ch: Bsc) -> float:
    """(1/n) log2 E[P_U]; converges to the asymptotic error exponent."""
    return avg_pu(ens, ch).log2 / ens.n
