"""Closed-form finite-size statistics of Bernoulli and random matrix
ensembles: average weight distribution, mean/variance of the undetected
error probability, weight-distribution covariance, and joint-pass
probabilities.

Everything is computed in base-2 log domain (see logreal); every term in
the formulas handled here is nonnegative for p <= 1/2, so no signed log
arithmetic is required.  The random ensemble (k = n/2, z = 0) takes exact
branches and, where a closed form exists, the generic summation is
cross-checked against it on every call.

The covariances come from one numpy kernel, `_cov_kernel`, over flat
(w1, w2, v) triples with w1 <= w2, in blocks of whole pairs of at most
2^13 triples (64 KB per temporary, whatever n), with the log-sum-exp of
each pair done by `reduceat`.  `cov_weight` is the kernel on one pair
and `cov_matrix` on all of them, so the two agree bit for bit.
log2 C(a, j) comes from exact integers, one row per a, cached in a
bounded LRU (512 rows).

Precision: every log2 value is within a few ulps of its exact value, at
every n, so the relative error in the linear domain is a few times
1e-16 |log2 value|: about 1e-14 at n = 100 and 1e-12 at n = 2000, more
only where the log2 itself reaches tens of thousands (m = 20000).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .logreal import LogReal, log2_expm1_exp, log2_sum

_LN2 = math.log(2.0)
# Overlap triples per covariance-kernel block: 64 KB per float64
# temporary whatever n; larger blocks are no faster and raise the peak
# memory.
_BLOCK_TRIPLES = 1 << 13


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


def _log2_bsc_term(n: int, w, eps: float):
    """log2 of eps^w (1-eps)^(n-w), for an int w or an array of them."""
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


# Rows are cached one by one, like gf2's Krawtchouk columns: a matrix at
# n uses the rows a = 0..n, a single pair only the rows n, w1 and n - w1.
@functools.lru_cache(maxsize=512)
def _log2_binom_row(a: int) -> np.ndarray:
    """log2 C(a, j) for j = 0..a, from the exact integers (read-only)."""
    half, c = [], 1
    for j in range(a // 2 + 1):
        half.append(math.log2(c))
        c = c * (a - j) // (j + 1)
    row = np.array(half + half[(a + 1) // 2 - 1::-1] if a else half)
    row.setflags(write=False)
    return row


def _log2_sum_segments(terms: np.ndarray, starts: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
    """log2 of the sum of 2^terms over each segment; -inf entries are exact
    zeros, and a segment of zeros gives -inf.  terms is overwritten."""
    top = np.maximum.reduceat(terms, starts)
    shift = np.where(top == -np.inf, 0.0, top)
    terms -= np.repeat(shift, lengths)
    return shift + np.log2(np.add.reduceat(np.exp2(terms, out=terms), starts))


def _cov_kernel(ens: BernoulliEnsemble, w1: np.ndarray,
                w2: np.ndarray) -> np.ndarray:
    """log2 Cov(A_w1, A_w2) on the generic path for pairs 1 <= w1 <= w2.

    Each overlap term carries a factor ((1 + y)^m - 1) with
    y = z^(w1+w2-2v) (1 - z^(2v)) / ((1+z^w1)(1+z^w2)) >= 0, computed as
    expm1(m log1p(y)) in log domain so nothing cancels.  v = 0 is left
    out: its numerator z^(w1+w2) - z^(w1+w2) is exactly 0.  The (w1, w2, v)
    triples are evaluated in blocks of whole pairs, at most
    _BLOCK_TRIPLES each unless one pair alone has more, and every pair's
    terms are summed within one block, so a pair's value does not depend
    on which other pairs share the call.
    """
    n, m = ens.n, ens.m
    # z = 0 gives z^w = 0 and 1 - z^(2v) = 1, reproducing the random branch.
    log_z = math.log(ens.z) if ens.z > 0.0 else -math.inf
    zpow = np.ones(2 * n + 1)           # z^e for e = w1 + w2 - 2v <= 2n
    zpow[1:] = np.exp(np.arange(1, 2 * n + 1) * log_z)
    one_minus = np.zeros(n + 1)         # 1 - z^(2v) for v = 0..n
    one_minus[1:] = -np.expm1(2 * np.arange(1, n + 1) * log_z)
    half = np.log1p(zpow[:n + 1]) / _LN2 - 1.0
    # log2 C(a, j) = table[offset[a] + j] for the rows a the pairs use.
    used = np.zeros(n + 1, dtype=bool)
    used[n] = used[w1] = used[n - w1] = True
    rows = np.flatnonzero(used)
    offset = np.zeros(n + 1, dtype=np.int64)
    offset[rows] = np.cumsum(rows + 1) - (rows + 1)
    table = np.concatenate([_log2_binom_row(int(a)) for a in rows])
    # Triples of pair i end at ends[i]; v runs from max(1, w1+w2-n) to w1.
    ends = np.cumsum(w1 - np.maximum(1, w1 + w2 - n) + 1)
    out = np.empty(len(w1))
    lo = 0
    while lo < len(w1):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + _BLOCK_TRIPLES, "right")),
                 lo + 1)
        p1, p2 = w1[lo:hi], w2[lo:hi]
        v_lo = np.maximum(1, p1 + p2 - n)
        cnt = p1 - v_lo + 1
        starts = ends[lo:hi] - cnt - base
        # In-place updates keep about six block-sized arrays alive.
        pair = np.repeat(np.arange(hi - lo), cnt)
        v = np.arange(ends[hi - 1] - base)
        v -= starts[pair]
        v += v_lo[pair]
        a, b = p1[pair], p2[pair]
        e = a + b
        e -= 2 * v
        y = zpow[e]
        y *= one_minus[v]
        y /= ((1.0 + zpow[p1]) * (1.0 + zpow[p2]))[pair]
        if (y < 0.0).any():
            raise ArithmeticError(f"negative overlap term {y.min()}")
        binom = table[offset[n] + a]
        binom += table[offset[a] + v]
        b -= v
        a = n - a
        binom += table[offset[a] + b]
        del a, b, e, pair
        live = y > 0.0
        terms = np.where(live, binom + log2_expm1_exp(
            m * np.log1p(np.where(live, y, 1.0))), -np.inf)
        out[lo:hi] = (m * (half[p1] + half[p2])
                      + _log2_sum_segments(terms, starts, cnt))
        lo = hi
    return out


def cov_weight(ens: BernoulliEnsemble, w1: int, w2: int) -> LogReal:
    """Cov(A_w1, A_w2); always >= 0 for p <= 1/2.

    The generic path is `_cov_kernel` on the one pair, so the value is
    bit for bit the entry of `cov_matrix`.
    """
    n, m = ens.n, ens.m
    if not (1 <= w1 <= n and 1 <= w2 <= n):
        raise ValueError("weights out of range")
    if w1 > w2:
        w1, w2 = w2, w1
    if ens.is_random:
        return _cov_weight_random(m, n, w1, w2)
    with np.errstate(divide="ignore", under="ignore"):
        value = _cov_kernel(ens, np.array([w1]), np.array([w2]))
    return LogReal(float(value[0]))


def cov_matrix(ens: BernoulliEnsemble) -> np.ndarray:
    """log2 Cov(A_w1, A_w2) for 0 <= w1, w2 <= n as an (n+1) x (n+1)
    float array; row and column 0 are -inf (A_0 = 1 is constant)."""
    n = ens.n
    mat = np.full((n + 1, n + 1), -np.inf)
    if ens.is_random:
        for w in range(1, n + 1):
            mat[w, w] = _cov_weight_random(ens.m, n, w, w).log2
        return mat
    w1, w2 = np.triu_indices(n)
    w1 += 1
    w2 += 1
    with np.errstate(divide="ignore", under="ignore"):
        mat[w1, w2] = mat[w2, w1] = _cov_kernel(ens, w1, w2)
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


def var_pu_from_cov(ens: BernoulliEnsemble, cov: np.ndarray,
                    eps: float) -> LogReal:
    """The Var[P_U] double sum given the log2 covariance matrix of
    `cov_matrix`; summing the whole symmetric matrix counts each
    off-diagonal pair twice."""
    n = ens.n
    w = np.arange(1, n + 1)
    terms = _log2_bsc_term(2 * n, np.arange(2 * n + 1), eps)[
        np.add.outer(w, w)]
    terms += cov[1:, 1:]
    with np.errstate(divide="ignore", under="ignore"):
        total = _log2_sum_segments(terms.ravel(), np.array([0]),
                                   np.array([n * n]))
    return LogReal(float(total[0]))


def _var_pu_random_closed(m: int, n: int, eps: float) -> LogReal:
    la = n * math.log2(eps * eps + (1.0 - eps) * (1.0 - eps))
    lb = 2 * n * math.log1p(-eps) / _LN2
    # la >= lb always (sum of squares vs one square term)
    diff = la + math.log1p(-(2.0 ** (lb - la))) / _LN2
    return LogReal(math.log1p(-(2.0 ** -m)) / _LN2 - m + diff)


def finite_n_exponent(ens: BernoulliEnsemble, ch: Bsc) -> float:
    """(1/n) log2 E[P_U]; converges to the asymptotic error exponent."""
    return avg_pu(ens, ch).log2 / ens.n
