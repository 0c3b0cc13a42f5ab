"""Closed-form finite-size statistics of Bernoulli and random matrix
ensembles: average weight distribution, mean/variance of the undetected
error probability, and weight-distribution covariance and second
moments.

Everything is computed in base-2 log domain (see logreal); every term in
the formulas handled here is nonnegative for p <= 1/2, so no signed log
arithmetic is required.  Each closed form is one numpy expression over
the weights, with ln z^w from `_log_zpowers` (-inf at z = 0, the random
ensemble k = n/2) and log2((1 + z^w)/2) from `_log2_halves`.  For the
random ensemble, `avg_pu` and `var_pu_from_cov` (which `var_pu` calls)
also check the sum against its closed form on every call.

The covariances come from one numpy kernel, `_cov_kernel`, over flat
(w1, w2, v) triples with w1 <= w2, in blocks of whole pairs of at most
2^14 triples (128 KB per temporary, whatever n), with the log-sum-exp of
each pair done by `reduceat`.  `cov_weight` is the kernel on one pair
and `cov_matrix` on all of them, so the two agree bit for bit.  The
second moments need no overlap sum of their own: E[A_w1 A_w2] is
Cov(A_w1, A_w2) + E[A_w1] E[A_w2], two nonnegative terms added in log
domain, by `second_moment_from_cov` on the matrix.
log2 C(a, j) comes from exact integers, one row per a, cached in a
bounded LRU (512 rows).

Precision: every log2 value is within a few ulps of its exact value, at
every n, so the relative error in the linear domain is a few times
1e-16 |log2 value|: about 1e-14 at n = 100 and 1e-12 at n = 2000, more
only where the log2 itself reaches tens of thousands (m or n = 20000).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .logreal import LogReal, log2_expm1_exp, log2_sum

_LN2 = math.log(2.0)
# Overlap triples per covariance-kernel block: 128 KB per float64
# temporary whatever n.  Against 2^13, cov_matrix measured 4-9% faster at
# n = 48, 96 and 160, 6-8% slower at n = 64, and its traced peak at
# n = 300 rose from 3.5 to 4.1 MiB.
_BLOCK_TRIPLES = 1 << 14
# Largest n for cov_matrix: its (n+1)^2 float64 matrix is 128 MiB there,
# and its n^3/6 overlap triples about 1.1e10.
_MAX_COV_N = 1 << 12


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

    k is the average row weight, any positive real <= n/2 whose float
    p = k/n is a normal float, at least 2^-1022: a subnormal p carries too
    few bits for the closed forms.  k = n/2 is the uniform (random)
    ensemble.
    """

    m: int
    n: int
    k: float

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not self.p >= sys.float_info.min:
            raise ValueError("need k > 0 with p = k/n >= 2^-1022, the "
                             f"smallest normal float, got p={self.p:.3g}")
        if not self.k <= self.n / 2:
            raise ValueError(f"need k <= n/2, got k={self.k}, n={self.n}")

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


def _log_z(ens: BernoulliEnsemble) -> float:
    """ln z from log1p(-2p), which keeps 1 - z^e exact to an ulp at small
    p; -inf for the random ensemble."""
    return math.log1p(-2.0 * ens.p) if ens.z > 0.0 else -math.inf


def _log_zpowers(ens: BernoulliEnsemble, top: int) -> np.ndarray:
    """ln z^e = e ln z for e = 0..top; -inf for e >= 1 at z = 0."""
    lz = np.zeros(top + 1)
    lz[1:] = np.arange(1, top + 1) * _log_z(ens)
    return lz


def _log2_halves(lz: np.ndarray) -> np.ndarray:
    """log2((1 + z^e)/2) from lz = ln z^e, as log1p(expm1(lz)/2)/ln 2,
    which cancels nothing where z^e is near 1."""
    return np.log1p(np.expm1(lz) / 2.0) / _LN2


def _log2_avg_weights(ens: BernoulliEnsemble) -> np.ndarray:
    """log2 E[A_w] = m log2((1 + z^w)/2) + log2 C(n, w) for w = 0..n."""
    return (ens.m * _log2_halves(_log_zpowers(ens, ens.n))
            + _log2_binom_row(ens.n))


def avg_weight(ens: BernoulliEnsemble, w: int) -> LogReal:
    """E[A_w] = ((1 + z^w)/2)^m C(n, w)."""
    if not 0 <= w <= ens.n:
        raise ValueError(f"need 0 <= w <= n, got {w}")
    return LogReal(float(_log2_avg_weights(ens)[w]))


def _log2_bsc_term(n: int, w, eps: float):
    """log2 of eps^w (1-eps)^(n-w), for an int w or an array of them."""
    return (w * math.log(eps) + (n - w) * math.log1p(-eps)) / _LN2


def _check_random(ens: BernoulliEnsemble, eps: float, total: LogReal,
                  closed: LogReal) -> None:
    """Require a random-ensemble sum to match its closed form within 16
    ulps of m + 2n log2(1/eps), which bounds the |log2| of every factor
    summed (the precision bound above), and at least 1e-12."""
    top = ens.m - 2 * ens.n * math.log2(eps)
    if not total.isclose(closed, rel_tol=max(1e-12, 2.0 ** -48 * top)):
        raise ArithmeticError(
            f"summation {total.log2} vs closed form {closed.log2}")


def avg_pu(ens: BernoulliEnsemble, ch: Bsc) -> LogReal:
    """E[P_U] over the ensemble, by the weighted sum over weights; for the
    random ensemble, checked against 2^-m (1 - (1-eps)^n)."""
    n = ens.n
    terms = (_log2_avg_weights(ens)[1:]
             + _log2_bsc_term(n, np.arange(1, n + 1), ch.eps))
    total = LogReal(log2_sum(terms))
    if ens.is_random:
        _check_random(ens, ch.eps, total,
                      _avg_pu_random_closed(ens.m, n, ch.eps))
    return total


def _avg_pu_random_closed(m: int, n: int, eps: float) -> LogReal:
    # 2^-m (1 - (1-eps)^n), with 1 - (1-eps)^n = -expm1(n log1p(-eps))
    return LogReal(-m + math.log(-math.expm1(n * math.log1p(-eps))) / _LN2)


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


def _log2_binom_table(n: int, w1: np.ndarray) -> tuple[np.ndarray,
                                                      np.ndarray]:
    """(table, offset) with log2 C(a, j) = table[offset[a] + j] for the
    rows a an overlap sum over pairs (w1, w2) reads: n, each w1 and each
    n - w1."""
    used = np.zeros(n + 1, dtype=bool)
    used[n] = used[w1] = used[n - w1] = True
    rows = np.flatnonzero(used)
    offset = np.zeros(n + 1, dtype=np.int64)
    offset[rows] = np.cumsum(rows + 1) - (rows + 1)
    return np.concatenate([_log2_binom_row(int(a)) for a in rows]), offset


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
    expm1(m log1p(y)) in log domain so nothing cancels; below 2^-1000,
    where y may lose bits or underflow, it is m y from ln y.  v = 0 is left
    out: its numerator z^(w1+w2) - z^(w1+w2) is exactly 0.  The (w1, w2, v)
    triples are evaluated in blocks of whole pairs, at most
    _BLOCK_TRIPLES each unless one pair alone has more, and every pair's
    terms are summed within one block, so a pair's value does not depend
    on which other pairs share the call.
    """
    n, m = ens.n, ens.m
    # z = 0 gives z^w = 0 and 1 - z^(2v) = 1, reproducing the random branch.
    lz = _log_zpowers(ens, 2 * n)       # ln z^e for e = w1 + w2 - 2v <= 2n
    zpow = np.exp(lz)
    one_minus = -np.expm1(lz[::2])      # 1 - z^(2v) for v = 0..n
    half = _log2_halves(lz[:n + 1])
    table, offset = _log2_binom_table(n, w1)
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
        den = (1.0 + zpow[p1]) * (1.0 + zpow[p2])
        y = zpow[e]
        y *= one_minus[v]
        y /= den[pair]
        if (y < 0.0).any():
            raise ArithmeticError(f"negative overlap term {y.min()}")
        tiny = np.flatnonzero(y < 2.0 ** -1000)
        ln_my = lz[e[tiny]] + np.log(one_minus[v[tiny]] / den[pair[tiny]] * m)
        y[tiny] = 1.0
        binom = table[offset[n] + a]
        binom += table[offset[a] + v]
        b -= v
        a = n - a
        binom += table[offset[a] + b]
        del a, b, e, pair
        terms = binom + log2_expm1_exp(m * np.log1p(y))
        terms[tiny] = binom[tiny] + ln_my / _LN2
        out[lo:hi] = (m * (half[p1] + half[p2])
                      + _log2_sum_segments(terms, starts, cnt))
        lo = hi
    return out


def _log2_cov_random_diag(ens: BernoulliEnsemble) -> np.ndarray:
    """log2 Cov(A_w, A_w) = log2 E[A_w] (1 - 2^-m) of the random ensemble
    for w >= 1; its other covariances are 0."""
    return _log2_avg_weights(ens) + math.log1p(-(2.0 ** -ens.m)) / _LN2


def cov_weight(ens: BernoulliEnsemble, w1: int, w2: int) -> LogReal:
    """Cov(A_w1, A_w2); always >= 0 for p <= 1/2.

    The generic path is `_cov_kernel` on the one pair, so the value is
    bit for bit the entry of `cov_matrix`.
    """
    n = ens.n
    if not (1 <= w1 <= n and 1 <= w2 <= n):
        raise ValueError("weights out of range")
    if w1 > w2:
        w1, w2 = w2, w1
    if ens.is_random:
        return (LogReal(float(_log2_cov_random_diag(ens)[w1])) if w1 == w2
                else LogReal.ZERO)
    with np.errstate(divide="ignore", under="ignore"):
        value = _cov_kernel(ens, np.array([w1]), np.array([w2]))
    return LogReal(float(value[0]))


def cov_matrix(ens: BernoulliEnsemble) -> np.ndarray:
    """log2 Cov(A_w1, A_w2) for 0 <= w1, w2 <= n as an (n+1) x (n+1)
    float array; row and column 0 are -inf (A_0 = 1 is constant)."""
    n = ens.n
    if n > _MAX_COV_N:
        raise ValueError(
            f"the covariance matrix needs n <= {_MAX_COV_N}, got n={n}: it "
            f"holds (n+1)^2 values from about n^3/6 overlap terms")
    mat = np.full((n + 1, n + 1), -np.inf)
    if ens.is_random:
        w = np.arange(1, n + 1)
        mat[w, w] = _log2_cov_random_diag(ens)[1:]
        return mat
    w1, w2 = np.triu_indices(n)
    w1 += 1
    w2 += 1
    with np.errstate(divide="ignore", under="ignore"):
        mat[w1, w2] = mat[w2, w1] = _cov_kernel(ens, w1, w2)
    return mat


def second_moment_from_cov(ens: BernoulliEnsemble,
                           cov: np.ndarray) -> np.ndarray:
    """log2 E[A_w1 A_w2] for 0 <= w1, w2 <= n, from the log2 matrix of
    `cov_matrix`: both terms of Cov(A_w1, A_w2) + E[A_w1] E[A_w2] are
    nonnegative, so nothing cancels."""
    lw = _log2_avg_weights(ens)
    return np.logaddexp2(cov, np.add.outer(lw, lw))


def var_pu(ens: BernoulliEnsemble, ch: Bsc) -> LogReal:
    """Var[P_U]; see `var_pu_from_cov`."""
    return var_pu_from_cov(ens, cov_matrix(ens), ch.eps)


def var_pu_from_cov(ens: BernoulliEnsemble, cov: np.ndarray,
                    eps: float) -> LogReal:
    """Var[P_U] as the sum over (w1, w2) of Cov(A_w1, A_w2), from the log2
    matrix of `cov_matrix`, weighted by the BSC probabilities of the two
    weights; summing the whole symmetric matrix counts each off-diagonal
    pair twice.  For the random ensemble the sum is checked against
    (1 - 2^-m) 2^-m ((eps^2 + (1-eps)^2)^n - (1-eps)^(2n)).
    """
    n, eps = ens.n, Bsc(eps).eps
    w = np.arange(1, n + 1)
    terms = _log2_bsc_term(2 * n, np.arange(2 * n + 1), eps)[
        np.add.outer(w, w)]
    terms += cov[1:, 1:]
    with np.errstate(divide="ignore", under="ignore"):
        total = LogReal(float(_log2_sum_segments(
            terms.ravel(), np.array([0]), np.array([n * n]))[0]))
    if ens.is_random:
        _check_random(ens, eps, total, _var_pu_random_closed(ens.m, n, eps))
    return total


def _var_pu_random_closed(m: int, n: int, eps: float) -> LogReal:
    # (eps^2 + (1-eps)^2)^n - (1-eps)^(2n)
    #   = (1-eps)^(2n) expm1(n log1p((eps / (1-eps))^2)), which cancels nothing
    # (r = eps / (1-eps)).  expm1(t) is t to double precision below
    # t = 2^-60, and r^2 underflows below eps of about 1e-154, so there
    # log2 t comes from log2 r.
    r = eps / (1.0 - eps)
    log2_t = math.log2(n) + 2.0 * math.log2(r)
    diff = 2 * n * math.log1p(-eps) / _LN2 + (
        log2_t if log2_t < -60.0 else log2_expm1_exp(n * math.log1p(r * r)))
    return LogReal(math.log1p(-(2.0 ** -m)) / _LN2 - m + diff)
