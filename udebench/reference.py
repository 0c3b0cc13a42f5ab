"""Reference computations the benchmark checks udestats against.

Everything here is written independently of udestats: GF(2) rank by
elimination on Python ints, row spaces enumerated with numpy, the
MacWilliams identity with exact integer Krawtchouk sums, ensemble
moments in exact integers/Fractions, and exact binomial tails for the
Clopper-Pearson test.  None of it is timed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1


def gf2_basis(rows) -> list[int]:
    """Independent rows spanning the GF(2) row space of bit-packed rows."""
    pivots: dict[int, int] = {}
    for x in rows:
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return list(pivots.values())


def row_space_weights(basis: list[int], n: int) -> list[int]:
    """B_j: number of weight-j words in the span of independent rows."""
    words = (n + 63) // 64
    arr = np.zeros((1 << len(basis), words), dtype=np.uint64)
    size = 1
    for b in basis:
        vec = np.array([(b >> (64 * j)) & _MASK64 for j in range(words)],
                       dtype=np.uint64)
        np.bitwise_xor(arr[:size], vec, out=arr[size:2 * size])
        size *= 2
    w = np.bitwise_count(arr).sum(axis=1, dtype=np.int64)
    return [int(c) for c in np.bincount(w, minlength=n + 1)]


_KRAWTCHOUK: dict[int, list[list[int]]] = {}


def _krawtchouk(n: int) -> list[list[int]]:
    """K[w][j] = sum_s (-1)^s C(j, s) C(n - j, w - s)."""
    if n not in _KRAWTCHOUK:
        _KRAWTCHOUK[n] = [[sum((-1) ** s * math.comb(j, s)
                                * math.comb(n - j, w - s)
                                for s in range(min(j, w) + 1))
                           for j in range(n + 1)] for w in range(n + 1)]
    return _KRAWTCHOUK[n]


def macwilliams(b: list[int], n: int) -> list[int]:
    """Weight distribution of the dual of a code with distribution b."""
    size = sum(b)
    k = _krawtchouk(n)
    out = []
    for w in range(n + 1):
        num = sum(bj * kj for bj, kj in zip(b, k[w]))
        if num % size:
            raise ArithmeticError("MacWilliams transform is not integral")
        out.append(num // size)
    return out


def pu_from_row_space(b: list[int], n: int, eps: float) -> Fraction:
    """Exact P_U = 2^-r sum_j B_j (1 - 2 eps)^j - (1 - eps)^n."""
    e = Fraction(eps)
    t = 1 - 2 * e
    return (sum(bj * t ** j for j, bj in enumerate(b) if bj) / sum(b)
            - (1 - e) ** n)


def _z(n: int, k) -> Fraction:
    z = 1 - 2 * Fraction(k) / n
    if not 0 <= z < 1:
        raise ValueError("need 0 < k <= n/2")
    return z


def avg_weight(m: int, n: int, k, w: int) -> Fraction:
    """E[A_w] = ((1 + z^w) / 2)^m C(n, w)."""
    return ((1 + _z(n, k) ** w) / 2) ** m * math.comb(n, w)


def cov_weight(m: int, n: int, k, w1: int, w2: int) -> tuple[int, int]:
    """Cov(A_w1, A_w2) = num / den exactly, as E[A_w1 A_w2] - E[A_w1] E[A_w2]
    over the support overlap v, with everything scaled to integers."""
    z = _z(n, k)
    a, b = z.numerator, z.denominator
    top = 2 * n
    bt = b ** top
    joint = 0
    for v in range(max(0, w1 + w2 - n), min(w1, w2) + 1):
        s = w1 + w2 - 2 * v
        count = math.comb(n, w1) * math.comb(w1, v) * math.comb(n - w1, w2 - v)
        nv = (bt + a ** w1 * b ** (top - w1) + a ** w2 * b ** (top - w2)
              + a ** s * b ** (top - s))
        joint += count * nv ** m
    prod = ((b ** w1 + a ** w1) * (b ** w2 + a ** w2)
            * b ** (top - w1 - w2))
    num = joint - math.comb(n, w1) * math.comb(n, w2) * prod ** m
    return num, (4 * bt) ** m


def log2_ratio(num: int, den: int) -> float:
    """log2(num / den) to about one ulp, for ints of any size (taking
    log2 of each and subtracting would lose the digits that cancel)."""
    if num <= 0:
        return -math.inf
    e = num.bit_length() - den.bit_length()
    y = num / (den << e) if e >= 0 else (num << -e) / den
    return e + math.log2(y)


def mean_pu(m: int, n: int, k, eps: float, w_min: int = 1) -> Fraction:
    """E[P_U] = sum_{w >= w_min} E[A_w] eps^w (1 - eps)^(n - w); w_min = 1
    is the whole of P_U."""
    e = Fraction(eps)
    return sum(avg_weight(m, n, k, w) * e ** w * (1 - e) ** (n - w)
               for w in range(w_min, n + 1))


def var_pu(m: int, n: int, k, eps_list, w_min: int = 1) -> list[float]:
    """Var of the part of P_U from weights >= w_min, per eps, as the double
    sum of exact covariances, rounded to floats only for the final
    weighting (ample for a standard error)."""
    covs = []
    for w1 in range(w_min, n + 1):
        for w2 in range(w1, n + 1):
            num, den = cov_weight(m, n, k, w1, w2)
            if num:
                covs.append((w1 + w2, (num / den) * (1 if w1 == w2 else 2)))
    return [math.fsum(c * eps ** s * (1 - eps) ** (2 * n - s)
                      for s, c in covs) for eps in eps_list]


def mean_pu_random(m: int, n: int, eps: float) -> Fraction:
    """Random ensemble: 2^-m (1 - (1 - eps)^n)."""
    return (1 - (1 - Fraction(eps)) ** n) / 2 ** m


def var_pu_random(m: int, n: int, eps: float) -> Fraction:
    """Random ensemble: (1 - 2^-m) 2^-m ((eps^2 + (1-eps)^2)^n - (1-eps)^(2n))."""
    e = Fraction(eps)
    q = Fraction(1, 2 ** m)
    return (1 - q) * q * ((e * e + (1 - e) ** 2) ** n - (1 - e) ** (2 * n))


def log2_fraction(x: Fraction) -> float:
    return log2_ratio(x.numerator, x.denominator)


def _binom_pmf(x: int, trials: int, p: float) -> float:
    return math.exp(math.lgamma(trials + 1) - math.lgamma(x + 1)
                    - math.lgamma(trials - x + 1)
                    + x * math.log(p) + (trials - x) * math.log1p(-p))


def binom_tails(x: int, trials: int, p: float) -> tuple[float, float]:
    """(P[X <= x], P[X >= x]) for X ~ Binomial(trials, p), 0 < p < 1.

    Both are reported as 0 when P[X = x] underflows: x is then so far in
    one tail that no test level used here accepts it.
    """
    px = _binom_pmf(x, trials, p)
    if px == 0.0:
        return 0.0, 0.0
    r = p / (1.0 - p)
    lower, term = px, px
    for j in range(x, 0, -1):
        term *= j / ((trials - j + 1) * r)
        lower += term
        if term < lower * 1e-17:
            break
    upper, term = px, px
    for j in range(x, trials):
        term *= (trials - j) * r / (j + 1)
        upper += term
        if term < upper * 1e-17:
            break
    return min(lower, 1.0), min(upper, 1.0)


def in_clopper_pearson(hits: int, trials: int, p: float,
                       alpha: float) -> bool:
    """True when p lies in the two-sided level 1 - alpha Clopper-Pearson
    interval for hits out of trials (its defining tail conditions)."""
    if p <= 0.0 or p >= 1.0:
        return (hits == 0) if p <= 0.0 else (hits == trials)
    lower, upper = binom_tails(hits, trials, p)
    return lower > alpha / 2 and upper > alpha / 2
