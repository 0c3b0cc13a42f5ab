"""Reference evaluations that only the tests use: the joint-pass
probability by brute force over all rows and in closed form, each
matrix's probability and the Bernstein polynomials, the closed forms of
the weight moments and Var[P_U] summed over row states, all in exact
Fractions, a numeric sup for the covariance growth rate's inner closed
form, the GF(2) rank and the range-checked binary entropy."""

import math
from fractions import Fraction

import numpy as np

from udestats.asymptotics import (OptimizerConfig, _entropy, _scalar,
                                  _sup_rows, _unit)
from udestats.gf2 import BitMatrix
from udestats.oracle import GuardExceededError, _check_k
from udestats.rational import RationalPoly


def brute_force_joint_pass(m: int, n: int, k, x: int, y: int) -> Fraction:
    """Pr[H x^t = 0 and H y^t = 0] by enumerating all 2^n rows, for words
    x, y bit-packed into ints (bit j = coordinate j).

    Rows are independent, so the single-row probability is raised to m.
    """
    if n > 20:
        raise GuardExceededError(f"2^{n} rows exceed the brute-force guard")
    if x < 0 or y < 0 or x >> n or y >> n:
        raise ValueError("a word has bits beyond its n coordinates")
    k = _check_k(n, Fraction(k))
    p = k / n
    q = Fraction(0)
    for h in range(1 << n):
        if (h & x).bit_count() & 1:
            continue
        if (h & y).bit_count() & 1:
            continue
        w = h.bit_count()
        q += p ** w * (1 - p) ** (n - w)
    return q ** m


def joint_pass_prob_exact(m: int, n: int, k, w1: int, w2: int, v: int
                          ) -> Fraction:
    """The closed form of Pr[H x^t = 0 and H y^t = 0] in Fractions, for
    |x| = w1, |y| = w2 and overlap v."""
    k = _check_k(n, Fraction(k))
    if not max(0, w1 + w2 - n) <= v <= min(w1, w2):
        raise ValueError(f"overlap v={v} invalid for w1={w1}, w2={w2}")
    z = 1 - 2 * k / n
    return (Fraction(1 + z ** w1 + z ** w2 + z ** (w1 + w2 - 2 * v), 4)) ** m


def matrix_probs(m: int, n: int, k) -> tuple:
    """P(H) of each of the 2^(mn) matrices, by matrix id t (row i in bits
    [n i, n (i + 1)))."""
    k = _check_k(n, Fraction(k))
    mn, p = m * n, k / n
    probs = np.array([p ** wt * (1 - p) ** (mn - wt)
                      for wt in range(mn + 1)], dtype=object)
    return tuple(probs[np.bitwise_count(np.arange(1 << mn))])


def bernstein(w: int, n: int) -> RationalPoly:
    """eps^w (1-eps)^(n-w) expanded in the monomial basis."""
    if not 0 <= w <= n:
        raise ValueError(f"need 0 <= w <= n, got w={w}, n={n}")
    cs = [Fraction(0)] * (n + 1)
    for j in range(n - w + 1):
        cs[w + j] = Fraction((-1) ** j * math.comb(n - w, j))
    return RationalPoly(cs)


def avg_weight_exact(m: int, n: int, k, w: int) -> Fraction:
    k = _check_k(n, Fraction(k))
    z = 1 - 2 * k / n
    return (Fraction(1 + z ** w, 2)) ** m * math.comb(n, w)


def second_moment_weight_exact(m: int, n: int, k, w1: int, w2: int) -> Fraction:
    if w1 > w2:
        w1, w2 = w2, w1
    acc = Fraction(0)
    for v in range(max(0, w1 + w2 - n), w1 + 1):
        count = math.comb(n, w1) * math.comb(w1, v) * math.comb(n - w1, w2 - v)
        acc += count * joint_pass_prob_exact(m, n, k, w1, w2, v)
    return acc


def cov_weight_exact(m: int, n: int, k, w1: int, w2: int) -> Fraction:
    return (second_moment_weight_exact(m, n, k, w1, w2)
            - avg_weight_exact(m, n, k, w1) * avg_weight_exact(m, n, k, w2))


def var_pu_row_states(m: int, n: int, k: Fraction, eps: Fraction
                      ) -> Fraction:
    """Var[P_U] at eps, exactly, summed over row states.  One Bernoulli row
    h gives Pr(h x = 0, h y = 0) = (1 + z^|x| + z^|y| + z^|x+y|) / 4 with
    z = 1 - 2k/n; its m-th power splits into multinomial states
    (i, j, k', l), and over the BSC each state's sum over x and y factors
    by coordinates into Q^n, where Q = R + eps^2 z^(j+k') (1 - z^(2l)) and
    R = P_(j+l) P_(k'+l), P_a = 1 - eps + eps z^a.  The states with l = 0
    make up E[P_U]^2, and the words x = 0 or y = 0 cancel, so
    Var[P_U] = 4^-m sum over l >= 1 of (m; i, j, k', l) (Q^n - R^n)."""
    z = 1 - 2 * k / n
    total = Fraction(0)
    for l in range(1, m + 1):
        for j in range(m - l + 1):
            for k2 in range(m - l - j + 1):
                r = ((1 - eps + eps * z ** (j + l))
                     * (1 - eps + eps * z ** (k2 + l)))
                q = r + eps * eps * z ** (j + k2) * (1 - z ** (2 * l))
                states = (math.comb(m, l) * math.comb(m - l, j)
                          * math.comb(m - l - j, k2))
                total += states * (q ** n - r ** n)
    return total / 4 ** m


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0; x is a
    float or an array."""
    return _scalar(_entropy(_unit(x, "entropy argument")))


def scaled_entropy(scale, x):
    """scale * h(x / scale); 0 where scale is 0 (the x = 0 corner).  Both
    arguments broadcast."""
    scale = np.asarray(scale, dtype=float)
    pos = scale > 0.0
    ratio = np.clip(x / np.where(pos, scale, 1.0), 0.0, 1.0)
    return _scalar(np.where(pos, scale * binary_entropy(ratio), 0.0))


def inner_sup_grid(R: float, a: float, b: float, points: int = 4096) -> float:
    """Numeric sup over mu of the scaled inner objective; cross-check for
    the closed form at a > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("need a > 0 and b > 0")
    c = 1.0 - R
    la, lb = math.log2(a), math.log2(b)
    return _sup_rows(lambda mu: scaled_entropy(c, mu) + mu * la
                     + (c - mu) * lb, 0.0, c, OptimizerConfig(points))[0]


def rank(h: BitMatrix) -> int:
    """GF(2) row rank, by column-by-column elimination."""
    rows = list(h.rows)
    r = 0
    for col in range(h.n):
        piv = next((i for i in range(r, len(rows)) if rows[i] >> col & 1),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> col & 1:
                rows[i] ^= rows[r]
        r += 1
    return r
