"""Reference evaluations that only the tests use: the closed forms of the
weight moments in exact Fractions, and a numeric sup for the covariance
growth rate's inner closed form."""

import math
from fractions import Fraction

import numpy as np

from udestats.asymptotics import (OptimizerConfig, _scalar, _sup_rows,
                                  binary_entropy)
from udestats.oracle import _check_k, joint_pass_prob_exact


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
