"""Nonnegative reals carried in base-2 log domain.

Products of many factors like ((1+z^w)/2)^m underflow doubles long before
the parameters of interest are reached, so every finite-size ensemble
quantity in this package is held as a LogReal.  Zero is represented
exactly (log2 = -inf); all formulas handled here are provably
nonnegative, so no signed log arithmetic is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)


def log2_expm1_exp(t):
    """Return log2(e^t - 1) for t > 0, a float or an array of them,
    without overflow or cancellation.

    The argument t is a natural log, typically m * log1p(y) for
    (1+y)^m - 1 terms.  log2(e^t - 1) = (t + log(1 - e^-t)) / ln 2, and
    -expm1(-t) gives 1 - e^-t to full precision at every t > 0.
    """
    t = np.asarray(t, dtype=float)
    if not (t > 0.0).all():
        raise ValueError(f"need t > 0, got {t.min()}")
    out = (t + np.log(-np.expm1(-t))) / _LN2
    return out if out.ndim else float(out)


def log2_sum(log2_terms) -> float:
    """log2 of a sum of nonnegative terms given by their log2 values.

    Factors out the max term; -inf entries (exact zeros) are skipped.
    """
    terms = [t for t in log2_terms if t != -math.inf]
    if not terms:
        return -math.inf
    top = max(terms)
    if top == math.inf:
        return math.inf
    return top + math.log2(math.fsum(2.0 ** (t - top) for t in terms))


@dataclass(frozen=True, slots=True)
class LogReal:
    """A nonnegative real stored as its base-2 logarithm.

    `log2 == -inf` is the exact zero element.
    """

    log2: float

    @classmethod
    def from_float(cls, x: float) -> "LogReal":
        if x < 0.0:
            raise ValueError(f"LogReal carries nonnegative values, got {x}")
        if x == 0.0:
            return cls(-math.inf)
        return cls(math.log2(x))

    def to_float(self) -> float:
        """Linear-domain value; underflows to 0.0 / overflows to inf."""
        if self.log2 == -math.inf:
            return 0.0
        try:
            return 2.0 ** self.log2
        except OverflowError:
            return math.inf

    @property
    def is_zero(self) -> bool:
        return self.log2 == -math.inf

    def __mul__(self, other: "LogReal") -> "LogReal":
        if self.is_zero or other.is_zero:
            return LogReal.ZERO
        return LogReal(self.log2 + other.log2)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.is_zero:
            raise ZeroDivisionError("LogReal division by zero")
        if self.is_zero:
            return LogReal.ZERO
        return LogReal(self.log2 - other.log2)

    def __add__(self, other: "LogReal") -> "LogReal":
        return LogReal(log2_sum((self.log2, other.log2)))

    def __pow__(self, exponent: float) -> "LogReal":
        if self.is_zero:
            if exponent <= 0:
                raise ValueError("0 ** nonpositive exponent")
            return LogReal.ZERO
        return LogReal(self.log2 * exponent)

    def __lt__(self, other: "LogReal") -> bool:
        return self.log2 < other.log2

    def __le__(self, other: "LogReal") -> bool:
        return self.log2 <= other.log2

    def isclose(self, other: "LogReal", rel_tol: float = 1e-12) -> bool:
        """Relative closeness in the linear domain, safe for tiny values.

        |a - b| <= rel_tol * max(a, b) translates to a bound on the
        difference of the logarithms.
        """
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        return abs(self.log2 - other.log2) * _LN2 <= rel_tol


# Shared constants; plain class attributes, not dataclass fields.
LogReal.ZERO = LogReal(-math.inf)
LogReal.ONE = LogReal(0.0)


def logreal_sum(values) -> LogReal:
    """Sum an iterable of LogReal values via log-sum-exp."""
    return LogReal(log2_sum(v.log2 for v in values))
