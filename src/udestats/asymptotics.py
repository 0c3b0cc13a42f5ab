"""Asymptotic growth rates and error exponents.

The error exponent of the average undetected error probability is the
supremum over the normalized weight of (growth rate + BSC tilt).  For the
sparse Bernoulli family the objective is not concave, so suprema are
located by a global grid scan followed by golden-section refinement of
every local candidate; half-open boundary limits are injected as explicit
candidates.

The covariance growth rate uses the scaled-entropy form of the inner
optimization: (1/n) log2 C(l1 n, v n) tends to l1 h(v / l1), so each
entropy term carries its scale prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_MAX_ITER = 200


@dataclass(frozen=True, slots=True)
class RatePoint:
    """Design-rate point: m = (1-R) n parity rows; k is the sparse-family
    average row weight (None for the random family)."""

    R: float
    k: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise ValueError(f"need 0 < R < 1, got {self.R}")
        if self.k is not None and self.k <= 0.0:
            raise ValueError(f"need k > 0, got {self.k}")


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    grid_points: int = 16384
    refine_tol: float = 1e-10

    def __post_init__(self):
        if self.grid_points < 64:
            raise ValueError("grid_points must be >= 64")
        if self.refine_tol <= 0.0:
            raise ValueError("refine_tol must be positive")


@dataclass(frozen=True, slots=True)
class GrowthRate:
    """A growth-rate curve on (0, 1] plus its explicit limit at 0+."""

    fn: Callable[[float], float]
    limit0: float

    def __call__(self, l: float) -> float:
        return self.fn(l)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument outside [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def kl_binary(l: float, eps: float) -> float:
    """Divergence between Bernoulli(l) and Bernoulli(eps), base 2."""
    if not 0.0 <= l <= 1.0:
        raise ValueError(f"need 0 <= l <= 1, got {l}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    acc = 0.0
    if l > 0.0:
        acc += l * math.log2(l / eps)
    if l < 1.0:
        acc += (1.0 - l) * math.log2((1.0 - l) / (1.0 - eps))
    return acc


def scaled_entropy(scale: float, x: float) -> float:
    """scale * h(x / scale); 0 when scale is 0 (the x = 0 corner)."""
    if scale <= 0.0:
        return 0.0
    ratio = min(max(x / scale, 0.0), 1.0)
    return scale * binary_entropy(ratio)


def growth_rate_random(R: float) -> GrowthRate:
    """f(l) = h(l) - (1 - R) for the random family."""
    if not 0.0 < R < 1.0:
        raise ValueError(f"need 0 < R < 1, got {R}")
    return GrowthRate(lambda l: binary_entropy(l) - (1.0 - R), -(1.0 - R))


def growth_rate_bernoulli(R: float, k: float) -> GrowthRate:
    """f(l) = h(l) + (1 - R) log2((1 + e^(-2kl)) / 2) for constant k."""
    if not 0.0 < R < 1.0:
        raise ValueError(f"need 0 < R < 1, got {R}")
    if k <= 0.0:
        raise ValueError(f"need k > 0, got {k}")

    def f(l: float) -> float:
        return binary_entropy(l) + (1.0 - R) * (
            math.log1p(math.exp(-2.0 * k * l)) / math.log(2.0) - 1.0)

    return GrowthRate(f, 0.0)


def exponent_objective(f: GrowthRate, eps: float) -> GrowthRate:
    """f(l) + l log2 eps + (1 - l) log2(1 - eps)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    le = math.log2(eps)
    l1e = math.log2(1.0 - eps)
    return GrowthRate(lambda l: f(l) + l * le + (1.0 - l) * l1e,
                      f.limit0 + l1e)


def golden_section_max(fn: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10) -> tuple[float, float]:
    """Maximize fn on [a, b]; returns (argmax, value)."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_REFINE_MAX_ITER):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _sup_on_interval(fn: Callable[[float], float], lo: float, hi: float,
                     cfg: OptimizerConfig, extra_candidates=()
                     ) -> tuple[float, float]:
    """Global sup on [lo, hi]: grid scan, refine every local top, compare
    with explicit extra candidates given as (x, value) pairs."""
    if hi <= lo:
        x = hi
        best = (x, fn(x))
    else:
        pts = cfg.grid_points
        step = (hi - lo) / pts
        xs = [lo + i * step for i in range(pts + 1)]
        ys = [fn(x) for x in xs]
        best = max(zip(xs, ys), key=lambda t: t[1])
        for i in range(len(xs)):
            left = ys[i - 1] if i > 0 else -math.inf
            right = ys[i + 1] if i + 1 < len(xs) else -math.inf
            if ys[i] >= left and ys[i] >= right:
                a = xs[max(i - 1, 0)]
                b = xs[min(i + 1, len(xs) - 1)]
                x, y = golden_section_max(fn, a, b, cfg.refine_tol)
                if y > best[1]:
                    best = (x, y)
    for x, y in extra_candidates:
        if y > best[1]:
            best = (x, y)
    return best


def error_exponent(f: GrowthRate, eps: float,
                   cfg: OptimizerConfig = OptimizerConfig()
                   ) -> tuple[float, float]:
    """sup over l in (0, 1] of the exponent objective.

    Returns (value, argmax); argmax is 0.0 when the l -> 0+ boundary
    limit wins.
    """
    g = exponent_objective(f, eps)
    lo = 1.0 / cfg.grid_points
    # Geometric tail below the uniform grid: the objective can have an
    # interior maximizer at vanishing l (infinite slope of h at 0).
    tail = []
    x = lo
    while x > 1e-13:
        x /= 2.0
        tail.append((x, g(x)))
    tx, _ = max(tail, key=lambda t: t[1])
    rx, ry = golden_section_max(g, tx / 2.0, min(tx * 2.0, 1.0),
                                cfg.refine_tol * tx)
    x, y = _sup_on_interval(g, lo, 1.0, cfg,
                            extra_candidates=[(0.0, g.limit0), (rx, ry)])
    return y, x


def _inner_sup_closed(R: float, a: float, b: float) -> float:
    """sup over mu in (0, 1-R] of the scaled inner objective, in closed
    form (1-R) log2(a + b); a = 0 is the mu -> 0+ limit."""
    if a < 0.0 or b <= 0.0:
        raise ValueError("need a >= 0 and b > 0")
    if a == 0.0:
        return (1.0 - R) * math.log2(b)
    return (1.0 - R) * math.log2(a + b)


def inner_sup_grid(R: float, a: float, b: float, points: int = 4096) -> float:
    """Numeric sup over mu of the scaled inner objective; cross-check for
    the closed form."""
    c = 1.0 - R
    la = math.log2(a) if a > 0.0 else -math.inf
    lb = math.log2(b)

    def obj(mu: float) -> float:
        if a == 0.0 and mu > 0.0:
            return -math.inf
        return scaled_entropy(c, mu) + mu * la + (c - mu) * lb
    best = max(obj(c * i / points) for i in range(points + 1))
    x, y = golden_section_max(obj, 0.0, c) if a > 0.0 else (0.0, obj(0.0))
    return max(best, y)


def _ab_terms(k: float, l1: float, l2: float, v: float) -> tuple[float, float]:
    a = 0.0
    if v > 0.0:
        a = math.exp(-2.0 * k * (l1 + l2 - 2.0 * v)) * (
            -math.expm1(-4.0 * k * v))
    b = (1.0 + math.exp(-2.0 * k * l1)) * (1.0 + math.exp(-2.0 * k * l2))
    return a, b


def cov_growth_rate(rp: RatePoint, l1: float, l2: float,
                    cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """T(l1, l2): growth rate of Cov(A_{l1 n}, A_{l2 n}) for the sparse
    family, as the sup over the normalized overlap."""
    if rp.k is None:
        raise ValueError("cov_growth_rate needs the sparse parameter k")
    if not (0.0 < l1 <= 1.0 and 0.0 < l2 <= 1.0):
        raise ValueError("normalized weights must lie in (0, 1]")
    if l1 > l2:
        l1, l2 = l2, l1
    R, k = rp.R, rp.k
    lo = max(0.0, l1 + l2 - 1.0)
    hi = l1

    def q(v: float) -> float:
        a, b = _ab_terms(k, l1, l2, v)
        ent = (binary_entropy(l1) + scaled_entropy(l1, v)
               + scaled_entropy(1.0 - l1, l2 - v))
        return -2.0 * (1.0 - R) + ent + _inner_sup_closed(R, a, b)

    _, value = _sup_on_interval(q, lo, hi, cfg)
    return value


def var_pu_growth_rate(rp: RatePoint, eps: float,
                       cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """Growth rate of Var[P_U] for the sparse family: sup over (l1, l2)
    of the BSC tilt plus T(l1, l2)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    le, l1e = math.log2(eps), math.log2(1.0 - eps)

    def s(l1: float, l2: float) -> float:
        return ((l1 + l2) * le + (2.0 - l1 - l2) * l1e
                + cov_growth_rate(rp, l1, l2, _COARSE))

    # Coarse scan: uniform grid plus a geometric tail toward 0 so suprema
    # approached at vanishing weight are not missed.
    axis = [i / 48.0 for i in range(1, 49)]
    g = 1.0 / 48.0
    while g > 1e-5:
        g /= 4.0
        axis.append(g)
    best = (eps, eps, s(eps, eps))
    for l1 in axis:
        for l2 in axis:
            if l2 < l1:
                continue  # symmetric
            y = s(l1, l2)
            if y > best[2]:
                best = (l1, l2, y)
    # Coordinate-wise golden refinement around the best cell.
    l1, l2, y = best
    span = 1.0 / 48.0
    for _ in range(4):
        l1, _ = golden_section_max(lambda x: s(x, l2),
                                   max(l1 - span, 1e-9), min(l1 + span, 1.0),
                                   cfg.refine_tol)
        l2, _ = golden_section_max(lambda x: s(l1, x),
                                   max(l2 - span, 1e-9), min(l2 + span, 1.0),
                                   cfg.refine_tol)
        span /= 8.0
    y = max(y, s(l1, l2))
    return y


# Inner nu-sup settings for the coarse 2-D scan; full cfg is used for the
# final refinement evaluations.
_COARSE = OptimizerConfig(grid_points=256, refine_tol=1e-9)
