"""Asymptotic growth rates and error exponents.

The error exponent of the average undetected error probability is the
supremum over the normalized weight of (growth rate + BSC tilt).  For the
sparse Bernoulli family the objective is not concave, so suprema are
located by a global grid scan followed by a zoom refinement of every
local candidate; half-open boundary limits are injected as explicit
candidates.

Every objective takes arrays: a grid scan is one call per chunk of rows,
and each refinement call samples 15 evenly spaced points of every live
bracket (all local tops, and the exponent's geometric tail, together)
and narrows each bracket 8x around its best point.  The Var[P_U] growth
rate scans all its (l1, l2) pairs in one batch, and its coordinate
refinement evaluates 15 inner sups per call.  Public functions return
Python floats for float arguments.

The covariance growth rate's entropy term h(l1) + l1 h(v / l1) +
(1 - l1) h((l2 - v) / (1 - l1)) carries each scale prefactor; it is
evaluated as the entropy of the split (v, l1 - v, l2 - v, 1 - l1 - l2 + v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_TINY = np.finfo(float).tiny
_REFINE_MAX_ITER = 200
# Interior points per bracket and call of _zoom_refine.  A constant, so an
# interval's result does not depend on the others; 15 narrows a bracket 8x
# per call.
_ZOOM_POINTS = 15
_ZOOM_STEPS = np.arange(_ZOOM_POINTS + 2) / (_ZOOM_POINTS + 1)
# Points per objective call in grid scans and refinements: the temporaries
# stay in cache, and their memory is bounded whatever the number of rows.
_GRID_CHUNK = 1 << 12
# A row's grid wider than _GRID_CHUNK is built at once, at about 38 bytes a
# point; 2^21 points take about 100 MB.
_MAX_GRID_POINTS = 1 << 21


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
        if not 64 <= self.grid_points <= _MAX_GRID_POINTS:
            raise ValueError("grid_points must be in [64, 2^21]")
        if not self.refine_tol > 0.0:
            raise ValueError("refine_tol must be positive")


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True, slots=True)
class GrowthRate:
    """A growth-rate curve on (0, 1] plus its explicit limit at 0+.

    fn takes a float or an array of normalized weights.
    """

    fn: Callable
    limit0: float

    def __call__(self, l):
        return _scalar(self.fn(l))


def _xlog2x(t):
    """t log2 t, with 0 where t <= 0."""
    t = np.maximum(t, 0.0)
    return t * np.log2(np.maximum(t, _TINY))


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0; x is a
    float or an array."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError(f"entropy argument outside [0, 1]: {x}")
    return _scalar(-(_xlog2x(x) + _xlog2x(1.0 - x)))


def scaled_entropy(scale, x):
    """scale * h(x / scale); 0 where scale is 0 (the x = 0 corner).  Both
    arguments broadcast."""
    scale = np.asarray(scale, dtype=float)
    pos = scale > 0.0
    ratio = np.clip(x / np.where(pos, scale, 1.0), 0.0, 1.0)
    return _scalar(np.where(pos, scale * binary_entropy(ratio), 0.0))


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

    def f(l):
        return binary_entropy(l) + (1.0 - R) * (
            np.log1p(np.exp(-2.0 * k * l)) / math.log(2.0) - 1.0)

    return GrowthRate(f, 0.0)


def exponent_objective(f: GrowthRate, eps: float) -> GrowthRate:
    """f(l) + l log2 eps + (1 - l) log2(1 - eps)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    le = math.log2(eps)
    l1e = math.log2(1.0 - eps)
    return GrowthRate(lambda l: f.fn(l) + l * le + (1.0 - l) * l1e,
                      f.limit0 + l1e)


def _in_chunks(fn, x, owner):
    """fn(x, owner) evaluated at most _GRID_CHUNK points per call."""
    if len(x) <= _GRID_CHUNK:
        return fn(x, owner)
    return np.concatenate([fn(x[i:i + _GRID_CHUNK], owner[i:i + _GRID_CHUNK])
                           for i in range(0, len(x), _GRID_CHUNK)])


def _zoom_refine(fn, a, b, tol):
    """Maximization on every interval [a_i, b_i] down to width tol_i, all
    intervals together; returns the argmax array (bracket midpoints).

    fn(x, idx) evaluates the objective of interval idx[j] at x[j].  Each
    call samples _ZOOM_POINTS evenly spaced interior points of every live
    bracket, and each bracket shrinks to the two neighbours of its first
    best point, 8x narrower.  A bracket is done at width <= tol_i, when its
    width stops shrinking (float resolution), or after _REFINE_MAX_ITER
    calls.  No probe leaves its bracket, and an interval's result does not
    depend on which others share the call.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    tol = np.broadcast_to(tol, a.shape)
    live = np.flatnonzero(b - a > tol)
    for _ in range(_REFINE_MAX_ITER):
        if not len(live):
            break
        lo, hi = a[live, None], b[live, None]
        xs = np.clip(lo + _ZOOM_STEPS * (hi - lo), lo, hi)
        ys = _in_chunks(fn, xs[:, 1:-1].ravel(),
                        np.repeat(live, _ZOOM_POINTS)).reshape(len(live), -1)
        top, r = np.argmax(ys, axis=1), np.arange(len(live))
        a[live], b[live] = xs[r, top], xs[r, top + 2]
        width = b[live] - a[live]
        live = live[(width < (hi - lo)[:, 0]) & (width > tol[live])]
    return 0.5 * (a + b)


def _grid_tops(fn, lo, hi, cfg: OptimizerConfig):
    """Grid scan of every row's objective on its [lo_i, hi_i].

    fn(x, rows) evaluates the objective of row rows[j] at x[j].  Returns
    the first grid maximum of each row, (argmax, value), and the local
    tops of the grids as brackets (row, a, b) of their two neighbours, in
    row and grid order.  A row with hi <= lo is its point hi.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    best_x, best_y = hi.copy(), np.empty(len(lo))
    flat = np.flatnonzero(hi <= lo)
    if len(flat):
        best_y[flat] = fn(hi[flat], flat)
    pts = cfg.grid_points
    steps = np.arange(pts + 1)
    scan = np.flatnonzero(hi > lo)
    chunk = max(1, _GRID_CHUNK // (pts + 1))
    tops = []
    for i in range(0, len(scan), chunk):
        rows = scan[i:i + chunk]
        xs = lo[rows, None] + steps * ((hi[rows] - lo[rows]) / pts)[:, None]
        ys = _in_chunks(fn, xs.ravel(), np.repeat(rows, pts + 1)
                        ).reshape(xs.shape)
        top = np.argmax(ys, axis=1)
        best_x[rows] = xs[np.arange(len(rows)), top]
        best_y[rows] = ys[np.arange(len(rows)), top]
        pad = np.full((len(rows), 1), -np.inf)
        r, j = np.nonzero((ys >= np.hstack([pad, ys[:, :-1]]))
                          & (ys >= np.hstack([ys[:, 1:], pad])))
        tops.append((rows[r], xs[r, np.maximum(j - 1, 0)],
                     xs[r, np.minimum(j + 1, pts)]))
    row, a, b = (np.concatenate(t) for t in zip(*tops)) if tops else \
        (np.empty(0, dtype=int), np.empty(0), np.empty(0))
    return best_x, best_y, (row, a, b)


def _keep_best(best_x, best_y, row, x, y) -> None:
    """Candidate (x, y) of row `row` replaces its row's best only when
    strictly larger, as `if y > best` in candidate order would: the first
    candidate of the largest value wins."""
    top = np.full(len(best_y), -np.inf)
    np.maximum.at(top, row, y)
    win = np.flatnonzero((y == top[row]) & (y > best_y[row]))
    first = win[np.unique(row[win], return_index=True)[1]]
    best_x[row[first]] = x[first]
    best_y[row[first]] = y[first]


def _sup_rows(fn, lo, hi, cfg: OptimizerConfig) -> np.ndarray:
    """Global sup of every row's objective on [lo_i, hi_i]: a grid scan,
    then refinement of every local top, all rows together."""
    best_x, best_y, (row, a, b) = _grid_tops(fn, lo, hi, cfg)
    if len(row):
        x = _zoom_refine(lambda x, i: fn(x, row[i]), a, b, cfg.refine_tol)
        _keep_best(best_x, best_y, row, x, fn(x, row))
    return best_y


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
    tail = [lo]
    while tail[-1] > 1e-13:
        tail.append(tail[-1] / 2.0)
    tail = np.array(tail[1:])
    tx = float(tail[np.argmax(g.fn(tail))])
    best_x, best_y, (_, a, b) = _grid_tops(lambda x, _: g.fn(x), [lo], [1.0],
                                           cfg)
    # The grid's local tops and the tail's bracket are refined together.
    tol = np.full(len(a) + 1, cfg.refine_tol)
    tol[-1] *= tx
    x = _zoom_refine(lambda x, _: g.fn(x), np.append(a, tx / 2.0),
                     np.append(b, min(tx * 2.0, 1.0)), tol)
    y = g.fn(x)
    _keep_best(best_x, best_y, np.zeros(len(a), dtype=int), x[:-1], y[:-1])
    value, argmax = float(best_y[0]), float(best_x[0])
    for cx, cy in ((0.0, g.limit0), (float(x[-1]), float(y[-1]))):
        if cy > value:
            value, argmax = cy, cx
    return value, argmax


def _inner_sup_closed(R: float, a, b):
    """sup over mu in (0, 1-R] of the scaled inner objective, in closed
    form (1-R) log2(a + b); a = 0 is the mu -> 0+ limit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a < 0.0).any() or (b <= 0.0).any():
        raise ValueError("need a >= 0 and b > 0")
    return _scalar((1.0 - R) * np.log2(a + b))


def inner_sup_grid(R: float, a: float, b: float, points: int = 4096) -> float:
    """Numeric sup over mu of the scaled inner objective; cross-check for
    the closed form at a > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("need a > 0 and b > 0")
    c = 1.0 - R
    la, lb = math.log2(a), math.log2(b)

    def obj(mu):
        return scaled_entropy(c, mu) + mu * la + (c - mu) * lb
    best = float(np.max(obj(c * np.arange(points + 1) / points)))
    x = _zoom_refine(lambda mu, _: obj(mu), [0.0], [c], 1e-10)
    return max(best, float(obj(x)[0]))


def _a_term(k: float, l1, l2, v):
    """a of the inner objective; at v = 0, -expm1(0) = 0 makes it 0
    exactly.  All arguments broadcast."""
    return np.exp(-2.0 * k * (l1 + l2 - 2.0 * v)) * (-np.expm1(-4.0 * k * v))


def _b_term(k: float, l1, l2):
    """b of the inner objective."""
    return (1.0 + np.exp(-2.0 * k * l1)) * (1.0 + np.exp(-2.0 * k * l2))



def _cov_growth_rates(rp: RatePoint, l1, l2, cfg: OptimizerConfig):
    """T(l1, l2) for arrays of normalized weights in (0, 1], one sup over
    the normalized overlap v per pair, all pairs in one batch.

    The entropy part h(l1) + l1 h(v/l1) + (1-l1) h((l2-v)/(1-l1)) is the
    entropy of the split (v, l1 - v, l2 - v, 1 - l1 - l2 + v), evaluated
    in that form.
    """
    R, k = rp.R, rp.k
    l1, l2 = np.minimum(l1, l2), np.maximum(l1, l2)
    b, rest = _b_term(k, l1, l2), 1.0 - l1 - l2

    def q(v, rows):
        x1, x2 = l1[rows], l2[rows]
        split = np.concatenate([v, x1 - v, x2 - v, rest[rows] + v])
        ent = np.add.reduce(_xlog2x(split).reshape(4, -1))
        return (-2.0 * (1.0 - R) - ent
                + _inner_sup_closed(R, _a_term(k, x1, x2, v), b[rows]))

    # lo = l1 - (1 - l2) is exactly l1 when l2 = 1 (l1 + l2 - 1 rounds
    # below it), so such a row is its single point.
    return _sup_rows(q, np.maximum(0.0, l1 - (1.0 - l2)), l1, cfg)


def cov_growth_rate(rp: RatePoint, l1: float, l2: float,
                    cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """T(l1, l2): growth rate of Cov(A_{l1 n}, A_{l2 n}) for the sparse
    family, as the sup over the normalized overlap."""
    if rp.k is None:
        raise ValueError("cov_growth_rate needs the sparse parameter k")
    if not (0.0 < l1 <= 1.0 and 0.0 < l2 <= 1.0):
        raise ValueError("normalized weights must lie in (0, 1]")
    return float(_cov_growth_rates(rp, np.array([l1]), np.array([l2]),
                                   cfg)[0])


def var_pu_growth_rate(rp: RatePoint, eps: float,
                       refine_tol: float = 1e-10) -> float:
    """Growth rate of Var[P_U] for the sparse family: sup over (l1, l2)
    of the BSC tilt plus T(l1, l2).  refine_tol is the tolerance of the
    coordinate refinement; every inner sup uses fixed settings."""
    if rp.k is None:
        raise ValueError("var_pu_growth_rate needs the sparse parameter k")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    if not refine_tol > 0.0:
        raise ValueError("refine_tol must be positive")
    le, l1e = math.log2(eps), math.log2(1.0 - eps)

    def s(l1, l2):
        return ((l1 + l2) * le + (2.0 - l1 - l2) * l1e
                + _cov_growth_rates(rp, l1, l2, _COARSE))

    # Coarse scan: uniform grid plus a geometric tail toward 0 so suprema
    # approached at vanishing weight are not missed.  Pairs with l2 >= l1
    # only (symmetry), in the order of a row-by-row scan, after the
    # starting point (eps, eps).
    axis = [i / 48.0 for i in range(1, 49)]
    g = 1.0 / 48.0
    while g > 1e-5:
        g /= 4.0
        axis.append(g)
    pairs = [(eps, eps)] + [(l1, l2) for l1 in axis for l2 in axis
                            if l2 >= l1]
    p1, p2 = np.array(pairs).T
    ys = s(p1, p2)
    i = int(np.argmax(ys[1:])) + 1
    if not ys[i] > ys[0]:
        i = 0
    l1, l2, y = float(p1[i]), float(p2[i]), float(ys[i])
    # Coordinate-wise refinement around the best cell.
    span = 1.0 / 48.0
    for _ in range(4):
        l1 = float(_zoom_refine(
            lambda x, _: s(x, np.full(len(x), l2)),
            [max(l1 - span, 1e-9)], [min(l1 + span, 1.0)], refine_tol)[0])
        l2 = float(_zoom_refine(
            lambda x, _: s(np.full(len(x), l1), x),
            [max(l2 - span, 1e-9)], [min(l2 + span, 1.0)], refine_tol)[0])
        span /= 8.0
    return max(y, float(s(np.array([l1]), np.array([l2]))[0]))


# Inner nu-sup settings of every Var[P_U] growth-rate probe.
_COARSE = OptimizerConfig(grid_points=256, refine_tol=1e-9)
