"""Asymptotic growth rates and error exponents.

The error exponent of the average undetected error probability is the
supremum over the normalized weight of (growth rate + BSC tilt).  For the
sparse Bernoulli family the objective is not concave, so suprema are
located by a global grid scan followed by golden-section refinement of
every local candidate; half-open boundary limits are injected as explicit
candidates.

Every objective takes arrays: a grid scan is one call per chunk of rows,
and the golden-section refinements of all local tops (and of the
exponent's geometric tail) run in lock-step, each interval taking exactly
the steps of the one-interval loop.  A few intervals look several steps
ahead per call (Python-float bookkeeping); many take one step per call
(array bookkeeping).  The Var[P_U] growth rate scans all its (l1, l2)
pairs in one batch, and its coordinate refinement evaluates 31 inner sups
per call.  Public functions return Python floats for float arguments.

The covariance growth rate's entropy term h(l1) + l1 h(v / l1) +
(1 - l1) h((l2 - v) / (1 - l1)) carries each scale prefactor; it is
evaluated as the entropy of the split (v, l1 - v, l2 - v, 1 - l1 - l2 + v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = np.finfo(float).tiny
_REFINE_MAX_ITER = 200
# Points per objective call in grid scans and lock-step refinements: the
# temporaries stay in cache, and their memory is bounded whatever the
# number of rows.
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
        if self.refine_tol <= 0.0:
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


def _golden_step(a, b, c, d, left):
    """One golden-section step on arrays of brackets [a, b] with inner
    points c < d: where fc >= fd (left) it keeps [a, d] and probes a new
    c, elsewhere it keeps [c, b] and probes a new d.  Returns the new a,
    b, c, d and the probe."""
    lo, hi = np.where(left, a, c), np.where(left, d, b)
    gap = _INV_PHI * (hi - lo)
    probe = np.where(left, hi - gap, lo + gap)
    kept = np.where(left, c, d)
    return (lo, hi, np.where(left, probe, kept), np.where(left, kept, probe),
            probe)


def _golden_move(a: float, b: float, c: float, d: float, left: bool):
    """_golden_step on one bracket, in Python floats."""
    if left:
        c_new = d - _INV_PHI * (d - a)
        return a, d, c_new, c, c_new
    d_new = c + _INV_PHI * (b - c)
    return c, b, d, d_new, d_new


def _golden_lockstep(fn, a, b, tol):
    """One golden-section step of every live interval per call of fn; the
    bookkeeping is array arithmetic, for many intervals."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    tol = np.array(np.broadcast_to(tol, a.shape), dtype=float)
    idx = np.arange(len(a))
    x_out = np.empty(len(a))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = _in_chunks(fn, c, idx), _in_chunks(fn, d, idx)
    for steps in range(_REFINE_MAX_ITER + 1):
        done = b - a <= tol if steps < _REFINE_MAX_ITER else idx >= 0
        if done.any():
            x_out[idx[done]] = 0.5 * (a[done] + b[done])
            a, b, c, d, fc, fd, tol, idx = (
                v[~done] for v in (a, b, c, d, fc, fd, tol, idx))
            if not len(idx):
                break
        left = fc >= fd
        a, b, c, d, probe = _golden_step(a, b, c, d, left)
        v = _in_chunks(fn, probe, idx)
        fc, fd = np.where(left, v, fd), np.where(left, fc, v)
    return x_out


def _golden_lookahead(fn, a, b, tol, depth: int):
    """`depth` golden-section steps of every live interval per call of fn;
    the bookkeeping is in Python floats, for a few intervals.

    A step's point is known once the previous comparison is, and each
    outcome fixes the point after it, so one call evaluates the
    2^depth - 1 points that the next depth steps can probe, and their
    values pick the path.
    """
    n = len(a)
    a, b = [float(x) for x in a], [float(x) for x in b]
    c = [bi - _INV_PHI * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + _INV_PHI * (bi - ai) for ai, bi in zip(a, b)]
    f = fn(np.array(c + d), np.arange(2 * n) % n).tolist()
    state = [list(s) for s in zip(a, b, c, d, f[:n], f[n:])]
    tol = np.broadcast_to(tol, (n,)).tolist()
    steps = 0
    while True:
        live = [i for i in range(n) if state[i][1] - state[i][0] > tol[i]] \
            if steps < _REFINE_MAX_ITER else []
        if not live:
            break
        ahead = min(depth, _REFINE_MAX_ITER - steps)
        # Level j of a tree holds the 2^j moves that step j + 1 can make,
        # node p's outcomes at 2p (fc >= fd) and 2p + 1.
        trees = []
        for i in live:
            sa, sb, sc, sd, fc, fd = state[i]
            level = [_golden_move(sa, sb, sc, sd, fc >= fd)]
            trees.append([level])
            for _ in range(ahead - 1):
                level = [_golden_move(*m[:4], left) for m in level
                         for left in (True, False)]
                trees[-1].append(level)
        probes = [m[4] for tree in trees for level in tree for m in level]
        owners = [i for i, tree in zip(live, trees)
                  for level in tree for _ in level]
        values = iter(fn(np.array(probes), np.array(owners)).tolist())
        for i, tree in zip(live, trees):
            s, node = state[i], 0
            for j, level in enumerate(tree):
                vals = [next(values) for _ in level]
                if j:
                    if s[1] - s[0] <= tol[i]:
                        continue  # stopped; the remaining values are unused
                    node = 2 * node + (s[4] < s[5])
                left = s[4] >= s[5]
                s[:4] = level[node][:4]
                s[4:] = (vals[node], s[4]) if left else (s[5], vals[node])
        steps += ahead
    return np.array([0.5 * (s[0] + s[1]) for s in state])


def _golden_refine(fn, a, b, tol, points: int = 64):
    """Golden-section maximization on every interval [a_i, b_i] down to
    width tol_i, all intervals in lock-step; returns the argmax array.

    fn(x, idx) evaluates the objective of interval idx[j] at x[j].  Each
    interval takes the steps of the one-interval loop: the same points,
    the same comparisons, at most _REFINE_MAX_ITER of them.  When a call
    of at most `points` points can cover two steps or more of every
    interval, the intervals look ahead; otherwise each call takes one
    step of all of them.
    """
    depth = int(math.log2(1 + points / max(len(a), 1)))
    if depth >= 2:
        return _golden_lookahead(fn, a, b, tol, depth)
    return _golden_lockstep(fn, a, b, tol)


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
    then golden refinement of every local top, all rows in lock-step."""
    best_x, best_y, (row, a, b) = _grid_tops(fn, lo, hi, cfg)
    if len(row):
        x = _golden_refine(lambda x, i: fn(x, row[i]), a, b,
                           cfg.refine_tol)
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
    x = _golden_refine(lambda x, _: g.fn(x), np.append(a, tx / 2.0),
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
    x = _golden_refine(lambda mu, _: obj(mu), [0.0], [c], 1e-10)
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
    the normalized overlap v per pair, all pairs in lock-step.

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
    if refine_tol <= 0.0:
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
    # Coordinate-wise golden refinement around the best cell.
    span = 1.0 / 48.0
    for _ in range(4):
        l1 = float(_golden_refine(
            lambda x, _: s(x, np.full(len(x), l2)),
            [max(l1 - span, 1e-9)], [min(l1 + span, 1.0)], refine_tol,
            points=_OUTER_POINTS)[0])
        l2 = float(_golden_refine(
            lambda x, _: s(np.full(len(x), l1), x),
            [max(l2 - span, 1e-9)], [min(l2 + span, 1.0)], refine_tol,
            points=_OUTER_POINTS)[0])
        span /= 8.0
    return max(y, float(s(np.array([l1]), np.array([l2]))[0]))


# Inner nu-sup settings of every Var[P_U] growth-rate probe.
_COARSE = OptimizerConfig(grid_points=256, refine_tol=1e-9)
# Points per call of the coordinate refinement: each is a whole inner
# sup, so a call evaluates 31 of them, five steps ahead.
_OUTER_POINTS = 31
