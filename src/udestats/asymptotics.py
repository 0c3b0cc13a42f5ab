"""Asymptotic growth rates and error exponents.

The error exponent of the average undetected error probability is the
supremum over the normalized weight of (growth rate + BSC tilt).  For the
random family the growth rate is h(l) - (1 - R), the objective is
-(1 - R) - D(l || eps), and the exponent is its closed form -(1 - R) at
l = eps.  For the sparse Bernoulli family the objective is not concave,
so every 1-D sup (the error exponent and the covariance growth rate)
goes through `_sup_rows`: a global grid scan, with the exponent's
geometric tail below the grid as one increasing sequence in the grid's
call, then a zoom refinement of every local top of that sequence; the
exponent's l -> 0+ limit is compared last.  The Var[P_U] growth rate is
one sup over the simplex of parity-row states; its best grid points are
refined by the same zoom, on 3-D boxes.

There is one zoom, `_zoom`, in d dimensions: each call of the objective
samples every live box at a fixed number of points per axis, 127 in 1-D
and 7 in 3-D, and shrinks each box around its best point, 64x or 4x,
until it is _REFINE_TOL wide.  Every objective takes arrays; a call
from `_zoom` takes at most _GRID_CHUNK + 1 points, and one from
`_grid_tops` as many plus the tail (at most 63).
Ranges are checked by the types that own them: eps by `Bsc`, R and k by
`RatePoint`, the grid by `OptimizerConfig`, a normalized weight by
`GrowthRate`; the probes of a sup are not checked again.  Public
functions return Python floats for float arguments.

The covariance growth rate's entropy term h(l1) + l1 h(v / l1) +
(1 - l1) h((l2 - v) / (1 - l1)) carries each scale prefactor; it is
evaluated as the entropy of the split (v, l1 - v, l2 - v, 1 - l1 - l2 + v).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ensemble import Bsc

_TINY = np.finfo(float).tiny
# Width at which a zoom box is done (relative to its top for a top below
# the grid), and the cap on zoom calls.
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 200
# Interior points per box axis and zoom call.  A constant, so a box's
# result does not depend on the others.  In 1-D, 127 narrows a bracket
# 64x per call; a call on a few hundred points costs about what one on 15
# does, so an exponent top on the grid takes 4 zoom calls, not 8, and
# one in its tail 6, not 12.  255 points (128x) measured no faster: each
# call then costs more.  In 3-D, 7 per axis make 343 points a box, 4x
# narrower per call.
_ZOOM_POINTS = 127
_BOX_POINTS = 7
# A grid scan evaluates the tail and the grid in as many equal chunks as
# the grid alone needs for at most _GRID_CHUNK + 1 points a call, so a
# grid of _GRID_CHUNK steps is one call; a zoom
# call takes at most _ZOOM_CELLS points.  The temporaries stay in cache,
# and their memory is bounded whatever the number of boxes.
_GRID_CHUNK = 1 << 12
_ZOOM_CELLS = _GRID_CHUNK + 1
# A grid wider than _GRID_CHUNK is built at once, at about 38 bytes a
# point; 2^21 points take about 100 MB.
_MAX_GRID_POINTS = 1 << 21


@dataclass(frozen=True, slots=True)
class RatePoint:
    """Design-rate point: m = (1-R) n parity rows; k is the sparse-family
    average row weight (None for the random family).  4k must be a finite
    float: the growth rates take e^(-4kv) at v = 0, and an infinite 4k
    makes it inf * 0."""

    R: float
    k: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.R < 1.0:
            raise ValueError(f"need 0 < R < 1, got {self.R}")
        if self.k is not None and not 0.0 < 4.0 * self.k < math.inf:
            raise ValueError(f"need k > 0 with 4k finite, got k={self.k}")


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    grid_points: int = 16384

    def __post_init__(self):
        if not 64 <= self.grid_points <= _MAX_GRID_POINTS:
            raise ValueError("grid_points must be in [64, 2^21]")


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True, slots=True)
class GrowthRate:
    """A growth-rate curve on (0, 1] plus its explicit limit at 0+.

    fn takes a float or an array of normalized weights and does not check
    them; a call checks that they lie in [0, 1].  h_offset is c when fn is
    exactly h(l) + c, which gives `error_exponent` its closed form.
    """

    fn: Callable
    limit0: float
    h_offset: Optional[float] = None

    def __call__(self, l):
        _unit(l, "normalized weight")
        return _scalar(self.fn(l))


def _unit(x, what: str):
    """x as a float array, checked to lie in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValueError(f"{what} outside [0, 1]: {x}")
    return x


def _xlog2x(t):
    """t log2 t, with 0 where t <= 0."""
    t = np.maximum(t, 0.0)
    return t * np.log2(np.maximum(t, _TINY))


def _entropy(x):
    """h(x) for x in [0, 1], unchecked: there t log2 t needs no clip
    below 0."""
    y = 1.0 - x
    return -(x * np.log2(np.maximum(x, _TINY))
             + y * np.log2(np.maximum(y, _TINY)))


def growth_rate_random(R: float) -> GrowthRate:
    """f(l) = h(l) - (1 - R) for the random family."""
    RatePoint(R)
    return GrowthRate(lambda l: _entropy(l) - (1.0 - R), -(1.0 - R),
                      -(1.0 - R))


def growth_rate_bernoulli(R: float, k: float) -> GrowthRate:
    """f(l) = h(l) + (1 - R) log2((1 + e^(-2kl)) / 2) for constant k."""
    RatePoint(R, k)

    def f(l):
        return _entropy(l) + (1.0 - R) * (
            np.log1p(np.exp(-2.0 * k * l)) / math.log(2.0) - 1.0)

    return GrowthRate(f, 0.0)


def exponent_objective(f: GrowthRate, eps: float) -> GrowthRate:
    """f(l) + l log2 eps + (1 - l) log2(1 - eps)."""
    Bsc(eps)
    le = math.log2(eps)
    l1e = math.log2(1.0 - eps)
    return GrowthRate(lambda l: f.fn(l) + l * le + (1.0 - l) * l1e,
                      f.limit0 + l1e)


@functools.lru_cache(maxsize=None)
def _zoom_fractions(points: int, d: int):
    """The fractions of its box at which each of a zoom call's probes lies
    per axis, shape (points^d, d), and those of its neighbours below and
    above, shape (points^d, 2, d); built once per (points, d)."""
    frac = (np.indices((points,) * d).reshape(d, -1).T[:, None]
            + np.arange(3)[:, None]) / (points + 1)
    frac.flags.writeable = False
    return frac[:, 1], frac[:, ::2]


def _zoom(fn, lo, hi, tol, points):
    """Maximization on every box [lo_i, hi_i] (rows of d coordinates)
    down to sides <= tol_i; returns the box midpoints, shape (boxes, d).

    The one zoom, in d dimensions.  Each call fn(x_1, ..., x_d) samples
    `points` evenly spaced interior points per axis of every live box, in
    blocks of at most _ZOOM_CELLS points, and each box shrinks on every
    axis to the neighbours of its first best point.  A box is done when
    every side is <= tol_i, when no side shrank (float resolution), or
    after _REFINE_MAX_ITER calls.  No probe leaves its box, and a box's
    result does not depend on which others share the call.
    """
    box = np.array([lo, hi], dtype=float).transpose(1, 0, 2)
    d = box.shape[2]
    tol = np.broadcast_to(tol, len(box))
    probes, around = _zoom_fractions(points, d)
    todo = (box[:, 1] - box[:, 0] > tol[:, None]).any(1).nonzero()[0]
    block = _ZOOM_CELLS // len(probes)
    for s in range(0, len(todo), block):
        # The live boxes of a block, kept compact; a box is written back
        # when it is done.
        live = todo[s:s + block]
        cur, ltol = box[live], tol[live, None]
        for _ in range(_REFINE_MAX_ITER):
            lo, hi = cur[:, :1], cur[:, 1:]
            width = hi - lo
            # lo + f width >= lo for f, width >= 0; only hi needs a clip:
            # lo + (hi - lo) can round above hi.
            xs = np.minimum(lo + probes * width, hi)
            top = fn(*xs.reshape(-1, d).T).reshape(len(live), -1).argmax(1)
            cur = np.minimum(lo + around[top] * width, hi)
            side = cur[:, 1] - cur[:, 0]
            going = (side < width[:, 0]).any(1) & (side > ltol).any(1)
            if not going.all():
                box[live[~going]] = cur[~going]
                live, cur, ltol = live[going], cur[going], ltol[going]
                if not len(live):
                    break
        box[live] = cur
    return 0.5 * (box[:, 0] + box[:, 1])


def _grid_tops(fn, lo, hi, cfg: OptimizerConfig, tail=np.empty(0)):
    """Grid scan of the objective fn on [lo, hi] and the points `tail`
    below lo, as one increasing sequence, in the grid's calls.

    Returns the first maximum of the sequence, (argmax, value), and each
    local top's zoom bracket (a, b) and tolerance, in order.  A top is
    above its left neighbour and not below its right one, so a run of
    tied points is one top, its first point.  Its bracket is its two
    neighbours; below the lowest point x that is x / 2 if x < lo, else x
    itself, and above the last grid point it is hi.  Its tolerance is
    _REFINE_TOL, times x for a top x < lo.  An interval with hi <= lo is
    its point hi, with no top and no tail.
    """
    if hi <= lo:
        return hi, fn(np.array([hi]))[0], (np.empty(0),) * 3
    pts = cfg.grid_points
    xs = np.append(np.sort(tail),
                   lo + np.arange(pts + 1) * ((hi - lo) / pts))
    parts = -(-(pts + 1) // (_GRID_CHUNK + 1))
    ys = (fn(xs) if parts == 1 else
          np.concatenate([fn(c) for c in np.array_split(xs, parts)]))
    top = int(np.argmax(ys))
    pad = [-np.inf]
    j = np.flatnonzero((ys > np.concatenate([pad, ys[:-1]]))
                       & (ys >= np.concatenate([ys[1:], pad])))
    below = np.append(xs[0] / 2.0 if xs[0] < lo else xs[0], xs[:-1])
    x = xs[j]
    return xs[top], ys[top], (below[j], np.append(xs[1:], hi)[j],
                              _REFINE_TOL * np.where(x < lo, x, 1.0))


def _sup_rows(fn, lo, hi, cfg: OptimizerConfig, tail=np.empty(0)):
    """Global sup of the objective fn on [lo, hi] and its argmax: the scan
    of `_grid_tops`, then one zoom refinement of every local top it
    returns.  Candidates in order: the scan's maximum and the refined
    tops; the first of the largest value wins."""
    x0, y0, (a, b, tol) = _grid_tops(fn, lo, hi, cfg, tail)
    x = _zoom(fn, a[:, None], b[:, None], tol, _ZOOM_POINTS)[:, 0]
    cx, cy = np.append(x0, x), np.append(y0, fn(x) if len(x) else [])
    top = int(np.argmax(cy))
    return float(cy[top]), float(cx[top])


def error_exponent(f: GrowthRate, eps: float,
                   cfg: OptimizerConfig = OptimizerConfig()
                   ) -> tuple[float, float]:
    """sup over l in (0, 1] of the exponent objective.

    Returns (value, argmax); argmax is 0.0 when the l -> 0+ boundary
    limit wins.  For both families the objective is -D(l || eps) plus a
    term <= 0, so the value is capped at 0.0 against rounding.  A curve
    h(l) + c (f.h_offset = c, the random family) has the objective
    c - D(l || eps): its sup is c, at l = eps, and no objective is
    evaluated.  Any other curve takes the numeric sup of `_sup_rows` on
    the grid of cfg and a geometric tail below it, down to 1e-13.
    """
    if f.h_offset is not None:
        Bsc(eps)
        return min(f.h_offset, 0.0), float(eps)
    g = exponent_objective(f, eps)
    lo = 1.0 / cfg.grid_points
    # Geometric tail below the uniform grid, down to the first point
    # <= 1e-13: the objective can have an interior maximizer at vanishing
    # l (infinite slope of h at 0).  Its local tops are refined with the
    # grid's.
    tail = lo * 0.5 ** np.arange(1, 64)
    tail = tail[:np.argmax(tail <= 1e-13) + 1]
    value, x = _sup_rows(g.fn, lo, 1.0, cfg, tail=tail)
    return (min(value, 0.0), x) if value >= g.limit0 else (g.limit0, 0.0)


def _inner_sup_closed(R: float, a, b):
    """sup over mu in (0, 1-R] of the scaled inner objective
    (1-R) h(mu / (1-R)) + mu log2 a + (1-R-mu) log2 b, in closed form
    (1-R) log2(a + b); a = 0 is the mu -> 0+ limit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a < 0.0).any() or (b <= 0.0).any():
        raise ValueError("need a >= 0 and b > 0")
    return _scalar((1.0 - R) * np.log2(a + b))


def _a_term(k: float, l1, l2, v):
    """a of the inner objective; at v = 0, -expm1(0) = 0 makes it 0
    exactly.  All arguments broadcast."""
    return np.exp(-2.0 * k * (l1 + l2 - 2.0 * v)) * (-np.expm1(-4.0 * k * v))


def _b_term(k: float, l1, l2):
    """b of the inner objective."""
    return (1.0 + np.exp(-2.0 * k * l1)) * (1.0 + np.exp(-2.0 * k * l2))


def cov_growth_rate(rp: RatePoint, l1: float, l2: float,
                    cfg: OptimizerConfig = OptimizerConfig()) -> float:
    """T(l1, l2): growth rate of Cov(A_{l1 n}, A_{l2 n}) for the sparse
    family, as the sup over the normalized overlap v.

    The entropy part h(l1) + l1 h(v/l1) + (1-l1) h((l2-v)/(1-l1)) is the
    entropy of the split (v, l1 - v, l2 - v, 1 - l1 - l2 + v), evaluated
    in that form.
    """
    if rp.k is None:
        raise ValueError("cov_growth_rate needs the sparse parameter k")
    if not (0.0 < l1 <= 1.0 and 0.0 < l2 <= 1.0):
        raise ValueError("normalized weights must lie in (0, 1]")
    R, k = rp.R, rp.k
    l1, l2 = min(l1, l2), max(l1, l2)
    b, rest = _b_term(k, l1, l2), 1.0 - l1 - l2

    def q(v):
        split = np.concatenate([v, l1 - v, l2 - v, rest + v])
        ent = np.add.reduce(_xlog2x(split).reshape(4, -1))
        return (-2.0 * (1.0 - R) - ent
                + _inner_sup_closed(R, _a_term(k, l1, l2, v), b))

    # lo = l1 - (1 - l2) is exactly l1 when l2 = 1 (l1 + l2 - 1 rounds
    # below it), so such a pair is its single point.
    return _sup_rows(q, max(0.0, l1 - (1.0 - l2)), l1, cfg)[0]


# Steps per axis of var_pu_growth_rate's row-state grid, and its best
# points that are refined.
_SIMPLEX_STEPS = 120
_SIMPLEX_TOPS = 20


def var_pu_growth_rate(rp: RatePoint, eps: float) -> float:
    """Growth rate of Var[P_U]: for the random family (k None) in closed
    form, for the sparse family as a sup over the states of the parity
    rows.

    For the random family, Var[P_U] = (1 - 2^-m) 2^-m ((eps^2 +
    (1-eps)^2)^n - (1-eps)^(2n)), and eps^2 + (1-eps)^2 > (1-eps)^2, so
    the rate is -(1-R) + log2(eps^2 + (1-eps)^2).

    One row h gives Pr(hx = 0, hy = 0) = (1 + z^|x| + z^|y| + z^|x+y|)/4
    with z = 1 - 2k/n; Pr(hx = 0) Pr(hy = 0) has z^(|x|+|y|) last.  Split
    the m rows into i, j, k, l rows on these four terms and sum x, y over
    the BSC: Var[P_U] is 4^-m times a sum of nonnegative terms, one per
    (i, j, k, l) with l >= 1.  With m = (1-R) n, row fractions a and
    c = 2k(1-R), the growth rate is the sup over the 3-simplex of
    (1-R)(H(a) - 2) + log2 Q(a), where Q = (1-eps)^2 + eps(1-eps)
    (e^(-c(a_j+a_l)) + e^(-c(a_k+a_l))) + eps^2 e^(-c(a_j+a_k)).

    The objective is symmetric under j <-> k, so the grid covers
    a_j <= a_k only, one a_j slice at a time.  The objective takes the
    square roots of (a_j, a_k, a_l); its best grid points are refined
    together by a box zoom on the roots until each box is _REFINE_TOL
    wide, which also resolves a sup next to a face.
    """
    Bsc(eps)
    if rp.k is None:
        return -(1.0 - rp.R) + math.log2(eps * eps + (1.0 - eps) ** 2)
    R, c = rp.R, 2.0 * rp.k * (1.0 - rp.R)
    q0, q1, q2 = (1.0 - eps) ** 2, eps * (1.0 - eps), eps ** 2

    def f(*t):
        j, k, l = np.square(t)
        i = 1.0 - j - k - l
        ent = -(_xlog2x(i) + _xlog2x(l) + (_xlog2x(j) + _xlog2x(k)))
        q = (q0 + q1 * (np.exp(-c * (j + l)) + np.exp(-c * (k + l)))
             + q2 * np.exp(-c * (j + k)))
        return np.where(i >= 0.0, (1.0 - R) * (ent - 2.0) + np.log2(q),
                        -np.inf)

    n = _SIMPLEX_STEPS
    gk, gl = np.indices((n + 1, n + 1)).reshape(2, -1)
    xs, ys = np.empty((0, 3)), np.empty(0)
    for j in range(n // 2 + 1):
        cell = (gk >= j) & (j + gk + gl <= n)
        x = np.column_stack([np.full(cell.sum(), j), gk[cell], gl[cell]]) / n
        xs, ys = np.vstack([xs, x]), np.append(ys, f(*np.sqrt(x.T)))
        top = np.argsort(ys)[-_SIMPLEX_TOPS:]
        xs, ys = xs[top], ys[top]
    t = _zoom(f, np.sqrt(np.maximum(xs - 1.0 / n, 0.0)),
              np.sqrt(np.minimum(xs + 1.0 / n, 1.0)), _REFINE_TOL, _BOX_POINTS)
    return float(max(ys.max(), f(*t.T).max()))
