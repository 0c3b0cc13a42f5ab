"""Growth rates, error exponents, and the global optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udestats.asymptotics as asy
from udestats.asymptotics import (OptimizerConfig, RatePoint, _a_term,
                                  _b_term, _inner_sup_closed, cov_growth_rate,
                                  error_exponent, exponent_objective,
                                  growth_rate_bernoulli, growth_rate_random,
                                  var_pu_growth_rate)
from udestats.ensemble import (BernoulliEnsemble, Bsc, _var_pu_random_closed,
                               cov_weight, var_pu)

from references import binary_entropy, inner_sup_grid, scaled_entropy

FAST = OptimizerConfig(grid_points=2048)


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert math.isclose(binary_entropy(0.5), 1.0, rel_tol=1e-15)
    assert math.isclose(binary_entropy(0.11), binary_entropy(0.89),
                        rel_tol=1e-13)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_growth_rate_random_values():
    f = growth_rate_random(0.5)
    assert f.limit0 == -0.5
    assert math.isclose(f(0.5), 0.5, rel_tol=1e-15)
    assert math.isclose(f(1.0), -0.5, rel_tol=1e-15)


def test_growth_rates_check_their_argument():
    # The curves evaluate the entropy unchecked; a call checks l itself.
    for f, l in [(growth_rate_bernoulli(0.5, 20.0), 1.5),
                 (growth_rate_random(0.5), -0.1),
                 (exponent_objective(growth_rate_random(0.5), 0.1),
                  np.array([0.5, 1.5]))]:
        with pytest.raises(ValueError, match="outside"):
            f(l)


def test_growth_rates_are_their_entropy_formula():
    # Bit for bit, on a grid with 0, 1 and the exponent's tail points.
    tail = 0.5 ** np.arange(1, 64) / 4096
    l = np.concatenate([tail, np.arange(4097) / 4096])
    for R in (0.3, 0.9):
        assert np.array_equal(growth_rate_random(R).fn(l),
                              binary_entropy(l) - (1.0 - R))
        for k in (1e-300, 20.0):
            assert np.array_equal(
                growth_rate_bernoulli(R, k).fn(l),
                binary_entropy(l) + (1.0 - R) * (
                    np.log1p(np.exp(-2.0 * k * l)) / math.log(2.0) - 1.0))


def test_error_exponent_skips_the_checked_entropy(monkeypatch):
    # A sup's probes lie in (0, 1] by construction, so error_exponent
    # never pays for the range check of _unit.
    calls = []
    unit = asy._unit

    def spy(x, what):
        calls.append(x)
        return unit(x, what)
    monkeypatch.setattr(asy, "_unit", spy)
    for f in (growth_rate_random(0.5), growth_rate_bernoulli(0.5, 20.0)):
        error_exponent(f, 0.1, FAST)
    assert calls == []


def test_growth_rate_bernoulli_values():
    f = growth_rate_bernoulli(0.5, 20.0)
    assert f.limit0 == 0.0
    assert math.isclose(f(1.0), -0.5, abs_tol=1e-6)
    expect = binary_entropy(0.05) + 0.5 * math.log2((1 + math.exp(-2)) / 2)
    assert math.isclose(f(0.05), expect, rel_tol=1e-14)
    assert math.isclose(expect, -0.12213, abs_tol=1e-4)


@settings(max_examples=50)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=0.49),
       st.floats(min_value=0.001, max_value=1.0))
def test_random_objective_is_neg_kl(R, eps, l):
    g = exponent_objective(growth_rate_random(R), eps)
    kl = l * math.log2(l / eps)
    if l < 1.0:
        kl += (1 - l) * math.log2((1 - l) / (1 - eps))
    assert math.isclose(g(l), -(1 - R) - kl, rel_tol=1e-12, abs_tol=1e-12)


def test_objective_boundary_limit():
    g = exponent_objective(growth_rate_random(0.5), 0.1)
    assert math.isclose(g.limit0, -0.5 + math.log2(0.9), rel_tol=1e-15)
    assert math.isclose(g(0.1), -0.5, abs_tol=1e-14)


def test_zoom_refine_max():
    # An interior maximum, maxima at either endpoint, a bracket near 1e-9
    # with a relative tolerance, and two tol-0 brackets, which must stop
    # where the width stops shrinking.  For the last bracket a + (b - a)
    # rounds above b.  Each bracket has its own objective and call.
    p = np.array([0.3, 0.3, 0.3, 2e-8, 0.3, 0.9])
    a = np.array([0.0, 0.5, 0.0, 1e-9, 0.0, 0.00030368894239257704])
    b = np.array([1.0, 0.9, 0.2, 1e-9 + 3e-8, 1.0, 0.7710773769031211])
    tol = np.array([1e-10, 1e-10, 1e-10, 1e-10 * 2e-8, 0.0, 0.0])
    want = np.array([0.3, 0.5, 0.2, 2e-8, 0.3, b[5]])
    for i in range(len(a)):
        calls = []

        def fn(t, i=i):
            assert ((a[i] <= t) & (t <= b[i])).all()  # no probe leaves [a, b]
            calls.append(len(t))
            return -((t - p[i]) / p[i]) ** 2
        x = asy._zoom(fn, [[a[i]]], [[b[i]]], tol[i], asy._ZOOM_POINTS)
        assert x.shape == (1, 1)
        assert abs(x[0, 0] - want[i]) <= max(tol[i], 1e-15), i
        assert len(calls) < asy._REFINE_MAX_ITER


def test_box_zoom():
    # 3-D boxes on a tilted ridge through p: one holding p, one with its
    # sup on a corner, and alone with tol 0 a box near 1e-9, which must
    # stop where it stops shrinking.
    p, d = np.array([0.3, 0.6, 0.2]), np.array([1.0, -2.0, 1.0])
    lo = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.4]])
    hi = np.array([[1.0, 1.0, 1.0], [1.0, 0.5, 0.9]])
    calls = []

    def fn(x, y, z):
        calls.append(len(x))
        r = np.stack([x, y, z], axis=-1) - p
        return -((r * r).sum(axis=-1) + 50.0 * (r @ d) ** 2)
    x = asy._zoom(fn, lo, hi, 1e-10, asy._BOX_POINTS)
    assert x.shape == lo.shape
    assert np.abs(x[0] - p).max() < 1e-10
    # the sup of the second box is its corner (0.5, 0.5, 0.4)
    steps = np.linspace(0.0, 1.0, 41)
    grid = lo[1] + np.stack(np.meshgrid(steps, steps, steps), -1).reshape(
        -1, 3) * (hi[1] - lo[1])
    assert list(grid[np.argmax(fn(*grid.T))]) == [0.5, 0.5, 0.4]
    assert np.abs(x[1] - [0.5, 0.5, 0.4]).max() < 1e-10
    calls.clear()
    tiny = asy._zoom(fn, [[1e-9] * 3], [[2e-9] * 3], 0.0, asy._BOX_POINTS)
    # fn rises toward (lo, hi, lo), by less than its rounding within 1e-15
    # of that corner
    assert np.abs(tiny[0] - [1e-9, 2e-9, 1e-9]).max() < 1e-15
    assert len(calls) < asy._REFINE_MAX_ITER


def test_error_exponent_random():
    for R in (0.3, 0.7):
        for eps in (0.05, 0.4):
            value, argmax = error_exponent(growth_rate_random(R), eps, FAST)
            assert math.isclose(value, -(1 - R), abs_tol=1e-6)
            assert math.isclose(argmax, eps, abs_tol=1e-4)


def test_random_exponent_is_its_closed_form():
    # sup of h(l) - (1 - R) - (l log2(1/eps) + (1 - l) log2(1/(1 - eps)))
    # is -(1 - R), at l = eps; the objective of the curve is not a curve
    # h + c, so it takes no closed form itself.
    for R in (0.3, 0.9):
        f = growth_rate_random(R)
        assert f.h_offset == -(1.0 - R)
        assert exponent_objective(f, 0.1).h_offset is None
        for eps in (1e-300, 0.1, 0.49, np.float64(0.3)):
            value, at = error_exponent(f, eps)
            assert (value, at) == (-(1.0 - R), eps)
            assert type(value) is float and type(at) is float
    assert growth_rate_bernoulli(0.5, 20.0).h_offset is None


@pytest.mark.parametrize("eps", [0.0, -0.1, 0.5, 0.7, math.nan, math.inf])
def test_random_exponent_checks_eps(eps):
    # The closed form evaluates nothing, but eps is still checked.
    with pytest.raises(ValueError, match="0 < eps < 1/2"):
        error_exponent(growth_rate_random(0.5), eps)


@pytest.mark.parametrize("cfg", [OptimizerConfig(grid_points=4096),
                                 OptimizerConfig()],
                         ids=["grid4096", "default"])
def test_numeric_sup_finds_the_random_closed_form(cfg):
    # A known answer for the numeric sup that the sparse family takes: the
    # random curve without its h_offset runs the grid, tail and zoom, and
    # must land on -(1 - R) at l = eps.
    for R in (0.3, 0.5, 0.7, 0.9):
        f = asy.GrowthRate(growth_rate_random(R).fn, -(1 - R))
        assert f.h_offset is None
        for i in range(1, 50):
            value, at = error_exponent(f, i / 100, cfg)
            assert abs(value + (1 - R)) <= 1e-15, (R, i)
            assert abs(at - i / 100) <= 1e-8, (R, i)


def test_error_exponent_bernoulli_dense_regime():
    f = growth_rate_bernoulli(0.5, 20.0)
    value, _ = error_exponent(f, 0.4, FAST)
    assert math.isclose(value, -0.5, abs_tol=1e-3)


def test_error_exponent_bernoulli_sparse_regime():
    f = growth_rate_bernoulli(0.5, 20.0)
    g = exponent_objective(f, 0.01)
    value, argmax = error_exponent(f, 0.01, FAST)
    assert value >= max(math.log2(0.99), g(0.01)) - 1e-12
    assert value <= 0.0
    # the sup is approached at vanishing normalized weight
    assert argmax < 0.01


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.5, max_value=40.0),
       st.floats(min_value=0.01, max_value=0.49))
def test_bernoulli_dominates_random(R, k, eps):
    value, _ = error_exponent(growth_rate_bernoulli(R, k), eps, FAST)
    assert value >= -(1 - R) - 1e-9


def test_inner_sup_closed_form_vs_grid():
    for R in (0.3, 0.5, 0.8):
        for k in (2.0, 8.0, 20.0):
            for l1, l2, v in [(0.2, 0.3, 0.1), (0.5, 0.5, 0.25),
                              (0.1, 0.9, 0.05), (0.4, 0.7, 0.4)]:
                a, b = _a_term(k, l1, l2, v), _b_term(k, l1, l2)
                if a <= 0.0:
                    continue
                closed = _inner_sup_closed(R, a, b)
                grid = inner_sup_grid(R, a, b)
                assert math.isclose(closed, grid, abs_tol=1e-9)


def test_inner_sup_a_zero_limit():
    assert _inner_sup_closed(0.5, 0.0, 4.0) == 0.5 * math.log2(4.0)
    with pytest.raises(ValueError):
        _inner_sup_closed(0.5, -1.0, 4.0)


def test_cov_growth_rate_symmetry():
    rp = RatePoint(0.5, 4.0)
    for l1, l2 in [(0.2, 0.7), (0.05, 0.5), (0.9, 0.3)]:
        assert cov_growth_rate(rp, l1, l2, FAST) == \
            cov_growth_rate(rp, l2, l1, FAST)


def test_cov_growth_rate_domain():
    rp = RatePoint(0.5, 4.0)
    with pytest.raises(ValueError):
        cov_growth_rate(rp, 0.0, 0.5)
    with pytest.raises(ValueError):
        cov_growth_rate(RatePoint(0.5), 0.5, 0.5)  # k missing


def test_var_pu_growth_rate_bounds(monkeypatch):
    monkeypatch.setattr(asy, "_REFINE_TOL", 1e-8)
    rp = RatePoint(0.5, 4.0)
    cfg = OptimizerConfig(grid_points=256)
    eps = 0.1
    got = var_pu_growth_rate(rp, eps)
    assert got <= 0.0
    s_diag = (2 * eps * math.log2(eps) + (2 - 2 * eps) * math.log2(1 - eps)
              + cov_growth_rate(rp, eps, eps, cfg))
    assert got >= s_diag - 1e-9


@pytest.mark.parametrize("R, k, eps, want, tol", [
    # Points where the nested (l1, l2) search fell short by 1.9e-12,
    # 6.5e-12 and 2.6e-9.
    (0.5, 20.0, 0.01, -0.0289978094503002, 1e-14),
    (0.3, 8.0, 0.3, -1.0234144220080381, 1e-14),
    (0.1, 20.0, 0.4, -1.4739311492706293, 1e-14),
    # A sup next to the face a_j = a_k = 0, at a_j = a_k = 9.4e-14, and
    # 1.35e-13 above the vertex a_i = 1; 40-digit mpmath reads
    # -0.99999999999986499762.
    (0.5, 50.0, 0.3, -0.999999999999865, 1e-15),
    # Values of the nested search where it was accurate.
    (0.5, 4.0, 0.05, -0.12645615706877555, 1e-13),
    (0.5, 4.0, 0.1, -0.25610588744518825, 1e-13),
    (0.5, 4.0, 0.2, -0.5216006996507496, 1e-13),
    (0.5, 4.0, 0.3, -0.7736882838002268, 1e-13),
    (0.5, 4.0, 0.4, -0.9138351533064535, 1e-13),
    (0.5, 20.0, 0.1, -0.30399081578911163, 1e-13),
    (0.8, 2.0, 0.05, -0.04584927562069435, 1e-13),
    (0.5, 4.0, 0.01, -0.025018570938966575, 1e-13),
    (0.9, 4.0, 0.1, -0.08256643287355236, 1e-13),
    (0.5, 0.5, 0.1, -0.06096163854794223, 1e-13),
    (0.5, 4.0, 0.45, -0.9419850192013537, 1e-13),
])
def test_var_pu_growth_rate_values(R, k, eps, want, tol):
    assert abs(var_pu_growth_rate(RatePoint(R, k), eps) - want) <= tol


def test_var_pu_growth_rate_is_the_finite_n_limit():
    # |(1/n) log2 Var[P_U] - limit| at k = 4, eps = 0.1 was 0.0320,
    # 0.0113, 0.0036 for R = 0.5 and 0.0263, 0.0088, 0.0025 for R = 0.8.
    for R in (0.5, 0.8):
        lim = var_pu_growth_rate(RatePoint(R, 4.0), 0.1)
        gaps = [abs(var_pu(BernoulliEnsemble(round((1 - R) * n), n, 4.0),
                           Bsc(0.1)).log2 / n - lim) for n in (100, 200, 400)]
        assert gaps[0] > gaps[1] > gaps[2], R
        assert gaps[2] < 0.004, R


@pytest.mark.parametrize("R, eps", [(0.5, 0.1), (0.5, 0.45), (0.25, 0.01),
                                    (0.875, 0.3)])
def test_random_var_pu_growth_rate_is_its_closed_form_limit(R, eps):
    # (1/n) log2 Var[P_U] of the random family, from its closed form, at
    # n = 2^20 with m = (1 - R) n rows exactly
    n = 1 << 20
    m = round((1 - R) * n)
    finite = _var_pu_random_closed(m, n, eps).log2 / n
    assert abs(var_pu_growth_rate(RatePoint(R), eps) - finite) < 1e-9


@pytest.mark.parametrize("R, k, eps", [
    (0.3, 0.5, 0.01), (0.5, 4.0, 0.1), (0.5, 20.0, 0.01), (0.7, 2.0, 0.3),
    (0.9, 20.0, 0.45), (0.3, 8.0, 0.2)])
def test_error_exponent_is_the_row_state_sup(R, k, eps):
    # E[P_U] = 2^-m sum_j C(m, j) ((1 - eps + eps z^j)^n - (1 - eps)^n)
    # over the number j of rows on z^|x|, z = 1 - 2k/n, so its growth rate
    # is also sup_a (1-R)(h(a) - 1) + log2(1 - eps + eps e^(-ca)) with
    # c = 2k(1-R): a grid, then the scalar zoom around its best point.
    c = 2.0 * k * (1.0 - R)

    def g(a):
        return ((1.0 - R) * (binary_entropy(a) - 1.0)
                + np.log2(1.0 - eps + eps * np.exp(-c * a)))
    n = 1 << 16
    xs = np.arange(n + 1) / n
    ys = g(xs)
    i = int(np.argmax(ys))
    x = _zoom_loop(lambda a: float(g(a)), xs[max(i - 1, 0)],
                   xs[min(i + 1, n)], 1e-13)
    want = max(float(ys[i]), float(g(x)))
    value, _ = error_exponent(growth_rate_bernoulli(R, k), eps)
    assert abs(value - want) <= 1e-12


def test_optimizer_config_validation():
    for points in (8, 2**21 + 1):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_points=points)
    with pytest.raises(ValueError):
        RatePoint(1.0)
    for k in (-1.0, math.nan, math.inf, 1e308):  # 4 * 1e308 overflows
        with pytest.raises(ValueError, match="k="):
            RatePoint(0.5, k)
        with pytest.raises(ValueError, match="k="):
            growth_rate_bernoulli(0.5, k)
    for eps in (0.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="0 < eps < 1/2"):
            exponent_objective(growth_rate_random(0.5), eps)


def _zoom_loop(fn, a, b, tol):
    """The one-interval zoom loop on floats, kept as the reference for
    the batched version."""
    k = asy._ZOOM_POINTS
    for _ in range(asy._REFINE_MAX_ITER):
        if not b - a > tol:
            break
        xs = [min(max(a + i / (k + 1) * (b - a), a), b)
              for i in range(k + 2)]
        ys = [fn(x) for x in xs[1:-1]]
        j = ys.index(max(ys))
        width = b - a
        a, b = xs[j], xs[j + 2]
        if not b - a < width:
            break
    return 0.5 * (a + b)


def _sup_loop(fn, lo, hi, cfg, tail=()):
    """Scan of the tail and the grid as one increasing sequence plus zoom
    refinement of each local top, one point at a time with
    `if y > best`: the reference for _sup_rows."""
    if hi <= lo:
        return fn(hi)
    step = (hi - lo) / cfg.grid_points
    xs = sorted(tail) + [lo + i * step for i in range(cfg.grid_points + 1)]
    ys = [fn(x) for x in xs]
    best = max(ys)
    for i, y in enumerate(ys):
        if y > (ys[i - 1] if i else -math.inf) and \
                y >= (ys[i + 1] if i + 1 < len(ys) else -math.inf):
            x = xs[i]
            a = xs[i - 1] if i else (x / 2 if x < lo else x)
            b = xs[i + 1] if i + 1 < len(xs) else hi
            x = _zoom_loop(fn, a, b, asy._REFINE_TOL * (x if x < lo else 1.0))
            if fn(x) > best:
                best = fn(x)
    return best


@pytest.mark.parametrize("calls", ["batched", "per_bracket"])
def test_zoom_refine_replays_the_loop(calls):
    # All brackets in one call, or each bracket in a call of its own: the
    # result of a bracket must not depend on which others share the call.
    g = exponent_objective(growth_rate_bernoulli(0.3, 20.0), 0.04)

    def one(x):
        return float(g.fn(np.array([x]))[0])
    # Wide, narrow, relative-tolerance and capped (tol 0) brackets.
    a = [0.1, 0.3, 1e-9, 0.5, 0.2, 0.0]
    b = [0.1005, 0.31, 3e-8, 0.9, 0.2 + 1e-12, 1.0]
    tol = [1e-10, 1e-10, 1e-18, 1e-12, 1e-10, 0.0]
    expect = [_zoom_loop(one, *t) for t in zip(a, b, tol)]
    if calls == "batched":
        x = list(asy._zoom(g.fn, np.c_[a], np.c_[b], tol,
                           asy._ZOOM_POINTS)[:, 0])
    else:
        x = [asy._zoom(g.fn, [[t[0]]], [[t[1]]], [t[2]],
                       asy._ZOOM_POINTS)[0, 0] for t in zip(a, b, tol)]
    assert x == expect


def test_sup_rows_replays_the_loop():
    # The sparse exponent objective at several eps, on intervals that
    # include a single point (hi <= lo).
    f = growth_rate_bernoulli(0.5, 20.0)
    cfg = OptimizerConfig(grid_points=512)
    for eps, lo, hi in [(0.01, 1e-4, 1.0), (0.05, 0.0, 0.5), (0.2, 0.1, 0.9),
                        (0.4, 0.3, 0.3), (0.1, 0.5, 0.4)]:
        g = exponent_objective(f, eps)

        def one(x):
            return float(g.fn(np.array([x]))[0])
        assert asy._sup_rows(g.fn, lo, hi, cfg)[0] == \
            _sup_loop(one, lo, hi, cfg), eps


def test_sup_rows_refines_an_extra_bracket(monkeypatch):
    # A narrow spike below the grid [0.7, 1]: only the zoom of the extra
    # bracket [0.3, 1] of the best tail point, 0.6, finds it, and its
    # refined point wins.
    def fn(x):
        return 2.0 * np.maximum(0.0, 1.0 - np.abs(x - 0.30001) * 1e6) - x
    monkeypatch.setattr(asy, "_REFINE_TOL", 1e-12)
    cfg = OptimizerConfig(grid_points=64)
    assert asy._sup_rows(fn, 0.7, 1.0, cfg) == (-0.7, 0.7)
    value, x = asy._sup_rows(fn, 0.7, 1.0, cfg, tail=np.array([0.6, 0.65]))
    assert abs(x - 0.30001) < 1e-11 and abs(value - (2.0 - 0.30001)) < 1e-5


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.2, 0.4])
def test_sup_rows_replays_the_loop_with_a_tail(eps):
    # The fig-3 sparse objective with the exponent's geometric tail below
    # the grid; at eps 0.01 its sup lies in the tail.
    g = exponent_objective(growth_rate_bernoulli(0.3, 20.0), eps)
    cfg = OptimizerConfig(grid_points=512)
    lo = 1.0 / cfg.grid_points
    tail = lo * 0.5 ** np.arange(1, 64)
    tail = tail[:np.argmax(tail <= 1e-13) + 1]

    def one(x):
        return float(g.fn(np.array([x]))[0])
    value, x = asy._sup_rows(g.fn, lo, 1.0, cfg, tail)
    assert value == _sup_loop(one, lo, 1.0, cfg, list(tail))
    assert x < lo or eps != 0.01


def _zoom_spy(monkeypatch):
    """Record the (lo, hi, tol) of every `_zoom` call."""
    seen = []
    zoom = asy._zoom

    def spy(fn, lo, hi, tol, points):
        seen.append((np.ravel(lo), np.ravel(hi), np.ravel(tol)))
        return zoom(fn, lo, hi, tol, points)
    monkeypatch.setattr(asy, "_zoom", spy)
    return seen


def test_a_tail_below_its_neighbour_takes_no_bracket(monkeypatch):
    # The tail points rise into the grid, so the one top is the grid's
    # last point, and no bracket reaches below the grid.
    seen = _zoom_spy(monkeypatch)
    cfg = OptimizerConfig(grid_points=64)
    assert asy._sup_rows(lambda x: x, 0.5, 1.0, cfg,
                         tail=np.array([0.25, 0.125])) == (1.0, 1.0)
    (a, b, tol), = seen
    assert list(a) == [0.5 + 63 * (0.5 / 64)] and list(b) == [1.0]
    assert list(tol) == [asy._REFINE_TOL]


def test_two_tops_below_the_grid_take_two_brackets(monkeypatch):
    # sin(pi/2 log2 x) is 1 at the tail points 2^-11 and 2^-7 and
    # 0 or -1 at those between; each is a top, bracketed by its
    # neighbours (2^-12 below the lowest point) with a tolerance relative
    # to it.  The grid [2^-6, 1] has its own tops, near 1/8 and at 1.
    seen = _zoom_spy(monkeypatch)

    def fn(x):
        return np.sin(np.pi / 2 * np.log2(x))
    cfg = OptimizerConfig(grid_points=64)
    lo = 2.0 ** -6
    tail = lo * 0.5 ** np.arange(1, 6)
    value, _ = asy._sup_rows(fn, lo, 1.0, cfg, tail)
    assert abs(value - 1.0) < 1e-15
    (a, b, tol), = seen
    assert list(a[:2]) == [2.0 ** -12, 2.0 ** -8]
    assert list(b[:2]) == [2.0 ** -10, 2.0 ** -6]
    assert list(tol) == [asy._REFINE_TOL * 2.0 ** -11,
                         asy._REFINE_TOL * 2.0 ** -7] + [asy._REFINE_TOL] * 2
    assert a[2] < 0.125 < b[2] and b[3] == 1.0


def test_a_spike_below_lo_is_found_from_the_top_at_lo():
    # The grid falls from its top at lo = 0.5, and the tail points 0.1
    # and 0.2 lie below it; a spike at 0.45, narrower than a grid step
    # and clear of every tail point, lies in the bracket [0.2, lo + step]
    # of the top at lo, but not in [x / 2, 2 x] of the best tail point.
    def fn(x):
        return (2.0 * np.maximum(0.0, 1.0 - np.abs(x - 0.45) / 0.005)
                - np.abs(x - 0.5))
    cfg = OptimizerConfig(grid_points=64)
    assert asy._sup_rows(fn, 0.5, 1.0, cfg) == (0.0, 0.5)
    value, x = asy._sup_rows(fn, 0.5, 1.0, cfg, tail=np.array([0.1, 0.2]))
    assert abs(x - 0.45) < 1e-9 and abs(value - 1.95) < 1e-9


def test_l2_one_rows_take_no_bracket(monkeypatch):
    # The overlap range [l1 + l2 - 1, l1] is the point l1 when l2 = 1, but
    # l1 + 1.0 - 1.0 rounds below l1 for some l1 (1/48 among them); such a
    # sliver would spend a grid scan and a bracket on one point.
    brackets = []
    grid_tops = asy._grid_tops

    def spy(*args):
        out = grid_tops(*args)
        brackets.append(len(out[2][0]))
        return out
    monkeypatch.setattr(asy, "_grid_tops", spy)
    monkeypatch.setattr(asy, "_REFINE_TOL", 1e-9)
    cfg = OptimizerConfig(grid_points=256)
    for l1 in np.arange(1, 49) / 48.0:
        cov_growth_rate(RatePoint(0.5, 4.0), float(l1), 1.0, cfg)
    assert brackets == [0] * 48


def test_a_plateau_is_one_bracket(monkeypatch):
    # Tied grid points are one local top: a constant objective on a 2^16
    # step grid hands the zoom one bracket, not one per point.
    brackets = []
    zoom = asy._zoom

    def spy(fn, lo, hi, tol, points):
        brackets.append(len(lo))
        return zoom(fn, lo, hi, tol, points)
    monkeypatch.setattr(asy, "_zoom", spy)
    monkeypatch.setattr(asy, "_REFINE_TOL", 1e-30)
    cfg = OptimizerConfig(grid_points=1 << 16)
    assert asy._sup_rows(np.ones_like, 0.0, 1.0, cfg) == (1.0, 0.0)
    assert brackets == [1]


FIG3_CFG = OptimizerConfig(grid_points=4096)


def _fig3_growth(family, R):
    if family == "random":
        return growth_rate_random(R)
    return growth_rate_bernoulli(R, 20.0)


def test_error_exponent_call_budget(monkeypatch):
    # Over the fig-3 grid: the random family is its closed form and calls
    # no objective.  The sparse one makes one grid call that also scans
    # the tail, four zoom calls for a top on the grid (its bracket narrows
    # 4.9e6x, 64x a call), six when a top lies in the tail (1.5e10x,
    # relative to the top), and one at the refined points.
    calls, tail_tops = [], []
    objective = asy.exponent_objective
    grid_tops = asy._grid_tops

    def spy(*args):
        out = grid_tops(*args)
        tail_tops.append((out[2][2] < asy._REFINE_TOL).any())
        return out

    def counted(f, eps):
        g = objective(f, eps)

        def fn(l):
            calls.append(len(l))
            return g.fn(l)
        return asy.GrowthRate(fn, g.limit0)
    monkeypatch.setattr(asy, "exponent_objective", counted)
    monkeypatch.setattr(asy, "_grid_tops", spy)
    grid_only = 0
    for family, budget in (("random", 0), ("bernoulli", 8)):
        for R in (0.3, 0.5, 0.7, 0.9):
            for i in range(1, 50):
                calls.clear()
                tail_tops.clear()
                error_exponent(_fig3_growth(family, R), i / 100, FIG3_CFG)
                assert len(calls) <= budget, (family, R, i, calls)
                if family == "bernoulli" and not tail_tops[0]:
                    grid_only += 1
                    assert len(calls) <= 6, (R, i, calls)
    assert grid_only > 0


def test_grid_tops_scans_a_chunk_plus_one_in_one_call():
    sizes = []
    g = exponent_objective(growth_rate_bernoulli(0.5, 20.0), 0.1)

    def fn(l):
        sizes.append(len(l))
        return g.fn(l)
    asy._grid_tops(fn, 1.0 / 4096, 1.0, FIG3_CFG)
    assert sizes == [4097]
    sizes.clear()
    asy._grid_tops(fn, 0.0, 1.0, OptimizerConfig(grid_points=16384))
    assert sorted(sizes) == [4096, 4096, 4096, 4097]


@pytest.mark.parametrize("family, R, eps, value, argmax", [
    ("random", 0.3, 0.01, -0.7, 0.00999999878536073),
    ("random", 0.3, 0.49, -0.6999999999999997, 0.49000000216756234),
    ("random", 0.9, 0.01, -0.09999999999999998, 0.010000000080164995),
    ("random", 0.9, 0.49, -0.09999999999999981, 0.49000000216756234),
    ("bernoulli", 0.3, 0.01, -0.014499557577501133, 8.399316747057916e-09),
    ("bernoulli", 0.3, 0.49, -0.6999999968947186, 0.4899999759805098),
    ("bernoulli", 0.9, 0.01, -0.012471788282229591, 0.001446323611759226),
    ("bernoulli", 0.9, 0.49, -0.09999999955638839, 0.48999999751208634),
])
def test_error_exponent_pinned_at_fig3_corners(family, R, eps, value,
                                               argmax):
    # Pinned to a 15-point zoom's values; the zoom's width must not move
    # them by more than float noise.  The random family is now its closed
    # form, exactly, within that noise of the zoom's values.
    got, at = error_exponent(_fig3_growth(family, R), eps, FIG3_CFG)
    if family == "random":
        assert (got, at) == (-(1 - R), eps)
    assert abs(got - value) <= 1e-15
    assert abs(at - argmax) <= 1e-8


@pytest.mark.parametrize("l1, l2, value", [
    (0.1, 0.3, 0.6936817307394286),
    (0.25, 0.5, 0.9263279307764649),
    (0.2, 0.8, 0.5801206233921561),
    (0.05, 0.6, 0.6347910938566038),
])
def test_cov_growth_rate_pinned(l1, l2, value):
    # The benchmark's covariance points, pinned to a 15-point zoom's values.
    assert abs(cov_growth_rate(RatePoint(0.5, 4.0), l1, l2) - value) <= 1e-15


def test_zoom_memory_is_bounded_whatever_the_brackets():
    # Each call takes at most _ZOOM_CELLS points, however many brackets
    # or boxes there are; 1000 brackets, then 40 3-D boxes.
    sizes = []

    def fn(*x):
        sizes.append(len(x[0]))
        return -sum((t - 0.3) ** 2 for t in x)
    a = np.linspace(0.0, 0.5, 1000)[:, None]
    x = asy._zoom(fn, a, a + 0.5, 1e-6, asy._ZOOM_POINTS)
    assert max(sizes) <= asy._ZOOM_CELLS <= 4097
    assert np.allclose(x, np.clip(0.3, a, a + 0.5), atol=1e-6)
    sizes.clear()
    a = np.repeat(np.linspace(0.0, 0.5, 40)[:, None], 3, axis=1)
    x = asy._zoom(fn, a, a + 0.5, 1e-6, asy._BOX_POINTS)
    assert max(sizes) <= asy._ZOOM_CELLS
    assert np.allclose(x, np.clip(0.3, a, a + 0.5), atol=1e-6)


def test_functions_accept_arrays():
    x = np.array([0.0, 1e-9, 0.11, 0.5, 0.89, 1.0])
    assert list(binary_entropy(x)) == [binary_entropy(float(v)) for v in x]
    assert isinstance(binary_entropy(0.3), float)
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.5, 1.5]))
    scale = np.array([0.0, 0.2, 0.2, 0.7, 1.0, 0.5])
    assert list(scaled_entropy(scale, x * 0.2)) == [
        scaled_entropy(float(s), float(v)) for s, v in zip(scale, x * 0.2)]
    for f in (growth_rate_random(0.5), growth_rate_bernoulli(0.3, 7.0)):
        g = exponent_objective(f, 0.1)
        for h in (f, g):
            assert list(h.fn(x[1:])) == [h(float(v)) for v in x[1:]]
            assert isinstance(h(0.25), float)
    l1, l2 = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    a = _a_term(4.0, l1, l2, np.array([0.0, 0.1]))
    assert a[0] == 0.0 and a[1] > 0.0 and (_b_term(4.0, l1, l2) > 1.0).all()


def test_cov_growth_convergence_at_large_n():
    # Criterion 7 checks n = 100, 200, 400; the same gap keeps shrinking
    # at n in the thousands (0.0135, 0.0074, 0.0040).
    t_lim = cov_growth_rate(RatePoint(0.5, 4.0), 0.5, 0.5)
    gaps = []
    for n in (800, 1600, 3200):
        ens = BernoulliEnsemble(n // 2, n, 4.0)
        gaps.append(abs(cov_weight(ens, n // 2, n // 2).log2 / n - t_lim))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.005
