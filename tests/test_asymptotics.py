"""Growth rates, error exponents, and the global optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udestats.asymptotics as asy
from udestats.asymptotics import (OptimizerConfig, RatePoint, _a_term,
                                  _b_term, _inner_sup_closed, binary_entropy,
                                  cov_growth_rate, error_exponent,
                                  exponent_objective, golden_section_max,
                                  growth_rate_bernoulli, growth_rate_random,
                                  inner_sup_grid, kl_binary, scaled_entropy,
                                  var_pu_growth_rate)
from udestats.ensemble import BernoulliEnsemble, cov_weight

FAST = OptimizerConfig(grid_points=2048, refine_tol=1e-10)


def test_binary_entropy_basics():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert math.isclose(binary_entropy(0.5), 1.0, rel_tol=1e-15)
    assert math.isclose(binary_entropy(0.11), binary_entropy(0.89),
                        rel_tol=1e-13)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


@given(st.floats(min_value=0.01, max_value=0.49))
def test_kl_zero_iff_equal(eps):
    assert kl_binary(eps, eps) == pytest.approx(0.0, abs=1e-15)
    assert kl_binary(min(eps + 0.1, 1.0), eps) > 0.0


def test_growth_rate_random_values():
    f = growth_rate_random(0.5)
    assert f.limit0 == -0.5
    assert math.isclose(f(0.5), 0.5, rel_tol=1e-15)
    assert math.isclose(f(1.0), -0.5, rel_tol=1e-15)


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
    assert math.isclose(g(l), -(1 - R) - kl_binary(l, eps),
                        rel_tol=1e-12, abs_tol=1e-12)


def test_objective_boundary_limit():
    g = exponent_objective(growth_rate_random(0.5), 0.1)
    assert math.isclose(g.limit0, -0.5 + math.log2(0.9), rel_tol=1e-15)
    assert math.isclose(g(0.1), -0.5, abs_tol=1e-14)


def test_golden_section_max():
    x, y = golden_section_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert math.isclose(x, 0.3, abs_tol=1e-9)
    assert math.isclose(y, 0.0, abs_tol=1e-15)


def test_error_exponent_random():
    for R in (0.3, 0.7):
        for eps in (0.05, 0.4):
            value, argmax = error_exponent(growth_rate_random(R), eps, FAST)
            assert math.isclose(value, -(1 - R), abs_tol=1e-6)
            assert math.isclose(argmax, eps, abs_tol=1e-4)


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


def test_var_pu_growth_rate_bounds():
    rp = RatePoint(0.5, 4.0)
    cfg = OptimizerConfig(grid_points=256, refine_tol=1e-8)
    eps = 0.1
    got = var_pu_growth_rate(rp, eps, cfg)
    assert got <= 0.0
    s_diag = (2 * eps * math.log2(eps) + (2 - 2 * eps) * math.log2(1 - eps)
              + cov_growth_rate(rp, eps, eps, cfg))
    assert got >= s_diag - 1e-9


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_points=8)
    with pytest.raises(ValueError):
        OptimizerConfig(refine_tol=0.0)
    with pytest.raises(ValueError):
        RatePoint(1.0)
    with pytest.raises(ValueError):
        RatePoint(0.5, -1.0)


def _golden_loop(fn, a, b, tol):
    """The one-interval golden-section loop on floats, kept as the
    reference for the lock-step versions."""
    c = b - asy._INV_PHI * (b - a)
    d = a + asy._INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(asy._REFINE_MAX_ITER):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - asy._INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + asy._INV_PHI * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _sup_loop(fn, lo, hi, cfg):
    """Grid scan plus golden refinement of each local top, one point at a
    time with `if y > best`: the reference for _sup_rows."""
    if hi <= lo:
        return fn(hi)
    step = (hi - lo) / cfg.grid_points
    xs = [lo + i * step for i in range(cfg.grid_points + 1)]
    ys = [fn(x) for x in xs]
    best = max(ys)
    for i, y in enumerate(ys):
        if y >= (ys[i - 1] if i else -math.inf) and \
                y >= (ys[i + 1] if i + 1 < len(ys) else -math.inf):
            x = _golden_loop(fn, xs[max(i - 1, 0)],
                             xs[min(i + 1, len(xs) - 1)], cfg.refine_tol)
            if fn(x) > best:
                best = fn(x)
    return best


@pytest.mark.parametrize("refine", ["lockstep", "lookahead"])
def test_golden_refinements_replay_the_loop(refine):
    g = exponent_objective(growth_rate_bernoulli(0.3, 20.0), 0.04)

    def one(x):
        return float(g.fn(np.array([x]))[0])
    # Wide, narrow, relative-tolerance and capped (tol 0) brackets.
    a = [0.1, 0.3, 1e-9, 0.5, 0.2, 0.0]
    b = [0.1005, 0.31, 3e-8, 0.9, 0.2 + 1e-12, 1.0]
    tol = [1e-10, 1e-10, 1e-18, 1e-12, 1e-10, 0.0]
    expect = [_golden_loop(one, *t) for t in zip(a, b, tol)]
    for depth in ((1,) if refine == "lockstep" else (2, 3, 6)):
        if refine == "lockstep":
            x = asy._golden_lockstep(lambda x, _: g.fn(x), a, b, tol)
        else:
            x = asy._golden_lookahead(lambda x, _: g.fn(x), a, b, tol, depth)
        assert list(x) == expect, depth


def test_sup_rows_replays_the_loop():
    # One objective per row: the sparse exponent objective at several eps,
    # on brackets that include a single point (hi <= lo).
    f = growth_rate_bernoulli(0.5, 20.0)
    eps = np.array([0.01, 0.05, 0.2, 0.4, 0.1])
    le, l1e = np.log2(eps), np.log2(1.0 - eps)
    lo, hi = [1e-4, 0.0, 0.1, 0.3, 0.5], [1.0, 0.5, 0.9, 0.3, 0.4]

    def fn(x, rows):
        return f.fn(x) + x * le[rows] + (1.0 - x) * l1e[rows]
    cfg = OptimizerConfig(grid_points=512, refine_tol=1e-10)
    got = asy._sup_rows(fn, lo, hi, cfg)
    for r in range(len(eps)):
        def one(x, r=r):
            return float(fn(np.array([x]), np.array([r]))[0])
        assert got[r] == _sup_loop(one, lo[r], hi[r], cfg), r


def test_batched_cov_growth_rates_match_single_calls():
    rp = RatePoint(0.5, 4.0)
    cfg = OptimizerConfig(grid_points=256, refine_tol=1e-9)
    pairs = [(0.1, 0.3), (0.6, 0.05), (0.5, 0.5), (0.3, 1.0), (1.0, 1.0),
             (0.9, 0.95), (1e-5, 0.02)]
    l1, l2 = (np.array(p) for p in zip(*pairs))
    got = asy._cov_growth_rates(rp, l1, l2, cfg)
    assert list(got) == [cov_growth_rate(rp, x1, x2, cfg) for x1, x2 in pairs]


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
