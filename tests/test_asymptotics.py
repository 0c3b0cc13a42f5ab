"""Growth rates, error exponents, and the global optimizer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udestats.asymptotics import (OptimizerConfig, RatePoint, _ab_terms,
                                  _inner_sup_closed, binary_entropy,
                                  cov_growth_rate, error_exponent,
                                  exponent_objective, golden_section_max,
                                  growth_rate_bernoulli, growth_rate_random,
                                  inner_sup_grid, kl_binary,
                                  var_pu_growth_rate)

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
                a, b = _ab_terms(k, l1, l2, v)
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
