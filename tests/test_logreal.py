"""Log-domain scalar arithmetic."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from udestats.logreal import LogReal, log2_expm1_exp, log2_sum

positive = st.floats(min_value=1e-300, max_value=1e300,
                     allow_nan=False, allow_infinity=False)


def test_zero_and_one():
    assert LogReal.ZERO.is_zero
    assert LogReal.ZERO.to_float() == 0.0
    assert LogReal(0.0).to_float() == 1.0
    assert not LogReal(0.0).is_zero
    assert LogReal(2000.0).to_float() == math.inf


@given(positive)
def test_roundtrip(x):
    # half-ulp log2 error at |log2 x| up to ~1000 allows ~1.6e-13 relative
    assert math.isclose(LogReal(math.log2(x)).to_float(), x, rel_tol=2e-13)


@given(st.floats(min_value=0.001, max_value=1000.0))
def test_roundtrip_moderate_magnitudes(x):
    assert math.isclose(LogReal(math.log2(x)).to_float(), x, rel_tol=1e-14)


@given(st.floats(min_value=1e-12, max_value=30.0))
def test_log2_expm1_exp_small(t):
    assert math.isclose(log2_expm1_exp(t), math.log2(math.expm1(t)),
                        rel_tol=1e-14, abs_tol=1e-12)


def test_log2_expm1_exp_large():
    # e^t - 1 ~ e^t far above overflow territory for expm1's result
    t = 5000.0
    assert math.isclose(log2_expm1_exp(t), t / math.log(2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        log2_expm1_exp(0.0)


@given(st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1,
                max_size=20))
@example([1 / 3, 1 / 3, 1 / 3])  # the sum is 1.0, its log2 exactly 0.0
def test_log2_sum_matches_fsum(xs):
    # An error in log2 is a relative error of the sum, so the bound is
    # absolute in the log domain; rel_tol alone accepts only 0.0 at 0.0.
    got = log2_sum(math.log2(x) for x in xs)
    want = math.log2(math.fsum(xs))
    assert math.isclose(got, want, rel_tol=0.0,
                        abs_tol=1e-13 * max(1.0, abs(want)))


def test_log2_sum_empty_and_zeros():
    assert log2_sum([]) == -math.inf
    assert log2_sum([-math.inf, -math.inf]) == -math.inf
    assert log2_sum([-math.inf, 3.0]) == 3.0


def test_isclose_semantics():
    a = LogReal(math.log2(1e-200))
    b = LogReal(math.log2(1e-200 * (1 + 1e-13)))
    assert a.isclose(b, rel_tol=1e-12)
    assert not a.isclose(LogReal(math.log2(2e-200)), rel_tol=1e-12)
    assert LogReal.ZERO.isclose(LogReal.ZERO)
    assert not LogReal.ZERO.isclose(LogReal(0.0))
