"""Log-domain scalar arithmetic."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from udestats.logreal import LogReal, log2_expm1_exp, log2_sum, logreal_sum

positive = st.floats(min_value=1e-300, max_value=1e300,
                     allow_nan=False, allow_infinity=False)


def test_zero_and_one():
    assert LogReal.ZERO.is_zero
    assert LogReal.ZERO.to_float() == 0.0
    assert LogReal.ONE.to_float() == 1.0
    assert (LogReal.ONE * LogReal.ZERO).is_zero


@given(positive)
def test_roundtrip(x):
    # half-ulp log2 error at |log2 x| up to ~1000 allows ~1.6e-13 relative
    assert math.isclose(LogReal.from_float(x).to_float(), x, rel_tol=2e-13)


@given(st.floats(min_value=0.001, max_value=1000.0))
def test_roundtrip_moderate_magnitudes(x):
    assert math.isclose(LogReal.from_float(x).to_float(), x, rel_tol=1e-14)


@given(positive, positive)
def test_mul_matches_float(a, b):
    got = (LogReal.from_float(a) * LogReal.from_float(b)).log2
    assert math.isclose(got, math.log2(a) + math.log2(b),
                        rel_tol=1e-14, abs_tol=1e-12)


@given(positive, positive)
def test_add_matches_float(a, b):
    got = (LogReal.from_float(a) + LogReal.from_float(b))
    bigger = max(a, b)
    # Compare in a scale-free way; a + b may overflow the float domain.
    assert math.isclose(got.log2, math.log2(bigger)
                        + math.log2(a / bigger + b / bigger), rel_tol=1e-12)


@given(positive, positive)
@example(1.0000000000000002e-300, 1e-300)  # distinct values, equal log2
def test_div_and_ordering(a, b):
    la, lb = LogReal.from_float(a), LogReal.from_float(b)
    assert math.isclose((la / lb).log2, math.log2(a) - math.log2(b),
                        rel_tol=1e-14, abs_tol=1e-12)
    # Nearby values can share a log2, so the log domain keeps order only
    # monotonically: a < b implies la <= lb, and la < lb implies a < b.
    if a < b:
        assert la <= lb
    if la < lb:
        assert a < b


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        LogReal.ONE / LogReal.ZERO


def test_negative_rejected():
    with pytest.raises(ValueError):
        LogReal.from_float(-1.0)


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
def test_log2_sum_matches_fsum(xs):
    got = log2_sum(math.log2(x) for x in xs)
    assert math.isclose(got, math.log2(math.fsum(xs)), rel_tol=1e-13)


def test_log2_sum_empty_and_zeros():
    assert log2_sum([]) == -math.inf
    assert log2_sum([-math.inf, -math.inf]) == -math.inf
    assert log2_sum([-math.inf, 3.0]) == 3.0


def test_logreal_sum():
    vals = [LogReal.from_float(x) for x in (0.5, 0.25, 0.25)]
    assert math.isclose(logreal_sum(vals).to_float(), 1.0, rel_tol=1e-15)


def test_isclose_semantics():
    a = LogReal.from_float(1e-200)
    b = LogReal.from_float(1e-200 * (1 + 1e-13))
    assert a.isclose(b, rel_tol=1e-12)
    assert not a.isclose(LogReal.from_float(2e-200), rel_tol=1e-12)
    assert LogReal.ZERO.isclose(LogReal.ZERO)
    assert not LogReal.ZERO.isclose(LogReal.ONE)


def test_pow():
    x = LogReal.from_float(0.5)
    assert (x ** 10).log2 == -10.0
    assert (LogReal.ZERO ** 3).is_zero
    with pytest.raises(ValueError):
        LogReal.ZERO ** 0
