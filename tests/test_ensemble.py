"""Closed-form finite-size ensemble statistics."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udestats.ensemble import (BernoulliEnsemble, Bsc, _avg_pu_random_closed,
                               _log2_binom_row, _var_pu_random_closed,
                               avg_pu, avg_weight, cov_matrix, cov_weight,
                               second_moment_from_cov, var_pu,
                               var_pu_from_cov)
from udestats.logreal import LogReal, log2_sum

from references import cov_weight_exact, second_moment_weight_exact


class _ForcedGeneric(BernoulliEnsemble):
    """Disables the random-ensemble dispatch so the generic summation
    path can be exercised at z = 0."""

    @property
    def is_random(self):
        return False


@st.composite
def ensembles(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 10))
    k = draw(st.floats(min_value=0.1, max_value=n / 2))
    return BernoulliEnsemble(m, n, k)


def test_parameter_validation():
    with pytest.raises(ValueError):
        BernoulliEnsemble(0, 4, 1.0)
    with pytest.raises(ValueError):
        BernoulliEnsemble(2, 4, 0.0)
    with pytest.raises(ValueError):
        BernoulliEnsemble(2, 4, 2.5)  # k > n/2
    with pytest.raises(ValueError):
        Bsc(0.5)
    ens = BernoulliEnsemble.random(3, 8)
    assert ens.is_random and ens.p == 0.5 and ens.z == 0.0


def test_subnormal_density_is_refused():
    # A float p = k/n below 2^-1022 is subnormal: at k = 1e-320, n = 3 it
    # carries about 10 bits, and the closed forms missed the oracle by
    # 4.9e-4.  p exactly at the bound is accepted.
    for m, n, k in [(2, 3, 1e-320), (2, 3, 1e-315),
                    (1, 1, math.nextafter(sys.float_info.min, 0.0))]:
        with pytest.raises(ValueError, match=r"p = k/n >= 2\^-1022"):
            BernoulliEnsemble(m, n, k)
    assert BernoulliEnsemble(1, 1, sys.float_info.min).p == 2.0 ** -1022
    assert BernoulliEnsemble(1, 2, 2.0 ** -1021).p == 2.0 ** -1022


def test_worked_example_moments():
    ens = BernoulliEnsemble(1, 2, 0.5)
    assert math.isclose(avg_weight(ens, 1).to_float(), 1.5, rel_tol=1e-15)
    assert math.isclose(avg_weight(ens, 2).to_float(), 0.625, rel_tol=1e-15)
    second = second_moment_from_cov(ens, cov_matrix(ens))
    assert math.isclose(LogReal(float(second[1, 1])).to_float(), 21 / 8,
                        rel_tol=1e-14)
    assert math.isclose(LogReal(float(second[1, 2])).to_float(), 9 / 8,
                        rel_tol=1e-14)
    assert math.isclose(cov_weight(ens, 1, 1).to_float(), 3 / 8,
                        rel_tol=1e-13)
    assert math.isclose(cov_weight(ens, 1, 2).to_float(), 3 / 16,
                        rel_tol=1e-13)
    assert math.isclose(cov_weight(ens, 2, 2).to_float(), 15 / 64,
                        rel_tol=1e-13)
    assert math.isclose(var_pu(ens, Bsc(0.1)).to_float(),
                        3 / 8 * 0.01 - 3 / 8 * 0.001 + 15 / 64 * 0.0001,
                        rel_tol=1e-13)


@settings(max_examples=40, deadline=None)
@given(ensembles())
def test_avg_weight_bounds(ens):
    assert avg_weight(ens, 0).to_float() == 1.0
    for w in range(ens.n + 1):
        assert avg_weight(ens, w).to_float() <= math.comb(ens.n, w) * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(ensembles(), st.floats(min_value=0.01, max_value=0.49))
def test_avg_pu_upper_bound(ens, eps):
    bound = 1 - (1 - eps) ** ens.n
    assert avg_pu(ens, Bsc(eps)).to_float() <= bound * (1 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(ensembles())
def test_cov_symmetry_and_nonnegativity(ens):
    n = ens.n
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            c = cov_weight(ens, w1, w2)
            assert c.log2 == cov_weight(ens, w2, w1).log2
            assert c.is_zero or math.isfinite(c.log2)


@settings(max_examples=30, deadline=None)
@given(ensembles())
def test_second_moment_diagonal_dominance(ens):
    second = second_moment_from_cov(ens, cov_matrix(ens))
    for w in range(1, ens.n + 1):
        assert second[w, w] >= 2 * avg_weight(ens, w).log2 - 1e-10


def test_random_specialization_via_generic_path():
    # Theorem-2 style v-sum evaluated at z = 0 must reproduce the
    # closed-form random-ensemble covariance for all n <= 20.
    for n in (1, 2, 5, 12, 20):
        m = 3
        rnd = BernoulliEnsemble.random(m, n)
        forced = _ForcedGeneric(m, n, n / 2)
        for w1 in range(1, n + 1):
            for w2 in range(w1, n + 1):
                closed = cov_weight(rnd, w1, w2)
                generic = cov_weight(forced, w1, w2)
                if w1 != w2:
                    assert generic.is_zero and closed.is_zero
                else:
                    assert generic.isclose(closed, rel_tol=1e-12)


def test_var_pu_from_cov_partition_independence():
    for ens in (BernoulliEnsemble(4, 10, 2.0),
                BernoulliEnsemble.random(4, 10)):
        cov = cov_matrix(ens)
        for eps in (0.001, 0.2, 0.49):
            assert var_pu_from_cov(ens, cov, eps) == var_pu(ens, Bsc(eps))
        with pytest.raises(ValueError, match="eps"):
            var_pu_from_cov(ens, cov, 0.7)


def test_var_linear_statistic_specializes_to_var_pu():
    # Var[P_U] = sum over (w1, w2) of Cov(A_w1, A_w2) alpha(w1) alpha(w2)
    # with alpha(w) = eps^w (1-eps)^(n-w), summed in the linear domain.
    ens = BernoulliEnsemble(5, 14, 3.0)
    n = ens.n
    for eps in (0.05, 0.2, 0.4):
        alpha = [eps ** w * (1 - eps) ** (n - w) for w in range(n + 1)]
        lin = math.fsum(
            (1.0 if w1 == w2 else 2.0) * cov_weight(ens, w1, w2).to_float()
            * alpha[w1] * alpha[w2]
            for w1 in range(1, n + 1) for w2 in range(w1, n + 1))
        assert math.isclose(lin, var_pu(ens, Bsc(eps)).to_float(),
                            rel_tol=1e-10)


@pytest.mark.parametrize("n", [1025, 2000, 5000])
def test_log2_binom_precise_at_large_n(n):
    mpmath.mp.dps = 50
    for w in (1, 7, n // 3, n // 2, n - 2):
        ref = mpmath.log(mpmath.binomial(n, w), 2)
        got = _log2_binom_row(n)[w]
        assert abs(got - ref) <= 1e-14 * abs(ref), (n, w)


def test_cross_checks_survive_optimize_flag():
    # A wrong closed form must be raised even when asserts are compiled out.
    script = (
        "import sys\n"
        "if __debug__: sys.exit('not running under -O')\n"
        "import udestats.ensemble as e\n"
        "from udestats.logreal import LogReal\n"
        "e._avg_pu_random_closed = lambda m, n, eps: LogReal(0.0)\n"
        "try:\n"
        "    e.avg_pu(e.BernoulliEnsemble.random(3, 6), e.Bsc(0.1))\n"
        "except ArithmeticError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("raised: summation"), res.stdout


@pytest.mark.parametrize("m, n", [(1, 1), (3, 6), (20, 40), (10, 200),
                                  (100, 1000), (1, 4096)])
def test_random_closed_forms_match_mpmath(m, n):
    # Both forms cancel nothing: 1 - (1-eps)^n is -expm1(n log1p(-eps)),
    # and the variance difference is (1-eps)^(2n) expm1(n log1p(r^2)).
    # Beyond 1e-14, the bound is the ulps of a log2 value in the hundreds.
    mpmath.mp.dps = 50
    for eps in (1e-12, 1e-8, 1e-4, 0.001, 0.0026, 0.005, 0.1, 0.3, 0.49):
        e = mpmath.mpf(eps)
        mean = 2 ** -m * (1 - (1 - e) ** n)
        var = ((1 - mpmath.mpf(2) ** -m) * 2 ** -m
               * ((e ** 2 + (1 - e) ** 2) ** n - (1 - e) ** (2 * n)))
        for got, want in ((_avg_pu_random_closed(m, n, eps), mean),
                          (_var_pu_random_closed(m, n, eps), var)):
            log2_want = float(mpmath.log(want, 2))
            err = abs(got.log2 - log2_want) * math.log(2)
            assert err <= max(1e-14, 4e-16 * abs(log2_want)), (eps, err)


@pytest.mark.parametrize("n", [20000, 100000])
def test_random_mean_check_holds_at_large_n(n):
    # The log2 terms near n carry the ulp the module docstring allows,
    # which is above 1e-12 relative at these n; the check must allow it.
    mpmath.mp.dps = 50
    for m, eps in ((1, 0.49), (n // 2, 0.1), (3, 1e-6)):
        got = avg_pu(BernoulliEnsemble.random(m, n), Bsc(eps)).log2
        e = mpmath.mpf(eps)
        want = float(mpmath.log((1 - (1 - e) ** n) / 2 ** m, 2))
        assert abs(got - want) <= 2.0 ** -48 * (m + n * math.log2(1 / eps))


@pytest.mark.parametrize("k", [4.0, 10000.0])
def test_avg_pu_and_avg_weight_match_mpmath_at_n20000(k):
    m, n, eps = 10000, 20000, 0.01
    ens = BernoulliEnsemble(m, n, k)
    mpmath.mp.dps = 30
    z = 1 - 2 * mpmath.mpf(k) / n
    e = mpmath.mpf(eps)
    log2_aw = [m * mpmath.log((1 + z ** w) / 2, 2)
               + mpmath.log(mpmath.binomial(n, w), 2) for w in range(n + 1)]
    # 4 ulps of m + n: the module's bound, where m log2((1 + z^w)/2) and
    # log2 C(n, w) reach thousands
    bound = 2.0 ** -50 * (m + n)
    for w in range(0, n + 1, 97):
        assert abs(avg_weight(ens, w).log2 - float(log2_aw[w])) <= bound, w
    want = mpmath.log(mpmath.fsum(
        2 ** (log2_aw[w] + w * mpmath.log(e, 2)
              + (n - w) * mpmath.log(1 - e, 2))
        for w in range(1, n + 1)), 2)
    assert abs(avg_pu(ens, Bsc(eps)).log2 - float(want)) <= bound


def test_random_closed_forms_small():
    ens = BernoulliEnsemble.random(20, 40)
    ch = Bsc(0.1)
    mean = avg_pu(ens, ch).to_float()
    assert math.isclose(mean, 2.0 ** -20 * (1 - 0.9 ** 40), rel_tol=1e-12)
    var = var_pu(ens, ch).to_float()
    closed = ((1 - 2.0 ** -20) * 2.0 ** -20
              * ((0.01 + 0.81) ** 40 - 0.9 ** 80))
    assert math.isclose(var, closed, rel_tol=1e-12)


def test_no_underflow_at_large_m():
    # ((1+z^w)/2)^m underflows doubles near m ~ 2000; log domain must not
    ens = BernoulliEnsemble(20000, 100, 4.0)
    val = avg_pu(ens, Bsc(0.1))
    assert val.log2 < -1000.0 and math.isfinite(val.log2)


def _cov_weight_loop(ens, w1, w2):
    """log2 Cov(A_w1, A_w2) as the one-pair loop over v in Python floats,
    kept as the reference for the array kernel."""
    n, m, z = ens.n, ens.m, ens.z
    w1, w2 = min(w1, w2), max(w1, w2)

    def zpow(w):
        return 1.0 if w == 0 else (0.0 if z == 0.0 else z ** w)
    pref = m * (math.log2((1 + zpow(w1)) / 2) + math.log2((1 + zpow(w2)) / 2))
    denom = (1 + zpow(w1)) * (1 + zpow(w2))
    terms = []
    for v in range(max(1, w1 + w2 - n), w1 + 1):
        y = zpow(w1 + w2 - 2 * v) * (1 - zpow(2 * v)) / denom
        if y > 0.0:
            t = m * math.log1p(y)
            terms.append(math.log2(math.comb(n, w1) * math.comb(w1, v)
                                   * math.comb(n - w1, w2 - v))
                         + (t + math.log(-math.expm1(-t))) / math.log(2))
    return pref + log2_sum(terms)


@pytest.mark.parametrize("family", ["sparse", "random"])
def test_cov_matrix_is_cov_weight_bit_for_bit(family):
    for n in range(1, 25):
        m = max(1, n // 2)
        ens = (BernoulliEnsemble(m, n, min(4.0, n / 2)) if family == "sparse"
               else BernoulliEnsemble.random(m, n))
        cov = cov_matrix(ens)
        assert cov.shape == (n + 1, n + 1)
        assert (cov[0] == -math.inf).all() and (cov[:, 0] == -math.inf).all()
        for w1 in range(1, n + 1):
            for w2 in range(1, n + 1):
                assert cov[w1, w2] == cov_weight(ens, w1, w2).log2, (n, w1, w2)


@pytest.mark.parametrize("m, n, k", [(3, 9, 1.0), (6, 17, 2.5), (20, 40, 5.0),
                                     (40, 64, 0.3)])
def test_cov_matrix_matches_the_loop(m, n, k):
    ens = BernoulliEnsemble(m, n, k)
    cov = cov_matrix(ens)
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            ref = _cov_weight_loop(ens, w1, w2)
            assert abs(cov[w1, w2] - ref) * math.log(2) <= 1e-13 * max(
                1.0, abs(ref)), (w1, w2)


def test_cov_rows_match_exact_fractions_at_n100():
    m, n, k = 50, 100, 4
    ens = BernoulliEnsemble(m, n, float(k))
    cov = cov_matrix(ens)
    for w1 in (1, 37, 50, 99):
        for w2 in range(1, n + 1, 11):
            exact = cov_weight_exact(m, n, k, w1, w2)
            # Scale to [1/2, 2] first: log2 of the huge numerator and
            # denominator apart would lose digits to their difference.
            e = exact.numerator.bit_length() - exact.denominator.bit_length()
            ref = e + math.log2(exact / Fraction(2) ** e)
            assert abs(cov[w1, w2] - ref) * math.log(2) <= 1e-12, (w1, w2)


@pytest.mark.parametrize("k", ["1e-9", "1e-12"])
def test_cov_weight_at_small_k(k):
    # 1 - z^(2v) for z = 1 - 2p cancels; rounding z before its log would
    # cost about 1e-16 / (2p) relative.
    m, n = 2, 3
    ens = BernoulliEnsemble(m, n, float(k))
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            exact = float(cov_weight_exact(m, n, Fraction(k), w1, w2))
            got = cov_weight(ens, w1, w2).to_float()
            assert abs(got - exact) <= 1e-12 * exact, (w1, w2)


def test_cov_weight_matches_mpmath_at_n2000():
    m, n, k = 1000, 2000, 4.0
    ens = BernoulliEnsemble(m, n, k)
    mpmath.mp.dps = 50
    z = 1 - 2 * mpmath.mpf(k) / n
    for w1, w2 in ((1, 2000), (3, 7), (500, 1500), (1000, 1000)):
        marg = ((1 + z ** w1) / 2) ** m * ((1 + z ** w2) / 2) ** m
        total = mpmath.fsum(
            mpmath.binomial(n, w1) * mpmath.binomial(w1, v)
            * mpmath.binomial(n - w1, w2 - v)
            * (((1 + z ** w1 + z ** w2 + z ** (w1 + w2 - 2 * v)) / 4) ** m
               - marg)
            for v in range(max(0, w1 + w2 - n), min(w1, w2) + 1))
        got = cov_weight(ens, w1, w2).log2
        assert abs(got - float(mpmath.log(total, 2))) * math.log(2) <= 1e-12


@pytest.mark.parametrize("k", ["sparse", "random", "1e-9"])
def test_second_moments_match_exact_fractions(k):
    # Every pair of every shape up to 3x8, all pairs from one covariance
    # matrix.
    for m in (1, 2, 3):
        for n in range(1, 9):
            kf = (Fraction(n, 4) if k == "sparse" else Fraction(n, 2)
                  if k == "random" else Fraction(k))
            ens = BernoulliEnsemble(m, n, float(kf))
            got = second_moment_from_cov(ens, cov_matrix(ens))
            for a, b in zip(*np.triu_indices(n)):
                a, b = int(a) + 1, int(b) + 1
                assert got[a, b] == got[b, a]
                exact = second_moment_weight_exact(m, n, kf, a, b)
                value = LogReal(float(got[a, b])).to_float()
                assert abs(value - exact) <= 1e-13 * exact, (m, n, a, b)


def test_cov_matrix_memory_is_bounded():
    ens = BernoulliEnsemble(150, 300, 4.0)
    _log2_binom_row.cache_clear()  # the rows count too
    tracemalloc.start()
    try:
        cov_matrix(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_log2_binom_rows_are_exact_and_read_only():
    for a in (0, 1, 2, 7, 60, 301):
        row = _log2_binom_row(a)
        assert list(row) == [math.log2(math.comb(a, j))
                             for j in range(a + 1)]
        assert not row.flags.writeable
