"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
on the real stdout (bypassing capture), and asserts its stated
tolerances and runtime budget.
"""

import csv
import io
import math
import sys
import time
from fractions import Fraction

import pytest

from udestats import cli
from udestats.asymptotics import (RatePoint, cov_growth_rate,
                                  error_exponent, growth_rate_bernoulli,
                                  growth_rate_random)
from udestats.ensemble import (BernoulliEnsemble, Bsc, avg_pu, cov_weight,
                               var_pu)
from udestats.logreal import log2_sum
from udestats.montecarlo import sample_pu_stats
from udestats.oracle import enumerate_ensemble, verify_closed_forms
from udestats.rational import RationalPoly

from references import matrix_probs

_LN2 = math.log(2.0)


_capture = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # pytest captures at the fd level, so the summary lines must be
    # printed with capture suspended to reach the real stdout
    global _capture
    _capture = capsys
    yield
    _capture = None


def _report(num, ok, detail, elapsed):
    line = (f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s) {detail}")
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def test_criterion_01_worked_example():
    t0 = time.monotonic()
    mom = enumerate_ensemble(1, 2, Fraction(1, 2))
    probs = matrix_probs(1, 2, Fraction(1, 2))
    ok = (probs == (Fraction(9, 16), Fraction(3, 16),
                    Fraction(3, 16), Fraction(1, 16))
          and mom.cov[1][1] == Fraction(3, 8)
          and mom.cov[1][2] == Fraction(3, 16)
          and mom.cov[2][2] == Fraction(15, 64)
          and mom.var_pu == RationalPoly([0, 0, Fraction(3, 8),
                                          Fraction(-3, 8), Fraction(15, 64)]))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, ok, "worked example (1,2,1/2) exact", elapsed)
    assert ok


def test_criterion_02_typo_adjudication():
    t0 = time.monotonic()
    mom = enumerate_ensemble(1, 2, Fraction(1, 2))
    rep = verify_closed_forms(1, 2, Fraction(1, 2))
    flagged = {c["name"] for c in rep["checks"]
               if c["status"] == "MISMATCH_WITH_PAPER"}
    ok = (mom.e_pu[1] == Fraction(3, 2)
          and mom.e_pu[2] == Fraction(-7, 8)
          and mom.e_pu2[3] == Fraction(-3)
          and flagged == {"e_pu_eps1_coeff", "e_pu2_eps3_coeff"})
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(2, ok, "typo adjudication: 3/2, -7/8, -3; both flagged", elapsed)
    assert ok


def test_criterion_03_oracle_sweep():
    t0 = time.monotonic()
    worst = 0.0
    shapes = [(m, n) for m in range(1, 17) for n in range(1, 17)
              if m * n <= 16]
    ok = True
    for m, n in shapes:
        for k in (Fraction(n, 4), Fraction(n, 2)):
            rep = verify_closed_forms(m, n, k)
            worst = max(worst, rep["max_rel_err"])
            ok = ok and rep["status"] == "PASS"
    elapsed = time.monotonic() - t0
    ok = ok and worst <= 1e-10 and elapsed < 120.0
    _report(3, ok, f"{len(shapes)} shapes x 2 k, worst rel err {worst:.2e}",
            elapsed)
    assert ok


def test_criterion_04_random_closed_forms():
    t0 = time.monotonic()
    eps_points = (0.01, 0.1, 0.3, 0.49)
    worst_mean = worst_var = 0.0
    offdiag_ok = True
    for m in range(1, 65):
        for n in range(1, 129):
            ens = BernoulliEnsemble.random(m, n)
            diag = [cov_weight(ens, w, w).log2 for w in range(1, n + 1)]
            if n >= 2:
                offdiag_ok = offdiag_ok and cov_weight(ens, 1, n).is_zero
            if n >= 3:
                offdiag_ok = offdiag_ok and \
                    cov_weight(ens, n // 2, n).is_zero
            for eps in eps_points:
                mean = avg_pu(ens, Bsc(eps)).log2 * _LN2
                closed = -m * _LN2 + math.log(
                    -math.expm1(n * math.log1p(-eps)))
                worst_mean = max(worst_mean, abs(mean - closed))
                le, l1e = math.log(eps), math.log1p(-eps)
                dsum = log2_sum(
                    d + (2 * w * le + (2 * n - 2 * w) * l1e) / _LN2
                    for w, d in zip(range(1, n + 1), diag))
                la = n * math.log2(eps * eps + (1 - eps) ** 2)
                lb = 2 * n * l1e / _LN2
                closed_v = (math.log1p(-(2.0 ** -m)) / _LN2 - m + la
                            + math.log1p(-(2.0 ** (lb - la))) / _LN2)
                worst_var = max(worst_var, abs((dsum - closed_v) * _LN2))
    elapsed = time.monotonic() - t0
    # |delta log| bounds the linear-domain relative error
    ok = worst_mean <= 1e-12 and worst_var <= 1e-12 and offdiag_ok \
        and elapsed < 60.0
    _report(4, ok, f"mean rel {worst_mean:.2e}, var rel {worst_var:.2e}, "
            f"off-diagonals zero: {offdiag_ok}", elapsed)
    assert ok


def test_criterion_05_random_exponent():
    t0 = time.monotonic()
    ok = True
    worst_v = worst_a = 0.0
    for R in (0.3, 0.5, 0.7, 0.9):
        f = growth_rate_random(R)
        for eps in (0.05, 0.1, 0.2, 0.4):
            value, argmax = error_exponent(f, eps)
            worst_v = max(worst_v, abs(value + (1 - R)))
            worst_a = max(worst_a, abs(argmax - eps))
    elapsed = time.monotonic() - t0
    ok = worst_v <= 1e-6 and worst_a <= 1e-4 and elapsed < 10.0
    _report(5, ok, f"value err {worst_v:.2e}, argmax err {worst_a:.2e}",
            elapsed)
    assert ok


def test_criterion_06_sparse_exponent_behavior():
    t0 = time.monotonic()
    f = growth_rate_bernoulli(0.5, 20.0)
    eps_grid = [i / 100 for i in range(1, 50)]
    values = {eps: error_exponent(f, eps)[0] for eps in eps_grid}
    at_04 = values[0.4]
    margin_001 = values[0.01] - (-0.5)
    ok = (abs(at_04 - (-0.5)) <= 1e-2
          and all(v >= -0.5 - 1e-12 for v in values.values())
          and margin_001 >= 0.1)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(6, ok, f"T(0.4)={at_04:.6f}, margin at 0.01 = {margin_001:.4f}",
            elapsed)
    assert ok


def test_criterion_07_finite_n_convergence():
    t0 = time.monotonic()
    eps = 0.1
    gaps = []
    for n in (50, 100, 200, 400, 800):
        ens = BernoulliEnsemble.random(n // 2, n)
        gaps.append(abs(avg_pu(ens, Bsc(eps)).log2 / ens.n + 0.5))
    # the gap underflows to exactly 0 in double precision by n = 400, so
    # monotone non-increasing with a strict overall decrease is required
    exponent_ok = all(a >= b for a, b in zip(gaps, gaps[1:])) \
        and gaps[0] > gaps[-1] and gaps[-1] <= 1e-6
    rp = RatePoint(0.5, 4.0)
    t_lim = cov_growth_rate(rp, 0.5, 0.5)
    cov_gaps = []
    for n in (100, 200, 400):
        ens = BernoulliEnsemble(n // 2, n, 4.0)
        cov_gaps.append(abs(cov_weight(ens, n // 2, n // 2).log2 / n - t_lim))
    cov_ok = cov_gaps[0] > cov_gaps[1] > cov_gaps[2]
    elapsed = time.monotonic() - t0
    ok = exponent_ok and cov_ok and elapsed < 60.0
    _report(7, ok, f"exponent gap at n=800: {gaps[-1]:.2e}; cov gaps "
            + ", ".join(f"{g:.4f}" for g in cov_gaps), elapsed)
    assert ok


def test_criterion_08_montecarlo_regime():
    t0 = time.monotonic()
    eps_points = [0.01, 0.025, 0.05, 0.1]
    samples = 10_000
    rnd = BernoulliEnsemble.random(20, 40)
    sparse = BernoulliEnsemble(20, 40, 5.0)
    stats_rnd = sample_pu_stats(rnd, eps_points, samples, seed=2024)
    stats_spm = sample_pu_stats(sparse, eps_points, samples, seed=2025)
    mean_ok = True
    var_ok = True
    for eps in eps_points:
        for ens, stats in ((rnd, stats_rnd), (sparse, stats_spm)):
            s = stats[eps]
            expect = avg_pu(ens, Bsc(eps)).to_float()
            # exact standard error of the sample mean; the empirical SE
            # collapses when the rare heavy-tail matrices are not drawn
            se = math.sqrt(var_pu(ens, Bsc(eps)).to_float() / s.count)
            mean_ok = mean_ok and abs(s.mean - expect) <= 4 * se
        var_ok = var_ok and \
            stats_spm[eps].variance >= stats_rnd[eps].variance
    # unimodality of the sparse mean curve from the fig 5 data
    buf = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buf
    try:
        assert cli.main(["fig", "5"]) == 0
    finally:
        sys.stdout = stdout
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    curve = [(float(r["eps"]), float(r["mean_pu_sparse"])) for r in rows]
    ys = [y for _, y in curve]
    peak = max(range(len(ys)), key=ys.__getitem__)
    rising = all(a < b for a, b in zip(ys[:peak], ys[1:peak + 1]))
    falling = all(a > b for a, b in zip(ys[peak:], ys[peak + 1:]))
    peak_eps = curve[peak][0]
    fig_ok = rising and falling and 0.01 < peak_eps < 0.05
    elapsed = time.monotonic() - t0
    ok = mean_ok and var_ok and fig_ok and elapsed < 300.0
    _report(8, ok, f"means in 4 SE: {mean_ok}, sparse var >= random: "
            f"{var_ok}, peak at eps={peak_eps:.4f}", elapsed)
    assert ok


def test_criterion_09_combinatorial_identity():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 31):
        for w1 in range(1, n + 1):
            for w2 in range(w1, n + 1):
                lhs = sum(math.comb(n, w1) * math.comb(w1, v)
                          * math.comb(n - w1, w2 - v)
                          for v in range(max(0, w1 + w2 - n),
                                         min(w1, w2) + 1))
                ok = ok and lhs == math.comb(n, w1) * math.comb(n, w2)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    _report(9, ok, "overlap-count identity exact for n <= 30", elapsed)
    assert ok


def test_criterion_10_joint_pass_exact():
    from references import brute_force_joint_pass, joint_pass_prob_exact
    t0 = time.monotonic()
    ok = True
    checked = 0
    for m in (1, 2, 3):
        for n in range(1, 9):
            for k in (Fraction(n, 4), Fraction(n, 2)):
                for w1 in range(n + 1):
                    for w2 in range(w1, n + 1):
                        x = (1 << w1) - 1
                        for v in range(max(0, w1 + w2 - n),
                                       min(w1, w2) + 1):
                            ybits = (((1 << v) - 1)
                                     | (((1 << (w2 - v)) - 1) << w1))
                            ok = ok and joint_pass_prob_exact(
                                m, n, k, w1, w2, v) == \
                                brute_force_joint_pass(m, n, k, x, ybits)
                            checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _report(10, ok, f"{checked} (m,n,k,w1,w2,v) lattice points exact",
            elapsed)
    assert ok
