"""Monte Carlo estimation and its reproducibility contract."""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udestats.ensemble import BernoulliEnsemble
from udestats.gf2 import BitMatrix
from udestats.montecarlo import (CI_Z, SampleStats, SimConfig,
                                 estimate_pu_channel,
                                 estimate_pu_distribution, pu_report,
                                 sample_matrix, sample_pu_stats, worker_rng)
from udestats.oracle import enumerate_ensemble

floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def test_config_validation():
    # One validation on the sampling path, for both modes.
    ens = BernoulliEnsemble(2, 4, 1.0)
    for trials in (0, 100):
        for eps, samples in ((0.6, 10), (0.0, 10), (0.1, 0)):
            with pytest.raises(ValueError):
                estimate_pu_distribution(
                    SimConfig(ens, eps, samples, channel_trials=trials))
            with pytest.raises(ValueError):
                sample_pu_stats(ens, [0.1, eps], samples,
                                channel_trials=trials)
    with pytest.raises(ValueError):
        estimate_pu_distribution(SimConfig(ens, 0.1, 10, channel_trials=-1))


def test_sample_stats_against_statistics_module():
    xs = [0.1, 0.4, 0.35, 0.8, 0.2]
    s = SampleStats()
    for x in xs:
        s.update(x)
    assert math.isclose(s.mean, statistics.fmean(xs), rel_tol=1e-14)
    assert math.isclose(s.variance, statistics.variance(xs), rel_tol=1e-12)
    assert s.min == min(xs) and s.max == max(xs) and s.count == 5


@settings(max_examples=60)
@given(st.lists(floats, min_size=2, max_size=30),
       st.lists(floats, max_size=30))
def test_merge_equals_concatenation(a, b):
    sa, sb, sc = SampleStats(), SampleStats(), SampleStats()
    for x in a:
        sa.update(x)
        sc.update(x)
    for x in b:
        sb.update(x)
        sc.update(x)
    sa.merge(sb)
    assert sa.count == sc.count
    assert math.isclose(sa.mean, sc.mean, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(sa.m2, sc.m2, rel_tol=1e-12, abs_tol=1e-6)
    assert sa.min == sc.min and sa.max == sc.max


def test_merge_with_empty():
    s = SampleStats()
    s.update(1.0)
    s.update(3.0)
    before = (s.count, s.mean, s.m2)
    s.merge(SampleStats())
    assert (s.count, s.mean, s.m2) == before
    empty = SampleStats()
    empty.merge(s)
    assert empty.count == 2 and empty.mean == s.mean


def test_worker_streams_stable():
    a = worker_rng(42, 0).random(5)
    b = worker_rng(42, 0).random(5)
    c = worker_rng(42, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_matrix_determinism_and_density():
    ens = BernoulliEnsemble(250, 40, 10.0)  # p = 0.25
    h1 = sample_matrix(ens, worker_rng(7, 0))
    h2 = sample_matrix(ens, worker_rng(7, 0))
    assert h1 == h2
    ones = 0
    rng = worker_rng(1, 0)
    matrices = 100  # 10^6 entries total
    for _ in range(matrices):
        h = sample_matrix(ens, rng)
        ones += sum(r.bit_count() for r in h.rows)
    total = matrices * ens.m * ens.n
    se = math.sqrt(ens.p * (1 - ens.p) / total)
    assert abs(ones / total - ens.p) <= 4 * se


def test_matrix_frequencies_chi_square():
    # B_{1,2,1/2}: empirical matrix frequencies vs the exact ensemble
    # probabilities, chi-square with 3 dof at significance 0.001
    ens = BernoulliEnsemble(1, 2, 0.5)
    probs = enumerate_ensemble(1, 2, Fraction(1, 2)).matrix_probs
    samples = 100_000
    rng = worker_rng(3, 0)
    bits = rng.random((samples, 2)) < ens.p
    ids = bits[:, 0].astype(int) + 2 * bits[:, 1].astype(int)
    observed = np.bincount(ids, minlength=4)
    chi2 = sum((observed[t] - samples * float(probs[t])) ** 2
               / (samples * float(probs[t])) for t in range(4))
    assert chi2 < 16.266  # chi2(3) critical value at 0.001


def test_exact_mode_matches_oracle_mean():
    ens = BernoulliEnsemble(1, 2, 0.5)
    cfg = SimConfig(ens, 0.1, 20_000, seed=11)
    rep = estimate_pu_distribution(cfg)
    expect = 3 / 2 * 0.1 - 7 / 8 * 0.01  # oracle closed form 0.14125
    assert abs(rep["mean"] - expect) <= 4 * rep["mean_se"]
    assert rep["mode"] == "exact"
    assert rep["mean_ci_low"] <= expect <= rep["mean_ci_high"]


def test_shared_matrices_across_eps():
    ens = BernoulliEnsemble(4, 8, 2.0)
    stats = sample_pu_stats(ens, [0.05, 0.2], 300, seed=5)
    assert stats[0.05].count == 300 and stats[0.2].count == 300
    # same matrices evaluated at a larger eps give larger P_U means here
    assert stats[0.2].mean > stats[0.05].mean


def test_report_determinism():
    ens = BernoulliEnsemble(4, 8, 2.0)
    r1 = estimate_pu_distribution(SimConfig(ens, 0.1, 500, seed=9))
    r2 = estimate_pu_distribution(SimConfig(ens, 0.1, 500, seed=9))
    assert r1 == r2
    r3 = estimate_pu_distribution(SimConfig(ens, 0.1, 500, seed=10))
    assert r3["mean"] != r1["mean"]


def test_channel_estimator_known_matrices():
    rng = worker_rng(21, 0)
    h = BitMatrix.from_strings(["11"])
    rep = estimate_pu_channel(h, 0.1, 1_000_000, rng)
    assert abs(rep["estimate"] - 0.01) <= 4 * rep["se"]
    # full-rank square matrix detects every error
    eye = BitMatrix.identity(5)
    assert estimate_pu_channel(eye, 0.2, 10_000, rng)["estimate"] == 0.0
    # zero matrix detects nothing
    zero = BitMatrix.zero(2, 4)
    rep = estimate_pu_channel(zero, 0.2, 200_000, rng)
    expect = 1 - 0.8 ** 4
    assert rep["ci_low"] <= expect <= rep["ci_high"]


def test_channel_interval_on_zero_hits():
    # no trial goes undetected through a full-rank square matrix; the
    # Wilson upper end is then z^2 / (T + z^2), not 0
    trials = 10_000
    rep = estimate_pu_channel(BitMatrix.identity(5), 0.2, trials,
                              worker_rng(8, 0))
    assert rep["estimate"] == 0.0
    assert rep["ci_low"] == 0.0 and rep["ci_high"] > 0.0
    assert math.isclose(rep["ci_high"], CI_Z ** 2 / (trials + CI_Z ** 2),
                        rel_tol=1e-12)


def test_channel_mode_debiasing():
    ens = BernoulliEnsemble(3, 6, 1.5)
    exact = estimate_pu_distribution(SimConfig(ens, 0.2, 400, seed=2))
    chan = estimate_pu_distribution(
        SimConfig(ens, 0.2, 400, channel_trials=20_000, seed=2))
    assert chan["mode"] == "channel"
    assert chan["within_matrix_var"] > 0.0
    assert abs(chan["mean"] - exact["mean"]) <= \
        4 * math.hypot(chan["mean_se"], exact["mean_se"]) + 1e-3
    # debiased between-matrix variance should be near the exact-mode one
    assert abs(chan["var"] - exact["var"]) <= \
        6 * math.hypot(chan["var_se"], exact["var_se"]) + 1e-4


def test_channel_estimator_validation():
    with pytest.raises(ValueError):
        estimate_pu_channel(BitMatrix.identity(2), 0.1, 0, worker_rng(0, 0))


def test_channel_mode_replays_one_stream():
    # Channel mode draws each matrix, then its trials for every eps in
    # turn, from the one seeded stream.
    ens = BernoulliEnsemble(3, 6, 1.5)
    eps_list, samples, trials = [0.05, 0.2], 30, 500
    stats = sample_pu_stats(ens, eps_list, samples, seed=4,
                            channel_trials=trials)
    rng = worker_rng(4, 0)
    expect = {eps: SampleStats() for eps in eps_list}
    within = {eps: [] for eps in eps_list}
    for _ in range(samples):
        h = sample_matrix(ens, rng)
        for eps in eps_list:
            rep = estimate_pu_channel(h, eps, trials, rng)
            expect[eps].update(rep["estimate"])
            within[eps].append(rep["se"] ** 2)
    for eps in eps_list:
        assert stats[eps] == expect[eps]
        r = pu_report(eps, stats[eps], trials, 4)
        assert math.isclose(r["within_matrix_var"], math.fsum(within[eps])
                            / samples, rel_tol=1e-12)


def test_channel_report_pools_trials_for_the_mean_se():
    # The identity matrix detects every error: zero hits in every trial.
    h = BitMatrix(4, 4, tuple(1 << i for i in range(4)))
    stats = SampleStats()
    for _ in range(3):
        stats.update(estimate_pu_channel(h, 0.1, 500, worker_rng(1, 0))
                     ["estimate"])
    rep = pu_report(0.1, stats, 500, 1)
    # Wilson half-width at zero hits over T = 1500 pooled trials, over z.
    z2 = CI_Z * CI_Z / 1500
    pooled = math.sqrt(z2 / (4 * 1500)) / (1 + z2)
    assert rep["mean"] == 0.0
    assert math.isclose(rep["mean_se"], pooled, rel_tol=1e-12)
    assert rep["mean_ci_high"] == CI_Z * rep["mean_se"]
    # One matrix has no spread across matrices; the pooled term stands.
    single = SampleStats()
    single.update(0.25)
    rep = pu_report(0.1, single, 400, 1)
    assert rep["mean_se"] > 0.0 and math.isfinite(rep["mean_ci_low"])
    # Exact mode keeps the spread across matrices alone.
    assert math.isnan(pu_report(0.1, single, 0, 1)["mean_se"])
