"""Exhaustive exact-rational oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from udestats.gf2 import BitVector
from udestats.oracle import (_PEAK_BYTES_LIMIT, GuardExceededError,
                             _class_sums_cache, _peak_bytes,
                             _per_matrix_weight_counts,
                             _per_matrix_weight_counts_generic,
                             _per_matrix_weight_counts_single_row,
                             _weight_class_sums,
                             avg_weight_exact, brute_force_joint_pass,
                             cov_weight_exact, enumerate_ensemble,
                             joint_pass_prob_exact, second_moment_weight_exact,
                             verify_closed_forms)
from udestats.rational import RationalPoly


def test_worked_example_exact():
    mom = enumerate_ensemble(1, 2, Fraction(1, 2))
    assert mom.matrix_probs == (Fraction(9, 16), Fraction(3, 16),
                                Fraction(3, 16), Fraction(1, 16))
    assert mom.e_aw == (1, Fraction(3, 2), Fraction(5, 8))
    assert mom.cov[1][1] == Fraction(3, 8)
    assert mom.cov[1][2] == Fraction(3, 16)
    assert mom.cov[2][2] == Fraction(15, 64)
    assert mom.var_pu == RationalPoly(
        [0, 0, Fraction(3, 8), Fraction(-3, 8), Fraction(15, 64)])


def test_typo_adjudication_exact():
    mom = enumerate_ensemble(1, 2, Fraction(1, 2))
    # published: (2/3) eps - (7/8) eps^2; enumeration decides 3/2
    assert mom.e_pu == RationalPoly([0, Fraction(3, 2), Fraction(-7, 8)])
    # published eps^3 coefficient -3/8; consistency forces -3
    assert mom.e_pu2 == RationalPoly(
        [0, 0, Fraction(21, 8), Fraction(-3), 1])
    rep = verify_closed_forms(1, 2, Fraction(1, 2))
    flagged = {c["name"]: c for c in rep["checks"]
               if c["status"] == "MISMATCH_WITH_PAPER"}
    assert set(flagged) == {"e_pu_eps1_coeff", "e_pu2_eps3_coeff"}
    assert flagged["e_pu_eps1_coeff"]["paper_value"] == "2/3"
    assert flagged["e_pu_eps1_coeff"]["oracle_value"] == "3/2"
    assert flagged["e_pu2_eps3_coeff"]["paper_value"] == "-3/8"
    assert flagged["e_pu2_eps3_coeff"]["oracle_value"] == "-3"


def test_probabilities_sum_to_one():
    for m, n, k in [(1, 2, Fraction(1, 2)), (2, 2, 1), (3, 2, Fraction(3, 4))]:
        mom = enumerate_ensemble(m, n, k)
        assert sum(mom.matrix_probs) == 1


def test_moment_bounds_exact():
    mom = enumerate_ensemble(2, 3, 1)
    assert mom.e_aw[0] == 1
    for w in range(4):
        assert mom.e_aw[w] <= math.comb(3, w)
    # cov consistency and symmetry
    for w1 in range(4):
        for w2 in range(4):
            assert mom.cov[w1][w2] == \
                mom.e_awaw[w1][w2] - mom.e_aw[w1] * mom.e_aw[w2]
            assert mom.cov[w1][w2] == mom.cov[w2][w1]
    assert mom.var_pu == mom.e_pu2 - mom.e_pu * mom.e_pu


def test_var_pu_polynomial_nonnegative():
    for m, n, k in [(1, 2, Fraction(1, 2)), (2, 4, 1), (3, 4, 2)]:
        poly = enumerate_ensemble(m, n, k).var_pu
        for i in range(1, 101):
            e = Fraction(i, 202)  # 100 points inside (0, 1/2)
            assert poly(e) >= 0


def _leading_minors_nonneg(cov, size):
    for d in range(1, size + 1):
        sub = [[cov[i][j] for j in range(1, d + 1)] for i in range(1, d + 1)]
        assert _det(sub) >= 0


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _det(minor)
    return total


def test_cov_positive_semidefinite():
    for m, n, k in [(1, 3, 1), (2, 4, 1), (1, 4, 2)]:
        mom = enumerate_ensemble(m, n, k)
        _leading_minors_nonneg(mom.cov, n)


def test_single_row_shortcut_matches_generic():
    for n in range(1, 11):
        a, wa = _per_matrix_weight_counts_single_row(n)
        b, wb = _per_matrix_weight_counts_generic(1, n)
        assert np.array_equal(a, b) and np.array_equal(wa, wb)


def test_generic_path_partition_invariance():
    # counts must not depend on how the x-loop is blocked; compare the
    # vectorized path against a per-matrix python enumeration
    m, n = 2, 4
    counts, wt_h = _per_matrix_weight_counts(m, n)
    for t in (0, 5, 77, 255):
        rows = [(t >> (n * i)) & ((1 << n) - 1) for i in range(m)]
        expect = [0] * (n + 1)
        for x in range(1 << n):
            if all((r & x).bit_count() % 2 == 0 for r in rows):
                expect[x.bit_count()] += 1
        assert list(counts[t]) == expect
        assert wt_h[t] == sum(r.bit_count() for r in rows)


def test_brute_force_joint_pass_identities():
    k = Fraction(3, 2)
    m, n = 2, 6
    z = 1 - 2 * k / n
    # x = y: single parity event at weight w
    x = BitVector.from_string("110100")
    assert brute_force_joint_pass(m, n, k, x, x) == \
        (Fraction(1 + z ** 3, 2)) ** m
    # disjoint supports factorize
    y = BitVector.from_string("001011")
    single = Fraction(1 + z ** 3, 2)
    assert brute_force_joint_pass(m, n, k, x, y) == (single * single) ** m


def test_brute_force_joint_pass_example():
    got = brute_force_joint_pass(1, 2, Fraction(1, 2),
                                 BitVector.from_string("10"),
                                 BitVector.from_string("11"))
    assert got == Fraction(9, 16)


def test_joint_pass_exact_matches_brute_force():
    for m in (1, 2, 3):
        for n in (2, 4, 6):
            for k in (Fraction(n, 4), Fraction(n, 2)):
                for w1 in range(n + 1):
                    for w2 in range(w1, n + 1):
                        x = BitVector(n, (1 << w1) - 1 if w1 else 0)
                        for v in range(max(0, w1 + w2 - n),
                                       min(w1, w2) + 1):
                            ybits = (((1 << v) - 1)
                                     | (((1 << (w2 - v)) - 1) << w1))
                            y = BitVector(n, ybits)
                            assert joint_pass_prob_exact(
                                m, n, k, w1, w2, v) == \
                                brute_force_joint_pass(m, n, k, x, y)


def test_exact_moment_helpers():
    m, n, k = 2, 4, 1
    mom = enumerate_ensemble(m, n, k)
    for w in range(n + 1):
        assert avg_weight_exact(m, n, k, w) == mom.e_aw[w]
    for w1 in range(1, n + 1):
        for w2 in range(1, n + 1):
            assert second_moment_weight_exact(m, n, k, w1, w2) == \
                mom.e_awaw[w1][w2]
            assert cov_weight_exact(m, n, k, w1, w2) == mom.cov[w1][w2]


def test_verify_small_cases():
    assert verify_closed_forms(2, 2, 1)["status"] == "PASS"
    rep = verify_closed_forms(3, 4, 2)
    assert rep["status"] == "PASS"
    mom = enumerate_ensemble(3, 4, 2)  # random branch, k = n/2
    for w1 in range(1, 5):
        for w2 in range(1, 5):
            if w1 != w2:
                assert mom.cov[w1][w2] == 0


def test_guards():
    with pytest.raises(GuardExceededError):
        enumerate_ensemble(5, 5, 2)
    with pytest.raises(GuardExceededError):
        brute_force_joint_pass(1, 21, 5, BitVector(21, 1), BitVector(21, 3))
    with pytest.raises(ValueError):
        enumerate_ensemble(2, 2, Fraction(3, 2))  # k > n/2


def test_memory_limit_accepts_benchmarked_shapes():
    shapes = [(m, n) for m in range(1, 17) for n in range(1, 17)
              if m * n <= 16] + [(4, 5), (2, 10), (1, 20)]
    assert all(_peak_bytes(m, n) <= _PEAK_BYTES_LIMIT for m, n in shapes)


def test_memory_limit_refuses_before_allocating():
    assert _peak_bytes(3, 8) > _PEAK_BYTES_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceededError):
            enumerate_ensemble(3, 8, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m, n", [(1, 16), (2, 8), (3, 5)])
def test_peak_estimate_tracks_traced_memory(m, n):
    _class_sums_cache.pop((m, n), None)
    tracemalloc.start()
    try:
        _weight_class_sums(m, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.75 * peak <= _peak_bytes(m, n) <= 1.25 * peak
