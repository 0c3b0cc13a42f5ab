"""Exhaustive exact-rational oracle."""

import ast
import math
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import udestats.oracle as oracle
from udestats.oracle import (EnsembleMoments, GuardExceededError,
                             _column_classes, _plan, _weight_class_sums,
                             enumerate_ensemble, verify_closed_forms)
from udestats.rational import RationalPoly

from references import (avg_weight_exact, bernstein, brute_force_joint_pass,
                        cov_weight_exact, joint_pass_prob_exact, matrix_probs,
                        second_moment_weight_exact, var_pu_row_states)


def test_worked_example_exact():
    mom = enumerate_ensemble(1, 2, Fraction(1, 2))
    assert matrix_probs(1, 2, Fraction(1, 2)) == (
        Fraction(9, 16), Fraction(3, 16), Fraction(3, 16), Fraction(1, 16))
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
        assert sum(matrix_probs(m, n, k)) == 1
        # A_0 = 1 for every matrix, so E[A_0] is their total probability.
        assert enumerate_ensemble(m, n, k).e_aw[0] == 1


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


# The per-matrix enumeration the multiset oracle replaced, kept as its
# reference: every one of the 2^(mn) matrices, by its id t (row i in bits
# [n i, n (i + 1))), checked against every word.

def _single_row_counts(n):
    """A[t, w] at m = 1 from one row per weight: column permutations
    preserve all Hamming weights."""
    xs = np.arange(1 << n, dtype=np.uint32)
    wt_x = np.bitwise_count(xs)
    wt_h = wt_x.astype(np.int64)
    rep = np.zeros((n + 1, n + 1), dtype=np.int64)
    for wt in range(n + 1):
        valid = (np.bitwise_count(xs & np.uint32((1 << wt) - 1)) & 1) == 0
        rep[wt] = np.bincount(wt_x[valid], minlength=n + 1)[:n + 1]
    return rep[wt_h], wt_h


def _per_matrix_counts(m, n):
    """A[t, w] = A_w of matrix t, and the ones count of each matrix."""
    ids = np.arange(1 << (m * n), dtype=np.uint64)
    rows = [((ids >> np.uint64(n * i)) & np.uint64((1 << n) - 1))
            .astype(np.uint32) for i in range(m)]
    wt_h = sum(np.bitwise_count(r).astype(np.int64) for r in rows)
    xs = np.arange(1 << n, dtype=np.uint32)
    wt_x = np.bitwise_count(xs)
    counts = np.zeros((len(ids), n + 1), dtype=np.int64)
    for start in range(0, 1 << n, 64):
        xb = xs[start:start + 64]
        valid = np.ones((len(ids), len(xb)), dtype=bool)
        for r in rows:
            valid &= (np.bitwise_count(r[:, None] & xb[None, :]) & 1) == 0
        wb = wt_x[start:start + 64]
        for w in np.unique(wb):
            counts[:, w] += valid[:, wb == w].sum(axis=1)
    return counts, wt_h


def _reference_class_sums(m, n):
    counts, wt_h = (_single_row_counts(n) if m == 1
                    else _per_matrix_counts(m, n))
    s1 = np.zeros((m * n + 1, n + 1), dtype=np.int64)
    s2 = np.zeros((m * n + 1, n + 1, n + 1), dtype=np.int64)
    for wt in range(m * n + 1):
        sel = counts[wt_h == wt]
        s1[wt] = sel.sum(axis=0)
        s2[wt] = sel.T @ sel
    return s1, s2


SMALL_SHAPES = [(m, n) for m in range(1, 17) for n in range(1, 17)
                if m * n <= 16]
# The four enumerations, (by_rows, row_space): column or row multisets,
# each checked by a parity check of all 2^n words or by its 2^m row-space
# words.
PLANS = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_class_sums_match_per_matrix_reference(m, n, monkeypatch):
    # Small blocks, so most shapes span several, the last one partial.
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 1 << 10)
    r1, r2 = _reference_class_sums(m, n)
    # Each enumeration forced, where it checks at most 2^22 words: that
    # leaves out 1x12 to 1x16 and 2x8 by rows and parity checks, and
    # 12x1 to 16x1 and 8x2 by columns and row spaces.
    for by_rows, row_space in PLANS:
        bits, k = (n, m) if by_rows else (m, n)
        if oracle._multisets(bits, k) << (m if row_space else n) > 1 << 22:
            continue
        monkeypatch.setattr(oracle, "_plan",
                            lambda m, n: (by_rows, row_space))
        s2 = _weight_class_sums(m, n)
        assert s2.dtype == np.int64
        assert np.array_equal(s2[:, 0], r1), (by_rows, row_space)
        assert np.array_equal(s2, r2), (by_rows, row_space)


def test_row_space_remainder_is_checked(monkeypatch):
    # K_0(0; n) off by one leaves 2^m A_0 + B'_0, and B'_0 = 1 for a full
    # rank matrix: an ArithmeticError, under python -O too.
    kraw = oracle._krawtchouk

    def off_by_one(n):
        k = kraw(n)
        k[0, 0] += 1
        return k

    monkeypatch.setattr(oracle, "_krawtchouk", off_by_one)
    assert _plan(2, 4) == (False, True)
    with pytest.raises(ArithmeticError):
        _weight_class_sums(2, 4)


def test_each_report_enumerates(monkeypatch):
    # The oracle keeps no state: a second report at the same shape, at
    # another k, enumerates the classes again.
    calls = []
    classes = oracle._column_classes
    monkeypatch.setattr(oracle, "_column_classes",
                        lambda m, n: calls.append((m, n)) or classes(m, n))
    for k in (1, 2):
        assert verify_closed_forms(2, 4, k)["status"] == "PASS"
    assert len(calls) == 2


# 64x1 and 32x2 are the tallest shapes the int64 guard lets through with
# one and two columns; at 64x1, C(63, 31) * 64 > 2^63.
@pytest.mark.parametrize("m, n", [(3, 8), (2, 16), (5, 5), (6, 4), (64, 1),
                                  (32, 2)])
def test_multiplicities_count_every_matrix(m, n):
    by_rows, _ = _plan(m, n)
    assert by_rows == (m > n)
    bits, k = (n, m) if by_rows else (m, n)
    classes, mult = _column_classes(bits, k)
    assert len(classes) == math.comb((1 << bits) + k - 1, k)
    assert (np.diff(classes.astype(np.int64), axis=1) >= 0).all()
    assert sum(map(int, mult)) == 1 << (m * n)
    s2 = _weight_class_sums(m, n)
    # A_0 = 1: row t counts the C(mn, t) matrices with t ones, and the
    # rows sum to 2^(mn)
    assert [int(v) for v in s2[:, 0, 0]] == [math.comb(m * n, t)
                                             for t in range(m * n + 1)]
    # At p = 1/2 every matrix is equally likely: E[A_w] = C(n, w) / 2^m.
    mom = enumerate_ensemble(m, n, Fraction(n, 2))
    assert mom.e_aw == (1,) + tuple(Fraction(math.comb(n, w), 2 ** m)
                                    for w in range(1, n + 1))


def test_brute_force_joint_pass_identities():
    k = Fraction(3, 2)
    m, n = 2, 6
    z = 1 - 2 * k / n
    # x = y: single parity event at weight w
    x = 0b001011  # coordinates 0, 1 and 3
    assert brute_force_joint_pass(m, n, k, x, x) == \
        (Fraction(1 + z ** 3, 2)) ** m
    # disjoint supports factorize
    y = 0b110100  # coordinates 2, 4 and 5
    single = Fraction(1 + z ** 3, 2)
    assert brute_force_joint_pass(m, n, k, x, y) == (single * single) ** m


def test_brute_force_joint_pass_example():
    got = brute_force_joint_pass(1, 2, Fraction(1, 2), 0b01, 0b11)
    assert got == Fraction(9, 16)


def test_joint_pass_exact_matches_brute_force():
    for m in (1, 2, 3):
        for n in (2, 4, 6):
            for k in (Fraction(n, 4), Fraction(n, 2)):
                for w1 in range(n + 1):
                    for w2 in range(w1, n + 1):
                        x = (1 << w1) - 1
                        for v in range(max(0, w1 + w2 - n),
                                       min(w1, w2) + 1):
                            ybits = (((1 << v) - 1)
                                     | (((1 << (w2 - v)) - 1) << w1))
                            assert joint_pass_prob_exact(
                                m, n, k, w1, w2, v) == \
                                brute_force_joint_pass(m, n, k, x, ybits)


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


def test_guards(monkeypatch):
    # Each is refused before it enumerates: 2x20 (1,771 column multisets)
    # and 33x2 by the int64 bound alone, 5x6 by its 2^21.1 column and
    # 2^23.3 row multisets, 65x1 by its 65-bit column.
    monkeypatch.setattr(oracle, "_column_classes", None)
    for m, n, k in [(2, 20, 1), (33, 2, 1), (5, 6, 1), (65, 1, 0.5)]:
        with pytest.raises(GuardExceededError):
            enumerate_ensemble(m, n, k)
    with pytest.raises(GuardExceededError):
        brute_force_joint_pass(1, 21, 5, 1, 3)
    with pytest.raises(ValueError):
        enumerate_ensemble(2, 2, Fraction(3, 2))  # k > n/2


def test_shape_is_checked_first(monkeypatch):
    # Neither the digit bound, whose b^2mn is huge at 3000x3000, nor the
    # enumeration runs for a shape the budget refuses.
    def reached(*args):
        raise AssertionError("reached past the shape check")
    monkeypatch.setattr(oracle, "_var_pu_denominator_bound", reached)
    monkeypatch.setattr(oracle, "_weight_class_sums", reached)
    for m, n in [(30, 1024), (100, 128), (3000, 3000)]:
        with pytest.raises(GuardExceededError, match="oracle's budget"):
            verify_closed_forms(m, n, 1)
    for m, n in [(-1, 2), (0, 4)]:
        for run in (verify_closed_forms, enumerate_ensemble):
            with pytest.raises(ValueError, match="m and n must be >= 1"):
                run(m, n, 1)


@pytest.mark.parametrize("m, n, k", [(1, 2, Fraction(2, 3 ** 2250)),
                                     (2, 3, Fraction("1e-320"))])
def test_subnormal_density_is_refused_before_enumerating(monkeypatch, m, n,
                                                         k):
    # A positive k whose float underflows, or whose float p = k/n is
    # subnormal, is refused by the analytic side's ensemble with the
    # bound, before the numerators.  The exact enumeration takes it.
    def reached(*args):
        raise AssertionError("enumerated")
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_numerators", reached)
        with pytest.raises(ValueError, match=r"p = k/n >= 2\^-1022"):
            verify_closed_forms(m, n, k)
    assert enumerate_ensemble(m, n, k).e_aw[1] == avg_weight_exact(m, n, k, 1)


@pytest.mark.parametrize("m, n", [(1, 16), (2, 8)])
def test_digit_limit_is_checked_on_printed_integers(m, n):
    # b = 3^281 is coprime to 10, so the up-front bound on Var[P_U]'s
    # denominator stays under the limit; its 10^2n factor does not.
    k = Fraction(n, 3 ** 281)
    bound = oracle._var_pu_denominator_bound(m, n, 3 ** 281)
    assert len(str(bound)) <= sys.get_int_max_str_digits()
    with pytest.raises(GuardExceededError, match="int-to-str"):
        verify_closed_forms(m, n, k)


@pytest.mark.parametrize("m, n, k", [(1, 4, Fraction(4, 243)),
                                     (2, 3, Fraction(1)), (3, 2, 0.5),
                                     (2, 4, Fraction(4, 3)),
                                     (4, 3, Fraction(6, 5))])
def test_var_pu_row_states_is_the_enumerated_variance(m, n, k):
    report = verify_closed_forms(m, n, k)
    for check in report["checks"]:
        if check["name"].startswith("var_pu"):
            eps = Fraction(check["name"][len("var_pu[eps="):-1])
            assert (var_pu_row_states(m, n, Fraction(k), eps)
                    == Fraction(check["oracle_value"]))


def test_oracle_imports_nothing_from_gf2():
    # The oracle adjudicates gf2's enumerators, so it shares no code with
    # them.
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            names = {a.name for a in node.names}
            assert source not in (".gf2", "udestats.gf2"), source
            assert not (source in (".", "udestats") and "gf2" in names)
        elif isinstance(node, ast.Import):
            assert all(not a.name.startswith("udestats.gf2")
                       for a in node.names)


def test_package_has_no_assert_statements():
    # python -O compiles asserts out, so every cross-check in the package
    # raises explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(oracle.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_memory_limit_refuses_before_allocating():
    tracemalloc.start()
    try:
        for m, n in [(2, 20), (5, 6), (65, 1), (10 ** 9, 10 ** 9)]:
            with pytest.raises(GuardExceededError):
                enumerate_ensemble(m, n, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("m, n", [(4, 5), (2, 16), (1, 20), (16, 1), (3, 12)])
def test_class_sums_memory_is_bounded(m, n):
    tracemalloc.start()
    try:
        _weight_class_sums(m, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


@pytest.mark.parametrize("m, n", [(3, 8), (4, 6), (2, 16), (5, 5), (20, 1),
                                  (11, 2), (1, 22), (3, 12)])
def test_verify_beyond_small_shapes(m, n):
    for k in (Fraction(n, 4), Fraction(n, 2)):
        rep = verify_closed_forms(m, n, k)
        assert rep["status"] == "PASS", (k, rep["max_rel_err"])
        assert rep["max_rel_err"] < 1e-13, k


@pytest.mark.parametrize("m, n", SMALL_SHAPES)
def test_report_values_are_enumerate_ensembles_fractions(m, n):
    # The report reads the integer numerators; every printed value must be
    # the Fraction enumerate_ensemble gives, and P_U's its polynomials'
    # values.  k = n/4 at 1x2 is the published example.
    for k in (Fraction(n, 4), Fraction(n, 2)):
        mom = enumerate_ensemble(m, n, k)
        want = {f"avg_weight[{w}]": mom.e_aw[w] for w in range(n + 1)}
        for w1 in range(1, n + 1):
            for w2 in range(w1, n + 1):
                want[f"second_moment[{w1},{w2}]"] = mom.e_awaw[w1][w2]
                want[f"cov[{w1},{w2}]"] = mom.cov[w1][w2]
        for eps in oracle._EPS_POINTS:
            want[f"avg_pu[eps={eps}]"] = mom.e_pu(eps)
            want[f"var_pu[eps={eps}]"] = mom.var_pu(eps)
        if (m, n, k) == (1, 2, Fraction(1, 2)):
            want["e_pu_eps1_coeff"] = mom.e_pu[1]
            want["e_pu2_eps3_coeff"] = mom.e_pu2[3]
        checks = verify_closed_forms(m, n, k)["checks"]
        assert [c["name"] for c in checks] == list(want), k
        for c in checks:
            assert c["oracle_value"] == str(want[c["name"]]), (k, c["name"])


def test_verify_memory_is_bounded():
    # A report at 1x22, the widest verified shape; the peak before
    # the report read the numerators directly was 0.56 MiB.
    tracemalloc.start()
    try:
        verify_closed_forms(1, 22, Fraction(11, 2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("k", ["1e-9", "1e-12"])
def test_verify_at_small_k(k):
    # z = 1 - 2p must not be rounded before 1 - z^(2v) is formed from it.
    rep = verify_closed_forms(2, 3, Fraction(k))
    assert rep["status"] == "PASS", rep["max_rel_err"]


# The Fraction-loop moment algebra that the integer numerators replaced,
# kept as their reference: P(H) = p^wt (1-p)^(mn-wt) as Fractions, each
# moment a sum over wt, and the polynomials from Bernstein terms.

def _bernstein_sum(counts, n):
    acc = RationalPoly()
    for w in range(1, n + 1):
        if counts[w]:
            acc = acc + bernstein(w, n) * counts[w]
    return acc


def _product(a, b):
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return RationalPoly(out)


def _reference_moments(m, n, k):
    mn, p = m * n, k / n
    s2 = _weight_class_sums(m, n)
    s1 = s2[:, 0]
    prob_wt = [p ** wt * (1 - p) ** (mn - wt) for wt in range(mn + 1)]
    e_aw = [sum(prob_wt[wt] * int(s1[wt, w]) for wt in range(mn + 1))
            for w in range(n + 1)]
    e_awaw = [[sum(prob_wt[wt] * int(s2[wt, w1, w2]) for wt in range(mn + 1))
               for w2 in range(n + 1)] for w1 in range(n + 1)]
    cov = [[e_awaw[w1][w2] - e_aw[w1] * e_aw[w2] for w2 in range(n + 1)]
           for w1 in range(n + 1)]
    by_total = [Fraction(0)] * (2 * n + 1)
    for w1 in range(1, n + 1):
        for w2 in range(1, n + 1):
            by_total[w1 + w2] += e_awaw[w1][w2]
    e_pu = _bernstein_sum(e_aw, n)
    e_pu2 = _bernstein_sum(by_total, 2 * n)
    return EnsembleMoments(
        m, n, k, tuple(e_aw), tuple(map(tuple, e_awaw)),
        tuple(map(tuple, cov)), e_pu, e_pu2, e_pu2 - _product(e_pu, e_pu))


@pytest.mark.parametrize("m, n", SMALL_SHAPES + [
    (4, 5), (2, 10), (1, 20), (3, 8), (2, 16), (5, 5)])
def test_moments_match_fraction_reference(m, n):
    # n/3 and 3n/10 give p = a/b with a != 1 and b not a power of 2.
    for k in (Fraction(n, 4), Fraction(n, 2), Fraction(n, 3),
              Fraction(3 * n, 10)):
        got, ref = enumerate_ensemble(m, n, k), _reference_moments(m, n, k)
        for f in fields(EnsembleMoments):
            assert getattr(got, f.name) == getattr(ref, f.name), (k, f.name)
