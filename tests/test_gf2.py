"""Bit-packed GF(2) linear algebra and exact weight distributions."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from references import rank
from udestats import BernoulliEnsemble, gf2
from udestats.gf2 import (BitMatrix, EnumerationBudgetError,
                          MatrixFormatError, nullspace_basis, pu_from_weights,
                          pu_polynomial, undetected_error_prob,
                          weight_distribution)
from udestats.montecarlo import sample_matrix, worker_rng


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
    return BitMatrix(m, n, rows)


@st.composite
def sparse_matrices(draw):
    # at most two ones a row, so most matrices have zero columns
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 8))
    rows = tuple(sum({1 << j for j in draw(st.lists(st.integers(0, n - 1),
                                                     max_size=2))})
                 for _ in range(m))
    return BitMatrix(m, n, rows)


def brute_force_weights(h: BitMatrix) -> list:
    counts = [0] * (h.n + 1)
    for x in range(1 << h.n):
        if all((r & x).bit_count() % 2 == 0 for r in h.rows):
            counts[x.bit_count()] += 1
    return counts


def test_single_parity_check_examples():
    # second column only: codewords 00 and 10, one of weight 1
    h = BitMatrix.from_strings(["01"])
    eps = 0.17
    assert math.isclose(undetected_error_prob(h, eps), eps - eps ** 2,
                        rel_tol=1e-15)
    # both columns: codewords 00 and 11
    h = BitMatrix.from_strings(["11"])
    assert math.isclose(undetected_error_prob(h, eps), eps ** 2,
                        rel_tol=1e-15)


def test_zero_matrix_everything_undetected():
    h = BitMatrix(1, 3, (0,))
    eps = 0.3
    assert math.isclose(undetected_error_prob(h, eps), 1 - (1 - eps) ** 3,
                        rel_tol=1e-15)


def test_identity_detects_everything():
    h = BitMatrix(6, 6, tuple(1 << i for i in range(6)))
    assert rank(h) == 6
    assert nullspace_basis(h) == []
    wd = weight_distribution(h)
    assert wd.counts == (1,) + (0,) * 6
    assert undetected_error_prob(h, 0.2) == 0.0


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_total_codewords_vs_rank(h):
    wd = weight_distribution(h)
    assert wd.total() == 1 << (h.n - rank(h))


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_matrices(), sparse_matrices()))
# rank 2 of n = 12, with a dependent third row
@example(BitMatrix.from_strings(["110100101100", "011011000111",
                                 "101111101011"]))
def test_against_direct_enumeration(h):
    assert list(weight_distribution(h).counts) == brute_force_weights(h)


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.floats(min_value=0.01, max_value=0.49))
def test_polynomial_matches_direct_value(h, eps):
    direct = undetected_error_prob(h, eps)
    via_poly = float(pu_polynomial(h)(Fraction(eps)))
    assert math.isclose(via_poly, direct, rel_tol=1e-14, abs_tol=1e-300)


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.floats(min_value=0.01, max_value=0.49))
def test_pu_bounds(h, eps):
    pu = undetected_error_prob(h, eps)
    assert 0.0 <= pu <= 1 - (1 - eps) ** h.n + 1e-15


def test_nullspace_vectors_are_codewords():
    h = BitMatrix.from_strings(["101101", "011010", "110111"])
    for v in nullspace_basis(h):
        assert all((r & v).bit_count() % 2 == 0 for r in h.rows)
    assert len(nullspace_basis(h)) == h.n - rank(h)


def _columns_by_bit(rows, n):
    """Column j of the rows as an int, bit i = row i, one bit at a time."""
    return [sum((x >> j & 1) << i for i, x in enumerate(rows))
            for j in range(n)]


@pytest.mark.parametrize("m", [1, 63, 64, 65, 129])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 200])
def test_packed_columns_is_the_transpose(m, n):
    rng = random.Random(1000 * m + n)
    rows = [rng.getrandbits(n) for _ in range(m)]
    rows[0] |= 1 << (n - 1)  # the last column and byte are in use
    cols = gf2._packed_columns(rows, n)
    assert cols.shape == (n, -(-m // 64)) and cols.dtype == np.uint64
    assert [sum(int(w) << (64 * i) for i, w in enumerate(c)) for c in cols] \
        == _columns_by_bit(rows, n)


def test_column_parts_past_one_word():
    # r = 100 RREF rows take the multi-word int.from_bytes path; no rows
    # give every column the part 0.
    h = sample_matrix(BernoulliEnsemble(100, 230, 20.0), worker_rng(5, 0))
    rows = gf2._reduced_echelon(h.rows)
    assert len(rows) == 100
    assert gf2._column_parts(rows, h.n) == _columns_by_bit(rows, h.n)
    assert gf2._column_parts([], 5) == [0] * 5


def _distinct_columns(m: int) -> BitMatrix:
    """[I_m | A], where column m + i of A is e_i + e_(i+1 mod m): rank m of
    n = 2m, with 2m distinct nonzero columns, so no class merges."""
    return BitMatrix(m, 2 * m, tuple((1 << i) | (1 << (m + i))
                                     | (1 << (m + (i - 1) % m))
                                     for i in range(m)))


def test_enumeration_budget(monkeypatch):
    # rank 12 of n = 24: 2^12 codewords and 2^12 row-space words
    h = _distinct_columns(12)
    assert rank(h) == 12
    monkeypatch.setattr(gf2, "ENUM_BUDGET_LOG2", 10)
    with pytest.raises(EnumerationBudgetError, match=r"budget 2\^10"):
        weight_distribution(h)
    monkeypatch.setattr(gf2, "ENUM_BUDGET_LOG2", 12)
    assert weight_distribution(h).total() == 1 << 12


def test_budget_counts_the_smaller_side(monkeypatch):
    # 2^12 codewords, all from zero columns, and a row space of one word
    monkeypatch.setattr(gf2, "ENUM_BUDGET_LOG2", 10)
    wd = weight_distribution(BitMatrix(1, 12, (0,)))
    assert wd.counts == tuple(math.comb(12, w) for w in range(13))


def test_macwilliams_divisibility_is_checked(monkeypatch):
    # three weight-1 words in a 2-dimensional row space are impossible;
    # such a histogram must not pass silently
    # rank 3 and all 7 nonzero columns: 2^4 codewords, 2^3 row-space words
    hamming = BitMatrix.from_strings(["1010101", "0110011", "0001111"])
    monkeypatch.setattr(gf2, "_weight_histogram",
                        lambda basis, n, tops=0: np.array([[1, 3]
                                                           + [0] * (n - 1)]))
    with pytest.raises(ArithmeticError, match="not divisible"):
        weight_distribution(hamming)


def _row_space_weights(rows, n):
    """B_j by a Gray-code walk over every combination of the rows."""
    b = [0] * (n + 1)
    x = 0
    for step in range(1 << len(rows)):
        if step:
            x ^= rows[(step & -step).bit_length() - 1]
        b[x.bit_count()] += 1
    return b


def test_sparse_matrices_against_macwilliams():
    # B(12, 24, 2): a column is zero with probability (11/12)^12 = 0.35
    ens = BernoulliEnsemble(12, 24, 2.0)
    rng = worker_rng(1224, 0)
    for _ in range(20):
        h = sample_matrix(ens, rng)
        rows = gf2._reduced_echelon(h.rows)
        r = len(rows)
        b = _row_space_weights(rows, h.n)
        a = [sum(bj * sum((-1) ** i * math.comb(j, i)
                          * math.comb(h.n - j, w - i) for i in range(w + 1))
                 for j, bj in enumerate(b)) / Fraction(2 ** r)
             for w in range(h.n + 1)]
        assert list(weight_distribution(h).counts) == a


# Columns 6..9 are zero: rank 4, a 6-dimensional code, of which the 4 unit
# vectors e_6..e_9 are factored out and 2 basis words are enumerated.
_FOUR_ZERO_COLUMNS = BitMatrix(4, 10, (0b010001, 0b100010, 0b110100,
                                       0b011000))


def _spy_histogram(monkeypatch):
    sizes = []
    real = gf2._weight_histogram

    def spy(basis, n, tops=0):
        sizes.append(len(basis))
        return real(basis, n, tops)
    monkeypatch.setattr(gf2, "_weight_histogram", spy)
    return sizes


def test_zero_columns_are_not_enumerated(monkeypatch):
    sizes = _spy_histogram(monkeypatch)
    wd = weight_distribution(_FOUR_ZERO_COLUMNS)
    assert sizes == [2]
    assert list(wd.counts) == brute_force_weights(_FOUR_ZERO_COLUMNS)


def test_budget_counts_the_code_without_zero_columns(monkeypatch):
    # min(r, n - r) = 4 is over a budget of 2^3; min(r, n - r - z0) = 2
    monkeypatch.setattr(gf2, "ENUM_BUDGET_LOG2", 3)
    assert (list(weight_distribution(_FOUR_ZERO_COLUMNS).counts)
            == brute_force_weights(_FOUR_ZERO_COLUMNS))
    # rank 5 of n = 14 with 4 zero columns and 10 distinct others: 2^5
    # words on either side
    h = BitMatrix(5, 14, _distinct_columns(5).rows)
    sizes = _spy_histogram(monkeypatch)
    with pytest.raises(EnumerationBudgetError,
                       match=r"2\^5 codewords \(with the 4 zero columns"):
        weight_distribution(h)
    assert sizes == []


# d > 16 walks past the low block; n = 65 and 255 have byte weights over
# several words, n = 256 and 300 uint16 weights, d = 0 a single word.
@pytest.mark.parametrize("n, d", [(40, 0), (40, 1), (40, 17), (40, 20),
                                  (65, 17), (255, 17), (256, 17), (300, 17)])
def test_weight_histogram_replays_the_gray_walk(n, d):
    rnd = random.Random(1000 * n + d)
    basis = [rnd.getrandbits(n) for _ in range(d)]
    assert (gf2._weight_histogram(basis, n)[0].tolist()
            == _row_space_weights(basis, n))


def test_weight_histogram_weights_past_uint16():
    # the all-ones word of n = 70000 sums 1094 words' popcounts to 70000,
    # which wraps in 16 bits; MacWilliams divisibility cannot catch that
    n = 70000
    basis = [(1 << n) - 1]
    counts = gf2._weight_histogram(basis, n)[0].tolist()
    assert counts == _row_space_weights(basis, n)
    assert counts[n] == 1


def test_weight_histogram_temporaries_are_bounded():
    # d = 20, n = 40: one 512 KB block, byte popcounts and paired keys
    rnd = random.Random(2040)
    basis = [rnd.getrandbits(40) for _ in range(20)]
    tracemalloc.start()
    try:
        gf2._weight_histogram(basis, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2 ** 20


@pytest.mark.parametrize("m, n", [(20, 200), (2, 1100)])
def test_high_rate_shape_beyond_codeword_budget(m, n):
    # n > 64 and 2^(n - m) codewords: only the row space can be enumerated.
    # At n = 1100 the counts A_w pass the float range.
    rnd = random.Random(2024)
    h = BitMatrix(m, n, tuple(rnd.getrandbits(n) for _ in range(m)))
    r = rank(h)
    wd = weight_distribution(h)
    assert wd.counts[0] == 1 and wd.total() == 1 << (n - r)
    b = _row_space_weights(gf2._reduced_echelon(h.rows), n)
    eps = Fraction(1, 20)
    exact = (sum(bj * (1 - 2 * eps) ** j for j, bj in enumerate(b)) / 2 ** r
             - (1 - eps) ** n)
    assert math.isclose(pu_from_weights(wd.counts, n, float(eps)),
                        float(exact), rel_tol=1e-12)


def test_eps_domain():
    h = BitMatrix(2, 2, (1, 2))
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError):
            undetected_error_prob(h, bad)


def test_text_roundtrip():
    h = BitMatrix.from_strings(["10110", "01011"])
    assert BitMatrix.parse_text("2 5\n10110\n01011\n") == h


@pytest.mark.parametrize("text", [
    "",
    "2\n10\n01\n",
    "a b\n10\n01\n",
    "2 2\n10\n",
    "2 2\n101\n010\n",
    "2 2\n10\n01\n11\n",
    "1 2\n1x\n",
    "0 2\n",
])
def test_malformed_text_rejected(text):
    with pytest.raises(MatrixFormatError):
        BitMatrix.parse_text(text)


def test_trailing_blank_lines_ok():
    h = BitMatrix.parse_text("1 2\n10\n\n  \n")
    assert h.rows == (1,)


def test_large_n_histogram_path():
    # n > 64 exercises the multi-word packing in the enumerator
    n = 70
    rows = [1 << i for i in range(60)] + [(1 << n) - 1]
    h = BitMatrix(len(rows), n, tuple(rows))
    wd = weight_distribution(h)
    # free coordinates 60..69 constrained to even parity among themselves
    assert wd.total() == 1 << 9
    assert all(wd.counts[w] == (math.comb(10, w) if w % 2 == 0 else 0)
               for w in range(n + 1) if w <= 10)
    assert sum(wd.counts[11:]) == 0


def _matrix_of_columns(m: int, cols: list[int]) -> BitMatrix:
    return BitMatrix(m, len(cols), tuple(sum((c >> i & 1) << j
                                             for j, c in enumerate(cols))
                                         for i in range(m)))


@st.composite
def equal_column_matrices(draw):
    # columns drawn from a pool of at most six, so most matrices have
    # classes of equal columns, pivot and free ones alike
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 14))
    pool = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1,
                         max_size=6))
    return _matrix_of_columns(m, [draw(st.sampled_from(pool))
                                  for _ in range(n)])


def _row_space_counts(h: BitMatrix) -> list:
    """A_w by the row-space side, whichever side weight_distribution takes."""
    rows = gf2._reduced_echelon(h.rows)
    return gf2._macwilliams(gf2._weight_histogram(rows, h.n)[0].tolist(), h.n,
                            len(rows))


# Pivots e_0, e_1, e_2; free classes q1 = e_0 + e_1 and q2 = e_0 + e_2 of
# three columns each; and a second copy of e_0, so the pivot class of row
# 0 has two columns.  Once q1 and q2 own their bits, the bit of that
# pivot class is the parity of both.
_PARITY_CLASS = _matrix_of_columns(3, [1, 2, 4, 3, 3, 3, 5, 5, 5, 1])


# run_log2 0 lets a class take a top Gray bit while the code has a
# dimension left for it, so small codes get top Gray bits; a low block of 2 words splits each run into steps.
# With 2^13 words a run, small codes merge no class that needs a top bit,
# and many take the row space.
@pytest.mark.parametrize("run_log2, low_block", [(13, 16), (0, 16), (0, 1)])
@settings(max_examples=60, deadline=None)
@given(h=equal_column_matrices())
@example(h=_PARITY_CLASS)
def test_equal_columns_against_direct_enumeration(run_log2, low_block, h):
    want = brute_force_weights(h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_RUN_WORDS_LOG2", run_log2)
        mp.setattr(gf2, "_LOW_BLOCK_LOG2", low_block)
        assert list(weight_distribution(h).counts) == want
    assert _row_space_counts(h) == want


def _plan(h: BitMatrix):
    rows = gf2._reduced_echelon(h.rows)
    return gf2._merged_code(gf2._column_parts(rows, h.n), len(rows))


def test_a_pivot_class_bit_can_be_a_parity_of_owned_bits(monkeypatch):
    monkeypatch.setattr(gf2, "_RUN_WORDS_LOG2", 0)
    basis, tops, merged = _plan(_PARITY_CLASS)
    assert tops == 2 and len(basis) == 2
    assert sorted(merged) == [(2, 0b11), (3, 0b01), (3, 0b10)]
    want = brute_force_weights(_PARITY_CLASS)
    assert list(weight_distribution(_PARITY_CLASS).counts) == want
    assert _row_space_counts(_PARITY_CLASS) == want


def test_classes_that_would_split_runs_stay_unmerged():
    # with 2^13 words per run, this code, of dimension 2 once merged,
    # takes no top Gray bit: the two free classes keep their columns, and
    # the pivot class, whose bit is not a parity of owned bits, does too
    basis, tops, merged = _plan(_PARITY_CLASS)
    assert tops == 0 and merged == [] and len(basis) == 7
    assert (list(weight_distribution(_PARITY_CLASS).counts)
            == brute_force_weights(_PARITY_CLASS))


# [I_20 | 16 copies each of e_j + e_(j+1 mod 20)]: 20 free classes of 16
# columns, a merged code of dimension 20 = r
_LARGE_CLASSES = _matrix_of_columns(
    20, [1 << j for j in range(20)]
    + [(1 << j) | (1 << (j + 1) % 20) for j in range(20) for _ in range(16)])


def test_top_gray_bits_keep_long_runs():
    # merging every class would leave 2^20 Gray runs of one word each; the
    # plan stops at runs of 2^13 words and at 2^10 runs, so 2^(20 - 7)
    # words a run until an unmerged class raises the dimension
    basis, tops, _ = _plan(_LARGE_CLASSES)
    assert 0 < tops <= gf2._MAX_TOPS
    assert len(basis) - tops >= gf2._RUN_WORDS_LOG2


def test_large_classes_take_the_row_space(monkeypatch):
    # the merged code with long runs is larger than the row space, so the
    # 2^20 row-space words are enumerated in one run, in a few MB
    sizes = _spy_histogram(monkeypatch)
    tracemalloc.start()
    try:
        counts = weight_distribution(_LARGE_CLASSES).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [20]
    assert peak < 16 * 2 ** 20
    # A_2: two columns of one class; A_3: e_j + e_(j+1) and a column of
    # class j
    assert counts[:4] == (1, 0, 20 * math.comb(16, 2), 20 * 16)


def test_large_classes_take_top_bits_on_the_code_side():
    # rank 20 with 16 distinct free columns, three of them 30 times: the
    # three classes take the 3 top bits that leave 2^13 words a run
    cols = ([1 << j for j in range(20)]
            + [(1 << j) | (1 << (j + 1)) for j in range(16)]
            + [(1 << j) | (1 << (j + 1)) for j in range(3) for _ in range(29)])
    h = _matrix_of_columns(20, cols)
    basis, tops, merged = _plan(h)
    assert (len(basis), tops, len(merged)) == (16, 3, 3)
    assert list(weight_distribution(h).counts) == _row_space_counts(h)


def _distinct_nonzero_columns(h: BitMatrix) -> int:
    cols = {sum((row >> c & 1) << i for i, row in enumerate(h.rows))
            for c in range(h.n)}
    return len(cols - {0})


def test_sparse_matrix_enumerates_the_merged_code(monkeypatch):
    # the first B(20, 40, 5) matrix of seed 1: rank 20, 2 zero columns,
    # 36 distinct nonzero columns, so 2^16 words instead of 2^18
    h = sample_matrix(BernoulliEnsemble(20, 40, 5.0), worker_rng(1, 0))
    r = rank(h)
    assert (r, _distinct_nonzero_columns(h)) == (20, 36)
    sizes = _spy_histogram(monkeypatch)
    counts = weight_distribution(h).counts
    assert sizes == [36 - r]
    assert list(counts) == _row_space_counts(h)


@pytest.mark.parametrize("ens, seed, merged, classes", [
    (BernoulliEnsemble(20, 40, 5.0), 2, 3, 4),
    (BernoulliEnsemble(24, 48, 3.0), 18, 3, 5),
])
def test_more_classes_than_get_merged(ens, seed, merged, classes):
    h = sample_matrix(ens, worker_rng(seed, 0))
    rows = gf2._reduced_echelon(h.rows)
    parts = gf2._column_parts(rows, h.n)
    assert sum(1 for q in set(parts) - {0} if parts.count(q) > 1) == classes
    assert len(gf2._merged_code(parts, len(rows))[2]) == merged
    assert list(weight_distribution(h).counts) == _row_space_counts(h)


# 70 rows take parts of two 64-bit words
@pytest.mark.parametrize("m", [29, 70])
def test_paired_columns_leave_the_zero_code(monkeypatch, m):
    # rows e_i + e_(m+i): every column has a twin, so the merged code is
    # {0}, nothing is enumerated past one word, and A(z) = (1 + z^2)^m
    h = BitMatrix(m, 2 * m, tuple((1 << i) | (1 << (m + i))
                                  for i in range(m)))
    sizes = _spy_histogram(monkeypatch)
    counts = weight_distribution(h).counts
    assert sizes == [0]
    assert counts == tuple(math.comb(m, w // 2) if w % 2 == 0 else 0
                           for w in range(2 * m + 1))
    assert nullspace_basis(h) == [(1 << i) | (1 << (m + i)) for i in range(m)]


def test_every_gray_run_is_checked(monkeypatch):
    # a run that holds one word too many must not pass silently
    real = gf2._weight_histogram

    def miscounted(basis, n, tops=0):
        hist = real(basis, n, tops)
        hist[-1, 0] += 1
        hist[0, 0] -= 1
        return hist
    monkeypatch.setattr(gf2, "_RUN_WORDS_LOG2", 0)
    monkeypatch.setattr(gf2, "_weight_histogram", miscounted)
    with pytest.raises(ArithmeticError, match="Gray run"):
        weight_distribution(_PARITY_CLASS)


def _coset_weights(rows, shift, n):
    """Weight counts of shift + every combination of the rows."""
    b = [0] * (n + 1)
    x = shift
    for step in range(1 << len(rows)):
        if step:
            x ^= rows[(step & -step).bit_length() - 1]
        b[x.bit_count()] += 1
    return b


# (18, 2) folds a run of one 2^16 step, (19, 1) a run of two; a low block
# of 2 words takes the unpaired path; (6, 6) has no low words at all.
@pytest.mark.parametrize("d, tops, low_block", [(5, 2, 16), (5, 2, 1),
                                                (18, 2, 16), (19, 1, 16),
                                                (6, 6, 16)])
def test_weight_histogram_rows_by_top_words(monkeypatch, d, tops, low_block):
    monkeypatch.setattr(gf2, "_LOW_BLOCK_LOG2", low_block)
    rnd = random.Random(100 * d + tops)
    basis = [rnd.getrandbits(40) for _ in range(d)]
    hist = gf2._weight_histogram(basis, 40, tops)
    assert hist.shape == (1 << tops, 41)
    top_words = basis[d - tops:]
    for t in range(1 << tops):
        shift = 0
        for i, w in enumerate(top_words):
            if t >> i & 1:
                shift ^= w
        assert hist[t].tolist() == _coset_weights(basis[:d - tops], shift, 40)
