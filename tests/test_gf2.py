"""Bit-packed GF(2) linear algebra and exact weight distributions."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udestats import BernoulliEnsemble, gf2
from udestats.gf2 import (BitMatrix, BitVector, EnumerationBudgetError,
                          MatrixFormatError, nullspace_basis, pu_from_weights,
                          pu_polynomial, rank, undetected_error_prob,
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
# rank 2 < n - 2: the row-space path, with a dependent third row
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
        assert all((r & v.bits).bit_count() % 2 == 0 for r in h.rows)
    assert len(nullspace_basis(h)) == h.n - rank(h)


def test_enumeration_budget(monkeypatch):
    # rank 12 of n = 24: 2^12 codewords and 2^12 row-space words
    h = BitMatrix(12, 24, tuple((1 << i) | (1 << (12 + i))
                                for i in range(12)))
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
    monkeypatch.setattr(gf2, "_weight_histogram",
                        lambda basis, n: [1, 3] + [0] * (n - 1))
    with pytest.raises(ArithmeticError):
        weight_distribution(BitMatrix.from_strings(["11000", "00100"]))


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
        rows, pivots = gf2._reduced_echelon(list(h.rows), h.n)
        r = len(pivots)
        b = _row_space_weights(rows[:r], h.n)
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

    def spy(basis, n):
        sizes.append(len(basis))
        return real(basis, n)
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
    # rank 5 of n = 14 with 4 zero columns: 2^5 words on either side
    h = BitMatrix(5, 14, tuple((1 << i) | (1 << (5 + i)) for i in range(5)))
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
    assert gf2._weight_histogram(basis, n) == _row_space_weights(basis, n)


def test_weight_histogram_weights_past_uint16():
    # the all-ones word of n = 70000 sums 1094 words' popcounts to 70000,
    # which wraps in 16 bits; MacWilliams divisibility cannot catch that
    n = 70000
    basis = [(1 << n) - 1]
    counts = gf2._weight_histogram(basis, n)
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
    rows, pivots = gf2._reduced_echelon(list(h.rows), n)
    b = _row_space_weights(rows[:len(pivots)], n)
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


def test_bitvector_basics():
    v = BitVector.from_string("0110")
    assert v.weight == 2
    assert BitVector.from_string("1000").bits == 1
    with pytest.raises(MatrixFormatError):
        BitVector.from_string("01x0")
    with pytest.raises(ValueError):
        BitVector(2, 5)


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
