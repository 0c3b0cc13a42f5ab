"""Bit-packed GF(2) linear algebra and exact weight distributions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udestats import gf2
from udestats.gf2 import (BitMatrix, BitVector, EnumerationBudgetError,
                          MatrixFormatError, nullspace_basis, pu_from_weights,
                          pu_polynomial, rank, undetected_error_prob,
                          weight_distribution)


@st.composite
def small_matrices(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(m))
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
    h = BitMatrix.zero(1, 3)
    eps = 0.3
    assert math.isclose(undetected_error_prob(h, eps), 1 - (1 - eps) ** 3,
                        rel_tol=1e-15)


def test_identity_detects_everything():
    h = BitMatrix.identity(6)
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


@settings(max_examples=60, deadline=None)
@given(small_matrices())
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
        assert h.mul_vector(v) == 0
    assert len(nullspace_basis(h)) == h.n - rank(h)


def test_enumeration_budget():
    # rank 12 of n = 24: 2^12 codewords and 2^12 row-space words
    h = BitMatrix.from_rows([(1 << i) | (1 << (12 + i)) for i in range(12)],
                            24)
    assert rank(h) == 12
    with pytest.raises(EnumerationBudgetError):
        weight_distribution(h, budget_log2=10)
    assert weight_distribution(h, budget_log2=12).total() == 1 << 12


def test_budget_counts_the_smaller_side():
    # 2^12 codewords, but a row space of one word
    wd = weight_distribution(BitMatrix.zero(1, 12), budget_log2=10)
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


@pytest.mark.parametrize("m, n", [(20, 200), (2, 1100)])
def test_high_rate_shape_beyond_codeword_budget(m, n):
    # n > 64 and 2^(n - m) codewords: only the row space can be enumerated.
    # At n = 1100 the counts A_w pass the float range.
    rnd = random.Random(2024)
    h = BitMatrix.from_rows([rnd.getrandbits(n) for _ in range(m)], n)
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
    h = BitMatrix.identity(2)
    for bad in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError):
            undetected_error_prob(h, bad)


def test_bitvector_basics():
    v = BitVector.from_string("0110")
    assert v.weight == 2
    assert v.to_string() == "0110"
    with pytest.raises(MatrixFormatError):
        BitVector.from_string("01x0")
    with pytest.raises(ValueError):
        BitVector(2, 5)


def test_text_roundtrip():
    h = BitMatrix.from_strings(["10110", "01011"])
    assert BitMatrix.parse_text(h.to_text()) == h


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
    h = BitMatrix.from_rows(rows, n)
    wd = weight_distribution(h)
    # free coordinates 60..69 constrained to even parity among themselves
    assert wd.total() == 1 << 9
    assert all(wd.counts[w] == (math.comb(10, w) if w % 2 == 0 else 0)
               for w in range(n + 1) if w <= 10)
    assert sum(wd.counts[11:]) == 0
