"""Exact rational polynomials in the crossover probability."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udestats.rational import RationalPoly, poly_from_weight_counts

from references import bernstein

coeff_lists = st.lists(st.fractions(min_value=-10, max_value=10,
                                    max_denominator=64), max_size=8)
# Ints and Fractions whose denominators differ, as weight counts mix them.
mixed_lists = st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                                 st.fractions(max_denominator=10 ** 6)),
                       max_size=12)


# Naive Fraction references for the integer-numerator products.

def _naive_product(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return RationalPoly(out)


def _naive_weight_poly(counts, n):
    acc = RationalPoly()
    for w in range(1, n + 1):
        acc = acc + bernstein(w, n) * counts[w]
    return acc


def test_zero_and_trim():
    assert RationalPoly().degree == -1
    assert RationalPoly([1, 2, 0, 0]).degree == 1
    assert RationalPoly([0]) == RationalPoly()


@given(st.integers(0, 10), st.integers(0, 10))
def test_bernstein_evaluation(n, w):
    if w > n:
        with pytest.raises(ValueError):
            bernstein(w, n)
        return
    p = bernstein(w, n)
    e = Fraction(1, 7)
    assert p(e) == e ** w * (1 - e) ** (n - w)


def test_bernstein_partition_of_unity():
    n = 9
    total = RationalPoly()
    for w in range(n + 1):
        total = total + bernstein(w, n) * math.comb(n, w)
    assert total == RationalPoly([1])


@given(coeff_lists, coeff_lists)
def test_ring_ops_match_pointwise(a, b):
    pa, pb = RationalPoly(a), RationalPoly(b)
    e = Fraction(2, 5)
    assert (pa + pb)(e) == pa(e) + pb(e)
    assert (pa - pb)(e) == pa(e) - pb(e)
    assert (pa * pb)(e) == pa(e) * pb(e)
    assert (3 * pa)(e) == 3 * pa(e)


@given(mixed_lists, mixed_lists)
def test_product_matches_naive(a, b):
    assert RationalPoly(a) * RationalPoly(b) == _naive_product(a, b)


@given(mixed_lists.filter(len))
def test_weight_poly_matches_naive(counts):
    n = len(counts) - 1
    assert poly_from_weight_counts(counts, n) == _naive_weight_poly(counts, n)


@given(coeff_lists)
def test_eq_and_hash(a):
    p, q = RationalPoly(a), RationalPoly(a)
    assert p == q and hash(p) == hash(q)


def test_float_evaluation():
    p = RationalPoly([0, Fraction(3, 2), Fraction(-7, 8)])
    assert math.isclose(p(0.1), 3 / 2 * 0.1 - 7 / 8 * 0.01, rel_tol=1e-15)


def test_poly_from_weight_counts():
    # single parity check on 2 bits: codewords 00 and 11
    p = poly_from_weight_counts((1, 0, 1), 2)
    e = Fraction(1, 3)
    assert p(e) == e ** 2
    # zero 1x3 matrix: everything passes
    q = poly_from_weight_counts((1, 3, 3, 1), 3)
    assert q(e) == 1 - (1 - e) ** 3


def test_pretty():
    p = RationalPoly([0, 0, Fraction(3, 8), Fraction(-3, 8), Fraction(15, 64)])
    s = p.pretty()
    assert "3/8*eps^2" in s and "- 3/8*eps^3" in s and "15/64*eps^4" in s
    assert RationalPoly().pretty() == "0"
