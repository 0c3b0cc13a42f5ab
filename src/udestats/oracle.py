"""Exhaustive exact-arithmetic ground truth for tiny ensembles.

Every matrix in a small Bernoulli ensemble counts with its exact
probability, a^t (b-a)^(mn-t) / b^mn at t ones for p = k/n = a/b in
lowest terms.  Moments are integer numerators over b^mn, one table of
them per ensemble, and each output value (moment, covariance or
polynomial coefficient) of `enumerate_ensemble` is one exact Fraction.
`verify_closed_forms` reads the same table directly: each value it
prints is one integer ratio reduced once, P_U's moments included, next
to one analytic array per closed form.  This is the adjudicator for the
closed-form module (and for the two typos in the published worked
example: the mean's eps coefficient and the second moment's eps^3
coefficient).

A matrix's weight distribution and its probability depend only on the
multiset of its columns, and also only on the multiset of its rows.  So
the oracle checks one matrix per multiset of the side with fewer of
them, C(2^m + n - 1, n) column or C(2^n + m - 1, m) row multisets, and
counts each as many times as it occurs among the 2^(mn) matrices.  Its
weight distribution comes from the fewer words: a parity check of all
2^n words, or the 2^m words of its row space and the MacWilliams
transform, over a Krawtchouk table built here from math.comb.  The
module imports nothing from gf2, so neither route shares code with
gf2's enumeration of the code or of the row space, and the test suite
cross-checks the two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ensemble as ens_mod
from .ensemble import BernoulliEnsemble, Bsc
from .rational import RationalPoly, poly_from_weight_counts

# Enumeration budget, checked from (m, n) before anything is allocated,
# and the bound on the words checked, or count pairs formed, per block.
_LOG2_MAX_CLASSES = 20
_BLOCK_CELLS = 1 << 18
# The crossover probabilities at which verify_closed_forms checks P_U,
# and the relative error within which a check passes.
_EPS_POINTS = (Fraction(1, 10), Fraction(3, 10))
_REL_TOL = 1e-10


class GuardExceededError(RuntimeError):
    """Shape whose exhaustive enumeration is over the oracle's budget."""


def _check_k(n: int, k: Fraction) -> Fraction:
    k = Fraction(k)
    if not 0 < k <= Fraction(n, 2):
        raise ValueError(f"need 0 < k <= n/2, got k={k}, n={n}")
    return k


def _check_shape(m: int, n: int) -> None:
    """Refuse, before anything else, m or n below 1 and a shape over the
    budget: rows or columns wider than 64 bits (tested first, so
    math.comb never sees a huge mn), int64 sums that could overflow
    (C(mn, t) matrices with t ones times C(n, w1) C(n, w2) codeword pairs
    bounds every sum), or over 2^_LOG2_MAX_CLASSES multisets on both
    sides.  That also bounds the words checked per multiset,
    2^min(m, n), by 2^6: m, n >= 7 has over 2^36 multisets either way."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    mn = m * n
    if (max(m, n) > 64
            or math.comb(mn, mn // 2) * math.comb(n, n // 2) ** 2 >= 1 << 63
            or min(_multisets(m, n), _multisets(n, m))
            > 1 << _LOG2_MAX_CLASSES):
        raise GuardExceededError(
            f"the {m}x{n} ensemble is over the oracle's budget of "
            f"2^{_LOG2_MAX_CLASSES} row or column multisets, rows and "
            "columns of at most 64 bits and sums that fit in int64")


@dataclass(frozen=True)
class EnsembleMoments:
    """Exact moments of the weight distribution and of P_U."""

    m: int
    n: int
    k: Fraction
    e_aw: tuple                      # E[A_w], w = 0..n
    e_awaw: tuple                    # E[A_w1 A_w2], (n+1) x (n+1)
    cov: tuple                       # Cov(A_w1, A_w2)
    e_pu: RationalPoly
    e_pu2: RationalPoly
    var_pu: RationalPoly


def _column_classes(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every multiset of n columns over [0, 2^m), as the nondecreasing rows
    of a (classes, n) array, and the number of matrices with each one,
    n! / prod(run length)!, updated as each column is appended.  The
    update mult * j / run divides first, so no intermediate exceeds the
    result: mult * j can pass 2^63 where the result does not (C(63, 31)
    * 64 for the rows of 64x1)."""
    q = 1 << m
    last = np.arange(q)
    mult = run = np.ones(q, dtype=np.int64)
    steps = []
    for j in range(2, n + 1):
        reps = q - last
        src = np.arange(len(last)).repeat(reps)
        # Row r's copies take last[r], ..., q - 1.
        nxt = np.arange(len(src)) - (reps.cumsum() - q)[src]
        run = np.where(nxt == last[src], run[src] + 1, 1)
        mult, rem = np.divmod(mult[src], run)
        mult *= j
        rem *= j
        mult += rem // run
        steps.append((src, last))
        last = nxt
    # Each class's earlier columns, back through the classes it grew from.
    cols = np.empty((len(last), n), dtype=np.min_scalar_type(q - 1))
    cols[:, -1] = last
    grown = slice(None)
    for j in range(n - 2, -1, -1):
        src, prev = steps[j]
        grown = src[grown]
        cols[:, j] = prev[grown]
    return cols, mult


def _multisets(bits: int, k: int) -> int:
    """The number of multisets of k values of `bits` bits."""
    return math.comb((1 << bits) + k - 1, k)


def _plan(m: int, n: int) -> tuple[bool, bool]:
    """(by_rows, row_space): the enumeration with the fewest cells,
    classes times words checked per class.  The two factors are chosen
    apart: row multisets if there are fewer of them than column
    multisets, and each checked by its 2^m row-space words if 2^m < 2^n,
    else by a parity check of all 2^n words."""
    return _multisets(n, m) < _multisets(m, n), m < n


def _transpose(v: np.ndarray, bits: int) -> np.ndarray:
    """Bit transpose of each class, a column of `v`, a (k, classes) array
    of `bits`-bit values: out[i] has bit j set where v[j] has bit i, so
    the columns of a matrix become its rows and its rows its columns."""
    k = len(v)
    dtype = np.min_scalar_type((1 << k) - 1)
    bit = (v >> np.arange(bits, dtype=v.dtype)[:, None, None]) & 1
    return (bit.astype(dtype) << np.arange(k, dtype=dtype)[:, None]).sum(
        axis=1, dtype=dtype)


def _xor_span(v: np.ndarray) -> np.ndarray:
    """The XOR of every subset of each class's k values, v[:, c], subset x
    in row x, by doubling: word x + 2^i is word x XOR v[i]."""
    k, b = v.shape
    out = np.zeros((1 << k, b), dtype=v.dtype)
    for i in range(k):
        np.bitwise_xor(out[:1 << i], v[i], out=out[1 << i:2 << i])
    return out


def _krawtchouk(n: int) -> np.ndarray:
    """K[w, j] = K_w(j; n), the coefficient of z^w in
    (1 - z)^j (1 + z)^(n - j), exactly in int64."""
    c = np.array([[math.comb(a, b) for b in range(n + 1)]
                  for a in range(n + 1)], dtype=np.int64)
    signed = c * (-1) ** np.arange(n + 1)
    return np.array([np.convolve(signed[j], c[n - j])[:n + 1]
                     for j in range(n + 1)]).T


def _parity_counts(cols: np.ndarray, by_wt: list) -> np.ndarray:
    """A_w of each class: the words x of weight w, by_wt[w], whose
    syndrome, the XOR of the columns x selects, is zero."""
    zero = _xor_span(cols) == 0
    return np.array([zero[sel].sum(axis=0) for sel in by_wt])


def _row_space_counts(rows: np.ndarray, kraw: np.ndarray) -> np.ndarray:
    """A_w of each class from its 2^m row-space words xH.  With B'_j of
    them of weight j, MacWilliams gives 2^m A_w = sum_j B'_j K_w(j; n)."""
    m, b = rows.shape
    idx = np.bitwise_count(_xor_span(rows)).astype(np.intp) * b
    idx += np.arange(b)
    b_prime = np.bincount(idx.ravel(), minlength=len(kraw) * b)
    scaled = kraw @ b_prime.reshape(-1, b)
    if (scaled & ((1 << m) - 1)).any():
        raise ArithmeticError("MacWilliams transform left a remainder")
    return scaled >> m


def _weight_class_sums(m: int, n: int) -> np.ndarray:
    """Sums of A_w1 A_w2 over all matrices, grouped by total ones count;
    k-independent, as `_numerators` weights them by k.  A_0 = 1, so
    s2[:, 0] holds the sums of A_w.

    A matrix's code and its ones count depend only on the multiset of its
    columns, and also only on the multiset of its rows.  Each multiset of
    the side _plan picks is checked once and counted with its
    multiplicity, by the parity check of all 2^n words (their syndromes
    span the columns) or by the 2^m words of the row space (which span
    the rows).  Classes run in order of ones count, so each block adds
    its outer products A A^T to s2 in one reduceat.
    """
    by_rows, row_space = _plan(m, n)
    classes, mult = _column_classes(n, m) if by_rows else _column_classes(m, n)
    ones = np.bitwise_count(classes).sum(axis=1, dtype=np.intp)
    order = np.argsort(ones, kind="stable")
    # One class per column from here, so each numpy call runs along
    # the classes.
    classes, mult, ones = classes[order].T, mult[order], ones[order]
    if row_space:
        kraw = _krawtchouk(n)
    else:
        wt_x = np.bitwise_count(np.arange(1 << n))
        by_wt = [wt_x == w for w in range(n + 1)]
    s2 = np.zeros((m * n + 1, n + 1, n + 1), dtype=np.int64)
    cells = max(1 << (m if row_space else n), (n + 1) ** 2)
    block = max(1, _BLOCK_CELLS // cells)
    for lo in range(0, len(ones), block):
        vecs = classes[:, lo:lo + block]
        if by_rows != row_space:
            vecs = _transpose(vecs, n if by_rows else m)
        counts = (_row_space_counts(vecs, kraw) if row_space
                  else _parity_counts(vecs, by_wt))
        # The first class of each ones count in the block.
        t = ones[lo:lo + block]
        first = np.empty(len(t), dtype=bool)
        first[0] = True
        np.not_equal(t[1:], t[:-1], out=first[1:])
        first = first.nonzero()[0]
        weighted = counts * mult[lo:lo + block]
        s2[t[first]] += np.add.reduceat(
            weighted[:, None] * counts, first, axis=2).transpose(2, 0, 1)
    return s2


def _numerators(m: int, n: int, k: Fraction) -> tuple[np.ndarray,
                                                     np.ndarray, int]:
    """(n2, cov_n, den): the moments E[A_w1 A_w2] as the exact integers
    n2[w1, w2] (an object array) over den = b^mn, for p = k/n = a/b in
    lowest terms, and the covariances as cov_n[w1, w2] over den^2; row 0
    is E[A_w]'s, as A_0 = 1.  The caller has checked the shape and k."""
    mn = m * n
    a, b = (k / n).as_integer_ratio()
    s2 = _weight_class_sums(m, n)
    weights = np.array([a ** wt * (b - a) ** (mn - wt)
                        for wt in range(mn + 1)], dtype=object)
    n2 = (weights @ s2.reshape(mn + 1, -1).astype(object)).reshape(n + 1, -1)
    den = b ** mn
    return n2, n2 * den - np.multiply.outer(n2[0], n2[0]), den


def enumerate_ensemble(m: int, n: int, k) -> EnsembleMoments:
    """Exact moments over all 2^(m n) matrices, from the numerators of
    `_numerators`, once the shape is within the oracle's budget."""
    _check_shape(m, n)
    k = _check_k(n, k)
    n2, cov_n, den = _numerators(m, n, k)
    e_aw = [Fraction(v, den) for v in n2[0]]
    e_awaw = [[Fraction(v, den) for v in row] for row in n2]
    cov = [[Fraction(v, den * den) for v in row] for row in cov_n]

    e_pu = poly_from_weight_counts(e_aw, n)
    # Group the double sum by w1 + w2: same Bernstein factor in eps.
    by_total = [0] * (2 * n + 1)
    for (w1, w2), v in np.ndenumerate(n2[1:, 1:]):
        by_total[w1 + w2 + 2] += v
    e_pu2 = poly_from_weight_counts([Fraction(v, den) for v in by_total],
                                    2 * n)
    var_pu = e_pu2 - e_pu * e_pu

    return EnsembleMoments(
        m=m, n=n, k=k,
        e_aw=tuple(e_aw),
        e_awaw=tuple(tuple(row) for row in e_awaw),
        cov=tuple(tuple(row) for row in cov),
        e_pu=e_pu, e_pu2=e_pu2, var_pu=var_pu)


# --- Verification report ---

# Printed coefficients in the published worked example for (1, 2, 1/2)
# that disagree with exhaustive enumeration.
_PUBLISHED_EXAMPLE = {
    "e_pu_eps1_coeff": Fraction(2, 3),    # enumeration gives 3/2
    "e_pu2_eps3_coeff": Fraction(-3, 8),  # enumeration gives -3
}


def _to_floats(log2_values: np.ndarray) -> list:
    """Linear-domain floats 2.0 ** v of log2 values, as LogReal.to_float
    gives them: 0.0 at -inf, inf past the float range (v >= 1024)."""
    return [math.inf if v >= 1024.0 else 2.0 ** v
            for v in log2_values.tolist()]


def _check_digits(m: int, n: int, *values: int) -> None:
    """Refuse a report that prints an integer at least as large as one of
    `values` when that one has more digits than Python's limit on
    int-to-str conversion.  An integer of at most 3 bits per digit of the
    limit is below 10^limit, so most values skip the power of 10."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for v in values:
        v = abs(v)
        if limit and v.bit_length() > 3 * limit and v >= 10 ** limit:
            raise GuardExceededError(
                f"the {m}x{n} report at this k would print integers of over "
                f"{limit} digits, Python's limit for int-to-str conversion "
                "(see sys.set_int_max_str_digits)")


def _var_pu_denominator_bound(m: int, n: int, b: int) -> int:
    """A lower bound, from b alone, on the reduced denominator of Var[P_U]
    at eps = 1/10 for p = a/b, an integer the report prints.  Var[P_U]
    is 10^-2n times a polynomial in p with integer coefficients, the top
    one, of p^2mn, being -2^(2m(n-1)).  So the denominator holds the odd
    part of b^2mn, 5^2n more if 5 | b, and if 2^(2m(n-1) + 1) | b, the
    twos of b^2mn times 2^(2n - 2m(n-1)).  Where 10 | b as well, as at
    every k = 10^-e, that is all of it and the longest integer printed."""
    twos = (b & -b).bit_length() - 1
    low = (b >> twos) ** (2 * m * n) * 5 ** (2 * n * (b % 5 == 0))
    if twos > 2 * m * (n - 1):
        low <<= 2 * m * n * twos + 2 * n - 2 * m * (n - 1)
    return low


def verify_closed_forms(m: int, n: int, k) -> dict:
    """Compare exhaustive-enumeration moments against the closed-form
    module on every overlapping quantity; a check passes within a relative
    error of _REL_TOL.

    Each oracle value is one ratio of `_numerators`' integers, reduced
    once; its float is the int / int true division, correctly rounded as
    float(Fraction) is.  E[P_U] and Var[P_U] at eps = p/q are integer
    sums of the numerators times p^w (q - p)^(n - w).  The analytic side
    is one array per closed form.

    Mismatches are report content, not exceptions.  The report also
    prints published-example coefficients next to the enumerated ones for
    the (1, 2, 1/2) case, flagging the known discrepancies.
    """
    _check_shape(m, n)
    k = _check_k(n, k)
    analytic = BernoulliEnsemble(m, n, float(k))
    _check_digits(m, n,
                  _var_pu_denominator_bound(m, n, (k / n).denominator))
    n2, cov_n, den = _numerators(m, n, k)
    checks = []
    # _check_digits passes every value of at most 3 bits per digit of the
    # limit (0 is no limit)
    max_bits = 3 * getattr(sys, "get_int_max_str_digits", lambda: 0)()

    def add(name, num, denom, analytic_value, paper_value=None):
        g = math.gcd(num, denom)
        num, denom = num // g, denom // g
        if max_bits and max(num.bit_length(), denom.bit_length()) > max_bits:
            _check_digits(m, n, num, denom)
        o, a = num / denom, analytic_value
        err = 0.0 if o == a else abs(o - a) / max(abs(o), abs(a))
        entry = {
            "name": name,
            "oracle_value": str(num) if denom == 1 else f"{num}/{denom}",
            "analytic_value": analytic_value,
            "rel_err": err,
            "status": "PASS" if err <= _REL_TOL else "FAIL",
        }
        if paper_value is not None:
            entry["paper_value"] = str(paper_value)
            entry["status"] = ("PASS" if paper_value == Fraction(num, denom)
                               else "MISMATCH_WITH_PAPER")
        checks.append(entry)

    e_awaw = n2.tolist()
    for w, value in enumerate(_to_floats(ens_mod._log2_avg_weights(analytic))):
        add(f"avg_weight[{w}]", e_awaw[0][w], den, value)
    cov = ens_mod.cov_matrix(analytic)
    cov_n = cov_n.tolist()
    w1s, w2s = np.triu_indices(n)
    w1s += 1
    w2s += 1
    second = _to_floats(
        ens_mod.second_moment_from_cov(analytic, cov)[w1s, w2s])
    cov_f = _to_floats(cov[w1s, w2s])
    for i, (w1, w2) in enumerate(zip(w1s.tolist(), w2s.tolist())):
        add(f"second_moment[{w1},{w2}]", e_awaw[w1][w2], den, second[i])
        add(f"cov[{w1},{w2}]", cov_n[w1][w2], den * den, cov_f[i])
    for eps in _EPS_POINTS:
        p, q = eps.as_integer_ratio()
        # Numerators over q^n of eps^w (1-eps)^(n-w), w = 1..n.
        bsc = np.array([p ** w * (q - p) ** (n - w)
                        for w in range(1, n + 1)], dtype=object)
        mean = int(n2[0, 1:] @ bsc)
        second_pu = int(bsc @ n2[1:, 1:] @ bsc)
        ch = Bsc(float(eps))
        add(f"avg_pu[eps={eps}]", mean, den * q ** n,
            ens_mod.avg_pu(analytic, ch).to_float())
        add(f"var_pu[eps={eps}]", second_pu * den - mean * mean,
            (den * q ** n) ** 2,
            ens_mod.var_pu_from_cov(analytic, cov, ch.eps).to_float())

    if (m, n, k) == (1, 2, Fraction(1, 2)):
        moments = enumerate_ensemble(m, n, k)
        for name, coeff in (("e_pu_eps1_coeff", moments.e_pu[1]),
                            ("e_pu2_eps3_coeff", moments.e_pu2[3])):
            add(name, *coeff.as_integer_ratio(), float(coeff),
                paper_value=_PUBLISHED_EXAMPLE[name])

    numeric = [c for c in checks if "paper_value" not in c]
    max_err = max(c["rel_err"] for c in numeric)
    return {
        "params": {"m": m, "n": n, "k": str(k)},
        "rel_tol": _REL_TOL,
        "max_rel_err": max_err,
        "status": "PASS" if all(c["status"] == "PASS" for c in numeric)
                  else "FAIL",
        "checks": checks,
    }
