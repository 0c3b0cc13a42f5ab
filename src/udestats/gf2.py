"""Exact per-matrix computations over GF(2).

Rows are bit-packed into Python integers (bit j of a row = column j), so
XOR-based elimination and word enumeration are cheap for n up to a few
thousand.  Weight distributions are exact integer counts.  One reduced
echelon form gives the rank r and the z0 zero columns of H.  A zero
column j puts e_j in the code, apart from every other codeword, so the
weight enumerator factors as (1 + z)^z0 times that of the code on the
other columns (MacWilliams & Sloane 1977, ch. 1).  Then whichever side is
smaller is enumerated: the 2^(n - r - z0) codewords of that code, or the
2^r words of the row space, whose weights B_j give the A_w through the
exact integer MacWilliams identity A_w = 2^-r sum_j B_j K_w(j; n)
(MacWilliams & Sloane 1977, ch. 5).  The cost 2^min(r, n - r - z0) is
bounded by the fixed budget 2^ENUM_BUDGET_LOG2, checked before anything
is enumerated.  The enumeration does about 5e8 words/s at n <= 64 and
3e8 at n = 100 on one x86-64 core, so 2^28 words take about a second,
and each step of the exponent doubles that.  `_weight_histogram`
enumerates by an in-place Gray walk over a numpy block.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .ensemble import Bsc
from .rational import RationalPoly, poly_from_weight_counts

ENUM_BUDGET_LOG2 = 28

_MASK64 = (1 << 64) - 1


class EnumerationBudgetError(RuntimeError):
    """Raised when 2^min(rank, n - rank) words would exceed the budget."""


class MatrixFormatError(ValueError):
    """Raised on a malformed matrix text file."""


@dataclass(frozen=True, slots=True)
class BitVector:
    """A length-n binary vector, bits packed into one int (bit j = coord j)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("BitVector length must be >= 1")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits outside the declared length")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        return cls(len(s), _bits_from_string(s))


def _bits_from_string(s: str) -> int:
    if not s or set(s) - {"0", "1"}:
        raise MatrixFormatError(f"row must be nonempty over {{0,1}}, got {s!r}")
    return int(s[::-1], 2)


@dataclass(frozen=True, slots=True)
class BitMatrix:
    """An immutable m x n binary matrix with bit-packed rows."""

    m: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(self.rows) != self.m:
            raise ValueError("row count does not match m")
        for r in self.rows:
            if r < 0 or r >> self.n:
                raise ValueError("row has bits beyond column n")

    @classmethod
    def from_strings(cls, lines) -> "BitMatrix":
        lines = list(lines)
        if not lines:
            raise MatrixFormatError("no rows")
        n = len(lines[0])
        rows = []
        for s in lines:
            if len(s) != n:
                raise MatrixFormatError("rows have inconsistent lengths")
            rows.append(_bits_from_string(s))
        return cls(len(rows), n, tuple(rows))

    @classmethod
    def parse_text(cls, text: str) -> "BitMatrix":
        """Parse the on-disk format: 'm n' header then m rows of 0/1 chars."""
        lines = text.splitlines()
        if not lines:
            raise MatrixFormatError("empty matrix file")
        header = lines[0].split()
        if len(header) != 2:
            raise MatrixFormatError(f"bad header line {lines[0]!r}, want 'm n'")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MatrixFormatError(f"non-integer header {lines[0]!r}") from exc
        if m < 1 or n < 1:
            raise MatrixFormatError("m and n must be >= 1")
        body = lines[1:]
        if len(body) < m:
            raise MatrixFormatError(f"expected {m} rows, found {len(body)}")
        if any(s.strip() for s in body[m:]):
            raise MatrixFormatError("trailing content after matrix rows")
        bad = [s for s in body[:m] if len(s) != n]
        if bad:
            raise MatrixFormatError(
                f"row {bad[0]!r} has length {len(bad[0])}, expected {n}")
        return cls.from_strings(body[:m])


def _reduced_echelon(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """In-place RREF over GF(2); returns (rows, pivot_cols)."""
    pivot_cols = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if (rows[i] >> col) & 1), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and (rows[i] >> col) & 1:
                rows[i] ^= rows[r]
        pivot_cols.append(col)
        r += 1
    return rows, pivot_cols


def rank(h: BitMatrix) -> int:
    """GF(2) row rank."""
    _, pivots = _reduced_echelon(list(h.rows), h.n)
    return len(pivots)


def _nullspace_bits(rows: list[int], pivot_cols: list[int], n: int
                    ) -> list[int]:
    """Nullspace basis, bit-packed, from an RREF and its pivot columns."""
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        x = 1 << free
        for j, col in enumerate(pivot_cols):
            if (rows[j] >> free) & 1:
                x |= 1 << col
        basis.append(x)
    return basis


def nullspace_basis(h: BitMatrix) -> list[BitVector]:
    """n - rank(H) independent vectors spanning {x : H x^t = 0}."""
    rows, pivot_cols = _reduced_echelon(list(h.rows), h.n)
    return [BitVector(h.n, x) for x in _nullspace_bits(rows, pivot_cols, h.n)]


@dataclass(frozen=True, slots=True)
class WeightDistribution:
    """Exact codeword counts A_0..A_n of C(H)."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("need n + 1 counts")
        if self.counts[0] != 1:
            raise ValueError("A_0 must be 1 (zero codeword)")

    def total(self) -> int:
        return sum(self.counts)


def _int_to_words(x: int, words: int) -> np.ndarray:
    return np.array([(x >> (64 * j)) & _MASK64 for j in range(words)],
                    dtype=np.uint64)


# The combinations of the low-order basis words are materialized in one
# cache-sized block of 2^16 combinations (512 KB per 64-bit word of n),
# stored word-major so that each word's popcounts form one contiguous row.
# The high-order words are walked by Gray code: consecutive steps differ by
# one basis word, which is XORed into the block in place.
_LOW_BLOCK_LOG2 = 16


def _weight_histogram(basis_bits: list[int], n: int) -> list[int]:
    """Weight counts of all 2^d combinations of the d basis words."""
    d = len(basis_bits)
    words = (n + 63) // 64
    low_d = min(d, _LOW_BLOCK_LOG2)
    arr = np.zeros((words, 1 << low_d), dtype=np.uint64)
    size = 1
    for b in basis_bits[:low_d]:
        np.bitwise_xor(arr[:, :size], _int_to_words(b, words)[:, None],
                       out=arr[:, size:2 * size])
        size *= 2
    ones = np.empty(arr.shape, dtype=np.uint8)
    # Weights are at most n, so they are summed in the smallest type that
    # holds n: bytes up to n = 255, and no wrap-around for any n.
    w = ones[0] if words == 1 else np.empty(
        1 << low_d, dtype=np.min_scalar_type(n))
    # Byte weights are read in (even, odd) pairs, one uint16 key each: the
    # joint histogram has 256 (n + 1) bins, and its two marginals add up
    # to the weight counts.
    paired = w.dtype == np.uint8 and low_d > 0
    keys = w.view(np.uint16) if paired else w
    bins = 256 * (n + 1) if paired else n + 1
    hist = np.zeros(bins, dtype=np.int64)
    high = [_int_to_words(b, words)[:, None] for b in basis_bits[low_d:]]
    for step in range(1 << (d - low_d)):
        if step:
            arr ^= high[(step & -step).bit_length() - 1]
        np.bitwise_count(arr, out=ones)
        if words > 1:
            np.add.reduce(ones, axis=0, dtype=w.dtype, out=w)
        hist += np.bincount(keys, minlength=bins)
    if paired:
        joint = hist.reshape(n + 1, 256)
        hist = joint.sum(axis=1) + joint.sum(axis=0)[:n + 1]
    return [int(c) for c in hist]


# Columns are cached one by one, so a large n holds only the columns of
# the row-space weights that occur.
@functools.lru_cache(maxsize=512)
def _krawtchouk_column(n: int, j: int) -> tuple[int, ...]:
    """K_w(j; n) for w = 0..n, the coefficients of (1-z)^j (1+z)^(n-j),
    from (w+1) K_{w+1}(j) = (n-2j) K_w(j) - (n-w+1) K_{w-1}(j)."""
    col = [1, n - 2 * j]
    for w in range(1, n):
        col.append(((n - 2 * j) * col[w] - (n - w + 1) * col[w - 1])
                   // (w + 1))
    return tuple(col)


def _macwilliams(row_space_counts: list[int], n: int, r: int) -> list[int]:
    """A_w of the dual of a rank-r row space with weight counts B_j."""
    weights = [j for j, b in enumerate(row_space_counts) if b]
    b = [row_space_counts[j] for j in weights]
    cols = [_krawtchouk_column(n, j) for j in weights]
    counts = []
    for w, k_row in enumerate(zip(*cols)):
        a, rem = divmod(sum(map(operator.mul, b, k_row)), 1 << r)
        if rem:
            raise ArithmeticError(
                f"MacWilliams numerator of A_{w} is not divisible by 2^{r}")
        counts.append(a)
    return counts


def _times_one_plus_z_power(hist: list[int], z0: int) -> list[int]:
    """Coefficients of hist(z) (1 + z)^z0, dropping the top z0 entries,
    which are zero."""
    binom = [1]
    for i in range(z0):
        binom.append(binom[i] * (z0 - i) // (i + 1))
    counts = [0] * len(hist)
    for w, c in enumerate(hist[:len(hist) - z0]):
        if c:
            for i, b in enumerate(binom, w):
                counts[i] += c * b
    return counts


def weight_distribution(h: BitMatrix) -> WeightDistribution:
    """Exact A_w of C(H).  The z0 zero columns of H are factored out: each
    adds e_j to the code, so A(z) = (1 + z)^z0 A'(z), where A' is the code
    on the other columns.  Then whichever of that code (2^(n - r - z0)
    codewords) and the row space (2^r words, then MacWilliams) is smaller
    is enumerated; ties enumerate the code.  ENUM_BUDGET_LOG2 bounds
    min(r, n - r - z0)."""
    rows, pivot_cols = _reduced_echelon(list(h.rows), h.n)
    r = len(pivot_cols)
    d = h.n - r
    used = functools.reduce(operator.or_, rows[:r], 0)
    z0 = h.n - used.bit_count()
    if min(r, d - z0) > ENUM_BUDGET_LOG2:
        raise EnumerationBudgetError(
            f"2^{d - z0} codewords (with the {z0} zero columns factored "
            f"out) and 2^{r} row-space words both exceed the enumeration "
            f"budget 2^{ENUM_BUDGET_LOG2}")
    if r < d - z0:
        counts = _macwilliams(_weight_histogram(rows[:r], h.n), h.n, r)
    else:
        # The basis words of the zero columns are their unit vectors; every
        # other basis word lies inside `used`.
        basis = [x for x in _nullspace_bits(rows, pivot_cols, h.n)
                 if x & used]
        counts = _times_one_plus_z_power(_weight_histogram(basis, h.n), z0)
    wd = WeightDistribution(h.n, tuple(counts))
    if wd.total() != 1 << d:
        raise ArithmeticError(f"{wd.total()} codewords counted, expected 2^{d}")
    return wd


def undetected_error_prob(h: BitMatrix, eps: float) -> float:
    """P_U(H) = sum_{w>=1} A_w eps^w (1-eps)^(n-w) for a BSC(eps)."""
    Bsc(eps)
    wd = weight_distribution(h)
    return pu_from_weights(wd.counts, h.n, eps)


# A count of 2^53 or more (reachable through the row space) is folded into
# the exponent: from n of about a thousand on, it can overflow a float and
# its probability alone can underflow.
_FLOAT_EXACT_INT = 1 << 53


def pu_from_weights(counts, n: int, eps: float) -> float:
    """Evaluate the undetected error probability from known counts A_w.

    Each log-domain term is off by about n ulps, so the sum is capped at
    its exact upper bound 1 - (1 - eps)^n, reached when every word is a
    codeword.  Up to the few ulps of the bound itself, the cap only moves
    a value toward the truth."""
    log_eps = math.log(eps)
    log_1me = math.log1p(-eps)
    terms = []
    for w in range(1, n + 1):
        c = counts[w]
        if c:
            log_p = w * log_eps + (n - w) * log_1me
            terms.append(c * math.exp(log_p) if c < _FLOAT_EXACT_INT
                         else math.exp(math.log(c) + log_p))
    return min(math.fsum(terms), -math.expm1(n * log_1me))


def pu_polynomial(h: BitMatrix) -> RationalPoly:
    """P_U(H) as an exact polynomial in eps."""
    wd = weight_distribution(h)
    return poly_from_weight_counts(wd.counts, h.n)
