"""Exact per-matrix computations over GF(2).

Rows are bit-packed into Python integers (bit j of a row = column j), so
XOR-based elimination and word enumeration are cheap for n up to a few
thousand.  Weight distributions are exact integer counts.  One reduced
echelon form gives the rank r; then whichever side is smaller is
enumerated: the 2^(n - r) codewords of the nullspace, or the 2^r words of
the row space, whose weights B_j give the A_w through the exact integer
MacWilliams identity A_w = 2^-r sum_j B_j K_w(j; n) (MacWilliams & Sloane
1977, ch. 5).  The cost 2^min(r, n - r) is bounded by an explicit,
configurable budget.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .rational import RationalPoly, poly_from_weight_counts

DEFAULT_ENUM_BUDGET_LOG2 = 28

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

    def to_string(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.n))


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
    def from_rows(cls, rows, n: int) -> "BitMatrix":
        rows = tuple(int(r) for r in rows)
        return cls(len(rows), n, rows)

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
    def zero(cls, m: int, n: int) -> "BitMatrix":
        return cls(m, n, (0,) * m)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

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
        rows = []
        for s in body[:m]:
            if len(s) != n:
                raise MatrixFormatError(
                    f"row {s!r} has length {len(s)}, expected {n}")
            rows.append(_bits_from_string(s))
        return cls(m, n, tuple(rows))

    def to_text(self) -> str:
        lines = [f"{self.m} {self.n}"]
        for r in self.rows:
            lines.append("".join("1" if (r >> j) & 1 else "0"
                                 for j in range(self.n)))
        return "\n".join(lines) + "\n"

    def mul_vector(self, x: BitVector) -> int:
        """Syndrome H x^t as an m-bit int (bit i = parity of row i . x)."""
        if x.n != self.n:
            raise ValueError("dimension mismatch")
        s = 0
        for i, r in enumerate(self.rows):
            s |= ((r & x.bits).bit_count() & 1) << i
        return s


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


# Low-order basis combinations materialized in one cache-sized block (2^16
# uint64 words, 512 KB); high-order bits walked by Gray code so each step
# differs from the last by one XOR into reused buffers.
_LOW_BLOCK_LOG2 = 16


def _weight_histogram(basis_bits: list[int], n: int) -> list[int]:
    """Weight counts of all 2^d combinations of the d basis words."""
    d = len(basis_bits)
    words = (n + 63) // 64
    low_d = min(d, _LOW_BLOCK_LOG2)
    arr = np.zeros((1 << low_d, words), dtype=np.uint64)
    size = 1
    for b in basis_bits[:low_d]:
        np.bitwise_xor(arr[:size], _int_to_words(b, words)[None, :],
                       out=arr[size:2 * size])
        size *= 2
    if words == 1:
        arr = arr[:, 0]
    block = np.empty_like(arr)
    ones = np.empty(arr.shape, dtype=np.intp)
    w = ones if words == 1 else np.empty(1 << low_d, dtype=np.intp)
    hist = np.zeros(n + 1, dtype=np.int64)
    prefix = 0
    for step in range(1 << (d - low_d)):
        if step:
            prefix ^= basis_bits[low_d + (step & -step).bit_length() - 1]
        np.bitwise_xor(arr, _int_to_words(prefix, words), out=block)
        np.bitwise_count(block, out=ones)
        if words > 1:
            np.sum(ones, axis=1, out=w)
        hist += np.bincount(w, minlength=n + 1)
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


def weight_distribution(h: BitMatrix,
                        budget_log2: int = DEFAULT_ENUM_BUDGET_LOG2
                        ) -> WeightDistribution:
    """Exact A_w of C(H) from whichever of the code (2^(n - r) codewords)
    and the row space (2^r words, then MacWilliams) is smaller; ties
    enumerate the code.  budget_log2 bounds min(r, n - r)."""
    rows, pivot_cols = _reduced_echelon(list(h.rows), h.n)
    r = len(pivot_cols)
    d = h.n - r
    if min(r, d) > budget_log2:
        raise EnumerationBudgetError(
            f"2^{d} codewords and 2^{r} row-space words both exceed the "
            f"enumeration budget 2^{budget_log2}")
    if r < d:
        counts = _macwilliams(_weight_histogram(rows[:r], h.n), h.n, r)
    else:
        counts = _weight_histogram(_nullspace_bits(rows, pivot_cols, h.n),
                                   h.n)
    wd = WeightDistribution(h.n, tuple(counts))
    if wd.total() != 1 << d:
        raise ArithmeticError(f"{wd.total()} codewords counted, expected 2^{d}")
    return wd


def undetected_error_prob(h: BitMatrix, eps: float,
                          budget_log2: int = DEFAULT_ENUM_BUDGET_LOG2) -> float:
    """P_U(H) = sum_{w>=1} A_w eps^w (1-eps)^(n-w) for a BSC(eps)."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"need 0 < eps < 1/2, got {eps}")
    wd = weight_distribution(h, budget_log2)
    return pu_from_weights(wd.counts, h.n, eps)


# A count of 2^53 or more (reachable through the row space) is folded into
# the exponent: from n of about a thousand on, it can overflow a float and
# its probability alone can underflow.
_FLOAT_EXACT_INT = 1 << 53


def pu_from_weights(counts, n: int, eps: float) -> float:
    """Evaluate the undetected error probability from known counts A_w."""
    log_eps = math.log(eps)
    log_1me = math.log1p(-eps)
    terms = []
    for w in range(1, n + 1):
        c = counts[w]
        if c:
            log_p = w * log_eps + (n - w) * log_1me
            terms.append(c * math.exp(log_p) if c < _FLOAT_EXACT_INT
                         else math.exp(math.log(c) + log_p))
    return math.fsum(terms)


def pu_polynomial(h: BitMatrix,
                  budget_log2: int = DEFAULT_ENUM_BUDGET_LOG2) -> RationalPoly:
    """P_U(H) as an exact polynomial in eps."""
    wd = weight_distribution(h, budget_log2)
    return poly_from_weight_counts(wd.counts, h.n)
