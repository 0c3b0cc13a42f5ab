"""Exact per-matrix computations over GF(2).

Rows are bit-packed into Python integers (bit j of a row = column j), so
XOR-based elimination and word enumeration are cheap for n up to a few
thousand.  Weight distributions are exact integer counts.  One reduced
echelon form, by rows, gives the rank r and, through the one transpose
`_packed_columns`, the pivot part of every column.  Equal columns of H
form classes, read off those parts.  A codeword's bits on a class of e
equal columns matter only through their parity, so the class contributes
((1 + z)^e + (1 - z)^e)/2 to the weight enumerator when its parity is
even and ((1 + z)^e - (1 - z)^e)/2 when it is odd (MacWilliams & Sloane
1977, ch. 1 and 5).  The zero class always contributes (1 + z)^z0.  So
the code with one coordinate per nonzero class, 2^(n' - r) words when H
has n' distinct nonzero columns, is enumerated instead of the code.
Each class parity that varies over it is a top Gray bit of the
enumeration, or a parity of such bits; a class whose top bit would leave
Gray runs of fewer than 2^13 words, or more than 2^10 runs, keeps its
columns.  Then whichever side is smaller is enumerated: that code, or
the 2^r words of the row space, whose weights B_j give the A_w through
the exact integer MacWilliams identity A_w = 2^-r sum_j B_j K_w(j; n)
(MacWilliams & Sloane 1977, ch. 5).  The cost 2^min(r, n' - r) is
bounded by the fixed budget 2^ENUM_BUDGET_LOG2, checked before anything
is enumerated.  The enumeration does about 5e8 words/s at n <= 64 and
3e8 at n = 100 on one x86-64 core, so 2^28 words take about a second,
and each step of the exponent doubles that.  `_weight_histogram`
enumerates by an in-place Gray walk over a numpy block.
"""

from __future__ import annotations

import collections
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
    """Raised when the codewords left once equal columns are factored out
    and the row-space words both exceed the budget."""


class MatrixFormatError(ValueError):
    """Raised on a malformed matrix text file."""


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


def _reduced_echelon(rows) -> list[int]:
    """The r nonzero rows of the RREF over GF(2), in increasing pivot
    order.  Row by row: each row is reduced by the pivot rows so far, then
    pivots on its lowest set bit, which is XORed out of the pivot rows
    that hold it.  Each row's lowest set bit is its pivot column, and the
    RREF is unique, so these are the rows that column-by-column
    elimination gives."""
    pivot_rows = {}
    pivots = 0
    for x in rows:
        t = x & pivots
        while t:
            low = t & -t
            x ^= pivot_rows[low]
            t ^= low
        if x:
            low = x & -x
            for p, y in pivot_rows.items():
                if y & low:
                    pivot_rows[p] = y ^ x
            pivot_rows[low] = x
            pivots |= low
    return [pivot_rows[p] for p in sorted(pivot_rows)]


def _packed_columns(rows, n: int) -> np.ndarray:
    """The one transpose: the rows unpacked to bytes, and each column
    packed back from them into an (n, max(1, ceil(m / 64))) uint64 array,
    where bit i of column j is bit j of row i."""
    m = len(rows)
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows),
                        dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(m, nbytes), axis=1, count=n,
                         bitorder="little")
    padded = np.zeros((n, 64 * max(1, -(-m // 64))), dtype=np.uint8)
    padded[:, :m] = bits.T
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _column_parts(rows: list[int], n: int) -> list[int]:
    """The pivot part of each column of the RREF rows: bit j is set when
    row j holds the column.  A pivot column's part is its own row bit, a
    zero column's is 0, and the nullspace word of a free column f is f
    plus the pivot columns of its part."""
    cols = _packed_columns(rows, n)
    if cols.shape[1] == 1:
        return cols[:, 0].tolist()
    return [int.from_bytes(c.tobytes(), "little") for c in cols]


def nullspace_basis(h: BitMatrix) -> list[int]:
    """n - rank(H) independent words spanning {x : H x^t = 0}, bit-packed
    (bit j = coordinate j), one per free column in increasing order."""
    rows = _reduced_echelon(h.rows)
    pivots = [x & -x for x in rows]
    used = functools.reduce(operator.or_, pivots, 0)
    return [(1 << c) | sum(p for j, p in enumerate(pivots) if q >> j & 1)
            for c, q in enumerate(_column_parts(rows, h.n))
            if not used >> c & 1]


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


def _word_rows(bits: list[int], words: int) -> np.ndarray:
    """(len(bits), words) uint64: each int split into 64-bit words."""
    return np.array([x >> (64 * j) & _MASK64 for x in bits
                     for j in range(words)], dtype=np.uint64).reshape(-1, words)


# The combinations of the low-order basis words are materialized in one
# cache-sized block of 2^16 combinations (512 KB per 64-bit word of n),
# stored word-major so that each word's popcounts form one contiguous row.
# The high-order words are walked by Gray code: consecutive steps differ by
# one basis word, which is XORed into the block in place.
_LOW_BLOCK_LOG2 = 16


def _weight_histogram(basis_bits: list[int], n: int, tops: int = 0
                      ) -> np.ndarray:
    """Weight counts of all 2^d combinations of the d basis words, as a
    (2^tops, n + 1) int64 array.  The last `tops` words are the top Gray
    bits: row t counts the combinations whose coefficient on the i-th of
    them is bit i of t.  The words may use any bits, so long as each
    combination's weight is at most n."""
    d = len(basis_bits)
    used = functools.reduce(operator.or_, basis_bits, 0)
    words = max(1, (used.bit_length() + 63) // 64)
    low_d = min(d - tops, _LOW_BLOCK_LOG2)
    vecs = _word_rows(basis_bits, words)[:, :, None]
    arr = np.empty((words, 1 << low_d), dtype=np.uint64)
    arr[:, 0] = 0
    size = 1
    for v in vecs[:low_d]:
        np.bitwise_xor(arr[:, :size], v, out=arr[:, size:2 * size])
        size *= 2
    ones = np.empty(arr.shape, dtype=np.uint8)
    # Weights are at most the number of bits the words use, so they are
    # summed in the smallest type that holds it: bytes up to 255, and no
    # wrap-around for any n.
    top_w = used.bit_count()
    w = ones[0] if words == 1 else np.empty(
        1 << low_d, dtype=np.min_scalar_type(top_w))
    # Byte weights are read in (even, odd) pairs, one uint16 key each,
    # when the block holds at least as many pairs as the joint histogram has
    # bins, 256 (top_w + 1).  A run's joint histogram is folded when the run
    # ends: its two marginals add up to the weight counts.
    pairs = w.dtype == np.uint8 and 1 << low_d >= 512 * (top_w + 1)
    keys = w.view(np.uint16) if pairs else w
    bins = 256 * (top_w + 1) if pairs else top_w + 1
    counts = np.zeros((1 << tops, n + 1), dtype=np.int64)
    run = np.zeros(bins, dtype=np.int64)
    high = vecs[low_d:]
    # Step s walks the Gray code s ^ (s >> 1) of the high words.  Its top
    # `tops` bits, the coefficients of the top words, are constant over
    # each run of 2^shift steps.
    shift = d - low_d - tops
    last = (1 << shift) - 1
    for step in range(1 << (d - low_d)):
        if step:
            arr ^= high[(step & -step).bit_length() - 1]
        np.bitwise_count(arr, out=ones)
        if words > 1:
            np.add.reduce(ones, axis=0, dtype=w.dtype, out=w)
        top = counts[(step ^ (step >> 1)) >> shift, :top_w + 1]
        if not pairs:
            top += np.bincount(keys, minlength=bins)
            continue
        run += np.bincount(keys, minlength=bins)
        if step & last == last:
            joint = run.reshape(top_w + 1, 256)
            top += joint.sum(axis=1) + joint.sum(axis=0)[:top_w + 1]
            run[:] = 0
    return counts


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


# A Gray run of _weight_histogram costs about as much in numpy calls, in
# its fold and in its row of _class_sum as 2^13 words cost in popcounts
# and bincounts, so a class takes a top Gray bit only while every run keeps
# at least 2^13 words.  At most 2^10 runs keep the histogram's rows of
# n + 1 counts within about the memory of the low block's 2^16 words.
_RUN_WORDS_LOG2 = 13
_MAX_TOPS = 10


def _merged_code(parts: list[int], r: int
                 ) -> tuple[list[int], int, list[tuple[int, int]]]:
    """The code to enumerate, from the pivot parts of the columns:
    (basis, tops, merged).  The columns with one nonzero part q form a
    class, which holds the pivot column q when q is one bit.  A merged
    class is one coordinate: the pivot of row j at bit j, the c-th class
    of free columns at bit r + c, whose word is that bit plus q.

    Classes are merged largest first.  One whose bit is a parity of the
    owned bits so far merges for free.  Otherwise a basis word is made to
    own its bit, as a top Gray bit that halves each Gray run, if the runs
    keep at least 2^_RUN_WORDS_LOG2 words, there are at most 2^_MAX_TOPS
    of them, and the fully merged code is no larger than the row space.
    Merging leaves the dimension as it is and an unmerged class only
    raises it, so the runs of the final plan are no shorter.  An unmerged
    class keeps its e columns: each of the other e - 1 gets a spare
    coordinate past the classes, and a word of it and the class
    coordinate.  The basis ends with its `tops` owner words, and no
    word holds a merged coordinate.  `merged` has one (e, mask) per merged
    class: its bit is the parity of the owner coefficients in mask."""
    sizes = collections.Counter(parts)
    sizes.pop(0, None)
    words = []
    multi = []
    for q, e in sizes.items():
        if q & (q - 1):
            rep = 1 << (r + len(words))
            words.append(rep | q)
        else:
            rep = q
        if e > 1:
            multi.append((e, rep))
    hopeless = len(words) > r
    multi.sort(reverse=True)
    # The dimension of the code once the classes left are merged.
    dim = len(words)
    spare = 1 << (r + dim)
    owners, evens, merged_reps = [], [], []
    dropped = 0
    for e, rep in multi:
        i = next((i for i, w in enumerate(words) if w & rep), None)
        if i is not None:
            if hopeless or len(owners) >= min(dim - _RUN_WORDS_LOG2,
                                              _MAX_TOPS):
                for _ in range(e - 1):
                    evens.append(rep | spare)
                    spare <<= 1
                dim += e - 1
                continue
            w = words.pop(i)
            words = [x ^ w if x & rep else x for x in words]
            owners = [x ^ w if x & rep else x for x in owners]
            owners.append(w)
        merged_reps.append((e, rep))
        dropped |= rep
    merged = [(e, sum(1 << t for t, w in enumerate(owners) if w & rep))
              for e, rep in merged_reps]
    keep = ~dropped
    return words + evens + [w & keep for w in owners], len(owners), merged


@functools.lru_cache(maxsize=64)
def _parity_polys(e: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """((1 + z)^e + (1 - z)^e) / 2 and ((1 + z)^e - (1 - z)^e) / 2: the
    weights on a class of e equal columns with even and with odd parity."""
    c = [math.comb(e, t) for t in range(e + 1)]
    even = np.array([x if t % 2 == 0 else 0 for t, x in enumerate(c)], dtype)
    odd = np.array([x if t % 2 else 0 for t, x in enumerate(c)], dtype)
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _class_sum(hist: np.ndarray, merged: list[tuple[int, int]],
               columns: int, dtype) -> np.ndarray:
    """The columns + 1 coefficients of sum_t H_t(z) prod_S P_S(z), where H_t
    is row t of the histogram and P_S is the even or odd polynomial of
    merged class S, as its bit is 0 or 1 in the combinations of row t.
    The classes whose bit is always 0 make one polynomial, multiplied in
    last."""
    base = np.ones(1, dtype=dtype)
    varying = []
    for e, mask in merged:
        even, odd = _parity_polys(e, dtype)
        if mask:
            varying.append((mask, even, odd))
        else:
            base = np.convolve(base, even)
    width = columns + 2 - len(base) - sum(len(p) - 1 for _, p, _ in varying)
    total = 0
    for t, row in enumerate(hist):
        poly = row[:width].astype(dtype, copy=False)
        for mask, even, odd in varying:
            poly = np.convolve(poly, odd if (t & mask).bit_count() & 1
                               else even)
        total = total + poly
    return np.convolve(total, base)


def weight_distribution(h: BitMatrix) -> WeightDistribution:
    """Exact A_w of C(H).  Equal columns of H are factored out by class
    (see _merged_code): the z0 zero columns give (1 + z)^z0, and each
    merged class of e columns gives its even or odd polynomial.  Then
    whichever of the merged code (2^dim codewords, dim = n' - r when H has
    n' distinct nonzero columns and every class is merged) and the row
    space (2^r words, then MacWilliams) is smaller is enumerated; ties
    enumerate the code.  ENUM_BUDGET_LOG2 bounds min(r, dim)."""
    n = h.n
    rows = _reduced_echelon(h.rows)
    r = len(rows)
    d = n - r
    parts = _column_parts(rows, n)
    z0 = parts.count(0)
    basis, tops, merged = _merged_code(parts, r)
    dim = len(basis)
    if min(r, dim) > ENUM_BUDGET_LOG2:
        raise EnumerationBudgetError(
            f"2^{dim} codewords (with the {z0} zero columns and "
            f"{d - z0 - dim} dimensions of equal columns factored out) and "
            f"2^{r} row-space words both exceed the enumeration budget "
            f"2^{ENUM_BUDGET_LOG2}")
    if r < dim:
        counts = _macwilliams(_weight_histogram(rows, n)[0].tolist(), n, r)
    else:
        hist = _weight_histogram(basis, n, tops)
        runs = hist.sum(axis=1).tolist()
        if runs.count(1 << (dim - tops)) != len(runs):
            raise ArithmeticError(f"a Gray run does not hold 2^{dim - tops} "
                                  "words")
        # Every partial sum is at most the final count: 2^(d - z0) before
        # the zero columns are multiplied in, 2^d after.
        counts = _class_sum(hist, merged, n - z0,
                            np.int64 if d - z0 < 63 else object)
        if z0:
            binom = [1]
            for i in range(z0):
                binom.append(binom[i] * (z0 - i) // (i + 1))
            dtype = np.int64 if d < 63 else object
            counts = np.convolve(counts.astype(dtype),
                                 np.array(binom, dtype=dtype))
        counts = counts.tolist()
    wd = WeightDistribution(n, tuple(counts))
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


# A Monte Carlo run scores every matrix at the same few eps.
@functools.lru_cache(maxsize=16)
def _word_probs(n: int, eps: float) -> tuple[list[float], list[float]]:
    """log eps^w (1-eps)^(n-w) = w log eps + (n - w) log1p(-eps) for
    w = 0..n, and its exp."""
    log_eps = math.log(eps)
    log_1me = math.log1p(-eps)
    logs = [w * log_eps + (n - w) * log_1me for w in range(n + 1)]
    return logs, [math.exp(x) for x in logs]


def pu_from_weights(counts, n: int, eps: float) -> float:
    """Evaluate the undetected error probability from known counts A_w.

    Each log-domain term is off by about n ulps, so the sum is capped at
    its exact upper bound 1 - (1 - eps)^n, reached when every word is a
    codeword.  Up to the few ulps of the bound itself, the cap only moves
    a value toward the truth."""
    logs, probs = _word_probs(n, eps)
    terms = [c * probs[w] if c < _FLOAT_EXACT_INT
             else math.exp(math.log(c) + logs[w])
             for w, c in enumerate(counts[1:n + 1], 1) if c]
    return min(math.fsum(terms), -math.expm1(n * math.log1p(-eps)))


def pu_polynomial(h: BitMatrix) -> RationalPoly:
    """P_U(H) as an exact polynomial in eps."""
    wd = weight_distribution(h)
    return poly_from_weight_counts(wd.counts, h.n)
