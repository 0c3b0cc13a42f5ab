"""Exhaustive exact-arithmetic ground truth for tiny ensembles.

Every matrix in a small Bernoulli ensemble is enumerated with its exact
rational probability; moments, covariances and undetected-error
polynomials come out as exact Fractions.  This is the adjudicator for
the closed-form module (and for the two typos in the published worked
example: the mean's eps coefficient and the second moment's eps^3
coefficient).

The per-matrix weight distributions are obtained by direct enumeration of
all 2^n candidate codewords against all matrices at once (vectorized),
which is an independent route from gf2's enumeration of the code or of
the row space (with the MacWilliams transform) — the two are
cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import ensemble as ens_mod
from .ensemble import BernoulliEnsemble, Bsc
from .gf2 import BitVector
from .logreal import LogReal
from .rational import RationalPoly, poly_from_weight_counts

# All 2^(m n) matrices are held in memory at once; shapes whose
# enumeration would peak above this many bytes are refused up front.
_PEAK_BYTES_LIMIT = 2 << 30
# Candidate codewords checked against every matrix per vectorized step.
_X_BLOCK = 64


class GuardExceededError(RuntimeError):
    """Enumeration that would need more memory than the oracle allows."""


def _check_k(n: int, k: Fraction) -> Fraction:
    k = Fraction(k)
    if not 0 < k <= Fraction(n, 2):
        raise ValueError(f"need 0 < k <= n/2, got k={k}, n={n}")
    return k


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
    matrix_probs: Optional[tuple] = None   # P(H) by matrix id, tiny cases only

    @property
    def p(self) -> Fraction:
        return self.k / self.n


def _peak_bytes(m: int, n: int) -> int:
    """Estimated peak bytes of _weight_class_sums(m, n) on its first call,
    for m n < 64 (matrix ids are uint64).

    Per matrix, the generic path holds its id, its m rows, its ones count
    and its n + 1 counts, plus about 7 bytes per candidate codeword of
    one x block while the block's parities are formed (the uint32 AND,
    its popcount, the parity, the mask and the running mask) and 8 bytes
    per weight sum.  The single-row path holds the candidate words with
    their popcounts and parity temporaries, and the gathered counts.
    Grouping by ones count then copies the largest class of counts, and
    its Gram product copies it once more.
    """
    num = 1 << (m * n)
    row = 8 * (n + 1)
    if m == 1:
        enum = num * (4 + 1 + 8 + 7 + row)
    else:
        enum = num * (8 + 4 * m + 8 + row + 7 * min(_X_BLOCK, 1 << n) + 8)
    group = num * (row + 8 + 1) + 2 * math.comb(m * n, m * n // 2) * row
    return max(enum, group)


def _per_matrix_weight_counts_single_row(n: int) -> tuple[np.ndarray, np.ndarray]:
    """_per_matrix_weight_counts_generic(1, n) by a shortcut: column
    permutations preserve all Hamming weights, so A_w depends only on the
    row weight and one representative per weight suffices."""
    xs = np.arange(1 << n, dtype=np.uint32)
    wt_x = np.bitwise_count(xs)
    wt_h = wt_x.astype(np.int64)
    rep = np.zeros((n + 1, n + 1), dtype=np.int64)
    for wt in range(n + 1):
        r = np.uint32((1 << wt) - 1)
        valid = (np.bitwise_count(xs & r) & 1) == 0
        rep[wt] = np.bincount(wt_x[valid], minlength=n + 1)[:n + 1]
    return rep[wt_h], wt_h


def _per_matrix_weight_counts_generic(m: int, n: int
                                      ) -> tuple[np.ndarray, np.ndarray]:
    """A[t, w] = A_w of matrix id t, plus the total ones count per matrix;
    matrix id t packs row i into bits [n*i, n*(i+1)).

    Direct parity check of every x vector against every matrix.  The
    x-loop is blocked so each block is one big vectorized parity check;
    blocks combine by summation, so any partitioning yields the same
    counts.
    """
    num = 1 << (m * n)
    ids = np.arange(num, dtype=np.uint64)
    rowmask = np.uint64((1 << n) - 1)
    rows = [((ids >> np.uint64(n * i)) & rowmask).astype(np.uint32)
            for i in range(m)]
    wt_h = np.zeros(num, dtype=np.int64)
    for r in rows:
        wt_h += np.bitwise_count(r)

    xs = np.arange(1 << n, dtype=np.uint32)
    wt_x = np.bitwise_count(xs)
    counts = np.zeros((num, n + 1), dtype=np.int64)
    for start in range(0, 1 << n, _X_BLOCK):
        xb = xs[start:start + _X_BLOCK]
        valid = np.ones((num, len(xb)), dtype=bool)
        for r in rows:
            par_even = (np.bitwise_count(r[:, None] & xb[None, :]) & 1) == 0
            valid &= par_even
        wb = wt_x[start:start + _X_BLOCK]
        for w in np.unique(wb):
            cols = np.nonzero(wb == w)[0]
            counts[:, w] += valid[:, cols].sum(axis=1)
    return counts, wt_h


_class_sums_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _weight_class_sums(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of A_w and A_w1 A_w2 over matrices grouped by total ones
    count; k-independent, so cached across ensembles of the same shape."""
    key = (m, n)
    if key not in _class_sums_cache:
        counts, wt_h = (_per_matrix_weight_counts_single_row(n) if m == 1
                        else _per_matrix_weight_counts_generic(m, n))
        mn = m * n
        s1 = np.zeros((mn + 1, n + 1), dtype=np.int64)
        s2 = np.zeros((mn + 1, n + 1, n + 1), dtype=np.int64)
        for wt in range(mn + 1):
            sel = counts[wt_h == wt]
            if sel.size:
                s1[wt] = sel.sum(axis=0)
                s2[wt] = sel.T @ sel
        _class_sums_cache[key] = (s1, s2)
    return _class_sums_cache[key]


def enumerate_ensemble(m: int, n: int, k) -> EnsembleMoments:
    """Exact moments by iterating all 2^(m n) matrices."""
    if m * n >= 64 or _peak_bytes(m, n) > _PEAK_BYTES_LIMIT:
        raise GuardExceededError(
            f"enumerating 2^{m * n} matrices needs more than the oracle's "
            f"{_PEAK_BYTES_LIMIT >> 30} GiB memory limit")
    k = _check_k(n, Fraction(k))
    p = k / n
    mn = m * n
    s1, s2 = _weight_class_sums(m, n)

    # Matrices group by total ones count: P(H) = p^wt (1-p)^(mn-wt).
    prob_wt = [p ** wt * (1 - p) ** (mn - wt) for wt in range(mn + 1)]
    e_aw = [sum(prob_wt[wt] * int(s1[wt, w]) for wt in range(mn + 1))
            for w in range(n + 1)]
    e_awaw = [[sum(prob_wt[wt] * int(s2[wt, w1, w2]) for wt in range(mn + 1))
               for w2 in range(n + 1)] for w1 in range(n + 1)]
    cov = [[e_awaw[w1][w2] - e_aw[w1] * e_aw[w2] for w2 in range(n + 1)]
           for w1 in range(n + 1)]

    e_pu = poly_from_weight_counts(e_aw, n)
    # Group the double sum by w1 + w2: same Bernstein factor in eps.
    by_total = [Fraction(0)] * (2 * n + 1)
    for w1 in range(1, n + 1):
        for w2 in range(1, n + 1):
            by_total[w1 + w2] += e_awaw[w1][w2]
    e_pu2 = poly_from_weight_counts(by_total, 2 * n)
    var_pu = e_pu2 - e_pu * e_pu

    matrix_probs = None
    if (1 << mn) <= 4096:
        matrix_probs = tuple(p ** t.bit_count() * (1 - p) ** (mn - t.bit_count())
                             for t in range(1 << mn))

    return EnsembleMoments(
        m=m, n=n, k=k,
        e_aw=tuple(e_aw),
        e_awaw=tuple(tuple(row) for row in e_awaw),
        cov=tuple(tuple(row) for row in cov),
        e_pu=e_pu, e_pu2=e_pu2, var_pu=var_pu,
        matrix_probs=matrix_probs)


def brute_force_joint_pass(m: int, n: int, k, x: BitVector, y: BitVector
                           ) -> Fraction:
    """Pr[H x^t = 0 and H y^t = 0] by enumerating all 2^n rows.

    Rows are independent, so the single-row probability is raised to m.
    """
    if n > 20:
        raise GuardExceededError(f"2^{n} rows exceed the brute-force guard")
    if x.n != n or y.n != n:
        raise ValueError("vector length mismatch")
    k = _check_k(n, Fraction(k))
    p = k / n
    q = Fraction(0)
    for h in range(1 << n):
        if (h & x.bits).bit_count() & 1:
            continue
        if (h & y.bits).bit_count() & 1:
            continue
        w = h.bit_count()
        q += p ** w * (1 - p) ** (n - w)
    return q ** m


# --- Exact-rational evaluations of the closed forms (the analytic side of
# the oracle comparisons, kept in Fractions so equality can be exact). ---

def avg_weight_exact(m: int, n: int, k, w: int) -> Fraction:
    k = _check_k(n, Fraction(k))
    z = 1 - 2 * k / n
    return (Fraction(1 + z ** w, 2)) ** m * math.comb(n, w)


def joint_pass_prob_exact(m: int, n: int, k, w1: int, w2: int, v: int
                          ) -> Fraction:
    k = _check_k(n, Fraction(k))
    if not max(0, w1 + w2 - n) <= v <= min(w1, w2):
        raise ValueError(f"overlap v={v} invalid for w1={w1}, w2={w2}")
    z = 1 - 2 * k / n
    return (Fraction(1 + z ** w1 + z ** w2 + z ** (w1 + w2 - 2 * v), 4)) ** m


def second_moment_weight_exact(m: int, n: int, k, w1: int, w2: int) -> Fraction:
    if w1 > w2:
        w1, w2 = w2, w1
    acc = Fraction(0)
    for v in range(max(0, w1 + w2 - n), w1 + 1):
        count = math.comb(n, w1) * math.comb(w1, v) * math.comb(n - w1, w2 - v)
        acc += count * joint_pass_prob_exact(m, n, k, w1, w2, v)
    return acc


def cov_weight_exact(m: int, n: int, k, w1: int, w2: int) -> Fraction:
    return (second_moment_weight_exact(m, n, k, w1, w2)
            - avg_weight_exact(m, n, k, w1) * avg_weight_exact(m, n, k, w2))


# --- Verification report ---

# Printed coefficients in the published worked example for (1, 2, 1/2)
# that disagree with exhaustive enumeration.
_PUBLISHED_EXAMPLE = {
    "e_pu_eps1_coeff": Fraction(2, 3),    # enumeration gives 3/2
    "e_pu2_eps3_coeff": Fraction(-3, 8),  # enumeration gives -3
}


def _rel_err(oracle_value: Fraction, analytic_value: float) -> float:
    o = float(oracle_value)
    a = analytic_value
    if o == a:
        return 0.0
    return abs(o - a) / max(abs(o), abs(a))


def verify_closed_forms(m: int, n: int, k,
                        eps_points: Sequence[Fraction] = (
                            Fraction(1, 10), Fraction(3, 10)),
                        rel_tol: float = 1e-10) -> dict:
    """Compare exhaustive-enumeration moments against the closed-form
    module on every overlapping quantity.

    Mismatches are report content, not exceptions.  The report also
    prints published-example coefficients next to the enumerated ones for
    the (1, 2, 1/2) case, flagging the known discrepancies.
    """
    k = _check_k(n, Fraction(k))
    moments = enumerate_ensemble(m, n, k)
    analytic = BernoulliEnsemble(m, n, float(k))
    checks = []

    def add(name, oracle_value, analytic_value, paper_value=None):
        err = _rel_err(oracle_value, analytic_value)
        entry = {
            "name": name,
            "oracle_value": str(oracle_value),
            "analytic_value": analytic_value,
            "rel_err": err,
            "status": "PASS" if err <= rel_tol else "FAIL",
        }
        if paper_value is not None:
            entry["paper_value"] = str(paper_value)
            entry["status"] = ("PASS" if Fraction(paper_value) == oracle_value
                               else "MISMATCH_WITH_PAPER")
        checks.append(entry)

    for w in range(n + 1):
        add(f"avg_weight[{w}]", moments.e_aw[w],
            ens_mod.avg_weight(analytic, w).to_float())
    cov = ens_mod.cov_matrix(analytic)
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            add(f"second_moment[{w1},{w2}]", moments.e_awaw[w1][w2],
                ens_mod.second_moment_weight(analytic, w1, w2).to_float())
            add(f"cov[{w1},{w2}]", moments.cov[w1][w2],
                LogReal(float(cov[w1, w2])).to_float())
    for eps in eps_points:
        ch = Bsc(float(eps))
        add(f"avg_pu[eps={eps}]", moments.e_pu(eps),
            ens_mod.avg_pu(analytic, ch).to_float())
        add(f"var_pu[eps={eps}]", moments.var_pu(eps),
            ens_mod.var_pu(analytic, ch).to_float())

    if (m, n, k) == (1, 2, Fraction(1, 2)):
        add("e_pu_eps1_coeff", moments.e_pu[1], float(moments.e_pu[1]),
            paper_value=_PUBLISHED_EXAMPLE["e_pu_eps1_coeff"])
        add("e_pu2_eps3_coeff", moments.e_pu2[3], float(moments.e_pu2[3]),
            paper_value=_PUBLISHED_EXAMPLE["e_pu2_eps3_coeff"])

    numeric = [c for c in checks if "paper_value" not in c]
    max_err = max(c["rel_err"] for c in numeric)
    return {
        "params": {"m": m, "n": n, "k": str(k)},
        "rel_tol": rel_tol,
        "max_rel_err": max_err,
        "status": "PASS" if all(c["status"] == "PASS" for c in numeric)
                  else "FAIL",
        "checks": checks,
    }
