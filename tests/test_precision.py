"""The precision contract of the ensemble closed forms, against 50-digit
mpmath: every log2 value is within 16 ulps of the sum of the magnitudes
of the log2 factors in its largest term."""

import math
import random

import mpmath as mp

from udestats.ensemble import (BernoulliEnsemble, Bsc, avg_pu, avg_weight,
                               cov_matrix, cov_weight, second_moment_from_cov,
                               var_pu_from_cov)

EPS = (1e-300, 1e-12, 0.01, 0.49)


def _lbinom(a, j):
    return (mp.loggamma(a + 1) - mp.loggamma(j + 1)
            - mp.loggamma(a - j + 1)) / mp.ln2


def _log_z(n, k):
    """ln z, z = 1 - 2k/n; -inf for the random ensemble."""
    return mp.log1p(-2 * mp.mpf(k) / n) if 2 * k < n else mp.ninf


def _half(lz, w):
    """log2((1 + z^w)/2) for w >= 1."""
    return mp.log1p(mp.expm1(w * lz) / 2) / mp.ln2


def _check(got, terms):
    """got against log2 of the sum of the terms, each a tuple of log2
    factors, within 16 ulps of the factor magnitudes of the largest."""
    logs = [mp.fsum(t) for t in terms]
    ref = mp.log(mp.fsum(mp.power(2, x) for x in logs), 2)
    top = terms[max(range(len(logs)), key=logs.__getitem__)]
    bound = 16 * math.ulp(float(mp.fsum(abs(x) for x in top)))
    assert abs(got - float(ref)) <= bound, (got, float(ref), bound)


def _weight_terms(m, n, lz, eps):
    """Factors of E[A_w] eps^w (1-eps)^(n-w) for the w = 1..n whose float
    estimate is within 2^-200 of the largest."""
    e = mp.mpf(eps)
    le, l1e = mp.log(e, 2), mp.log1p(-e) / mp.ln2
    est = [m * math.log2((1 + math.exp(w * float(lz))) / 2)
           + w * float(le) + (n - w) * float(l1e) + (math.lgamma(n + 1)
           - math.lgamma(w + 1) - math.lgamma(n - w + 1)) / math.log(2)
           for w in range(n + 1)]
    top = max(est[1:])
    return [(m * _half(lz, w), _lbinom(n, w), w * le, (n - w) * l1e)
            for w in range(1, n + 1) if est[w] > top - 200]


def _cov_terms(m, n, lz, w1, w2):
    """Factors of the overlap terms of Cov(A_w1, A_w2), v >= 1."""
    w1, w2 = min(w1, w2), max(w1, w2)
    den = (1 + mp.exp(w1 * lz)) * (1 + mp.exp(w2 * lz))
    head = (m * _half(lz, w1), m * _half(lz, w2), _lbinom(n, w1))
    out = []
    for v in range(max(1, w1 + w2 - n), w1 + 1):
        y = mp.exp((w1 + w2 - 2 * v) * lz) * -mp.expm1(2 * v * lz) / den
        out.append(head + (_lbinom(w1, v), _lbinom(n - w1, w2 - v),
                           mp.log(mp.expm1(m * mp.log1p(y)), 2)))
    return out


def _second_terms(m, n, lz, w1, w2):
    """Factors of the overlap terms of E[A_w1 A_w2], v >= 0: the counts
    and the joint-pass probability ((1 + z^w1 + z^w2 + z^e)/4)^m,
    e = w1 + w2 - 2v."""
    w1, w2 = min(w1, w2), max(w1, w2)

    def zm1(e):  # z^e - 1
        return mp.expm1(e * lz) if e else mp.mpf(0)
    out = []
    for v in range(max(0, w1 + w2 - n), w1 + 1):
        joint = mp.log1p((zm1(w1) + zm1(w2) + zm1(w1 + w2 - 2 * v)) / 4)
        out.append((_lbinom(n, w1), _lbinom(w1, v), _lbinom(n - w1, w2 - v),
                    m * joint / mp.ln2))
    return out


def _var_terms(m, n, lz, eps):
    """Factors of Var[P_U] as a sum over the row states (i, j, k, l), l >= 1:
    4^-m (m; i,j,k,l) R^n expm1(n log1p((Q - R)/R)), with
    P_a = 1 - eps + eps z^a, R = P_(j+l) P_(k+l) and
    Q - R = eps^2 z^(j+k) (1 - z^(2l))."""
    e = mp.mpf(eps)
    zp = [mp.exp(a * lz) if a else mp.mpf(1) for a in range(2 * m + 1)]
    p = [1 - e + e * z for z in zp[:m + 1]]
    lf = [mp.log(math.factorial(i), 2) for i in range(m + 1)]
    out = []
    for l in range(1, m + 1):
        gap = e * e * -mp.expm1(2 * l * lz)
        for j in range(m - l + 1):
            for k in range(m - l - j + 1):
                r = p[j + l] * p[k + l]
                out.append((mp.mpf(-2 * m),
                            lf[m] - lf[m - l - j - k] - lf[j] - lf[k] - lf[l],
                            n * mp.log(r, 2), mp.log(mp.expm1(
                                n * mp.log1p(gap * zp[j + k] / r)), 2)))
    return out


def test_precision_contract():
    rng = random.Random(16)
    with mp.workdps(50):
        for m, n in [(10000, 20000), (1, 20000), (100, 1000), (20, 40)]:
            for k in (1e-12, 4.0, n / 2):
                ens, lz = BernoulliEnsemble(m, n, k), _log_z(n, k)
                for w in {1, 2, n // 7, n // 2, n}:
                    _check(avg_weight(ens, w).log2,
                           [(m * _half(lz, w), _lbinom(n, w))])
        for m, n, k, eps in [(10000, 20000, 4.0, 0.01), (20, 40, 1e-12, 1e-300),
                             (100, 1000, 0.5, 0.49), (20, 40, 20, 1e-12)]:
            _check(avg_pu(BernoulliEnsemble(m, n, k), Bsc(eps)).log2,
                   _weight_terms(m, n, _log_z(n, k), eps))
        for m, n in [(20, 4096), (50, 300), (20, 40)]:
            for k in (1e-12, 0.5, n / 4):
                ens = BernoulliEnsemble(m, n, k)
                w1, w2 = rng.randint(1, n), rng.randint(1, n)
                _check(cov_weight(ens, w1, w2).log2,
                       _cov_terms(m, n, _log_z(n, k), w1, w2))
                if n <= 300:  # the whole (n+1) x (n+1) grid
                    second = second_moment_from_cov(ens, cov_matrix(ens))
                    _check(float(second[w1, w2]),
                           _second_terms(m, n, _log_z(n, k), w1, w2))
        for m, n, k, epss in [(30, 400, 4.0, (1e-300, 0.49)),
                              (10, 100, 1e-12, EPS), (10, 100, 0.5, EPS),
                              (10, 100, 50, EPS)]:
            ens = BernoulliEnsemble(m, n, k)
            cov = cov_matrix(ens)
            for eps in epss:
                _check(var_pu_from_cov(ens, cov, eps).log2,
                       _var_terms(m, n, _log_z(n, k), eps))
