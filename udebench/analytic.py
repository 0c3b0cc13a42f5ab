"""analytic: the closed-form moments and the asymptotic exponents.

Items are single calls: `var_pu`/`avg_pu` on sparse B(n/2, n, 4) and on
R(n/2, n), `error_exponent` over the fig-3 grid for both families,
`cov_growth_rate` at a few (l1, l2) and `var_pu_growth_rate` at a few
eps.  The seed sets the order and the eps of the moment items.
"""

from __future__ import annotations

import math
import random

from udestats import (BernoulliEnsemble, Bsc, OptimizerConfig, RatePoint,
                      avg_pu, cov_growth_rate, cov_matrix, cov_weight,
                      error_exponent, growth_rate_bernoulli,
                      growth_rate_random, var_pu, var_pu_growth_rate)
from udestats.ensemble import var_pu_from_cov

import reference as ref
from common import Item, Tracer

EPS = (0.01, 0.025, 0.05, 0.1)
SPARSE_K = 4

# Items per n in each round.  The many n = 48 sparse variances form the
# cluster that holds the 90th percentile; heavier items (larger n, the
# growth rates) stay under a tenth of the list, and the exponent calls
# hold the median.
VAR_SPARSE = {16: 8, 32: 8, 48: 80, 64: 4, 96: 2, 128: 1, 160: 1}
OTHER_MOMENTS = 2      # avg_sparse, var_random and avg_random items per n
ROUNDS = 3             # the variance growth rates run once, not per round

FIG3_RATES = (0.3, 0.5, 0.7, 0.9)
FIG3_EPS = tuple(i / 100 for i in range(1, 50))
FIG3_K = 20.0
FIG3_CFG = OptimizerConfig(grid_points=4096)

GROWTH_POINT = RatePoint(0.5, 4.0)
COV_POINTS = ((0.1, 0.3), (0.25, 0.5), (0.2, 0.8), (0.05, 0.6))
VAR_GROWTH_EPS = (0.05, 0.1, 0.2, 0.3, 0.4)

REL_TOL_MEAN = 1e-12
REL_TOL_COV = 1e-10
COV_SAMPLES = 2        # sampled (w1, w2) per sparse n
VAR_CHECK_MAX_N = 48   # sparse var_pu checked in full up to this n
EXPONENT_VALUE_TOL = 1e-6
EXPONENT_ARGMAX_TOL = 1e-4
SUP_TOL = 1e-9


def _sparse(n: int) -> BernoulliEnsemble:
    return BernoulliEnsemble(n // 2, n, float(SPARSE_K))


def _random(n: int) -> BernoulliEnsemble:
    return BernoulliEnsemble.random(n // 2, n)


def build_items(seed: int, repeats: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(repeats):
        for _ in range(ROUNDS):
            for n, count in VAR_SPARSE.items():
                items += [Item("var_sparse", (n, rng.choice(EPS)))
                          for _ in range(count)]
                for kind in ("avg_sparse", "var_random", "avg_random"):
                    items += [Item(kind, (n, rng.choice(EPS)))
                              for _ in range(OTHER_MOMENTS)]
            for family in ("random", "bernoulli"):
                items += [Item(f"exponent_{family}", (r, eps))
                          for r in FIG3_RATES for eps in FIG3_EPS]
            items += [Item("cov_growth", p) for p in COV_POINTS]
        items += [Item("var_growth", (eps,)) for eps in VAR_GROWTH_EPS]
    rng.shuffle(items)
    return items


def _signature(item: Item):
    if item.kind.startswith("exponent_"):
        return item.kind, item.args[0]
    if item.kind == "var_growth":
        return item.kind
    if item.kind == "cov_growth":
        return item.kind, item.args
    return item.kind, item.args[0]


def trace_subset(items: list[Item]) -> list[Item]:
    """The first item of each kind and size, each fig-3 rate, each
    covariance point and one variance growth rate."""
    seen, subset = set(), []
    for item in items:
        sig = _signature(item)
        if sig not in seen:
            seen.add(sig)
            subset.append(item)
    return subset


def _growth(kind: str, rate: float):
    if kind == "exponent_random":
        return growth_rate_random(rate)
    return growth_rate_bernoulli(rate, FIG3_K)


def run(item: Item):
    kind, args = item.kind, item.args
    if kind == "var_sparse":
        return var_pu(_sparse(args[0]), Bsc(args[1]))
    if kind == "avg_sparse":
        return avg_pu(_sparse(args[0]), Bsc(args[1]))
    if kind == "var_random":
        return var_pu(_random(args[0]), Bsc(args[1]))
    if kind == "avg_random":
        return avg_pu(_random(args[0]), Bsc(args[1]))
    if kind == "cov_growth":
        return cov_growth_rate(GROWTH_POINT, *args)
    if kind == "var_growth":
        return var_pu_growth_rate(GROWTH_POINT, args[0])
    return error_exponent(_growth(kind, args[0]), args[1], FIG3_CFG)


def _overlap_terms(n: int) -> int:
    """(w1, w2, v) terms of the covariance matrix, w1 <= w2."""
    return sum(w1 - max(0, w1 + w2 - n) + 1
               for w1 in range(1, n + 1) for w2 in range(w1, n + 1))


def replay(item: Item, tr: Tracer):
    kind, args = item.kind, item.args
    if kind == "var_sparse":
        ens = _sparse(args[0])
        cov = tr.call("ensemble.cov_matrix", cov_matrix, ens)
        tr.count("overlap_terms", _overlap_terms(ens.n))
        return tr.call("ensemble.var_pu_from_cov", var_pu_from_cov, ens, cov,
                       args[1])
    if kind in ("avg_sparse", "avg_random"):
        ens = (_sparse if kind == "avg_sparse" else _random)(args[0])
        return tr.call("ensemble.avg_pu", avg_pu, ens, Bsc(args[1]))
    if kind == "var_random":
        return tr.call("ensemble.var_pu", var_pu, _random(args[0]),
                       Bsc(args[1]))
    if kind == "cov_growth":
        return tr.call("asymptotics.cov_growth_rate", cov_growth_rate,
                       GROWTH_POINT, *args)
    if kind == "var_growth":
        return tr.call("asymptotics.var_pu_growth_rate", var_pu_growth_rate,
                       GROWTH_POINT, args[0])
    return tr.call("asymptotics.error_exponent", error_exponent,
                   _growth(kind, args[0]), args[1], FIG3_CFG)


def same(out, rep) -> bool:
    return out == rep


def _log2_rel_err(log2_value: float, log2_exact: float) -> float:
    return abs(log2_value - log2_exact) * math.log(2.0)


def check(items: list[Item], outputs: list, replays: list | None,
          seed: int) -> list[str]:
    errors = []
    if replays is not None:
        errors += [f"item {i}: replay differs" for i, (o, r)
                   in enumerate(zip(outputs, replays))
                   if o is not None and not same(o, r)]
    sparse_var, cov_points, var_points = {}, set(), set()
    for idx, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        kind, args = item.kind, item.args
        if kind in ("var_random", "avg_random", "avg_sparse"):
            n, eps = args
            if kind == "avg_sparse":
                exact = ref.mean_pu(n // 2, n, SPARSE_K, eps)
            elif kind == "avg_random":
                exact = ref.mean_pu_random(n // 2, n, eps)
            else:
                exact = ref.var_pu_random(n // 2, n, eps)
            err = _log2_rel_err(out.log2, ref.log2_fraction(exact))
            if not err <= REL_TOL_MEAN:
                errors.append(f"item {idx}: {kind} n={n} eps={eps} "
                              f"relative error {err:.3e}")
        elif kind == "var_sparse":
            sparse_var.setdefault(args[0], {})[args[1]] = out
        elif kind == "exponent_random":
            (r, eps), (value, argmax) = args, out
            if not (abs(value + (1 - r)) <= EXPONENT_VALUE_TOL
                    and abs(argmax - eps) <= EXPONENT_ARGMAX_TOL):
                errors.append(f"item {idx}: random exponent R={r} eps={eps} "
                              f"gives ({value!r}, {argmax!r})")
        elif kind == "exponent_bernoulli":
            (r, eps), value = args, out[0]
            if not value >= -(1 - r) - SUP_TOL:
                errors.append(f"item {idx}: sparse exponent R={r} eps={eps} "
                              f"{value!r} below -(1-R)")
            if eps == 0.4 and not abs(value + (1 - r)) <= 1e-2:
                errors.append(f"item {idx}: sparse exponent R={r} at eps=0.4 "
                              f"is {value!r}, not within 1e-2 of -(1-R)")
        elif kind == "cov_growth":
            cov_points.add((args, out))
        elif kind == "var_growth":
            var_points.add((args[0], out))
    errors += _check_sparse_var(sparse_var)
    errors += _check_sparse_cov(sorted(sparse_var), random.Random(seed))
    errors += _check_growth(cov_points, var_points)
    return errors


def _check_sparse_var(sparse_var) -> list[str]:
    """var_pu against the double sum of exact covariances, for small n."""
    errors = []
    for n, by_eps in sorted(sparse_var.items()):
        if n > VAR_CHECK_MAX_N:
            continue
        exact = ref.var_pu(n // 2, n, SPARSE_K, list(by_eps))
        for (eps, out), want in zip(by_eps.items(), exact):
            err = _log2_rel_err(out.log2, math.log2(want))
            if not err <= REL_TOL_COV:
                errors.append(f"var_pu n={n} eps={eps} relative error "
                              f"{err:.3e}")
    return errors


def _check_sparse_cov(sizes: list[int], rng: random.Random) -> list[str]:
    """cov_weight against exact integers at seeded (w1, w2)."""
    errors = []
    for n in sizes:
        ens = _sparse(n)
        for _ in range(COV_SAMPLES):
            w1 = rng.randint(1, n)
            w2 = rng.randint(w1, n)
            num, den = ref.cov_weight(ens.m, n, SPARSE_K, w1, w2)
            err = _log2_rel_err(cov_weight(ens, w1, w2).log2,
                                ref.log2_ratio(num, den))
            if not err <= REL_TOL_COV:
                errors.append(f"cov_weight n={n} ({w1},{w2}) relative "
                              f"error {err:.3e}")
    return errors


def _check_growth(cov_points, var_points) -> list[str]:
    """Properties the growth rates must have: Cauchy-Schwarz for the
    covariance, Var[P_U] <= E[P_U] for the variance."""
    errors = []
    diag = {}
    for (l1, l2), t in cov_points:
        for l in (l1, l2):
            if l not in diag:
                diag[l] = cov_growth_rate(GROWTH_POINT, l, l)
        if not t <= (diag[l1] + diag[l2]) / 2 + SUP_TOL:
            errors.append(f"T({l1},{l2}) = {t!r} exceeds the mean of the "
                          "diagonal rates")
    f = growth_rate_bernoulli(GROWTH_POINT.R, GROWTH_POINT.k)
    for eps, v in var_points:
        e = error_exponent(f, eps)[0]
        if not v <= e + SUP_TOL:
            errors.append(f"var growth rate {v!r} at eps={eps} exceeds the "
                          f"mean exponent {e!r}")
    return errors


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    return {
        "ensemble.avg_pu_ms.sparse": (
            tr.mean("ensemble.avg_pu", "avg_sparse", 1e3), "ms"),
        "ensemble.avg_pu_ms.random": (
            tr.mean("ensemble.avg_pu", "avg_random", 1e3), "ms"),
        "ensemble.cov_matrix_ms": (
            tr.mean("ensemble.cov_matrix", None, 1e3), "ms"),
        "ensemble.overlap_terms_per_s": (
            tr.rate("overlap_terms", "ensemble.cov_matrix"), "1/s"),
        "ensemble.var_pu_from_cov_ms": (
            tr.mean("ensemble.var_pu_from_cov", None, 1e3), "ms"),
        "ensemble.var_pu_random_ms": (
            tr.mean("ensemble.var_pu", "var_random", 1e3), "ms"),
        "asymptotics.error_exponent_ms.random": (
            tr.mean("asymptotics.error_exponent", "exponent_random", 1e3),
            "ms"),
        "asymptotics.error_exponent_ms.bernoulli": (
            tr.mean("asymptotics.error_exponent", "exponent_bernoulli", 1e3),
            "ms"),
        "asymptotics.cov_growth_rate_ms": (
            tr.mean("asymptotics.cov_growth_rate", None, 1e3), "ms"),
        "asymptotics.var_pu_growth_rate_ms": (
            tr.mean("asymptotics.var_pu_growth_rate", None, 1e3), "ms"),
    }
