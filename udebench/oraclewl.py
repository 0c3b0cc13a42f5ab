"""oracle-verify: `verify_closed_forms` over shapes with m*n <= 20.

Every shape with m*n <= 16 runs at k = n/4 and k = n/2 in each sweep; the
2^20-matrix shapes 4x5, 2x10 and 1x20 run once, at a k the seed picks.
Each item pays the enumeration cold, as one `udestats oracle` call does.
"""

from __future__ import annotations

import random
from fractions import Fraction

from udestats import (BernoulliEnsemble, cov_weight, enumerate_ensemble,
                      oracle, verify_closed_forms)

import reference as ref
from common import Item, Tracer

SMALL = tuple((m, n) for m in range(1, 17) for n in range(1, 17)
              if m * n <= 16)
LARGE = ((4, 5), (2, 10), (1, 20))
# Repeating the small shapes puts several equal-cost items around each
# percentile, so no single item sets item_p50_ms or item_p90_ms.
SWEEPS = 5
TRACE_LARGE = ((4, 5),)

WORKED_EXAMPLE = {"cov[1,1]": Fraction(3, 8), "cov[1,2]": Fraction(3, 16),
                  "cov[2,2]": Fraction(15, 64)}


def build_items(seed: int, repeats: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(repeats):
        items += [Item("verify", (m, n, Fraction(n, rng.choice((2, 4)))))
                  for m, n in LARGE]
        items += [Item("verify", (m, n, Fraction(n, d)))
                  for _ in range(SWEEPS) for m, n in SMALL for d in (4, 2)]
    rng.shuffle(items)
    return items


def trace_subset(items: list[Item]) -> list[Item]:
    """The first item of each small shape, and 4x5."""
    seen, subset = set(), []
    for item in items:
        shape = item.args[:2]
        if shape not in seen and (shape in SMALL or shape in TRACE_LARGE):
            seen.add(shape)
            subset.append(item)
    return subset


def _cold() -> None:
    """Drop the oracle's per-shape class sums so the next call enumerates."""
    cache = getattr(oracle, "_class_sums_cache", None)
    if cache is not None:
        cache.clear()


def run(item: Item):
    _cold()
    return verify_closed_forms(*item.args)


def replay(item: Item, tr: Tracer):
    """Cold enumeration, then the report with the class sums warm, then
    the covariances the report compares, one cov_weight call each."""
    m, n, k = item.args
    _cold()
    tr.call("oracle.enumerate_ensemble", enumerate_ensemble, m, n, k)
    tr.count("matrices", 1 << (m * n))
    report = tr.call("oracle.verify_closed_forms", verify_closed_forms,
                     m, n, k)
    ens = BernoulliEnsemble(m, n, float(k))
    for w1 in range(1, n + 1):
        for w2 in range(w1, n + 1):
            tr.call("ensemble.cov_weight", cov_weight, ens, w1, w2)
    return report


def same(out, rep) -> bool:
    return out == rep


def check(items: list[Item], outputs: list, replays: list | None,
          seed: int) -> list[str]:
    errors = []
    for idx, (item, out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        m, n, k = item.args
        if replays is not None and not same(out, replays[idx]):
            errors.append(f"item {idx}: replay report differs")
        if out["status"] != "PASS":
            errors.append(f"item {idx}: ({m},{n},{k}) status {out['status']}")
        values = {c["name"]: Fraction(c["oracle_value"])
                  for c in out["checks"]}
        for w in range(n + 1):
            if values[f"avg_weight[{w}]"] != ref.avg_weight(m, n, k, w):
                errors.append(f"item {idx}: ({m},{n},{k}) E[A_{w}] is "
                              f"{values[f'avg_weight[{w}]']}")
        if (m, n, k) == (1, 2, Fraction(1, 2)):
            for name, want in WORKED_EXAMPLE.items():
                if values[name] != want:
                    errors.append(f"item {idx}: worked example {name} is "
                                  f"{values[name]}, not {want}")
    return errors


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    return {
        "oracle.enumerate_ensemble_ms": (
            tr.mean("oracle.enumerate_ensemble", None, 1e3), "ms"),
        "oracle.matrices_per_s": (
            tr.rate("matrices", "oracle.enumerate_ensemble"), "1/s"),
        "oracle.verify_closed_forms_ms": (
            tr.mean("oracle.verify_closed_forms", None, 1e3), "ms"),
        "ensemble.cov_weight_us": (
            tr.mean("ensemble.cov_weight", None, 1e6), "us"),
    }
