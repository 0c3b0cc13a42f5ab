"""mc-sim: the paper's Monte Carlo as `udestats sim` runs it, one worker.

An exact item is one `sample_pu_stats` block at the criterion-8 eps
values; a channel item is one `estimate_pu_distribution` call in channel
mode on a shape beyond the enumeration budget.  Every item has its own
seed drawn from the workload seed.
"""

from __future__ import annotations

import math
import random

from udestats import (BernoulliEnsemble, SampleStats, SimConfig,
                      estimate_pu_distribution, gf2, montecarlo,
                      sample_pu_stats)

import reference as ref
from common import Item, Tracer

EPS = (0.01, 0.025, 0.05, 0.1)

# kind -> (ensemble, matrices per item).  R(20,40) and B(20,40,5) have
# about 2^20 codewords and 2^20 row-space words per matrix; B(16,40,5)
# has 2^24 codewords but only 2^16 row-space words.
EXACT = {
    "r20x40": (BernoulliEnsemble.random(20, 40), 4),
    "b20x40": (BernoulliEnsemble(20, 40, 5.0), 4),
    "b16x40": (BernoulliEnsemble(16, 40, 5.0), 2),
}
CHANNEL_KIND = "c20x200"
CHANNEL = BernoulliEnsemble(20, 200, 5.0)
CHANNEL_TRIALS = 1 << 14

# Latency clusters: the two 20x40 kinds hold the median, B(16,40,5) the
# 90th percentile, the channel items sit between them.
ROUND = ("r20x40", "r20x40", "b20x40", "b20x40", "b16x40", CHANNEL_KIND)
# 40 rounds measure 12-17 s; the output checks then replay every matrix
# for about as long again.
ROUNDS = 40
TRACE_ROUNDS = 8

# Two-sided level of the Clopper-Pearson test on channel hit counts,
# small enough that a correct program fails it in no run.
CP_ALPHA = 1e-9
MEAN_SE_LIMIT = 4.0
# The mean test covers the part of P_U from weights >= W_MIN.  In R(20,40)
# codewords of weight 1, 2 and 3 are rare (about 40, 780 and 9880 per 2^20
# matrices), so a run's 320 matrices hold about 0.01, 0.24 and 3 of them.
# A sum over so few is far from normal: a 4-SE test that kept weight 1
# would fail a correct program in about one run in 80, and one that kept
# weight 3 in one run in 900.  From weight 4 on, about 28 codewords per run
# carry the tail and the test fails about one run in 10^4.  Sparse
# matrices have low-weight codewords all the time; their whole P_U is
# tested.
W_MIN = {"r20x40": 4, "b20x40": 1, "b16x40": 1}
MACWILLIAMS_ITEMS = 2


def build_items(seed: int, repeats: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for _ in range(ROUNDS * repeats):
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            s = rng.getrandbits(63)
            args = (s, rng.choice(EPS)) if kind == CHANNEL_KIND else (s,)
            items.append(Item(kind, args))
    return items


def trace_subset(items: list[Item]) -> list[Item]:
    return items[:TRACE_ROUNDS * len(ROUND)]


def run(item: Item):
    if item.kind == CHANNEL_KIND:
        seed, eps = item.args
        return estimate_pu_distribution(SimConfig(
            CHANNEL, eps, 1, channel_trials=CHANNEL_TRIALS, seed=seed))
    ens, block = EXACT[item.kind]
    return sample_pu_stats(ens, EPS, block, seed=item.args[0])


def replay(item: Item, tr: Tracer):
    """The item again, call by call through the public functions
    (worker_rng -> sample_matrix -> nullspace_basis -> weight_distribution
    -> pu_from_weights), keeping each matrix and its A_w."""
    rng = montecarlo.worker_rng(item.args[0], 0)
    if item.kind == CHANNEL_KIND:
        eps = item.args[1]
        h = tr.call("montecarlo.sample_matrix", montecarlo.sample_matrix,
                    CHANNEL, rng)
        rep = tr.call("montecarlo.estimate_pu_channel",
                      montecarlo.estimate_pu_channel, h, eps,
                      CHANNEL_TRIALS, rng)
        tr.count("channel_trials", CHANNEL_TRIALS)
        return {"matrix": h, "estimate": rep["estimate"]}
    ens, block = EXACT[item.kind]
    stats = {eps: SampleStats() for eps in EPS}
    matrices = []
    for _ in range(block):
        h = tr.call("montecarlo.sample_matrix", montecarlo.sample_matrix,
                    ens, rng)
        basis = tr.call("gf2.nullspace_basis", gf2.nullspace_basis, h)
        wd = tr.call("gf2.weight_distribution", gf2.weight_distribution, h)
        tr.count("codewords", 1 << len(basis))
        tr.count("rank_deficient", int(len(basis) > ens.n - ens.m))
        for eps in EPS:
            stats[eps].update(tr.call("gf2.pu_from_weights",
                                      gf2.pu_from_weights, wd.counts,
                                      ens.n, eps))
        matrices.append((h, wd.counts))
    return {"stats": stats, "matrices": matrices}


def _stats_key(s: SampleStats) -> tuple:
    return (s.count, s.mean, s.m2, s.min, s.max)


def same(out, rep) -> bool:
    if "estimate" in rep:
        return out["mean"] == rep["estimate"]
    return all(_stats_key(out[eps]) == _stats_key(rep["stats"][eps])
               for eps in EPS)


def _expected(kind: str) -> dict[float, tuple[float, float]]:
    """Exact mean and variance per eps of the part of P_U under test."""
    ens = EXACT[kind][0]
    m, n, k, w_min = ens.m, ens.n, ens.k, W_MIN[kind]
    var = ref.var_pu(m, n, k, EPS, w_min)
    return {eps: (float(ref.mean_pu(m, n, k, eps, w_min)), v)
            for eps, v in zip(EPS, var)}


def _partial_pu(counts, n: int, eps: float, w_min: int) -> float:
    return math.fsum(counts[w] * eps ** w * (1 - eps) ** (n - w)
                     for w in range(w_min, n + 1))


def check(items: list[Item], outputs: list, replays: list | None,
          seed: int) -> list[str]:
    errors = []
    if replays is None:
        replays = [None if it.kind == CHANNEL_KIND else replay(it, Tracer())
                   for it in items]
    pooled = {kind: {eps: SampleStats() for eps in EPS} for kind in EXACT}
    checked_mw = {kind: 0 for kind in EXACT}
    for idx, (item, out, rep) in enumerate(zip(items, outputs, replays)):
        if out is None:
            continue
        if item.kind == CHANNEL_KIND:
            errors += _check_channel(idx, item, out, rep)
            continue
        if not same(out, rep):
            errors.append(f"item {idx}: replay differs from sample_pu_stats")
        ens = EXACT[item.kind][0]
        w_min = W_MIN[item.kind]
        for eps in EPS:
            if w_min == 1:
                pooled[item.kind][eps].merge(out[eps])
            else:
                for _, counts in rep["matrices"]:
                    pooled[item.kind][eps].update(
                        _partial_pu(counts, ens.n, eps, w_min))
        for h, counts in rep["matrices"]:
            rank = len(ref.gf2_basis(h.rows))
            if counts[0] != 1 or sum(counts) != 1 << (ens.n - rank):
                errors.append(f"item {idx}: A_0 = {counts[0]}, sum A_w = "
                              f"{sum(counts)}, rank {rank}")
        if checked_mw[item.kind] < MACWILLIAMS_ITEMS:
            checked_mw[item.kind] += 1
            h, counts = rep["matrices"][0]
            b = ref.row_space_weights(ref.gf2_basis(h.rows), ens.n)
            if list(counts) != ref.macwilliams(b, ens.n):
                errors.append(f"item {idx}: A_w differs from the MacWilliams "
                              "transform of the row space")
    for kind, per_eps in pooled.items():
        if per_eps[EPS[0]].count == 0:
            continue
        for eps, (mean, var) in _expected(kind).items():
            s = per_eps[eps]
            se = math.sqrt(var / s.count)
            if not abs(s.mean - mean) <= MEAN_SE_LIMIT * se:
                errors.append(f"{kind} eps={eps}: mean of P_U from weights "
                              f">= {W_MIN[kind]} is {s.mean!r}, "
                              f"{abs(s.mean - mean) / se:.2f} SE from {mean!r}")
    return errors


def _check_channel(idx: int, item: Item, out, rep) -> list[str]:
    seed, eps = item.args
    if rep is None:
        h = montecarlo.sample_matrix(CHANNEL, montecarlo.worker_rng(seed, 0))
    else:
        h = rep["matrix"]
        if not same(out, rep):
            return [f"item {idx}: replay differs from estimate_pu_distribution"]
    hits = round(out["mean"] * CHANNEL_TRIALS)
    if hits != out["mean"] * CHANNEL_TRIALS:
        return [f"item {idx}: estimate {out['mean']!r} is not a hit fraction"]
    b = ref.row_space_weights(ref.gf2_basis(h.rows), CHANNEL.n)
    p = float(ref.pu_from_row_space(b, CHANNEL.n, eps))
    if not ref.in_clopper_pearson(hits, CHANNEL_TRIALS, p, CP_ALPHA):
        return [f"item {idx}: {hits}/{CHANNEL_TRIALS} hits outside the "
                f"Clopper-Pearson interval around P_U = {p!r}"]
    return []


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    out = {}
    for kind in EXACT:
        out[f"montecarlo.sample_matrix_us.{kind}"] = (
            tr.mean("montecarlo.sample_matrix", kind, 1e6), "us")
        out[f"gf2.nullspace_basis_us.{kind}"] = (
            tr.mean("gf2.nullspace_basis", kind, 1e6), "us")
        out[f"gf2.weight_distribution_ms.{kind}"] = (
            tr.mean("gf2.weight_distribution", kind, 1e3), "ms")
        out[f"gf2.codewords_per_s.{kind}"] = (
            tr.rate("codewords", "gf2.weight_distribution", kind), "1/s")
        out[f"gf2.pu_from_weights_us.{kind}"] = (
            tr.mean("gf2.pu_from_weights", kind, 1e6), "us")
    out[f"montecarlo.sample_matrix_us.{CHANNEL_KIND}"] = (
        tr.mean("montecarlo.sample_matrix", CHANNEL_KIND, 1e6), "us")
    out["gf2.rank_deficient"] = (tr.counted("rank_deficient"), "count")
    out["montecarlo.estimate_pu_channel_ms"] = (
        tr.mean("montecarlo.estimate_pu_channel", CHANNEL_KIND, 1e3), "ms")
    out["montecarlo.channel_trials_per_s"] = (
        tr.rate("channel_trials", "montecarlo.estimate_pu_channel"), "1/s")
    return out
