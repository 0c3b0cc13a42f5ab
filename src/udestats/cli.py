"""Command-line front end.

Every computation in the package is reachable as a subcommand; output is
plot-ready CSV (default) or JSON carrying the same formatted values.
Figure commands emit the data behind the corresponding curves only, no
rendering.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import asymptotics as asy
from . import ensemble as ens_mod
from . import montecarlo as mc
from . import oracle as oracle_mod
from .ensemble import BernoulliEnsemble, Bsc
from .gf2 import (BitMatrix, EnumerationBudgetError, pu_from_weights,
                  pu_polynomial, weight_distribution)
from .logreal import LogReal


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == -math.inf:
            return "neg_inf"
        if math.isnan(x) or x == math.inf:
            raise ValueError(f"non-finite output value {x}")
        return format(x, ".17g")
    return str(x)


def _emit(args, header: list[str], rows: list[list], doc=None) -> None:
    """Rows as CSV (a cell that holds a comma or quote is quoted), or with
    --json as records; with --json a given `doc` is written in place of
    the records."""
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        formatted = [[_fmt(v) for v in row] for row in rows]
        if args.json:
            if doc is None:
                doc = [dict(zip(header, row)) for row in formatted]
            json.dump(doc, out, indent=2)
            out.write("\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(formatted)
    finally:
        if args.output:
            out.close()


def _parse_k(s: str) -> Fraction:
    """k as a Fraction that also converts to a float."""
    try:
        k = Fraction(s)
        underflow = k > 0 and float(k) == 0.0
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse k value {s!r}") from exc
    if underflow:
        raise ValueError(f"k value {s!r} underflows to 0 as a float")
    return k


def _ensemble(args) -> BernoulliEnsemble:
    return BernoulliEnsemble(args.m, args.n, float(_parse_k(args.k)))


def _log_lin(value) -> list:
    """A LogReal as (log2, linear) column pair; the linear column reads inf
    where a finite log2 is >= 1024, past the largest float."""
    big = math.isfinite(value.log2) and value.log2 >= 1024.0
    return [value.log2, "inf" if big else value.to_float()]


def _growth_rate(args) -> asy.GrowthRate:
    """The Bernoulli family at --k, or the random family with no --k."""
    if args.k is None:
        return asy.growth_rate_random(args.rate)
    return asy.growth_rate_bernoulli(args.rate, float(_parse_k(args.k)))


def _curves(fs, points: int) -> list[list]:
    """Rows (l, f(l) for each curve f): the limits at l = 0, then each
    curve in one call on l = i/points for i = 1..points."""
    if not 1 <= points <= asy._MAX_GRID_POINTS:
        raise ValueError(f"--points must be in [1, {asy._MAX_GRID_POINTS}], "
                         f"got {points}")
    l = np.arange(1, points + 1) / points
    return [[0.0] + [f.limit0 for f in fs]] + np.column_stack(
        [l] + [f.fn(l) for f in fs]).tolist()


# --- subcommand implementations ---

def _cmd_awd(args) -> None:
    ens = _ensemble(args)
    rows = [[w] + _log_lin(LogReal(float(v)))
            for w, v in enumerate(ens_mod._log2_avg_weights(ens))]
    _emit(args, ["w", "log2_avg_aw", "avg_aw"], rows)


def _cmd_avg_pu(args) -> None:
    ens = _ensemble(args)
    rows = [[eps] + _log_lin(ens_mod.avg_pu(ens, Bsc(eps)))
            for eps in args.eps]
    _emit(args, ["eps", "log2_avg_pu", "avg_pu"], rows)


def _cmd_cov(args) -> None:
    ens = _ensemble(args)
    if (args.w1 is None) != (args.w2 is None):
        raise ValueError("--w1 and --w2 must be given together")
    if args.w1 is not None:
        rows = [[args.w1, args.w2]
                + _log_lin(ens_mod.cov_weight(ens, args.w1, args.w2))]
    else:
        cov = ens_mod.cov_matrix(ens)
        rows = [[w1, w2] + _log_lin(LogReal(float(cov[w1, w2])))
                for w1 in range(1, ens.n + 1) for w2 in range(1, ens.n + 1)]
    _emit(args, ["w1", "w2", "log2_cov", "cov"], rows)


def _cmd_var_pu(args) -> None:
    ens = _ensemble(args)
    cov = ens_mod.cov_matrix(ens)
    rows = [[eps] + _log_lin(ens_mod.var_pu_from_cov(ens, cov, eps))
            for eps in args.eps]
    _emit(args, ["eps", "log2_var_pu", "var_pu"], rows)


def _cmd_exponent(args) -> None:
    f = _growth_rate(args)
    cfg = asy.OptimizerConfig(args.grid_points)
    rows = [[eps, *asy.error_exponent(f, eps, cfg)] for eps in args.eps]
    _emit(args, ["eps", "exponent", "argmax_l"], rows)


def _cmd_growth(args) -> None:
    f = _growth_rate(args)
    _emit(args, ["l", "growth_rate"], _curves([f], args.points))


def _cmd_cov_exponent(args) -> None:
    rp = asy.RatePoint(args.rate, float(_parse_k(args.k)))
    value = asy.cov_growth_rate(rp, args.l1, args.l2,
                                asy.OptimizerConfig(args.grid_points))
    _emit(args, ["l1", "l2", "cov_growth_rate"],
          [[args.l1, args.l2, value]])


def _cmd_var_exponent(args) -> None:
    rp = asy.RatePoint(args.rate, None if args.k is None
                       else float(_parse_k(args.k)))
    rows = [[eps, asy.var_pu_growth_rate(rp, eps)] for eps in args.eps]
    _emit(args, ["eps", "var_pu_growth_rate"], rows)


def _cmd_exact_pu(args) -> None:
    with open(args.matrix) as fh:
        h = BitMatrix.parse_text(fh.read())
    if args.poly:
        poly = pu_polynomial(h)
        rows = [[j, str(poly[j])] for j in range(max(poly.degree, 0) + 1)]
        _emit(args, ["degree", "coefficient"], rows)
        return
    for eps in args.eps:
        Bsc(eps)
    counts = weight_distribution(h).counts
    rows = [[eps, pu_from_weights(counts, h.n, eps)] for eps in args.eps]
    _emit(args, ["eps", "pu"], rows)


def _cmd_oracle(args) -> None:
    k = _parse_k(args.k)
    report = oracle_mod.verify_closed_forms(args.m, args.n, k)
    rows = [[c["name"], c.get("paper_value", ""), c["oracle_value"],
             c["analytic_value"], c["rel_err"], c["status"]]
            for c in report["checks"]]
    rows.append(["overall", "", "", "", report["max_rel_err"],
                 report["status"]])
    _emit(args, ["name", "paper_value", "oracle_value", "analytic_value",
                 "rel_err", "status"], rows, doc=report)


def _cmd_sim(args) -> None:
    if args.samples < 2:
        raise ValueError("--samples must be >= 2: the variance needs at "
                         "least two matrices")
    try:
        stats = mc.sample_pu_stats(_ensemble(args), args.eps, args.samples,
                                   args.seed, args.channel_trials)
    except EnumerationBudgetError as exc:
        raise EnumerationBudgetError(
            f"{exc}; --channel-trials T estimates each matrix's P_U from T "
            "BSC transmissions instead") from exc
    rows = []
    for eps in args.eps:
        r = mc.pu_report(eps, stats[eps], args.channel_trials, args.seed)
        rows.append([eps, r["mean"], r["mean_se"], r["var"], r["var_se"],
                     r["samples"], r["mode"], r["seed"]])
    _emit(args, ["eps", "mean", "mean_se", "var", "var_se", "samples",
                 "mode", "seed"], rows)


_FIG56_EPS = [round(0.002 * 1.072267 ** i, 10) for i in range(80)]


def _cmd_fig(args) -> None:
    num = args.number
    if num in (1, 2):
        f = (asy.growth_rate_random(0.5) if num == 1
             else asy.growth_rate_bernoulli(0.5, 20.0))
        epss = [0.1, 0.2, 0.4]
        header = ["l"] + [f"g_eps{e}" for e in epss]
        rows = _curves([asy.exponent_objective(f, e) for e in epss], 512)
    elif num == 3:
        rates = [0.3, 0.5, 0.7, 0.9]
        header = ["eps"] + [f"T_R{r}" for r in rates]
        fs = [asy.growth_rate_bernoulli(r, 20.0) for r in rates]
        cfg = asy.OptimizerConfig(grid_points=4096)
        rows = [[eps] + [asy.error_exponent(f, eps, cfg)[0] for f in fs]
                for eps in (i / 100.0 for i in range(1, 50))]
    elif num == 4:
        header = ["l", "f_random", "f_bernoulli"]
        rows = _curves([asy.growth_rate_random(0.5),
                        asy.growth_rate_bernoulli(0.5, 20.0)], 512)
    elif num in (5, 6):
        ensembles = (BernoulliEnsemble.random(20, 40),
                     BernoulliEnsemble(20, 40, 5.0))
        name = "mean_pu" if num == 5 else "var_pu"
        header = ["eps", f"log2_{name}_random", f"{name}_random",
                  f"log2_{name}_sparse", f"{name}_sparse"]
        covs = [ens_mod.cov_matrix(e) for e in ensembles] if num == 6 else []
        rows = []
        for eps in _FIG56_EPS:
            row = [eps]
            for i, ens in enumerate(ensembles):
                row += _log_lin(ens_mod.var_pu_from_cov(ens, covs[i], eps)
                                if covs else ens_mod.avg_pu(ens, Bsc(eps)))
            rows.append(row)
    else:
        raise ValueError(f"unknown figure {num}")
    _emit(args, header, rows)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of CSV")
    p.add_argument("-o", "--output", default=None, help="output file")


def _add_mnk(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="rows")
    p.add_argument("--n", type=int, required=True, help="columns")
    p.add_argument("--k", required=True,
                   help="average row weight; rational like 1/2 or decimal")


def _add_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-points", type=int,
                   default=asy.OptimizerConfig().grid_points)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="udestats",
        description="Undetected-error statistics of Bernoulli/random "
                    "parity-check matrix ensembles over the BSC")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("awd", help="average weight distribution table")
    _add_mnk(p); _add_common(p)
    p.set_defaults(fn=_cmd_awd)

    p = sub.add_parser("avg-pu", help="ensemble mean of P_U")
    _add_mnk(p)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_avg_pu)

    p = sub.add_parser("cov", help="weight-distribution covariance")
    _add_mnk(p)
    p.add_argument("--w1", type=int, default=None)
    p.add_argument("--w2", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_cov)

    p = sub.add_parser("var-pu", help="ensemble variance of P_U")
    _add_mnk(p)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_var_pu)

    p = sub.add_parser("exponent", help="error exponent (sup + argmax)")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", default=None,
                   help="Bernoulli row weight; omit for the random family")
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_opt(p); _add_common(p)
    p.set_defaults(fn=_cmd_exponent)

    p = sub.add_parser("growth", help="asymptotic growth rate curve")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", default=None,
                   help="Bernoulli row weight; omit for the random family")
    p.add_argument("--points", type=int, default=512)
    _add_common(p)
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("cov-exponent",
                       help="covariance growth rate T(l1, l2)")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--l1", type=float, required=True)
    p.add_argument("--l2", type=float, required=True)
    _add_opt(p); _add_common(p)
    p.set_defaults(fn=_cmd_cov_exponent)

    p = sub.add_parser("var-exponent",
                       help="variance growth rate of P_U")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", default=None,
                   help="Bernoulli row weight; omit for the random family")
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_var_exponent)

    p = sub.add_parser("exact-pu", help="P_U of a matrix file")
    p.add_argument("--matrix", required=True, help="matrix text file")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--eps", type=float, nargs="+")
    what.add_argument("--poly", action="store_true",
                      help="emit the exact polynomial coefficients")
    _add_common(p)
    p.set_defaults(fn=_cmd_exact_pu)

    p = sub.add_parser("oracle", help="exhaustive verification report")
    _add_mnk(p); _add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("sim", help="Monte Carlo estimation of P_U stats")
    _add_mnk(p)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--channel-trials", type=int, default=0,
                   help="BSC trials per matrix; 0 = exact per-matrix P_U")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_common(p)
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("fig", help="CSV data for one of the reference figures")
    p.add_argument("number", type=int, choices=range(1, 7))
    _add_common(p)
    p.set_defaults(fn=_cmd_fig)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except BrokenPipeError:
        # The reader closed stdout (`| head`): not an error to report.
        # Point stdout at devnull so the interpreter's last flush is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, EnumerationBudgetError,
            oracle_mod.GuardExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
