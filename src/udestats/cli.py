"""Command-line front end.

Every computation in the package is reachable as a subcommand; output is
plot-ready CSV (default) or JSON carrying the same formatted values.
Figure commands emit the data behind the corresponding curves only, no
rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import asymptotics as asy
from . import ensemble as ens_mod
from . import montecarlo as mc
from . import oracle as oracle_mod
from .ensemble import BernoulliEnsemble, Bsc, OverlapRangeError
from .gf2 import (BitMatrix, EnumerationBudgetError, MatrixFormatError,
                  pu_polynomial, undetected_error_prob)
from .logreal import LogReal


def _fmt(x) -> str:
    if isinstance(x, float):
        if x == -math.inf:
            return "neg_inf"
        if math.isnan(x) or x == math.inf:
            raise ValueError(f"non-finite output value {x}")
        return format(x, ".17g")
    return str(x)


def _emit(args, header: list[str], rows: list[list]) -> None:
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        formatted = [[_fmt(v) for v in row] for row in rows]
        if args.json:
            records = [dict(zip(header, row)) for row in formatted]
            json.dump(records, out, indent=2)
            out.write("\n")
        else:
            out.write(",".join(header) + "\n")
            for row in formatted:
                out.write(",".join(row) + "\n")
    finally:
        if args.output:
            out.close()


def _parse_k(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse k value {s!r}") from exc


def _ensemble(args) -> BernoulliEnsemble:
    return BernoulliEnsemble(args.m, args.n, float(_parse_k(args.k)))


def _log_lin(value) -> list:
    """A LogReal as (log2, linear) column pair."""
    return [value.log2, value.to_float()]


def _opt_config(args) -> asy.OptimizerConfig:
    return asy.OptimizerConfig(grid_points=args.grid_points,
                               refine_tol=args.refine_tol)


def _growth_rate(family: str, rate: float, k) -> asy.GrowthRate:
    if family == "random":
        return asy.growth_rate_random(rate)
    if k is None:
        raise ValueError("--k is required for the bernoulli family")
    return asy.growth_rate_bernoulli(rate, float(k))


# --- subcommand implementations ---

def _cmd_awd(args) -> None:
    ens = _ensemble(args)
    rows = [[w] + _log_lin(ens_mod.avg_weight(ens, w))
            for w in range(ens.n + 1)]
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
    rows = [[eps] + _log_lin(ens_mod.var_pu(ens, Bsc(eps)))
            for eps in args.eps]
    _emit(args, ["eps", "log2_var_pu", "var_pu"], rows)


def _cmd_exponent(args) -> None:
    f = _growth_rate(args.family, args.rate, args.k and _parse_k(args.k))
    cfg = _opt_config(args)
    rows = []
    for eps in args.eps:
        value, argmax = asy.error_exponent(f, eps, cfg)
        rows.append([eps, value, argmax])
    _emit(args, ["eps", "exponent", "argmax_l"], rows)


def _cmd_growth(args) -> None:
    f = _growth_rate(args.family, args.rate, args.k and _parse_k(args.k))
    rows = [[0.0, f.limit0]]
    for i in range(1, args.points + 1):
        l = i / args.points
        rows.append([l, f(l)])
    _emit(args, ["l", "growth_rate"], rows)


def _cmd_cov_exponent(args) -> None:
    rp = asy.RatePoint(args.rate, float(_parse_k(args.k)))
    value = asy.cov_growth_rate(rp, args.l1, args.l2, _opt_config(args))
    _emit(args, ["l1", "l2", "cov_growth_rate"],
          [[args.l1, args.l2, value]])


def _cmd_var_exponent(args) -> None:
    rp = asy.RatePoint(args.rate, float(_parse_k(args.k)))
    cfg = _opt_config(args)
    rows = [[eps, asy.var_pu_growth_rate(rp, eps, cfg)] for eps in args.eps]
    _emit(args, ["eps", "var_pu_growth_rate"], rows)


def _cmd_exact_pu(args) -> None:
    with open(args.matrix) as fh:
        h = BitMatrix.parse_text(fh.read())
    if args.poly:
        poly = pu_polynomial(h, args.enum_budget)
        rows = [[j, str(poly[j])] for j in range(max(poly.degree, 0) + 1)]
        _emit(args, ["degree", "coefficient"], rows)
        return
    rows = [[eps, undetected_error_prob(h, eps, args.enum_budget)]
            for eps in args.eps]
    _emit(args, ["eps", "pu"], rows)


def _cmd_oracle(args) -> None:
    k = _parse_k(args.k)
    report = oracle_mod.verify_closed_forms(args.m, args.n, k,
                                            rel_tol=args.rel_tol)
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.json:
            json.dump(report, out, indent=2)
            out.write("\n")
        else:
            out.write("name,paper_value,oracle_value,analytic_value,"
                      "rel_err,status\n")
            for c in report["checks"]:
                out.write(",".join([
                    c["name"], c.get("paper_value", ""), c["oracle_value"],
                    _fmt(c["analytic_value"]), _fmt(c["rel_err"]),
                    c["status"]]) + "\n")
            out.write(f"overall,,,,{_fmt(report['max_rel_err'])},"
                      f"{report['status']}\n")
    finally:
        if args.output:
            out.close()


def _cmd_sim(args) -> None:
    if args.samples < 2:
        raise ValueError("--samples must be >= 2: the variance needs at "
                         "least two matrices")
    stats = mc.sample_pu_stats(_ensemble(args), args.eps, args.samples,
                               args.seed, args.channel_trials)
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
        objs = [asy.exponent_objective(f, e) for e in epss]
        header = ["l"] + [f"g_eps{e}" for e in epss]
        rows = [[0.0] + [g.limit0 for g in objs]]
        for i in range(1, 513):
            l = i / 512
            rows.append([l] + [g(l) for g in objs])
    elif num == 3:
        rates = [0.3, 0.5, 0.7, 0.9]
        header = ["eps"] + [f"T_R{r}" for r in rates]
        rows = []
        for i in range(1, 50):
            eps = i / 100.0
            row = [eps]
            for r in rates:
                val, _ = asy.error_exponent(
                    asy.growth_rate_bernoulli(r, 20.0), eps,
                    asy.OptimizerConfig(grid_points=4096))
                row.append(val)
            rows.append(row)
    elif num == 4:
        f_rnd = asy.growth_rate_random(0.5)
        f_spm = asy.growth_rate_bernoulli(0.5, 20.0)
        header = ["l", "f_random", "f_bernoulli"]
        rows = [[0.0, f_rnd.limit0, f_spm.limit0]]
        for i in range(1, 513):
            l = i / 512
            rows.append([l, f_rnd(l), f_spm(l)])
    elif num in (5, 6):
        rnd = BernoulliEnsemble.random(20, 40)
        sparse = BernoulliEnsemble(20, 40, 5.0)
        name = "mean_pu" if num == 5 else "var_pu"
        header = ["eps", f"log2_{name}_random", f"{name}_random",
                  f"log2_{name}_sparse", f"{name}_sparse"]
        if num == 5:
            def stat(ens, cov, eps):
                return ens_mod.avg_pu(ens, Bsc(eps))
            cov_rnd = cov_sparse = None
        else:
            def stat(ens, cov, eps):
                return ens_mod.var_pu_from_cov(ens, cov, eps)
            cov_rnd = ens_mod.cov_matrix(rnd)
            cov_sparse = ens_mod.cov_matrix(sparse)
        rows = []
        for eps in _FIG56_EPS:
            rows.append([eps] + _log_lin(stat(rnd, cov_rnd, eps))
                        + _log_lin(stat(sparse, cov_sparse, eps)))
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
    p.add_argument("--grid-points", type=int, default=16384)
    p.add_argument("--refine-tol", type=float, default=1e-10)


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
    p.add_argument("--family", choices=["random", "bernoulli"],
                   required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", default=None)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_opt(p); _add_common(p)
    p.set_defaults(fn=_cmd_exponent)

    p = sub.add_parser("growth", help="asymptotic growth rate curve")
    p.add_argument("--family", choices=["random", "bernoulli"],
                   required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--k", default=None)
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
    p.add_argument("--k", required=True)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    _add_opt(p); _add_common(p)
    p.set_defaults(fn=_cmd_var_exponent)

    p = sub.add_parser("exact-pu", help="P_U of a matrix file")
    p.add_argument("--matrix", required=True, help="matrix text file")
    p.add_argument("--eps", type=float, nargs="+", default=[])
    p.add_argument("--poly", action="store_true",
                   help="emit the exact polynomial coefficients instead")
    p.add_argument("--enum-budget", type=int, default=28,
                   help="log2 budget on words enumerated (codewords or "
                   "row-space words, whichever is fewer)")
    _add_common(p)
    p.set_defaults(fn=_cmd_exact_pu)

    p = sub.add_parser("oracle", help="exhaustive verification report")
    _add_mnk(p)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    _add_common(p)
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
    except (ValueError, EnumerationBudgetError, MatrixFormatError,
            OverlapRangeError, oracle_mod.GuardExceededError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
