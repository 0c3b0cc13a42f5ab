"""Command-line interface behavior and output formats."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from udestats import asymptotics, cli, gf2, oracle
from udestats.cli import build_parser, main
from udestats.logreal import LogReal


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_exponent_random_example(capsys):
    code, out, _ = run_cli(capsys, "exponent", "--rate", "0.5", "--eps",
                           "0.2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps", "exponent", "argmax_l"]
    # the random family's closed form: -(1 - R) at l = eps, exactly
    assert float(rows[0][1]) == -0.5
    assert float(rows[0][2]) == 0.2


def test_exponent_checks_the_grid_without_k(capsys):
    # The random family needs no grid, but a bad --grid-points is still
    # an error.
    code, out, err = run_cli(capsys, "exponent", "--rate", "0.5", "--eps",
                             "0.2", "--grid-points", "10")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "grid_points" in err


@pytest.mark.parametrize("k, f", [
    ((), asymptotics.growth_rate_random(0.5)),
    (("--k", "20"), asymptotics.growth_rate_bernoulli(0.5, 20.0)),
])
def test_no_k_is_the_random_family(capsys, k, f):
    code, out, _ = run_cli(capsys, "exponent", "--rate", "0.5", *k, "--eps",
                           "0.2")
    assert code == 0
    value, at = asymptotics.error_exponent(f, 0.2)
    cells = ",".join(cli._fmt(v) for v in (0.2, value, at))
    assert out == f"eps,exponent,argmax_l\n{cells}\n"
    code, out, _ = run_cli(capsys, "growth", "--rate", "0.5", *k,
                           "--points", "8")
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r[1]) for r in rows] == [f.limit0] + [
        f(i / 8) for i in range(1, 9)]


def test_exponent_is_never_positive(capsys):
    # At k = 1e-300 the objective is -D(l || eps) up to rounding; its sup
    # 0 at l = eps used to print as 1.4e-16.
    code, out, _ = run_cli(capsys, "exponent", "--rate", "0.5", "--k",
                           "1e-300", "--eps", "0.1")
    assert code == 0
    value, at = (float(v) for v in parse_csv(out)[1][0][1:])
    assert value <= 0.0 and math.isclose(at, 0.1, abs_tol=1e-6)


def test_oracle_report(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "1", "--n", "2",
                           "--k", "1/2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "PASS"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["cov[1,1]"]["oracle_value"] == "3/8"
    assert by_name["cov[1,2]"]["oracle_value"] == "3/16"
    assert by_name["cov[2,2]"]["oracle_value"] == "15/64"
    assert by_name["e_pu_eps1_coeff"]["status"] == "MISMATCH_WITH_PAPER"


def module_env():
    """The environment for `python -m udestats` from a checkout with no
    install, where a numpy warning is an error."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return env


def test_module_entry_point():
    # From a checkout with no install, `python -m udestats` is the CLI.
    res = subprocess.run([sys.executable, "-m", "udestats", "oracle",
                          "--m", "1", "--n", "2", "--k", "1/2"],
                         env=module_env(), capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    _, rows = parse_csv(res.stdout)
    assert rows[-1][0] == "overall" and rows[-1][5] == "PASS"


def test_closed_output_pipe_is_silent():
    # `udestats growth ... | head -1`: 760 KB of rows, more than a pipe
    # holds, so the run writes to the closed pipe; it exits 1, silently.
    proc = subprocess.Popen([sys.executable, "-m", "udestats", "growth",
                             "--rate", "0.5", "--points", "20000"],
                            env=module_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    assert proc.stdout.readline() == b"l,growth_rate\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_oracle_csv(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "1", "--n", "2",
                           "--k", "1/2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["name", "paper_value", "oracle_value",
                      "analytic_value", "rel_err", "status"]
    assert rows[0] == ["avg_weight[0]", "", "1", "1", "0", "PASS"]
    assert ["e_pu_eps1_coeff", "2/3", "3/2", "1.5", "0",
            "MISMATCH_WITH_PAPER"] in rows
    assert rows[-1][:4] == ["overall", "", "", ""]
    assert float(rows[-1][4]) <= 1e-10 and rows[-1][5] == "PASS"


def test_csv_quotes_cells_that_hold_a_comma(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "2", "--n", "6",
                           "--k", "1/3")
    assert code == 0
    header, rows = parse_csv(out)
    assert all(len(row) == len(header) == 6 for row in rows)
    names = [row[0] for row in rows]
    assert "cov[1,2]" in names and "second_moment[1,2]" in names
    assert '\n"cov[1,2]",' in out


def test_csv_json_identical_values(capsys):
    code, csv_out, _ = run_cli(capsys, "avg-pu", "--m", "4", "--n", "10",
                               "--k", "2", "--eps", "0.05", "0.2")
    assert code == 0
    header, rows = parse_csv(csv_out)
    code, json_out, _ = run_cli(capsys, "avg-pu", "--m", "4", "--n", "10",
                                "--k", "2", "--eps", "0.05", "0.2", "--json")
    assert code == 0
    records = json.loads(json_out)
    assert [list(r.values()) for r in records] == rows
    assert [list(r.keys()) for r in records] == [header] * len(rows)


def test_neg_inf_for_log_domain_zero(capsys):
    # random ensemble off-diagonal covariance is exactly zero
    code, out, _ = run_cli(capsys, "cov", "--m", "2", "--n", "4", "--k", "2",
                           "--w1", "1", "--w2", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "neg_inf"
    assert float(rows[0][3]) == 0.0


def test_no_nan_cells(capsys):
    code, out, _ = run_cli(capsys, "awd", "--m", "3", "--n", "8", "--k", "2")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        for cell in row[1:]:
            assert cell == "neg_inf" or math.isfinite(float(cell))


def test_awd_linear_column_reads_inf_past_the_float_range(capsys):
    # Only the linear value of E[A_w] overflows; its log2 is exact.
    code, out, err = run_cli(capsys, "awd", "--m", "1000", "--n", "3000",
                             "--k", "4")
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    big = [float(r[1]) >= 1024.0 for r in rows]
    assert any(big) and not all(big)
    for row, over in zip(rows, big):
        assert row[2] == "inf" if over else math.isfinite(float(row[2]))
    assert cli._log_lin(LogReal(1024.0)) == [1024.0, "inf"]
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            cli._fmt(cli._log_lin(LogReal(bad))[0])


def test_float_formatting_17_digits(capsys):
    from udestats.ensemble import BernoulliEnsemble, Bsc, avg_pu
    code, out, _ = run_cli(capsys, "avg-pu", "--m", "1", "--n", "2",
                           "--k", "1/2", "--eps", "0.1")
    assert code == 0
    _, rows = parse_csv(out)
    # round-trips exactly through the printed representation
    expect = avg_pu(BernoulliEnsemble(1, 2, 0.5), Bsc(0.1)).to_float()
    assert float(rows[0][2]) == expect


def test_k_accepts_rational_and_decimal(capsys):
    code1, out1, _ = run_cli(capsys, "awd", "--m", "2", "--n", "4",
                             "--k", "1/2")
    code2, out2, _ = run_cli(capsys, "awd", "--m", "2", "--n", "4",
                             "--k", "0.5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_domain_errors_exit_nonzero(capsys, monkeypatch):
    # Every shape the oracle enumerates passes through _weight_class_sums.
    enumerated = []
    sums = oracle._weight_class_sums
    monkeypatch.setattr(oracle, "_weight_class_sums",
                        lambda m, n: enumerated.append((m, n)) or sums(m, n))
    cases = [
        ("avg-pu", "--m", "2", "--n", "4", "--k", "2", "--eps", "0.7"),
        ("awd", "--m", "2", "--n", "4", "--k", "3"),
        ("awd", "--m", "2", "--n", "4", "--k", "nope"),
        ("awd", "--m", "2", "--n", "4", "--k", "1e400"),
        ("cov-exponent", "--rate", "0.5", "--k", "1e400", "--l1", "0.5",
         "--l2", "0.5"),
        ("exponent", "--rate", "0.5", "--k", "20", "--eps", "0.1",
         "--grid-points", str(2**21 + 1)),
        ("oracle", "--m", "2", "--n", "20", "--k", "5"),  # int64 sums
        ("oracle", "--m", "5", "--n", "6", "--k", "1"),  # 2^21.1 classes
        ("cov", "--m", "2", "--n", "4", "--k", "1", "--w1", "1"),
    ]
    sim = ("sim", "--m", "2", "--n", "4", "--k", "1", "--eps", "0.1",
           "--samples", "2")
    # the error line must name what is wrong or the way out
    named = {
        sim + ("--seed", "-1"): "seed must be in [0, 2^128)",
        sim + ("--seed", str(2**128)): "seed must be in [0, 2^128)",
        # about 2^50 codewords once the zero columns are factored out, and
        # 2^30 row-space words: fails at the first matrix
        ("sim", "--m", "30", "--n", "100", "--k", "5", "--eps", "0.05",
         "--samples", "2"): "--channel-trials",
        # exact as a Fraction, but 0 as a float
        ("oracle", "--m", "1", "--n", "2", "--k", "1e-400"): "underflows",
        # Var[P_U]'s denominator, about b^16 for p = a/b, passes the
        # int-to-str digit limit: refused before enumerating
        ("oracle", "--m", "2", "--n", "4", "--k", "1e-300"):
            f"{sys.get_int_max_str_digits()} digits",
        # the shape is checked first: none of these reaches the digit bound
        ("oracle", "--m", "30", "--n", "1024", "--k", "1"): "oracle's budget",
        ("oracle", "--m", "100", "--n", "128", "--k", "1"): "oracle's budget",
        ("oracle", "--m", "3000", "--n", "3000", "--k", "1"):
            "oracle's budget",
        ("oracle", "--m", "-1", "--n", "2", "--k", "1"):
            "m and n must be >= 1",
        ("oracle", "--m", "0", "--n", "4", "--k", "1"):
            "m and n must be >= 1",
        ("avg-pu", "--m", "1", "--n", "2", "--k", "1e-400", "--eps", "0.1"):
            "underflows",
        ("exponent", "--rate", "0.5", "--k", "1e-400", "--eps", "0.1"):
            "underflows",
        # finite, but 4k overflows
        ("var-exponent", "--rate", "0.5", "--k", "1e308", "--eps", "0.1"):
            "k=1e+308",
        ("cov-exponent", "--rate", "0.5", "--k", "1e308", "--l1", "0.5",
         "--l2", "0.5"): "k=1e+308",
        ("exponent", "--rate", "0.5", "--k", "1e308", "--eps", "0.1"):
            "k=1e+308",
        # the curve table is one allocation of points + 1 rows
        ("growth", "--rate", "0.5", "--points", "0"): "--points",
        ("growth", "--rate", "0.5", "--points", str(2**21 + 1)): "--points",
    }
    for argv in cases + list(named):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert named.get(argv, "") in err
    assert (2, 4) not in enumerated


@pytest.mark.parametrize("command", [("oracle",), ("avg-pu", "--eps", "0.1")])
def test_subnormal_density_exits_with_one_error_line(capsys, command):
    # At k = 1e-320, n = 3 the oracle report used to read FAIL; p = k/n
    # exactly 2^-1022 is accepted.
    for k in ("1e-320", "1e-315"):
        code, out, err = run_cli(capsys, *command, "--m", "2", "--n", "3",
                                 "--k", k)
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "p = k/n >= 2^-1022" in err
    code, _, _ = run_cli(capsys, "avg-pu", "--m", "1", "--n", "2", "--k",
                         f"1/{2 ** 1021}", "--eps", "0.1")
    assert code == 0


@pytest.mark.parametrize("m, n", [(1, 16), (2, 8)])
def test_oracle_refuses_a_report_past_the_digit_limit(capsys, m, n):
    # p = 1/3^281 passes the up-front bound, which sees no 2 or 5 in b,
    # but Var[P_U]'s printed denominator still has over 4300 digits.
    code, out, err = run_cli(capsys, "oracle", "--m", str(m), "--n", str(n),
                             "--k", f"{n}/{3 ** 281}")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert (f"{m}x{n} report at this k would print integers of over "
            f"{sys.get_int_max_str_digits()} digits") in err


def test_cov_size_guard_refuses_before_allocating(capsys):
    shape = ("--m", "2", "--n", "20000", "--k", "2")
    for argv in [("cov",) + shape, ("var-pu",) + shape + ("--eps", "0.1")]:
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "n <= 4096" in err
        assert peak < 1 << 20, peak


def test_oracle_beyond_small_shapes(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "3", "--n", "8",
                           "--k", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][0] == "overall" and rows[-1][5] == "PASS"


def test_exact_pu_matrix_file(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1 2\n01\n")
    code, out, _ = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--eps", "0.1")
    assert code == 0
    _, rows = parse_csv(out)
    assert math.isclose(float(rows[0][1]), 0.1 - 0.01, rel_tol=1e-15)
    code, out, _ = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--poly")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["0", "1", "-1"]  # eps - eps^2


def test_exact_pu_enumerates_once(capsys, tmp_path, monkeypatch):
    # Every eps is checked before the one enumeration, which all of them
    # share.
    path = tmp_path / "h.txt"
    path.write_text("2 4\n1100\n0111\n")
    calls = []
    wd = cli.weight_distribution
    monkeypatch.setattr(cli, "weight_distribution",
                        lambda h: calls.append(h) or wd(h))
    code, out, _ = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--eps", "0.01", "0.05", "0.1")
    assert code == 0 and len(parse_csv(out)[1]) == 3
    assert len(calls) == 1
    calls.clear()
    code, out, err = run_cli(capsys, "exact-pu", "--matrix", str(path),
                             "--eps", "0.1", "0.6")
    assert code == 1 and out == ""
    assert err == "error: need 0 < eps < 1/2, got 0.6\n"
    assert calls == []


def test_exact_pu_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n10\n")
    code, _, err = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--eps", "0.1")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "exact-pu", "--matrix",
                           str(tmp_path / "missing.txt"), "--eps", "0.1")
    assert code == 1 and "error:" in err


def test_exact_pu_refuses_over_the_budget(capsys, tmp_path, monkeypatch):
    # Rows e_i + e_(29+i) + e_(29+(i-1 mod 29)): rank 29 of n = 58, with 58
    # distinct nonzero columns, so the code and the row space both hold
    # 2^29 words, over the budget of 2^28.
    rows = ["".join("1" if c in (i, 29 + i, 29 + (i - 1) % 29) else "0"
                    for c in range(58)) for i in range(29)]
    path = tmp_path / "h.txt"
    path.write_text("29 58\n" + "\n".join(rows) + "\n")

    def enumerated(*args):
        raise AssertionError("enumerated over the budget")
    monkeypatch.setattr(gf2, "_weight_histogram", enumerated)
    for what in (("--eps", "0.1"), ("--poly",)):
        code, out, err = run_cli(capsys, "exact-pu", "--matrix", str(path),
                                 *what)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2^28" in err


def test_sim_factors_out_zero_columns(capsys):
    # A full-rank B(30, 60, 4) matrix holds 2^30 codewords and 2^30
    # row-space words, but its about 8 zero columns take the code within
    # the budget
    code, out, err = run_cli(capsys, "sim", "--m", "30", "--n", "60", "--k",
                             "4", "--eps", "0.1", "--samples", "3",
                             "--seed", "0")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert rows[0][6] == "exact" and 0 < float(rows[0][1]) < 1


def test_sim_factors_out_equal_columns(capsys):
    # B(40, 80, 3) has about 17 zero columns and 7 classes of equal
    # columns per matrix; a matrix of seed 1 held 2^30 codewords with only
    # the zero columns factored out, and 2^35 row-space words
    code, out, err = run_cli(capsys, "sim", "--m", "40", "--n", "80", "--k",
                             "3", "--eps", "0.05", "--samples", "20",
                             "--seed", "1")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert rows[0][6] == "exact" and 0 < float(rows[0][1]) < 1


# Exact-mode output at a fixed seed, as the enumeration gave it before any
# class of equal columns other than the zero columns was factored out.
_SIM_PINNED = {
    ("20", "40", "20"): [
        "0.01,4.9990811457980795e-11,1.3076284459439689e-11,"
        "2.0518705831702068e-21,8.7492055640178453e-22,12,exact,31",
        "0.050000000000000003,4.9243394756373078e-08,9.2216453989157905e-09,"
        "1.0204649263601371e-15,4.35127706631513e-16,12,exact,31",
        "0.10000000000000001,3.7884870127462844e-07,4.2259366964197568e-08,"
        "2.1430249154576552e-14,9.1378889428698721e-15,12,exact,31"],
    ("20", "40", "5"): [
        "0.01,0.018930746279084986,0.003201139368634958,"
        "0.00012296751908909541,5.2433526316534691e-05,12,exact,31",
        "0.050000000000000003,0.020586557634946091,0.0035527371635275641,"
        "0.00015146329623731859,6.4584166518756714e-05,12,exact,31",
        "0.10000000000000001,0.0056865044131914249,0.0010042588976831182,"
        "1.2102431202908541e-05,5.1604940042091865e-06,12,exact,31"],
    ("16", "40", "5"): [
        "0.01,0.031947192160064072,0.003474435418953719,"
        "0.00014486041776576127,6.1768689678466594e-05,12,exact,31",
        "0.050000000000000003,0.036766323008598029,0.0039528197625689444,"
        "0.00018749740890426725,7.9949163786421183e-05,12,exact,31",
        "0.10000000000000001,0.011139408763359017,0.0011659549181701049,"
        "1.631341045446067e-05,6.9560615901882387e-06,12,exact,31"],
    ("30", "60", "4"): [
        "0.01,0.039708308078540241,0.0035363539705304567,"
        "0.00015006959285863831,6.3989889401312974e-05,12,exact,31",
        "0.050000000000000003,0.020642178719014463,0.002097157585813675,"
        "5.2776839276830099e-05,2.250411988161019e-05,12,exact,31",
        "0.10000000000000001,0.0022122541363430864,0.00026540839043459071,"
        "8.4529936455696154e-07,3.6043686011697298e-07,12,exact,31"],
}


@pytest.mark.parametrize("shape", sorted(_SIM_PINNED))
def test_exact_sim_output_is_pinned(capsys, shape):
    m, n, k = shape
    code, out, err = run_cli(capsys, "sim", "--m", m, "--n", n, "--k", k,
                             "--eps", "0.01", "0.05", "0.1", "--samples",
                             "12", "--seed", "31")
    assert code == 0, err
    assert out.splitlines() == ["eps,mean,mean_se,var,var_se,samples,mode,"
                                "seed"] + _SIM_PINNED[shape]


def test_pu_is_at_most_its_bound(capsys, tmp_path):
    # Counts past 2^53 are summed in log domain, about n ulps off each;
    # every word a codeword must give exactly 1 - (1 - eps)^n, not above 1.
    bound = {n: -math.expm1(n * math.log1p(-0.1)) for n in (3000, 5000)}
    path = tmp_path / "zero.txt"
    path.write_text("1 3000\n" + "0" * 3000 + "\n")
    code, out, _ = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--eps", "0.1")
    assert code == 0
    pu = float(parse_csv(out)[1][0][1])
    assert pu <= 1 and pu == bound[3000]
    code, out, _ = run_cli(capsys, "sim", "--m", "1", "--n", "5000", "--k",
                           "1", "--eps", "0.1", "--samples", "2")
    assert code == 0
    mean = float(parse_csv(out)[1][0][1])
    assert mean <= 1 and mean == bound[5000]


def test_sim_determinism(capsys):
    args = ("sim", "--m", "3", "--n", "6", "--k", "1.5", "--eps", "0.1",
            "--samples", "100", "--seed", "4")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, *args[:-1] + ("5",))
    assert out3 != out1


def test_sim_rejects_bad_input_cleanly(capsys):
    base = ("sim", "--m", "3", "--n", "6", "--k", "1.5")
    for mode in ((), ("--channel-trials", "100")):
        for eps, samples in (("0", "20"), ("0.7", "20"), ("0.1", "0"),
                             ("0.1", "1")):
            code, out, err = run_cli(capsys, *base, "--eps", eps,
                                     "--samples", samples, *mode)
            assert code == 1 and out == ""
            assert err.startswith("error:")
            assert len(err.strip().splitlines()) == 1
    _, _, err = run_cli(capsys, *base, "--eps", "0.1", "--samples", "1")
    assert "at least two matrices" in err


def test_sim_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--m", "3", "--n", "6", "--k", "1.5", "--eps", "0.1",
              "--samples", "20", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_var_exponent_takes_the_random_family_without_k(capsys,
                                                         monkeypatch):
    code, out, _ = run_cli(capsys, "var-exponent", "--rate", "0.75",
                           "--eps", "0.1", "0.3")
    assert code == 0
    _, rows = parse_csv(out)
    for eps, value in rows:
        eps = float(eps)
        assert float(value) == -0.25 + math.log2(eps ** 2 + (1 - eps) ** 2)
    seen = []
    real = asymptotics.var_pu_growth_rate
    monkeypatch.setattr(asymptotics, "var_pu_growth_rate",
                        lambda rp, eps: seen.append(rp) or real(rp, eps))
    code, out, _ = run_cli(capsys, *_VAR_EXPONENT)
    assert code == 0 and seen == [asymptotics.RatePoint(0.5, 4.0)]
    _, rows = parse_csv(out)
    assert float(rows[0][1]) == real(asymptotics.RatePoint(0.5, 4.0), 0.1)


_VAR_EXPONENT = ("var-exponent", "--rate", "0.5", "--k", "4", "--eps", "0.1")


@pytest.mark.parametrize("argv, named", [
    (("exponent", "--rate", "0.5", "--eps", "0.1"), "--refine-tol"),
    (("cov-exponent", "--rate", "0.5", "--k", "4", "--l1", "0.5", "--l2",
      "0.5"), "--refine-tol"),
    (_VAR_EXPONENT, "--refine-tol"),
    (_VAR_EXPONENT, "--grid-points"),
    (("exact-pu", "--matrix", "h.txt", "--eps", "0.1"), "--enum-budget"),
], ids=["exponent-refine-tol", "cov-exponent-refine-tol",
        "var-exponent-refine-tol", "var-exponent-grid-points",
        "exact-pu-enum-budget"])
def test_fixed_limits_are_not_options(capsys, argv, named):
    # The zoom width, the grid of var-exponent and the enumeration budget
    # are fixed: each such option is a usage error.
    with pytest.raises(SystemExit) as exc:
        main([*argv, named, "64"])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (("exponent", "--family", "random", "--rate", "0.5", "--eps", "0.2"),
     "--family"),
    (("growth", "--family", "bernoulli", "--rate", "0.5", "--k", "20"),
     "--family"),
    (("oracle", "--m", "1", "--n", "2", "--k", "1/2", "--rel-tol", "1e-10"),
     "--rel-tol"),
    (("exact-pu", "--matrix", "h.txt"), "one of the arguments --eps --poly"),
    (("exact-pu", "--matrix", "h.txt", "--eps", "0.1", "--poly"),
     "not allowed with argument"),
])
def test_removed_and_conflicting_options_are_usage_errors(capsys, argv,
                                                          named):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_seed_only_on_sim(capsys, monkeypatch):
    monkeypatch.setenv("UDE_WORKERS", "abc")
    code, out, _ = run_cli(capsys, "awd", "--m", "1", "--n", "2", "--k", "1")
    assert code == 0 and out.startswith("w,")
    with pytest.raises(SystemExit):
        main(["awd", "--m", "1", "--n", "2", "--k", "1", "--seed", "3"])


def test_output_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code = main(["awd", "--m", "1", "--n", "2", "--k", "1/2",
                 "-o", str(path)])
    assert code == 0
    header, rows = parse_csv(path.read_text())
    assert header == ["w", "log2_avg_aw", "avg_aw"]
    assert len(rows) == 3


def test_growth_curve_endpoints(capsys):
    code, out, _ = run_cli(capsys, "growth", "--rate", "0.5", "--k", "20",
                           "--points", "16")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
    assert float(rows[-1][0]) == 1.0
    assert math.isclose(float(rows[-1][1]), -0.5, abs_tol=1e-6)


def test_fig_commands_shape(capsys):
    code, out, _ = run_cli(capsys, "fig", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "g_eps0.1", "g_eps0.2", "g_eps0.4"]
    assert len(rows) == 513
    code, out, _ = run_cli(capsys, "fig", "3")
    header, rows = parse_csv(out)
    assert header[0] == "eps" and len(header) == 5
    code, out, _ = run_cli(capsys, "fig", "6")
    header, rows = parse_csv(out)
    assert "var_pu_sparse" in header
    for row in rows:
        assert all(c == "neg_inf" or math.isfinite(float(c)) for c in row)


def test_channel_sim_reports_uncertainty_on_zero_hits(capsys):
    # No trial of any matrix goes undetected here (E[P_U] is about 3e-7),
    # yet the mean is not known to be 0: the pooled Wilson half-width of
    # all 3 x 2000 trials keeps mean_se positive, and its upper end, which
    # bounds Var[P_U] <= E[P_U], keeps var_se positive.
    code, out, _ = run_cli(capsys, "sim", "--m", "20", "--n", "40", "--k",
                           "20", "--eps", "0.01", "--samples", "3",
                           "--channel-trials", "2000", "--seed", "1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["mean"]) == 0.0 and float(row["var"]) == 0.0
    assert float(row["mean_se"]) > 0.0
    upper = 16 / (6000 + 16)  # Wilson upper end at z = 4, 0 of 6000 hits
    assert math.isclose(float(row["var_se"]), upper / 4, rel_tol=1e-12)


def test_channel_sim_at_a_subnormal_eps(capsys):
    # -ln(1 - eps) is subnormal, so every gap overflows to inf: no error
    # falls in the stream, and no overflow warning is raised.
    code, out, err = run_cli(capsys, "sim", "--m", "2", "--n", "8", "--k",
                             "2", "--eps", "5e-324", "--samples", "2",
                             "--channel-trials", "10")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert float(dict(zip(header, rows[0]))["mean"]) == 0.0


def test_cov_matrix_output_matches_single_pairs(capsys):
    base = ("cov", "--m", "3", "--n", "7", "--k", "1.5")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 49
    for row in rows[::5]:
        _, single = parse_csv(run_cli(capsys, *base, "--w1", row[0],
                                      "--w2", row[1])[1])
        assert single == [row]


def test_failed_cross_check_is_one_error_line(capsys, monkeypatch):
    import udestats.ensemble as ens_mod
    monkeypatch.setattr(ens_mod, "_avg_pu_random_closed",
                        lambda m, n, eps: LogReal(0.0))
    monkeypatch.setattr(ens_mod, "_var_pu_random_closed",
                        lambda m, n, eps: LogReal(0.0))
    for argv in [("avg-pu", "--m", "3", "--n", "6", "--k", "3", "--eps",
                  "0.1"),
                 ("var-pu", "--m", "3", "--n", "6", "--k", "3", "--eps",
                  "0.1"),
                 ("fig", "6")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: summation")
        assert len(err.strip().splitlines()) == 1


def test_cov_matrix_is_built_once_per_ensemble(capsys, monkeypatch):
    import udestats.ensemble as ens_mod
    from udestats.oracle import verify_closed_forms
    built = []
    real = ens_mod.cov_matrix

    def counting(ens):
        built.append(ens)
        return real(ens)
    monkeypatch.setattr(ens_mod, "cov_matrix", counting)
    code, _, _ = run_cli(capsys, "var-pu", "--m", "4", "--n", "10", "--k",
                         "2", "--eps", "0.01", "0.1", "0.3")
    assert code == 0 and len(built) == 1
    built.clear()
    assert verify_closed_forms(2, 4, 1)["status"] == "PASS"
    assert len(built) == 1
    built.clear()
    assert run_cli(capsys, "fig", "6")[0] == 0
    assert len(built) == 2


@pytest.mark.parametrize("argv, log2_value, tol", [
    (("var-pu", "--m", "20", "--n", "40", "--k", "20", "--eps", "0.001"),
     None, None),
    (("avg-pu", "--m", "20", "--n", "40", "--k", "20", "--eps", "1e-8"),
     None, None),
    # Var[P_U] of R(1, 1) is eps^2 / 4
    (("var-pu", "--m", "1", "--n", "1", "--k", "1/2", "--eps", "1e-12"),
     math.log2(1e-12 ** 2 / 4), 1e-13),
    # E[P_U] of R(1, n) is (1 - (1-eps)^n) / 2, 1/2 to double precision;
    # log2 C(n, w) near 2^14 carries an ulp of 3.6e-12
    (("avg-pu", "--m", "1", "--n", "20000", "--k", "10000", "--eps",
      "0.49"), -1.0, 2.0 ** -50 * 20001),
    # eps^2 / 4 again where (eps / (1-eps))^2 underflows
    *[(("var-pu", "--m", "1", "--n", "1", "--k", "1/2", "--eps", eps),
       2.0 * math.log2(float(eps)) - 2.0, 1e-12)
      for eps in ("1e-160", "1e-200", "1e-300")],
])
def test_random_closed_forms_at_small_eps_and_large_n(capsys, argv,
                                                      log2_value, tol):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    value = float(rows[0][1])
    assert math.isfinite(value)
    if log2_value is not None:
        assert abs(value - log2_value) <= tol


def test_parser_defaults_are_the_library_defaults():
    cfg = asymptotics.OptimizerConfig()
    parser = build_parser()

    def defaults(*argv):
        return vars(parser.parse_args(list(argv)))
    for argv in [("exponent", "--rate", "0.5", "--eps", "0.1"),
                 ("cov-exponent", "--rate", "0.5", "--k", "4", "--l1", "0.5",
                  "--l2", "0.5")]:
        assert defaults(*argv)["grid_points"] == cfg.grid_points
