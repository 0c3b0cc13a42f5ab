"""Command-line interface behavior and output formats."""

import csv
import io
import json
import math

import pytest

from udestats.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_exponent_random_example(capsys):
    code, out, _ = run_cli(capsys, "exponent", "--family", "random",
                           "--rate", "0.5", "--eps", "0.2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps", "exponent", "argmax_l"]
    assert math.isclose(float(rows[0][1]), -0.5, abs_tol=1e-6)
    assert math.isclose(float(rows[0][2]), 0.2, abs_tol=1e-4)


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


def test_domain_errors_exit_nonzero(capsys):
    cases = [
        ("avg-pu", "--m", "2", "--n", "4", "--k", "2", "--eps", "0.7"),
        ("awd", "--m", "2", "--n", "4", "--k", "3"),
        ("awd", "--m", "2", "--n", "4", "--k", "nope"),
        ("exponent", "--family", "bernoulli", "--rate", "0.5",
         "--eps", "0.1"),
        ("oracle", "--m", "5", "--n", "5", "--k", "1"),
        ("oracle", "--m", "3", "--n", "8", "--k", "2"),  # about 9 GiB
        ("cov", "--m", "2", "--n", "4", "--k", "1", "--w1", "1"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.strip().startswith("error:")
        assert len(err.strip().splitlines()) == 1


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


def test_exact_pu_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n10\n")
    code, _, err = run_cli(capsys, "exact-pu", "--matrix", str(path),
                           "--eps", "0.1")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "exact-pu", "--matrix",
                           str(tmp_path / "missing.txt"), "--eps", "0.1")
    assert code == 1 and "error:" in err


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
    code, out, _ = run_cli(capsys, "growth", "--family", "bernoulli",
                           "--rate", "0.5", "--k", "20", "--points", "16")
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
    # all 3 x 2000 trials keeps mean_se positive.
    code, out, _ = run_cli(capsys, "sim", "--m", "20", "--n", "40", "--k",
                           "20", "--eps", "0.01", "--samples", "3",
                           "--channel-trials", "2000", "--seed", "1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["mean"]) == 0.0
    assert float(row["mean_se"]) > 0.0


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
