import argparse
import contextlib
import errno
import io
import json
import os
import re
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from covertpilot import (AttackParams, attack_feasibility, build_scenario,
                         cli, kl_pilot_exact, solve_sqrt_law_coefficient)
from covertpilot.channel import REFERENCE

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args):
    return cli.main(args)


def read(path):
    return path.read_bytes()


class TestRate:
    def test_reference_point_report(self, capsys):
        assert run_cli(["rate", "--epsilon", "0.1", "--lambda-t", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "feasible = true" in out
        assert "r_t_ic_bpcu = 0.37851162325372983" in out
        assert "regime = blind_below" in out

    def test_infeasible_point_report(self, capsys):
        assert run_cli(["rate", "--epsilon", "0.3", "--lambda-t", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "feasible = false" in out
        assert "cond_pilot_covert = false" in out

    def test_overflowing_epsilon_exits_1(self, capsys):
        assert run_cli(["rate", "--epsilon", "1e300"]) == 1
        assert "(1+eps)^2" in capsys.readouterr().err

    def test_nonfinite_gain_exits_1(self, capsys):
        assert run_cli(["rate", "--h-w", "nan+0j"]) == 1
        assert "h_w must be finite" in capsys.readouterr().err

    def test_zero_gain_default_rate_exits_1(self, capsys):
        assert run_cli(["rate", "--h-w", "0j"]) == 1
        assert "zero link gain" in capsys.readouterr().err

    # a zero link SNR (a zero gain, or a product that underflows to 0)
    # leaves a defaulted r_a of 0, which the user never set: the error
    # names the default, not r_a's own bound
    @pytest.mark.parametrize("argv", [["--h-w", "0j"],
                                      ["--alpha-w-sq", "0"],
                                      ["--sigma-w-sq", "1e300",
                                       "--lambda-a", "1e-300"]])
    def test_vanishing_snr_default_rate_exits_1(self, argv, capsys):
        assert run_cli(["rate"] + argv) == 1
        err = capsys.readouterr().err
        assert "r_a defaults to 80% of the link capacity" in err
        assert "link SNR" in err and "r_a must be > 0" not in err

    # a tiny but positive link SNR has a positive capacity (about
    # snr / ln 2), so r_a defaults to a positive rate and the report runs;
    # where the trojan's SNR is below double resolution too, tau(eps)
    # rounds onto the floor sigma_w^2 and the regime test warns
    @pytest.mark.parametrize("values, boundary", [
        ({"sigma_w_sq": 1e300}, True), ({"lambda_a": 1e-300}, False),
        ({"alpha_w_sq": 1e-320}, True)])
    def test_tiny_snr_default_rate_exits_0(self, values, boundary, capsys):
        argv = [f"--{key.replace('_', '-')}={v!r}" for key, v in values.items()]
        with pytest.warns(UserWarning, match="exactly on a regime boundary") \
                if boundary else contextlib.nullcontext():
            assert run_cli(["rate"] + argv) == 0
        assert "feasible = " in capsys.readouterr().out
        assert build_scenario(**values)[1].r_a > 0

    def test_overflowing_gain_exits_1(self, capsys):
        assert run_cli(["rate", "--h-w", "1e200+0j"]) == 1
        assert "|h_w|^2 must be finite" in capsys.readouterr().err

    def test_negative_legit_power_exits_1(self, capsys):
        assert run_cli(["rate", "--lambda-a", "-100"]) == 1
        assert "lambda_a must be > 0" in capsys.readouterr().err

    # every edge value of every flag ends in a report or a named
    # configuration error; `--flag=value` lets argparse read -inf as a value
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=300)
    @given(st.fixed_dictionaries({
        flag: st.one_of(st.none(), st.sampled_from(
            ["nan", "inf", "-inf", "0", "-1", "-1e300", "5e-324", "1e300"]))
        for flag in ("epsilon", "lambda-t", "lambda-a", "sigma-w-sq",
                     "delta-1", "delta-2")}))
    def test_edge_values_exit_0_or_1(self, values):
        argv = ["rate"] + [f"--{flag}={v}" for flag, v in values.items()
                           if v is not None]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli(argv)
        assert not [w for w in caught if w.category is RuntimeWarning]
        if code == 0:
            assert "feasible = " in out.getvalue()
        else:
            assert code == 1
            assert err.getvalue().startswith("configuration error:")

    # inputs that make a link SNR infinite, alone or with an explicit r_a
    @pytest.mark.parametrize("argv, constraint", [
        (["rate", "--lambda-a=inf"], "lambda_a must be finite"),
        (["rate", "--lambda-a=inf", "--r-a=3"], "lambda_a must be finite"),
        (["rate", "--sigma-w-sq=5e-324"],
         "link SNR alpha_w^2 |h_w|^2 lambda_a / sigma_w^2"),
        (["rate", "--sigma-w-sq=5e-324", "--r-a=3"],
         "link SNR alpha_w^2 |h_w|^2 lambda_a / sigma_w^2"),
        (["rate", "--sigma-e-sq=5e-324"],
         "rogue-link SNR alpha_e^2 |h_e|^2 lambda_t / sigma_e^2"),
        (["sweep", "--sigma-e-sq=5e-324"],
         "rogue-link SNR alpha_e^2 |h_e|^2 lambda_t / sigma_e^2"),
        # a noiseless pilot: every scaled-pilot MSE is 0.0, log 0 the slope
        (["mc", "--target=estimator", "--trials=20", "--sigma-w-sq=5e-324",
          "--h-w=1e-10"], "finite, nonzero scaled-pilot MSE"),
    ])
    def test_infinite_snr_exits_1(self, argv, constraint, tmp_path, capsys):
        out = tmp_path / "out.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and constraint in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not out.exists()

    def test_rate_matches_sweep_rows(self, tmp_path, capsys):
        # eps 0 fails blind_comm; (0.1, 0.1) and (0.1, 0.3) are blind below
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--eps-min", "0", "--eps-max", "0.1",
                        "--eps-steps", "2", "--lt-min", "0.1", "--lt-max",
                        "0.3", "--lt-steps", "2", "--out", str(out)]) == 0
        header = cli.CSV_HEADER.split(",")
        rows = [dict(zip(header, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        assert [r["feasible"] for r in rows] == ["0", "0", "1", "1"]
        for row in rows:
            capsys.readouterr()
            assert run_cli(["rate", "--epsilon", row["epsilon"],
                            "--lambda-t", row["lambda_t"]]) == 0
            rate = dict(line.split(" = ")
                        for line in capsys.readouterr().out.splitlines())
            assert rate["feasible"] == ("true" if row["feasible"] == "1"
                                        else "false")
            for key in ("gamma_w", "tau_eps_w", "delta_1_gap"):
                assert rate[key] == row[key], key
            if row["feasible"] == "1":
                assert rate["regime"] == "blind_below"
                for key in ("r_t_tin_bpcu", "r_t_ic_bpcu"):
                    assert rate[key] == row[key], key


class TestSweep:
    def test_header_is_pinned(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--eps-steps", "3", "--lt-steps", "2",
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == ("epsilon,lambda_t,feasible,failing_condition,"
                          "r_t_tin_bpcu,r_t_ic_bpcu,gamma_w,tau_eps_w,"
                          "delta_1_gap")

    def test_row_major_grid_and_cell_count(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--eps-steps", "4", "--lt-steps", "3",
                 "--eps-min", "0", "--eps-max", "0.21",
                 "--lt-min", "0.1", "--lt-max", "0.3", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 12
        eps_col = [float(l.split(",")[0]) for l in lines[1:]]
        assert eps_col == sorted(eps_col)
        assert eps_col[0] == eps_col[1] == eps_col[2] == 0.0

    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sweep", "--eps-steps", "20", "--lt-steps", "15"]
        run_cli(base + ["--threads", "1", "--out", str(a)])
        run_cli(base + ["--threads", "5", "--out", str(b)])
        assert read(a) == read(b)

    def test_zero_budget_kills_positive_eps(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--delta-1", "0", "--eps-min", "0.01",
                 "--eps-max", "0.2", "--eps-steps", "5", "--lt-steps", "3",
                 "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == "0" and cells[3] == "pilot_covert"

    def test_infeasible_cells_zero_rates_with_reason(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--eps-min", "0", "--eps-max", "0.01",
                 "--eps-steps", "2", "--lt-min", "0.2", "--lt-max", "0.4",
                 "--lt-steps", "2", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        infeasible = [r for r in rows if r[2] == "0"]
        assert infeasible
        for r in infeasible:
            assert r[3] != ""
            assert float(r[4]) == 0.0 and float(r[5]) == 0.0

    def test_failing_condition_is_a_feasibility_condition(self, tmp_path):
        # cond_eve_ic only selects the rate r_t_ic reports: in the default
        # 100 x 100 grid it fails on 900 cells (every lambda_t >= 0.92),
        # yet infeasibility is always one of the first three conditions
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        reasons = Counter(r[3] for r in rows if r[2] == "0")
        assert reasons == {"pilot_covert": 1000, "blind_comm": 5248,
                           "no_disruption": 1837}
        channel, config, _ = build_scenario()
        grid = attack_feasibility(channel, AttackParams(
            np.linspace(0.0, 0.2475, 100)[:, None],
            np.linspace(0.01, 1.0, 100)), config)
        fails_ic = ~np.broadcast_to(grid.cond_eve_ic, (100, 100))
        assert np.count_nonzero(fails_ic) == 900

    def test_bad_rate_config_exits_1(self, tmp_path, capsys):
        code = run_cli(["sweep", "--r-a", "4.5", "--out",
                        str(tmp_path / "s.csv")])
        assert code == 1
        assert "capacity" in capsys.readouterr().err

    def test_lowered_power_breaks_margin_exits_1(self, tmp_path, capsys):
        # fixing the rate and shrinking lambda_a pushes capacity below r_a
        code = run_cli(["sweep", "--lambda-a", "5", "--r-a", "3.5139",
                        "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "capacity" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = run_cli(["sweep", "--eps-steps", "2", "--lt-steps", "2",
                        "--out", str(tmp_path / "missing" / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err

    def test_bad_grid_exits_1(self, tmp_path):
        code = run_cli(["sweep", "--lt-min", "0", "--out",
                        str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize("bound", ["eps_min", "eps_max", "lt_min",
                                       "lt_max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_grid_bound_exits_1(self, bound, value, tmp_path,
                                          capsys):
        flag = "--" + bound.replace("_", "-")
        code = run_cli(["sweep", f"{flag}={value}", "--eps-steps", "2",
                        "--lt-steps", "2", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"grid bounds must be finite: {bound} = {value}" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "s.csv").exists()

    # the default delta_1 / sqrt(2) = 0.2236 is the pilot_covert edge
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(eps_min=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
           eps_width=st.floats(1e-3, 0.3), eps_steps=st.integers(2, 40),
           lt_min=st.floats(1e-6, 49.0), lt_width=st.floats(1e-3, 50.0),
           lt_steps=st.integers(2, 40))
    @example(eps_min=0.0, eps_width=0.3, eps_steps=23, lt_min=1e-6,
             lt_width=8.0, lt_steps=41)
    def test_rows_match_cell_by_cell_reference(self, eps_min, eps_width,
                                               eps_steps, lt_min, lt_width,
                                               lt_steps):
        spec = cli.SweepSpec(eps_min, eps_min + eps_width, eps_steps,
                             lt_min, min(lt_min + lt_width, 50.0), lt_steps)
        channel, config, _ = build_scenario()
        lines = cli.run_sweep(channel, config, spec)
        assert lines[0] == cli.CSV_HEADER
        assert lines[1:] == reference.sweep_lines(channel, config, spec)


# orjson and repr switch to exponent notation at different magnitudes;
# _fmt_row must write repr's string for every double
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-4, np.nextafter(1e-4, 0),
          np.nextafter(1e-4, 1), -1e-4, 1e-5, 1e16, np.nextafter(1e16, 0),
          np.nextafter(1e16, np.inf), -1e16, 2.0 ** 53, 1.7976931348623157e308,
          np.nan, np.inf, -np.inf]


class TestFmtRow:
    @settings(derandomize=True, database=None, deadline=None,
              max_examples=400)
    @given(st.lists(st.one_of(st.floats(), st.floats(1e-5, 1e17),
                              st.floats(-1e17, -1e-5)), max_size=40))
    @example(_EDGES)
    def test_equals_repr(self, values):
        a = np.array(values, dtype=float)
        assert cli._fmt_row(a) == list(map(repr, a.tolist()))

    # the sweep passes rows of broadcast grids: stride-0 rows among them
    def test_broadcast_views(self):
        a = np.array(_EDGES)
        for view in (np.broadcast_to(a[:, None], (a.size, 4))[:, 2],
                     np.broadcast_to(a[:, None], (a.size, 4))[3],
                     np.broadcast_to(np.float64(1e16), (5,)), a[::-3]):
            assert cli._fmt_row(view) == list(map(repr, view.tolist()))

    def test_empty(self):
        assert cli._fmt_row(np.empty(0)) == []
        assert cli._fmt_row(np.broadcast_to(1.0, (0,))) == []


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text(
            "# a comment line\n"
            "epsilon = 0.2   # inline comment\n"
            "lambda_t = 0.05\n"
            "h_w = 1+0j\n")
        run_cli(["rate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert "epsilon = 0.2" in out
        run_cli(["rate", "--config", str(cfg), "--epsilon", "0.1"])
        out = capsys.readouterr().out
        assert "epsilon = 0.1" in out      # flag wins
        assert "lambda_t = 0.05" in out    # file still applies

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("lambda_q = 1\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_exits_1(self, tmp_path):
        cfg = tmp_path / "scen.cfg"
        cfg.write_text("epsilon 0.2\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 1

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        # the error names the file and the offset of the first bad byte
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"alpha_w_sq = 0.1\n\xff\xfe = 2\n")
        assert run_cli(["rate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (f"configuration error: {cfg}: not UTF-8 text: byte "
                       f"0xff at offset 17 (invalid start byte)\n")
        assert "Traceback" not in err

    def test_readme_lists_the_key_table(self):
        # the README's "Recognized keys" line is a third copy of the keys
        keys = re.search(r"Recognized keys: `([^`]*)`",
                         README.read_text(encoding="utf-8")).group(1)
        assert keys.split() == list(REFERENCE) == list(cli._PARAMS)

    def test_readme_lists_the_run_controls(self):
        # the README's run-control table, by command, is a second copy of
        # each subcommand parser's "run controls" group
        table = dict(re.findall(r"^\| `(\w+)` +\| (.*) \|$",
                                README.read_text(encoding="utf-8"), re.M))
        _, commands = cli._parsers()
        assert list(table) == list(commands)
        for name, parser in commands.items():
            group, = [g for g in parser._action_groups
                      if g.title == "run controls"]
            assert re.findall(r"`(--[\w-]+)", table[name]) == [
                a.option_strings[0] for a in group._group_actions], name


class TestMc:
    def test_pilot_kl_json_schema(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["mc", "--target", "pilot-kl", "--trials", "400",
                        "--pilot-len", "16", "--seed", "7",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"target", "params", "point_estimate", "std_error",
                            "analytic_reference", "trials", "seed"}
        assert doc["target"] == "pilot-kl" and doc["seed"] == 7
        assert doc["params"]["epsilon"] == 0.1

    def test_comm_detection_fields(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["mc", "--target", "comm-detection", "--trials", "300",
                 "--block-len", "500", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert {"p_f", "p_m", "point_estimate"} <= set(doc)
        assert doc["point_estimate"] == doc["p_f"] + doc["p_m"]

    def test_zero_eps_pilot_kl_near_zero(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["mc", "--target", "pilot-kl", "--trials", "2000",
                 "--epsilon", "0", "--pilot-len", "16", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["analytic_reference"] == 0.0
        assert abs(doc["point_estimate"]) <= 3 * doc["std_error"] + 1e-12

    def test_estimator_slope_near_minus_one(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(["mc", "--target", "estimator", "--trials", "150",
                 "--out", str(out)])
        doc = json.loads(out.read_text())
        assert abs(doc["point_estimate"] - (-1.0)) <= 0.15
        assert len(doc["table"]) == 9

    # below 100 trials every target has a non-finite standard error; JSON
    # (RFC 8259) has no NaN or Infinity token, so it is written as null
    @pytest.mark.parametrize("target", ["pilot-kl", "comm-detection",
                                        "estimator", "sqrtlaw"])
    def test_json_has_no_non_finite_token(self, target, capsys):
        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        assert run_cli(["mc", "--target", target, "--trials", "20"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert "std_error" in doc and doc["std_error"] is None

    @pytest.mark.parametrize("argv, constraint", [
        (["--target", "pilot-kl", "--epsilon", "1e200"], "1 - q"),
        (["--target", "pilot-kl", "--epsilon", "1e154"], "1 - q"),
        (["--target", "estimator", "--epsilon", "1e200"],
         "|(1+eps) h_w|^2"),
        (["--target", "sqrtlaw", "--sigma-w-sq", "1e-300", "--c", "1e10"],
         "c is too large"),
        (["--target", "comm-detection", "--seed", "-1"],
         "seed must be >= 0"),
        (["--target", "sqrtlaw", "--c", "1e300"],
         "above the double-precision resolution of n tau"),
        (["--target", "comm-detection", "--lambda-t", "1e308"],
         "n alpha_w^2 |h_w|^2 lambda_t / sigma_w^2"),
        (["--target", "comm-detection", "--lambda-t", "1e300",
          "--epsilon", "1e3"], "n tau / sigma_w^2"),
        (["--target", "pilot-kl", "--epsilon", "1.3e154",
          "--sigma-w-sq", "1e10"], "(1+eps)^2 S + sigma_w^2"),
        (["--target", "sqrtlaw", "--sigma-w-sq=1e-300", "--c=1"],
         "above the double-precision resolution of n tau"),
        (["--target", "sqrtlaw", "--sigma-w-sq=1e-154", "--c=3e152"],
         "above the double-precision resolution of n tau"),
        (["--target", "pilot-kl", "--pilot-len", "1" + "0" * 400],
         "pilot_len must be at most the largest double"),
        (["--target", "sqrtlaw", "--c", "1e308"],
         "above the double-precision resolution of n tau"),
        (["--target", "estimator", "--epsilon", "1.5e308", "--h-w", "1+1j"],
         "|(1+eps) h_w|^2"),
    ])
    def test_out_of_domain_inputs_exit_1(self, argv, constraint, capsys):
        # each ends in a named ParameterError, never in a traceback
        assert run_cli(["mc", "--trials", "100"] + argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and constraint in err

    def test_sqrtlaw_tiny_noise_exits_0(self, tmp_path):
        # the limit depends on sigma_w^2 only through
        # u = alpha_w^2 |h_w|^2 c / (2 sigma_w^2), so no sigma_w^4 is formed
        out = tmp_path / "r.json"
        assert run_cli(["mc", "--target", "sqrtlaw", "--trials", "100",
                        "--sigma-w-sq", "1e-300", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["analytic_reference"] == 0.1
        assert all(row["bound_limit"] == 0.1 for row in doc["table"])

    def test_sqrtlaw_default_c_follows_delta_2(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["mc", "--target", "sqrtlaw", "--trials", "20",
                        "--delta-2", "0.05", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        channel, _, _ = build_scenario()
        assert doc["params"]["c"] == solve_sqrt_law_coefficient(channel, 0.05)
        assert doc["params"]["c"] == pytest.approx(0.125578, rel=1e-5)
        assert doc["analytic_reference"] == pytest.approx(0.05)

    @pytest.mark.parametrize("eps", ["1e6", "1e150"])
    def test_huge_epsilon_pilot_kl_exits_0(self, eps, tmp_path):
        # 1 - q no longer resolves, but the divergence is finite, and the
        # likelihood-ratio estimate agrees with it
        out = tmp_path / "r.json"
        assert run_cli(["mc", "--trials", "400", "--target", "pilot-kl",
                        "--epsilon", eps, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["point_estimate"] - doc["analytic_reference"]) \
            <= 3 * doc["std_error"]

    def test_long_pilot_kl_exits_0(self, tmp_path, capsys):
        # the pilot enters through its energy alone, so no length-L vector
        # is built and any pilot length costs the same; the divergence has
        # no data block, so a pilot longer than block_len draws no warning
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["mc", "--target", "pilot-kl", "--pilot-len",
                            "100000000000", "--trials", "10",
                            "--out", str(out)]) == 0
        assert not caught and capsys.readouterr().err == ""
        doc = json.loads(out.read_text())
        channel, _, attack = build_scenario()
        assert doc["analytic_reference"] == kl_pilot_exact(channel, attack,
                                                           1e11)

    def test_tiny_noise_pilot_kl_exits_0(self, tmp_path):
        # no dense covariance is factorized, so a nearly noiseless pilot
        # observation is an ordinary operating point
        out = tmp_path / "r.json"
        assert run_cli(["mc", "--trials", "100", "--target", "pilot-kl",
                        "--sigma-w-sq", "1e-18", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["point_estimate"] - doc["analytic_reference"]) \
            <= 3 * doc["std_error"]

    def test_byte_determinism_across_threads(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["mc", "--target", "comm-detection", "--trials", "600",
                "--block-len", "400", "--seed", "3"]
        run_cli(base + ["--threads", "1", "--out", str(a)])
        run_cli(base + ["--threads", "4", "--out", str(b)])
        assert read(a) == read(b)


# every parameter flag, alone and with an explicit r_a, at each edge value:
# sweep on a 3 x 3 grid and every mc target end in output or a named
# configuration error; the integer flags take the edge values that parse
_INT_FLAGS = ("pilot-len", "block-len")
_EDGE_VALUES = ("0", "5e-324", "1e-300", "1e300", "inf", "-inf", "nan", "-1")
_SMALL_RUNS = (
    ["sweep", "--eps-steps=3", "--lt-steps=3"],
    *(["mc", f"--target={target}", "--trials=20", "--block-len=100"]
      for target in ("pilot-kl", "comm-detection", "estimator", "sqrtlaw")))


_FLAGS = [key.replace("_", "-") for key in cli._PARAMS]


def _edge_value(flag):
    return st.tuples(st.just(flag), st.sampled_from(
        ("0", "-1") if flag in _INT_FLAGS else _EDGE_VALUES))


def assert_exit_0_or_1(runs, extra):
    """Each run with ``extra`` appended ends in output or a named
    configuration error, with no RuntimeWarning."""
    for run in runs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run_cli(run + extra)
        assert not [w for w in caught if w.category is RuntimeWarning], run
        assert code in (0, 1), run
        assert "Traceback" not in err.getvalue(), run
        if code == 1:
            assert err.getvalue().startswith("configuration error:"), run
            assert out.getvalue() == "", run


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(flag_value=st.sampled_from(_FLAGS).flatmap(_edge_value),
       explicit_r_a=st.booleans())
@example(flag_value=("delta-2", "5e-324"), explicit_r_a=False)
@example(flag_value=("sigma-e-sq", "5e-324"), explicit_r_a=True)
def test_sweep_and_mc_edge_values_exit_0_or_1(flag_value, explicit_r_a):
    flag, value = flag_value
    extra = (["--r-a=3"] if explicit_r_a else []) + [f"--{flag}={value}"]
    assert_exit_0_or_1(_SMALL_RUNS, extra)


# two distinct parameter flags at once, each at an edge value: pairs reach
# states no single flag does, such as a noiseless link
@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(pair=st.lists(st.sampled_from(_FLAGS), min_size=2, max_size=2,
                     unique=True).flatmap(
           lambda flags: st.tuples(*map(_edge_value, flags))))
@example(pair=(("sigma-w-sq", "5e-324"), ("h-w", "1e-10")))
@example(pair=(("lambda-t", "1e300"), ("sigma-w-sq", "1e-300")))
def test_two_flag_edge_values_exit_0_or_1(pair):
    assert_exit_0_or_1([["rate"], *_SMALL_RUNS],
                       [f"--{flag}={value}" for flag, value in pair])


@pytest.mark.parametrize("argv", [
    ["rate", "--block-len=1e3"], ["rate", "--pilot-len=2.5"],
    ["mc", "--target=pilot-kl", "--trials=ten"], ["rate", "--epsilon=abc"],
    ["rate", "--bogus=1", "--block-len=1e3"]])
def test_badly_typed_flag_exits_1(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert argv[-1].split("=")[0] in err and "Traceback" not in err
    assert not out.exists()


# argparse ends these in its usage error (exit 2); versions whose argparse
# raises instead give a named configuration error
@pytest.mark.parametrize("argv", [["rate", "--bogus=1"], []])
def test_unknown_flag_or_no_subcommand_exits_2_or_1(argv, capsys):
    try:
        code = run_cli(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    if code == 2:
        assert "usage:" in err
    else:
        assert code == 1 and err.startswith("configuration error:")


# sweep and rate draw no random number, so --seed is no flag of theirs
@pytest.mark.parametrize("command", ["sweep", "rate"])
def test_seed_is_unknown_to_sweep_and_rate(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--seed", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "covertpilot: error: unrecognized arguments: --seed 1\n")
    assert "--seed" not in cli._parsers()[1][command].format_help()


def test_unknown_flag_error_is_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["rate", "--bogus=1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: covertpilot [-h] {sweep,rate,mc,verify} ...\n"
        "covertpilot: error: unrecognized arguments: --bogus=1\n")


# a subcommand's parser reads its tokens alone; every argv must end as the
# whole parser's parse_args ends it: the same namespace or the same exit
@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["rate"], ["rate", "-h"], ["rate", "--he"],
    ["rate", "--h"], ["sweep", "--eps"], ["rate", "--", "x"],
    ["rate", "--bogus", "1", "-x"], ["rate", "rate"], ["mc"],
    ["mc", "--target=sqrtlaw", "--c", "2", "--seed=3", "--eps=0.2"],
    ["sweep", "--eps-min", "0.1", "--lt-steps=7", "--out", "x.csv"],
    ["verify", "--suite", "kl", "extra"], ["verify", "--suite=nope"]])
def test_parse_matches_the_whole_parser(argv, capsys):
    def outcome(parse):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, capsys.readouterr()
        except argparse.ArgumentError as exc:
            return str(exc)

    assert outcome(cli._parse_args) == outcome(cli.build_parser().parse_args)


class TestOutFile:
    """``--out`` is overwritten in place; only a regular file is truncated."""

    def test_directory_exits_2(self, tmp_path, capsys):
        assert run_cli(["rate", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err

    def test_devnull_exits_0(self, capsys):
        assert run_cli(["rate", "--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""

    def test_fifo_gets_stdout_bytes(self, tmp_path, capsys):
        argv = ["mc", "--target", "comm-detection", "--trials", "50",
                "--block-len", "100"]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out.encode()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        assert run_cli(argv + ["--out", str(fifo)]) == 0
        reader.join(timeout=30)
        assert got == [expected]

    def test_failed_write_exits_2_and_empties_the_file(self, tmp_path,
                                                      monkeypatch, capsys):
        out = tmp_path / "s.csv"
        out.write_bytes(b"stale row\n" * 100_000)
        calls = []

        class WriteThenFail(io.BufferedWriter):
            def write(self, data):
                # 100 bytes stay buffered, so closing the file writes them
                calls.append(len(data))
                super().write(data[:100])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def open_then_fail(fd, mode, closefd):
            return WriteThenFail(io.FileIO(fd, mode, closefd=closefd))

        with monkeypatch.context() as m:
            m.setattr(cli, "open", open_then_fail, raising=False)
            code = run_cli(["sweep", "--eps-steps", "3", "--lt-steps", "3",
                            "--out", str(out)])
        assert code == 2 and len(calls) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "No space left" in err
        assert out.stat().st_size == 0


class TestVerify:
    def test_suite_choices_name_every_suite(self):
        # cli lists the suites as a literal, since it loads verification
        # only when verify runs; a new suite must not become unreachable
        from covertpilot import verification

        suite = next(a for a in cli._parsers()[1]["verify"]._actions
                     if a.dest == "suite")
        assert suite.choices == [*verification.SUITES, "all"]

    def test_all_suites_pass(self, capsys):
        assert run_cli(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "FAIL" not in out
        for suite in ("kl", "mmse", "threshold", "regimes", "sqrtlaw"):
            assert f"{suite}/" in out

    def test_negative_seed_exits_1(self, capsys):
        assert run_cli(["verify", "--suite", "regimes", "--seed", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "seed must be >= 0" in err

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        from covertpilot import verification

        def broken(seed=0):
            return [verification.CheckResult("always_fails", False, "probe")]

        monkeypatch.setitem(verification.SUITES, "kl", broken)
        assert run_cli(["verify", "--suite", "kl"]) == 3
        assert "first failing invariant kl/always_fails" in \
            capsys.readouterr().out
