import json

from covertpilot import cli


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

    def test_overflowing_gain_exits_1(self, capsys):
        assert run_cli(["rate", "--h-w", "1e200+0j"]) == 1
        assert "|h_w|^2 must be finite" in capsys.readouterr().err

    def test_negative_legit_power_exits_1(self, capsys):
        assert run_cli(["rate", "--lambda-a", "-100"]) == 1
        assert "lambda_a must be > 0" in capsys.readouterr().err

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

    def test_unwritable_output_exits_2(self, tmp_path):
        code = run_cli(["sweep", "--eps-steps", "2", "--lt-steps", "2",
                        "--out", str(tmp_path / "missing" / "s.csv")])
        assert code == 2

    def test_bad_grid_exits_1(self, tmp_path):
        code = run_cli(["sweep", "--lt-min", "0", "--out",
                        str(tmp_path / "s.csv")])
        assert code == 1


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

    def test_byte_determinism_across_threads(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["mc", "--target", "comm-detection", "--trials", "600",
                "--block-len", "400", "--seed", "3"]
        run_cli(base + ["--threads", "1", "--out", str(a)])
        run_cli(base + ["--threads", "4", "--out", str(b)])
        assert read(a) == read(b)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert run_cli(["verify", "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "FAIL" not in out
        for suite in ("kl", "mmse", "threshold", "regimes", "sqrtlaw"):
            assert f"{suite}/" in out

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        from covertpilot import verification

        def broken(seed=0):
            return [verification.CheckResult("always_fails", False, "probe")]

        monkeypatch.setitem(verification.SUITES, "kl", broken)
        assert run_cli(["verify", "--suite", "kl"]) == 3
        assert "first failing invariant kl/always_fails" in \
            capsys.readouterr().out
