import csv
import io
import json
import time

import numpy as np
import pytest

from hardybench import cli


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return config, rows


class TestConstantsCommand:
    def test_p_equal_one_row(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["franchetti_cp"]) == 2.0

    def test_p_equal_two_row(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "2"], capsys)
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["franchetti_cp"]) - 1.0) < 1e-12
        assert float(rows[0]["interpolation_upper"]) == 1.0

    def test_sweep_shape_min_at_two(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "1.1:4.0:0.1"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        ps = np.array([float(r["p"]) for r in rows])
        cs = np.array([float(r["franchetti_cp"]) for r in rows])
        i_min = int(np.argmin(cs))
        assert abs(ps[i_min] - 2.0) < 0.05 + 1e-9
        # decreasing before the minimum, increasing after
        assert np.all(np.diff(cs[: i_min + 1]) <= 1e-12)
        assert np.all(np.diff(cs[i_min:]) >= -1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "2", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["config"]["command"] == "constants"
        assert len(payload["rows"]) == 1


class TestOpnormCommand:
    def test_fejer0_l2(self, capsys):
        code, out, _ = run_cli(
            ["opnorm", "--kernel", "fejer:0", "--space", "lp", "--p", "2", "-N", "256"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["estimate"]) - 1.0) < 1e-8

    def test_fejer3_h2(self, capsys):
        code, out, _ = run_cli(
            ["opnorm", "--kernel", "fejer:3", "--space", "hp", "--p", "2",
             "-N", "256", "-d", "32"],
            capsys,
        )
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["estimate"]) - 1.0) < 1e-8

    def test_small_p_hp_bracket(self, capsys):
        code, out, _ = run_cli(
            ["opnorm", "--kernel", "fejer:0", "--space", "hp", "--p", "1.01",
             "-N", "1024", "-d", "64", "--starts", "4"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        est = float(rows[0]["estimate"])
        assert 1.0 - 1e-9 <= est <= 1.7047

    def test_estimate_within_reported_bracket(self, capsys):
        code, out, _ = run_cli(
            ["opnorm", "--kernel", "poisson:0.5", "--space", "lp", "--p", "3",
             "-N", "256", "--starts", "4"],
            capsys,
        )
        _, rows = parse_csv(out)
        row = rows[0]
        assert float(row["estimate"]) <= float(row["upper_analytic"]) + 1e-6

    def test_internal_inconsistency_is_hard_failure(self, capsys, monkeypatch):
        from hardybench.opnorm import NormEstimate

        def inflated(*args, **kwargs):
            return NormEstimate(value=99.0, witness=np.ones(4), method="power")

        monkeypatch.setattr(cli, "fejer_lp_estimate", inflated)
        code, _, err = run_cli(
            ["opnorm", "--kernel", "fejer:0", "--space", "lp", "--p", "3", "-N", "64"],
            capsys,
        )
        assert code == 1
        assert "inconsistency" in err

    def test_nan_estimate_fails_the_bound_gate(self, capsys, monkeypatch):
        from hardybench.opnorm import NormEstimate

        def nan_estimate(*args, **kwargs):
            return NormEstimate(value=float("nan"), witness=np.ones(4), method="power")

        monkeypatch.setattr(cli, "fejer_lp_estimate", nan_estimate)
        code, _, err = run_cli(
            ["opnorm", "--kernel", "fejer:0", "--space", "lp", "--p", "3", "-N", "64"],
            capsys,
        )
        assert code == 1
        assert "inconsistency" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["opnorm", "--kernel", "fejer:1", "--space", "hp", "--p", "nan", "-N", "64", "-d", "4"],
            ["sweep", "--problem", "problem2", "--p", "1.5,nan", "-N", "64", "-d", "4"],
            ["constants", "--p", "nan"],
        ],
    )
    def test_nan_p_is_usage_error(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_no_convergence_exits_one(self, capsys, monkeypatch):
        from hardybench.errors import NoConvergenceError

        def stalls(cfg):
            raise NoConvergenceError("Luxemburg bracket expansion failed (upper)")

        monkeypatch.setitem(cli._COMMANDS, "verify", stalls)
        code, out, err = run_cli(["verify", "orlicz"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: Luxemburg bracket expansion failed (upper)\n"

    def test_bad_kernel_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["opnorm", "--kernel", "bessel:1", "--p", "2", "-N", "64"], capsys
        )
        assert code == 2
        assert "kernel" in err


class TestSweepCommand:
    def test_problem2_l2_row(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", "problem2", "--p", "2", "-N", "256", "-d", "8"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0]["estimate"]) - 1.0) < 1e-10

    def test_problem1_bracket_columns(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", "problem1", "--p", "1.5", "--q", "0,1",
             "-N", "256", "-d", "8", "--starts", "2"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            est, upper = float(row["estimate"]), float(row["upper_analytic"])
            assert est <= upper + 1e-6
            assert abs(upper - est - float(row["bracket_width"])) < 1e-12
            assert float(row["estimate_2d"]) >= est - 1e-8  # nested subspaces

    def test_rows_sorted_by_parameters(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", "problem1", "--p", "3,1.5", "--q", "1,0",
             "-N", "128", "-d", "4", "--starts", "2"],
            capsys,
        )
        _, rows = parse_csv(out)
        keys = [(float(r["p"]), int(r["n"]), int(r["degree"])) for r in rows]
        assert keys == sorted(keys)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["lorentz", "orlicz"])
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(["verify", suite, "-N", "256"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["passed"] == "True" for r in rows)

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        def rigged(cfg):
            return [cli._check("rigged", False, 1.0, 0.5)]

        monkeypatch.setitem(cli._SUITES, "lorentz", rigged)
        code, _, err = run_cli(["verify", "lorentz"], capsys)
        assert code == 1
        assert "rigged" in err

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestOuterCheckCommand:
    def test_passes(self, capsys):
        code, out, _ = run_cli(["outer-check", "-N", "512"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["passed"] == "True" for r in rows)


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["opnorm", "--kernel", "fejer:1", "--space", "lp", "--p", "2.5",
                "-N", "128", "--starts", "3", "--seed", "42"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        a, b = out1.read_bytes(), out2.read_bytes()
        # config echoes differ only in the out path; compare the data lines
        assert a.split(b"\n")[1:] == b.split(b"\n")[1:]
        assert json.loads(a.split(b"\n")[0][2:])["seed"] == 42

    def test_config_echoed_in_header(self, capsys):
        code, out, _ = run_cli(
            ["constants", "--p", "2", "--seed", "7", "--format", "csv"], capsys
        )
        config, _ = parse_csv(out)
        assert config["seed"] == 7
        assert config["command"] == "constants"
