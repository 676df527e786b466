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

    def test_franchetti_near_one_and_far_out_reads_near_two(self, capsys):
        code, out, _ = run_cli(["constants", "--p", "1.00000001,1e8", "--q", "2"], capsys)
        assert code == 0
        cs = [float(r["franchetti_cp"]) for r in parse_csv(out)[1]]
        assert all(1.9999997 < c < 2.0 for c in cs)
        assert abs(cs[0] - cs[1]) <= 1e-9

    def test_range_has_no_float_drift(self, capsys):
        assert cli._parse_range("1.1:4.0:0.1") == [round(1.1 + 0.1 * i, 1) for i in range(30)]
        code, out, _ = run_cli(["constants", "--p", "1.1:1.5:0.1"], capsys)
        assert code == 0
        assert [r["p"] for r in parse_csv(out)[1]] == ["1.1", "1.2", "1.3", "1.4", "1.5"]

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["opnorm", "--kernel", "fejer:1", "-N", "64", "--p", "1.5", "--starts", "-3"],
            ["opnorm", "--kernel", "fejer:1", "--space", "hp", "-N", "64", "-d", "0", "--p", "1.5"],
            ["opnorm", "--kernel", "fejer:1", "--space", "hp", "-N", "64", "-d", "-4", "--p", "1.5"],
            ["sweep", "--problem", "problem1", "--p", "1.5", "-N", "64", "-d", "0"],
            ["constants", "--p", "1.5", "--q", "0.5"],
        ],
    )
    def test_bad_option_value_is_usage_error(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["opnorm", "--kernel", "fejer:1", "-N", "64", "--p", "0.5"],
            ["sweep", "--problem", "problem1", "--p", "1.5,0.9", "-N", "64", "-d", "4"],
            ["verify", "monotone", "--p", "0.5", "-N", "64", "-d", "4"],
        ],
    )
    def test_exponent_below_one_rejected_before_any_grid(self, capsys, monkeypatch, argv):
        def no_grid(n_points):
            raise AssertionError("a grid was built for an invalid exponent")

        monkeypatch.setattr(cli, "make_grid", no_grid)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--problem", "problem1", "-N", "1024", "-d", "256", "--p", "1.5", "--q", "2"],
            ["sweep", "--problem", "problem1", "-N", "64", "-d", "16", "--p", "2", "--q", "0"],
            ["sweep", "--problem", "problem2", "-N", "64", "-d", "40", "--p", "3"],
            ["sweep", "--problem", "problem2", "-N", "64", "-d", "32", "--p", "2"],
            ["opnorm", "--kernel", "fejer:1", "--space", "hp", "-N", "64", "-d", "32", "--p", "2"],
        ],
    )
    def test_degree_beyond_grid_rejected_before_any_grid(self, capsys, monkeypatch, argv):
        def no_grid(n_points):
            raise AssertionError("a grid was built for a degree that does not fit")

        monkeypatch.setattr(cli, "make_grid", no_grid)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: degree ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--problem", "problem1", "-N", "64", "-d", "15", "--p", "2", "--q", "0"],
            ["sweep", "--problem", "problem2", "-N", "64", "-d", "31", "--p", "2"],
            ["opnorm", "--kernel", "fejer:1", "--space", "hp", "-N", "64", "-d", "31", "--p", "2"],
        ],
    )
    def test_largest_degree_that_fits_runs(self, capsys, argv):
        assert run_cli(argv, capsys)[0] == 0

    @pytest.mark.parametrize(
        "p_range", ["1:2:0", "3:1:1", "1:2:-0.5", "1:inf:0.5", "1:nan:0.5", "1:2", "1:2:0.5:1", "1:x:1"]
    )
    def test_bad_range_is_usage_error(self, capsys, monkeypatch, p_range):
        def no_compute(p):
            raise AssertionError("a constant was computed for an invalid range")

        monkeypatch.setattr(cli, "franchetti_cp", no_compute)
        code, out, err = run_cli(["constants", "--p", p_range, "--q", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(p_range) in err

    def test_no_convergence_exits_one(self, capsys, monkeypatch):
        from hardybench.errors import NoConvergenceError

        def stalls(cfg):
            raise NoConvergenceError("phi table extension did not stabilize")

        monkeypatch.setitem(cli._COMMANDS, "verify", stalls)
        code, out, err = run_cli(["verify", "orlicz"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: phi table extension did not stabilize\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["opnorm", "--kernel", "fejer:8", "-N", "16", "--p", "3"],
            ["opnorm", "--kernel", "fejer:15", "-N", "16", "--p", "3"],
            ["opnorm", "--kernel", "fejer:40", "-N", "16", "--p", "2"],
            ["opnorm", "--kernel", "fejer:8", "--space", "hp", "-N", "16", "-d", "2", "--p", "3"],
            ["opnorm", "--kernel", "poisson:0.99", "-N", "16", "--p", "3"],
            ["opnorm", "--kernel", "poisson:0.9", "-N", "256", "--p", "3"],
            ["sweep", "--problem", "problem1", "-N", "32", "-d", "4", "--q", "20", "--p", "3"],
            ["sweep", "--problem", "problem1", "-N", "32", "-d", "4", "--q", "0,16", "--p", "3"],
            ["verify", "two-sided", "-N", "8"],
        ],
    )
    def test_kernel_the_grid_cannot_represent_rejected_before_any_grid(
        self, capsys, monkeypatch, argv
    ):
        # an aliased Fejer band or a Poisson kernel without unit mass is not
        # the kernel the proven bounds hold for
        def no_grid(n_points):
            raise AssertionError("a grid was built for a kernel it cannot represent")

        monkeypatch.setattr(cli, "make_grid", no_grid)
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Fejer order" in err or "Poisson radius" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["opnorm", "--kernel", "fejer:7", "-N", "16", "--p", "3"],
            ["opnorm", "--kernel", "poisson:0.5", "-N", "256", "--p", "3", "--starts", "4"],
            ["sweep", "--problem", "problem1", "-N", "41", "-d", "2", "--q", "20", "--p", "3",
             "--starts", "2"],
        ],
    )
    def test_kernel_that_fits_runs(self, capsys, argv):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for row in parse_csv(out)[1]:
            assert float(row["estimate"]) <= float(row["upper_analytic"]) + 1e-6

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

    @pytest.mark.parametrize(
        "argv,solver,calls",
        [
            (["--problem", "problem1", "--p", "1.5", "--q", "0,1"], "fejer_hp_estimate", 6),
            (["--problem", "problem2", "--p", "1.5"], "backward_shift_estimate", 3),
        ],
    )
    def test_each_degree_solved_once(self, capsys, monkeypatch, argv, solver, calls):
        # a row at degree d needs d and 2d: degrees {d/2, d, 2d} per (p, n)
        original, seen = getattr(cli, solver), []

        def counted(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, solver, counted)
        code, _, _ = run_cli(["sweep", *argv, "-N", "64", "-d", "8"], capsys)
        assert code == 0
        assert len(seen) == calls

    def test_estimates_monotone_in_degree(self, capsys):
        # nested subspaces: each degree's witness, zero-padded, certifies at
        # the next, so no row reads less at 2d than at d
        code, out, _ = run_cli(
            ["sweep", "--problem", "problem1", "--p", "1,inf", "--q", "1,2",
             "-N", "512", "-d", "16"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)[1]
        assert all(float(r["estimate_2d"]) >= float(r["estimate"]) for r in rows)

    def test_rows_sorted_by_parameters(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--problem", "problem1", "--p", "3,1.5", "--q", "1,0",
             "-N", "128", "-d", "4", "--starts", "2"],
            capsys,
        )
        _, rows = parse_csv(out)
        keys = [(float(r["p"]), int(r["n"]), int(r["degree"])) for r in rows]
        assert keys == sorted(keys)

    @staticmethod
    def assert_riesz_thorin_rows(capsys, argv):
        # I - K_n interpolates between 2 - 2(n+1)/N on l^1_N, l^inf_N and 1
        # on l^2_N; problem2 is n = 0, as |S B c| = |(I - E_N) S c|
        code, out, _ = run_cli(
            ["sweep", *argv, "--p", "1.5,3,inf", "-N", "128", "-d", "8", "--starts", "2"],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)[1]
        assert {r["p"] for r in rows} == {"1.5", "3.0", "inf"}
        for row in rows:
            p, n = float(row["p"]), int(row["n"] or 0)
            bound = (2.0 - 2.0 * (n + 1) / 128) ** (1.0 if p == np.inf else abs(1.0 - 2.0 / p))
            assert float(row["upper_analytic"]) == bound
            assert float(row["estimate"]) <= bound
            assert float(row["estimate_2d"]) <= bound
        return rows

    def test_problem2_bound_is_riesz_thorin(self, capsys):
        self.assert_riesz_thorin_rows(capsys, ["--problem", "problem2"])

    def test_problem1_bound_is_riesz_thorin(self, capsys):
        rows = self.assert_riesz_thorin_rows(capsys, ["--problem", "problem1", "--q", "0,1,3"])
        assert {r["n"] for r in rows} == {"0", "1", "3"}


class TestVerifyCommand:
    GRIDS = {
        "lorentz": ["-N", "256"],
        "orlicz": ["-N", "256"],
        "convolution": ["-N", "128"],
        "two-sided": ["-N", "256"],
        "monotone": ["-N", "256", "-d", "8"],
        "outer": ["-N", "512"],
    }

    @pytest.mark.parametrize("suite", list(GRIDS))
    def test_suites_pass(self, capsys, suite):
        code, out, _ = run_cli(["verify", suite, *self.GRIDS[suite]], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r["passed"] == "True" for r in rows)

    @pytest.mark.parametrize("n_grid", ["16", "32", "48", "63"])
    def test_two_sided_below_grid_floor_rejected_before_any_grid(
        self, capsys, monkeypatch, n_grid
    ):
        # the brackets hold continuum constants, which small N-point models
        # fall below
        def no_grid(n_points):
            raise AssertionError("a grid was built below the two-sided grid floor")

        monkeypatch.setattr(cli, "make_grid", no_grid)
        code, out, err = run_cli(["verify", "two-sided", "-N", n_grid], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: verify two-sided needs a grid of at least 64 points, got {n_grid}\n"

    def test_two_sided_passes_at_grid_floor(self, capsys):
        code, out, _ = run_cli(["verify", "two-sided", "-N", "64"], capsys)
        assert code == 0
        assert all(r["passed"] == "True" for r in parse_csv(out)[1])

    @pytest.mark.parametrize("p", ["1.5", "inf"])
    def test_monotone_on_a_coarse_grid(self, capsys, p):
        code, out, _ = run_cli(["verify", "monotone", "-N", "64", "-d", "8", "--p", p], capsys)
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

    def test_outer_check_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["outer-check"])
        assert exc.value.code == 2


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
