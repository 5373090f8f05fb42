import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from sphrad.cli import RunConfig, main
from sphrad.errors import ConfigError


def run_cli(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-m", "sphrad", *args],
                          capture_output=True, text=True, cwd=cwd)
    return proc


class TestRunConfig:
    def test_round_trip_identity(self):
        cfg = RunConfig(fixture="slab", x=[-1.0], n=500, seed=4, method="mc",
                        energy={"periods": 2})
        again = RunConfig(**cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self, tmp_path):
        # Valid values throughout: each key is rejected only for being unread.
        path = tmp_path / "cfg.json"
        for command, key, value in (
                ("eval", "bogus", 1), ("eval", "solver", {}),
                ("eval", "tie_policy", "average"), ("eval", "validate_n", 5),
                ("grad", "energy", {}), ("grad", "directions_csv", "d.csv"),
                ("solve-energy", "fixture", "slab"), ("solve-energy", "x", [1.0]),
                ("verify", "n", 5)):
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=f"not read by {command}"):
                RunConfig.from_sources(command, str(path))

    def test_unknown_energy_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(energy={"windiness": 3})

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 100, "seed": 1}))
        cfg = RunConfig.from_sources("eval", str(path), {"seed": 2})
        assert cfg.n == 100 and cfg.seed == 2

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(method="sobol")


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["eval", "--tie-policy", "min_index"], ["eval", "--check-fd"],
        ["eval", "--validate-n", "5"], ["eval", "--quick"],
        ["grad", "--directions-csv", "d.csv"], ["grad", "--validate-seed", "3"],
        ["solve-energy", "--tie-policy", "min_index"], ["solve-energy", "--fixture", "slab"],
        ["solve-energy", "--x", "1"], ["solve-energy", "--eps", "0.1"],
        ["solve-energy", "--dim", "3"], ["solve-energy", "--check-fd"],
        ["verify", "--n", "5"], ["verify", "--out", "v.json"],
        ["verify", "--config", "cfg.json"]])
    def test_flag_not_read_by_command_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--fixture", "halfspace", "--x", "1", "--eps", "0.3"],
        ["grad", "--fixture", "slab", "--x", "-1", "--eps", "0"],
        ["eval", "--fixture", "constant", "--x", "0", "--eps", "0.1"],
        ["grad", "--fixture", "hyperbolic", "--x", "1", "--dim", "3"],
        ["eval", "--fixture", "hyperbolic", "--x", "1", "--eps", "0.1", "--dim", "8"],
        ["eval", "--fixture", "halfspace", "--x", "1,2"],
        ["grad", "--fixture", "ball", "--x", "1,2", "--eps", "0.1"]])
    def test_ignored_setting_exit_2(self, argv, capsys):
        assert main(argv + ["--n", "16"]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestEvalCommand:
    def test_halfspace_value(self, tmp_path):
        out = tmp_path / "est.json"
        proc = run_cli("eval", "--fixture", "halfspace", "--x", "1", "--n", "10000",
                       "--seed", "7", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - stats.norm.cdf(1.0)) <= 1e-3
        assert payload["seed"] == 7 and payload["version"]

    @pytest.mark.parametrize("config, argv", [
        ({"definitely_not_a_key": True}, ["eval"]),
        ({"x": "1,2"}, ["eval"]),
        ({}, ["solve-energy", "--validate-n", "0"]),
        ({}, ["eval", "--seed", "-1"]),
        ({}, ["eval", "--x", "1,a"])],
        ids=["unknown-key", "x-string", "validate-n-0", "seed-negative", "x-unparsable"])
    def test_malformed_config_exit_2(self, tmp_path, config, argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        proc = run_cli(*argv, "--config", str(path))
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_numerical_error_exit_3(self):
        # Slab fixture evaluated where the interior condition fails.
        proc = run_cli("eval", "--fixture", "slab", "--x", "0.5", "--n", "100")
        assert proc.returncode == 3
        assert "InteriorViolated" in proc.stderr

    def test_directions_csv(self, tmp_path):
        csv_path = tmp_path / "dirs.csv"
        out = tmp_path / "est.json"
        proc = run_cli("eval", "--fixture", "hyperbolic", "--x", "1", "--n", "500",
                       "--seed", "3", "--directions-csv", str(csv_path),
                       "--out", str(out))
        assert proc.returncode == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        es = np.array([float(r["e"]) for r in rows])
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(es.mean(), abs=1e-12)

    def test_eval_with_eps_uses_enlargement(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("eval", "--fixture", "hyperbolic", "--x", "1", "--n", "2000",
                       "--eps", "0.1", "--out", str(o1)).returncode == 0
        assert run_cli("eval", "--fixture", "hyperbolic", "--x", "1", "--n", "2000",
                       "--out", str(o2)).returncode == 0
        enlarged = json.loads(o1.read_text())["value"]
        plain = json.loads(o2.read_text())["value"]
        assert enlarged >= plain - 1e-12


class TestOutputErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--fixture", "halfspace", "--x", "1", "--n", "10"], "--out"),
        (["eval", "--fixture", "halfspace", "--x", "1", "--n", "10"], "--directions-csv"),
        (["solve-energy", "--n", "100", "--validate-n", "100"], "--out")],
        ids=["eval-out", "eval-directions-csv", "solve-energy-out"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, argv, flag):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(argv + [flag, str(blocker / "sub")]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestGradCommand:
    def test_halfspace_with_fd_check(self, tmp_path):
        out = tmp_path / "grad.json"
        proc = run_cli("grad", "--fixture", "halfspace", "--x", "1", "--n", "2000",
                       "--seed", "5", "--check-fd", "--out", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert abs(payload["gradient"][0] - stats.norm.pdf(1.0)) <= 2e-3
        assert payload["fd_check"]["rel_err"] <= 1e-6

    def test_infinite_only_fixture_zero_gradient(self, tmp_path):
        out = tmp_path / "grad.json"
        proc = run_cli("grad", "--fixture", "constant", "--x", "0", "--n", "200",
                       "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["gradient"] == [0.0]

    def test_slab_gradient_analytic(self, tmp_path):
        out = tmp_path / "grad.json"
        proc = run_cli("grad", "--fixture", "slab", "--x", "-1", "--n", "10000",
                       "--out", str(out))
        assert proc.returncode == 0
        tau = np.sqrt(np.exp(2) - 1)
        expected = 2 * stats.norm.pdf(tau) * (-np.exp(2) / tau)
        assert abs(json.loads(out.read_text())["gradient"][0] - expected) <= 1e-3


class TestDeterminism:
    def test_eval_rerun_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli("eval", "--fixture", "halfspace", "--x", "1",
                           "--n", "2000", "--seed", "9",
                           "--out", str(out))
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_grad_rerun_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli("grad", "--fixture", "slab", "--x", "-1", "--n", "1000",
                           "--seed", "9", "--check-fd",
                           "--out", str(out))
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSolveEnergyCommand:
    def test_reduced_run_artifacts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"energy": {"periods": 2}, "n": 1000,
                                   "validate_n": 20000}))
        out_dir = tmp_path / "run1"
        proc = run_cli("solve-energy", "--config", str(cfg), "--out", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        solution = json.loads((out_dir / "solution.json").read_text())
        assert solution["status"] in ("converged", "box_optimum")
        assert 0.75 <= solution["validation"]["value"] <= 0.85
        lines = (out_dir / "trace.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["meta"]["version"]
        rows = [json.loads(t) for t in lines[1:]]
        assert rows[-1]["accepted"] is True
        with open(out_dir / "iterations.csv", newline="") as fh:
            it_rows = list(csv.DictReader(fh))
        assert len(it_rows) == len(rows)

    @pytest.mark.parametrize("energy", [
        {"wind_coeff": 0}, {"wind_cap": -1}, {"gen_cap": -1}, {"var_wind": -1},
        {"var_load": -1}, {"mu_wind": float("nan")},
        {"cross_rule": "elementwise_product"}],
        ids=["wind-coeff-0", "wind-cap-negative", "gen-cap-negative",
             "var-wind-negative", "var-load-negative", "mu-wind-nan", "cross-rule"])
    def test_bad_energy_parameter_exit_2(self, tmp_path, capsys, energy):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"energy": energy, "n": 500, "validate_n": 1000}))
        assert main(["solve-energy", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_infeasible_level_exit_4(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "energy": {"periods": 2, "p_level": 0.999, "wind_cap": 0.5,
                       "gen_cap": 10.5},
            "n": 1000, "validate_n": 1000}))
        proc = run_cli("solve-energy", "--config", str(cfg),
                       "--out", str(tmp_path / "run2"))
        assert proc.returncode == 4
        assert "NoFeasibleStart" in proc.stderr


class TestVerifyCommand:
    def test_quick_passes(self):
        proc = run_cli("verify", "--quick")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout

    def test_mutation_canary(self, monkeypatch):
        # A wrong density exponent must fail the normalization check.
        import sphrad.verify as verify_mod

        def broken_pdf(law, r):
            import sphrad.gaussian as g
            return g.chi_pdf(law, r) * np.exp(0.05 * np.asarray(r, dtype=float))

        monkeypatch.setattr(verify_mod, "chi_pdf", broken_pdf)
        ok, _ = verify_mod.check_chi_normalization(quick=True)
        assert not ok

    def test_failure_exit_code_5(self, monkeypatch, capsys):
        import sphrad.cli as cli_mod
        from sphrad.cli import main

        monkeypatch.setattr(cli_mod, "run_all",
                            lambda quick: [("doomed", False, "synthetic failure")])
        assert main(["verify"]) == 5
        assert "FAIL" in capsys.readouterr().out
