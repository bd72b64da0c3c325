import json

import numpy as np
import pytest

from drbsde_lab.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    run_experiment,
)
from drbsde_lab.exprs import ExpressionError, compile_expression


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


GAME_CONFIG = {
    "kind": "dynkin-verify",
    "lattice": {"T": 1.0, "N": 3, "mode": "full-tree"},
    "generator": "linear:-0.5,0.3",
    "terminal": "max(state, -0.8)",
    "lower": "max(state, -0.8) - 0.3 - 0.1*t",
    "upper": "max(state, -0.8) + 0.25 + 0.1*t",
    "seed": 11,
}


class TestExpressions:
    def test_grammar_evaluates(self):
        fn = compile_expression("max(0.3 - 0.1*t, state*state - 1)")
        np.testing.assert_allclose(
            fn(1.0, np.array([-2.0, 0.0, 2.0])), [3.0, 0.2, 3.0]
        )

    def test_unary_minus_and_abs(self):
        fn = compile_expression("-abs(state) + 1")
        np.testing.assert_allclose(fn(0.0, np.array([-2.0, 0.5])), [-1.0, 0.5])

    def test_min_and_parentheses(self):
        fn = compile_expression("min(t, 0.5) * (state + 2)")
        np.testing.assert_allclose(fn(1.0, np.array([0.0])), [1.0])

    def test_unknown_name_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("exp(state)")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("state state")

    def test_division_not_in_grammar(self):
        with pytest.raises(ExpressionError):
            compile_expression("state / 2")


class TestConfig:
    def test_round_trip_is_lossless(self, tmp_path):
        path = write_config(tmp_path, "c.json", GAME_CONFIG)
        cfg = ExperimentConfig.load(path)
        assert cfg.raw == GAME_CONFIG
        assert json.loads(cfg.dumps()) == GAME_CONFIG

    def test_digest_stable(self):
        a = ExperimentConfig.from_dict(GAME_CONFIG)
        b = ExperimentConfig.from_dict(dict(GAME_CONFIG))
        assert a.digest() == b.digest()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "magic"})

    def test_bad_generator_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_dict({**GAME_CONFIG, "generator": "cubic:1"})
        assert run_experiment(cfg, tmp_path / "out") == 2


class TestRunKinds:
    def test_dynkin_verify_passes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(GAME_CONFIG)
        assert run_experiment(cfg, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["checks"]["oracle_gap"] <= 1e-10
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_sha256"] == cfg.digest()

    def test_bsde_solution_files(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "bsde",
            "lattice": {"T": 1.0, "N": 8},
            "generator": "constant:0.2",
            "terminal": "state",
        })
        assert run_experiment(cfg, tmp_path / "out") == 0
        lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        assert lines[0] == "k,node-id,state,Y,Z,K,J"

    def test_bsde_terminal_check_catches_a_tampered_solution(self, tmp_path, monkeypatch):
        import dataclasses

        from drbsde_lab import cli
        from drbsde_lab.lattice import AdaptedProcess

        solve = cli.solve_bsde

        def tampered(*args):
            sol = solve(*args)
            vals = [v.copy() for v in sol.Y.values]
            vals[-1][0] += 1e-12
            return dataclasses.replace(sol, Y=AdaptedProcess(sol.lattice, tuple(vals)))

        monkeypatch.setattr(cli, "solve_bsde", tampered)
        cfg = ExperimentConfig.from_dict({
            "kind": "bsde",
            "lattice": {"T": 1.0, "N": 4},
            "generator": "zero",
            "terminal": "state",
        })
        assert run_experiment(cfg, tmp_path / "out") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["terminal_matches"] is False
        assert report["passed"] is False

    def test_rbsde_and_penalization(self, tmp_path):
        base = {
            "lattice": {"T": 1.0, "N": 16},
            "generator": "linear:-0.5,0",
            "terminal": "max(0.3 - state, 0)",
            "lower": "max(0.3 - state, 0)",
            "seed": 4,
        }
        assert run_experiment(
            ExperimentConfig.from_dict({**base, "kind": "rbsde"}), tmp_path / "r"
        ) == 0
        assert run_experiment(
            ExperimentConfig.from_dict(
                {**base, "kind": "penalization", "schedule": [1, 4, 16, 64]}
            ),
            tmp_path / "p",
        ) == 0
        lines = (tmp_path / "p" / "penalization.csv").read_text().splitlines()
        assert lines[0] == "n,sup_gap,violations"
        assert len(lines) == 5

    def test_pasting_kind(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "pasting",
            "lattice": {"T": 1.0, "N": 6, "mode": "full-tree"},
            "generator": "linear:-0.5,0.3",
            "terminal": "max(min(state, 0.9), -0.9)",
            "lower": "max(min(state, 0.9), -0.9) - 0.25 - 0.05*t",
            "upper": "max(min(state, 0.9), -0.9) + 0.2 + 0.1*t",
        })
        assert run_experiment(cfg, tmp_path / "out") == 0
        assert (tmp_path / "out" / "ledger.csv").exists()

    def test_axioms_kind(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "axioms",
            "lattice": {"T": 1.0, "N": 4, "mode": "full-tree"},
            "generator": "zero",
            "cases": 10,
            "seed": 2,
        })
        assert run_experiment(cfg, tmp_path / "out") == 0

    def test_hypotheses_kind_with_expected_failures(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "hypotheses",
            "generator": "linear:0,1",
            "samples": 2000,
            "expected_failures": ["H5"],
            "seed": 3,
        })
        assert run_experiment(cfg, tmp_path / "out") == 0
        cfg2 = ExperimentConfig.from_dict({
            "kind": "hypotheses",
            "generator": "linear:0,1",
            "samples": 2000,
            "seed": 3,
        })
        assert run_experiment(cfg2, tmp_path / "out2") == 1

    def test_mc_crosscheck_kind(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "mc-crosscheck",
            "lattice": {"T": 1.0, "N": 8},
            "generator": "linear:-0.5,0.25",
            "terminal": "max(min(state, 2), -2)",
            "lower": "max(min(state, 2), -2) - 0.3",
            "upper": "max(min(state, 2), -2) + 0.3",
            "mc": {"M": 4000, "degree": 3},
            "seed": 7,
        })
        assert run_experiment(cfg, tmp_path / "out") == 0

    def test_separation_violation_exits_2_and_names_node(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_dict({
            "kind": "drbsde",
            "lattice": {"T": 1.0, "N": 4},
            "generator": "zero",
            "terminal": "0",
            "lower": "state",
            "upper": "0.5",
        })
        assert run_experiment(cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "not strictly separated at node" in err
        assert "(k=" in err

    @pytest.mark.parametrize("config,error", [
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 4}, "scheme": "implicit",
          "generator": "linear:-50,0", "terminal": "state"}, "FixedPointError"),
        ({"kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 2}, "generator": "zero",
          "terminal": "state", "lower": "state - 1", "upper": "state + 1",
          "mc": {"M": 200, "degree": 30}, "seed": 3}, "SingularRegressionError"),
    ], ids=["implicit-stall", "singular-regression"])
    def test_solver_failure_exits_3_with_report(self, tmp_path, capsys, config, error):
        out = tmp_path / "out"
        assert run_experiment(ExperimentConfig.from_dict(config), out) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["error"]["type"] == error
        assert report["error"]["message"]
        assert json.loads((out / "manifest.json").read_text())["kind"] == config["kind"]
        write_config(tmp_path, "stall.json", config)
        assert main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")]) == 3
        assert "SOLVER-ERROR" in capsys.readouterr().out


class TestDeterminism:
    def test_identical_config_gives_identical_reports(self, tmp_path):
        cfg = ExperimentConfig.from_dict(GAME_CONFIG)
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_solution_csv_bytes_stable(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "kind": "drbsde",
            "lattice": {"T": 1.0, "N": 10},
            "generator": "linear:-0.4,0.2",
            "terminal": "max(min(state, 1), -1)",
            "lower": "max(min(state, 1), -1) - 0.4",
            "upper": "max(min(state, 1), -1) + 0.4",
        })
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "solution.csv").read_bytes() == (
            tmp_path / "b" / "solution.csv"
        ).read_bytes()


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = write_config(tmp_path, "game.json", GAME_CONFIG)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_verify_all_aggregates(self, tmp_path, capsys):
        write_config(tmp_path, "a_game.json", GAME_CONFIG)
        write_config(tmp_path, "b_bad.json", {
            "kind": "drbsde",
            "lattice": {"T": 1.0, "N": 4},
            "generator": "zero",
            "terminal": "0",
            "lower": "state",
            "upper": "0.5",
        })
        status = main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")])
        out = capsys.readouterr().out
        assert status == 2
        assert "a_game.json" in out and "PASS" in out
        assert "b_bad.json" in out and "CONFIG-ERROR" in out

    def test_missing_config_dir(self, tmp_path, capsys):
        assert main(["verify-all", str(tmp_path / "nowhere")]) == 2

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, "ax.json", {
            "kind": "axioms",
            "lattice": {"T": 1.0, "N": 3, "mode": "full-tree"},
            "generator": "zero",
            "cases": 5,
        })
        assert main([
            "run", str(path), "--out", str(tmp_path / "out"), "--seed", "9"
        ]) == 0
