import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drbsde_lab.cli import (
    FIELDS,
    ConfigError,
    ExperimentConfig,
    main,
    run_experiment,
)
from drbsde_lab.exprs import ExpressionError, compile_expression
from drbsde_lab.lattice import build_lattice


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

    def test_missing_driver_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.npz"
        path = write_config(tmp_path, "c.json",
                            {**GAME_CONFIG, "generator": f"driver-file:{missing}"})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "absent.npz" in err
        assert "Traceback" not in err

    def test_non_finite_driver_table_is_config_error(self, tmp_path, capsys):
        axis = np.array([-1.0, 1.0])
        values = np.zeros((2, 2, 2, 2))
        values[1, 0, 1, 0] = np.inf
        driver = tmp_path / "driver.npz"
        np.savez(driver, t=axis, state=axis, y=axis, z=axis, values=values,
                 kappa=1.0, lam=1.0, alpha=0.5, h=0.0)
        path = write_config(tmp_path, "c.json",
                            {**GAME_CONFIG, "generator": f"driver-file:{driver}"})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err


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

    # the solve returns Y one ulp below the lower rail at the root, which a
    # slack of 1e-15 would let pass: the bound checks compare exactly
    @pytest.mark.parametrize("kind,check", [("rbsde", "obstacle_respected"),
                                            ("drbsde", "between_obstacles")])
    def test_bound_check_catches_one_ulp_below_the_lower_rail(self, kind, check, tmp_path,
                                                             monkeypatch):
        import dataclasses

        from drbsde_lab import cli
        from drbsde_lab.lattice import AdaptedProcess

        solve = getattr(cli, f"solve_{kind}")

        def tampered(*args):
            sol = solve(*args)
            vals = [v.copy() for v in sol.Y.values]
            vals[0][0] = np.nextafter(sol.obstacle_lower[0][0], -np.inf)
            assert vals[0][0] >= sol.obstacle_lower[0][0] - 1e-15
            return dataclasses.replace(sol, Y=AdaptedProcess(sol.lattice, tuple(vals)))

        monkeypatch.setattr(cli, f"solve_{kind}", tampered)
        cfg = {**GAME_CONFIG, "kind": kind}
        if kind == "rbsde":
            cfg["side"] = "lower"
            del cfg["upper"]
        assert run_experiment(ExperimentConfig.from_dict(cfg), tmp_path / "out") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"][check] is False
        assert report["checks"]["flat_off"] <= FIELDS["tolerances.flat_off"].default

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

    def test_mc_crosscheck_scans_the_path_data_once(self, tmp_path, monkeypatch):
        from drbsde_lab import cli, mc

        calls = []
        scan = mc.mc_terminal

        def counted(*args):
            calls.append(1)
            return scan(*args)

        # wherever the scan is bound by name, it is counted
        monkeypatch.setattr(mc, "mc_terminal", counted)
        monkeypatch.setattr(cli, "mc_terminal", counted, raising=False)
        config = {**GAME_CONFIG, "kind": "mc-crosscheck",
                  "lattice": {"T": 1.0, "N": 8}, "mc": {"M": 2000, "degree": 2}}
        assert run_experiment(ExperimentConfig.from_dict(config), tmp_path / "out") == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("kind,side,how", [
        ("rbsde", "lower", "nan"), ("rbsde", "upper", "inf"), ("drbsde", "lower", "nan"),
        ("dynkin-verify", "upper", "nan"), ("penalization", "upper", "nan"),
        ("pasting", "lower", "inf"), ("mc-crosscheck", "upper", "inf"),
    ])
    @np.errstate(invalid="ignore", over="ignore")
    def test_non_finite_obstacle_exits_2_and_names_node(self, tmp_path, capsys, kind, side,
                                                        how):
        # the blow-up is inf at the top node of the last step and 0 elsewhere
        blowup = "1e300*max(state - 1.5, 0)*1e300"
        bad = blowup if how == "inf" else f"{blowup} - {blowup}"
        sign = "-" if side == "lower" else "+"
        full = kind in ("dynkin-verify", "pasting")
        config = {**GAME_CONFIG, "kind": kind, "side": side, "generator": "zero",
                  "lattice": {"T": 1.0, "N": 3, "mode": "full-tree"} if full
                  else {"T": 1.0, "N": 4}, "mc": {"M": 200, "degree": 2}}
        config[side] = f"{config[side]} {sign} {bad}"
        out = tmp_path / "out"
        assert run_experiment(ExperimentConfig.from_dict(config), out) == 2
        err = capsys.readouterr().err
        n = config["lattice"]["N"]
        assert err.startswith(f"config error: {side!r} obstacle is not finite at node (k={n}, id=")
        for path in out.iterdir():
            text = path.read_text()
            assert "nan" not in text.lower() and "inf" not in text.lower(), path.name

    def test_non_finite_obstacle_prints_only_the_config_error(self, tmp_path, capsys):
        config = {"kind": "rbsde", "lattice": {"T": 1.0, "N": 4}, "terminal": "state",
                  "lower": "state - 1 + 1e300*1e300 - 1e300*1e300"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run_experiment(ExperimentConfig.from_dict(config), tmp_path / "out")
        assert status == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "config error: 'lower' obstacle is not finite at node (k=0, id=0)\n")

    def test_obstacle_overflowing_on_paths_exits_2(self, tmp_path, capsys):
        # finite on every lattice node (|state| <= 4), -inf on the paths
        # with |W_T| > 4.003; the flat-off product used to read max(0, nan) = 0
        config = {**GAME_CONFIG, "kind": "mc-crosscheck",
                  "lattice": {"T": 1.0, "N": 16, "mode": "recombining"},
                  "lower": "max(state, -0.8) - 0.3 - state*state*state*state*6.9e305 - 6.9e305",
                  "mc": {"M": 100_000, "degree": 3}, "seed": 3}
        assert run_experiment(ExperimentConfig.from_dict(config), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: lower obstacle is not finite on path ")
        # with two CPUs the design child forks before the scan; none is left
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("config,error,fields", [
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 4}, "scheme": "implicit",
          "generator": "linear:-50,0", "terminal": "state"}, "FixedPointError",
         {"step": 3, "node": 0, "residual": float}),
        ({"kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 2}, "generator": "zero",
          "terminal": "state", "lower": "state - 1", "upper": "state + 1",
          "mc": {"M": 200, "degree": 30}, "seed": 3}, "SingularRegressionError", {}),
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 4}, "scheme": "implicit",
          "generator": "linear:-1e4,0", "terminal": "state"}, "FixedPointError",
         {"step": 3, "node": 0, "residual": None}),
        # merged sweeps: the reflected limit with its levels, and the direct
        # solve with both penalty families
        ({"kind": "penalization", "lattice": {"T": 1.0, "N": 4}, "scheme": "implicit",
          "generator": "linear:-50,0", "terminal": "state", "lower": "state - 1"},
         "FixedPointError", {"step": 3, "node": 0, "residual": float}),
        ({**GAME_CONFIG, "kind": "pasting", "scheme": "implicit", "generator": "linear:-50,0"},
         "FixedPointError", {"step": 2, "node": 3, "residual": float}),
    ], ids=["implicit-stall", "singular-regression", "implicit-nan",
            "implicit-stall-penalization", "implicit-stall-pasting"])
    @np.errstate(over="ignore", invalid="ignore")
    def test_solver_failure_exits_3_with_report(self, tmp_path, capsys, config, error,
                                                fields):
        out = tmp_path / "out"
        assert run_experiment(ExperimentConfig.from_dict(config), out) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["error"]["type"] == error
        assert report["error"]["message"]
        # an implicit failure names its step and node and carries its
        # residual, a number, or null when it is not finite
        extra = set(report["error"]) - {"type", "message"}
        assert extra == set(fields)
        for key, want in fields.items():
            got = report["error"][key]
            if isinstance(want, type):
                assert isinstance(got, want) and math.isfinite(got)
            else:
                assert got == want
        assert json.loads((out / "manifest.json").read_text())["kind"] == config["kind"]
        write_config(tmp_path, "stall.json", config)
        assert main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")]) == 3
        assert "SOLVER-ERROR" in capsys.readouterr().out


    @pytest.mark.parametrize("exc", [ValueError("shapes (3,) and (4,) not aligned"),
                                     RuntimeError("unexpected state")],
                             ids=["value-error", "runtime-error"])
    def test_internal_error_exits_4_with_report(self, tmp_path, capsys, monkeypatch, exc):
        # a ValueError from inside a solver is a bug, not a config error
        from drbsde_lab import cli

        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_bsde", broken)
        config = {"kind": "bsde", "lattice": {"T": 1.0, "N": 4}, "terminal": "state"}
        out = tmp_path / "out"
        assert run_experiment(ExperimentConfig.from_dict(config), out) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {type(exc).__name__}:")
        assert "Traceback" not in err
        report = json.loads((out / "report.json").read_text())
        assert report == {"kind": "bsde", "passed": False,
                          "error": {"type": type(exc).__name__, "message": str(exc)}}
        assert json.loads((out / "manifest.json").read_text())["kind"] == "bsde"
        write_config(tmp_path, "broken.json", config)
        assert main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")]) == 4
        assert "INTERNAL-ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("config,message", [
        ({"kind": "rbsde", "lattice": {"T": 1.0, "N": 3}, "side": "lower",
          "terminal": "state", "lower": "state + 1"}, "terminal order violated"),
        ({"kind": "penalization", "lattice": {"T": 1.0, "N": 3}, "side": "lower",
          "terminal": "state", "lower": "state - 1", "schedule": [4, 1]},
         "strictly increasing"),
        # the level inf is the clamp inside a sweep, never a user's level
        *[({**config, "schedule": schedule}, "finite and nonnegative") for config in (
            {"kind": "penalization", "lattice": {"T": 1.0, "N": 3}, "side": "lower",
             "terminal": "state", "lower": "state - 1"},
            {**GAME_CONFIG, "kind": "pasting", "lattice": {"T": 1.0, "N": 3, "mode": "full-tree"}},
        ) for schedule in ([1, 4, math.inf], [-150, 4], [math.nan])],
        ({**GAME_CONFIG, "lattice": {"T": 1.0, "N": 5, "mode": "full-tree"}},
         "enumeration size guard"),
        ({**GAME_CONFIG, "kind": "pasting", "lattice": {"T": 1.0, "N": 3}},
         "full-tree lattice"),
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 3}, "terminal": "state",
          "scheme": "Implicit"}, "scheme must be one of"),
        # a check over no case computes nothing
        *[({"kind": "axioms", "lattice": {"T": 1.0, "N": 2, "mode": "full-tree"},
            "cases": cases}, f"cases must be >= 1, got {cases}") for cases in (0, -1)],
        # not a list of names among the report's checks
        *[({"kind": "hypotheses", "samples": 20, "expected_failures": names},
           "expected_failures must list names among ['H1', 'H2', 'H3', 'H4', 'H5']")
          for names in ("H5", ["H6"], ["H1", ["H2"]])],
        # a negative degree names no basis
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 4},
          "mc": {"M": 400, "degree": -1}}, "basis degree must be >= 0, got -1"),
        # a misspelt key never leaves its default in place (N = 8, M = 100,000)
        ({"kind": "bsde", "lattice": {"T": 1.0, "n": 3}, "terminal": "state"},
         "bad lattice spec {'T': 1.0, 'n': 3}: unknown keys ['n'], "
         "expected among ['T', 'N', 'mode']"),
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 4},
          "mc": {"m": 500, "degre": 1}},
         "unknown keys ['degre', 'm'], expected among ['M', 'degree']"),
        # a missing expression or a value out of its row of the config table
        ({key: v for key, v in GAME_CONFIG.items() if key != "terminal"},
         "dynkin-verify config needs a 'terminal' expression"),
        ({key: v for key, v in GAME_CONFIG.items() if key != "upper"},
         "two-obstacle configs need 'lower' and 'upper' expressions"),
        ({key: v for key, v in GAME_CONFIG.items() if key != "upper"}
         | {"kind": "rbsde", "side": "upper"}, "rbsde config needs a 'upper' obstacle expression"),
        ({**GAME_CONFIG, "generator": 5}, "generator must be a registry name or an object, got 5"),
        ({**GAME_CONFIG, "lattice": {"T": 0, "N": 3, "mode": "full-tree"}},
         "lattice.T must be a finite number > 0, got 0"),
        # inf at the top node of the walk's last step (state 2), 0 elsewhere
        ({"kind": "bsde", "lattice": {"N": 4}, "generator": "zero",
          "terminal": "1e308*max(state - 1.5, 0)*10"},
         "terminal payoff must be finite at every node, not at (k=4, id=4)"),
    ], ids=["terminal-order", "schedule",
            *(f"schedule-{kind}-{bad}" for kind in ("penalization", "pasting")
              for bad in ("inf", "negative", "nan")),
            "oracle-cap", "full-tree-only", "scheme", "cases-0", "cases-negative",
            "expected-failures-string", "expected-failures-unknown",
            "expected-failures-nested", "mc-degree-negative", "lattice-unknown-key",
            "mc-unknown-key", "no-terminal", "no-upper", "rbsde-no-upper", "generator-number",
            "T-zero", "terminal-infinite-at-a-node"])
    def test_config_reachable_solver_checks_exit_2(self, tmp_path, capsys, config, message):
        # through main: some are found by the config walk, others by the run
        path = write_config(tmp_path, "reach.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("config", [
        {"kind": "bsde", "lattice": {"T": 1.0, "N": 4.7}, "terminal": "state"},
        {"kind": "bsde", "lattice": {"T": 1.0, "N": math.inf}, "terminal": "state"},
        {"kind": "axioms", "lattice": {"T": 1.0, "N": 2, "mode": "full-tree"},
         "cases": 2.9},
        {**GAME_CONFIG, "seed": 1.5},
        {"kind": "hypotheses", "samples": 20.5},
        {**GAME_CONFIG, "kind": "mc-crosscheck", "mc": {"M": 400.5}},
        {**GAME_CONFIG, "kind": "mc-crosscheck", "mc": {"M": 400, "degree": 2.5}},
    ], ids=["N", "N-inf", "cases", "seed", "samples", "M", "degree"])
    def test_fractional_integer_fields_exit_2(self, tmp_path, capsys, config):
        # a truncating int() would run N=4, two cases, seed 1, ...
        path = write_config(tmp_path, "frac.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be an integer" in err
        assert not (tmp_path / "out" / "solution.csv").exists()

    @pytest.mark.parametrize("config", [
        {"kind": "bsde", "lattice": {"T": 1.0, "N": True}, "terminal": "state"},
        {**GAME_CONFIG, "seed": True},
        {"kind": "axioms", "lattice": {"T": 1.0, "N": 2, "mode": "full-tree"}, "cases": True},
        {"kind": "hypotheses", "samples": True},
        {**GAME_CONFIG, "kind": "mc-crosscheck", "mc": {"M": True}},
        {**GAME_CONFIG, "kind": "mc-crosscheck", "mc": {"M": 400, "degree": False}},
    ], ids=["N", "seed", "cases", "samples", "M", "degree"])
    def test_boolean_integer_fields_exit_2(self, tmp_path, capsys, config):
        # Python counts a bool as an int: N true would run N = 1, seed true seed 1
        path = write_config(tmp_path, "bool.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be an integer" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind,tolerances", [
        ("drbsde", {"flat_off": math.nan}),
        ("drbsde", {"flat_off": -1}),
        ("drbsde", {"flat_off": math.inf}),
        ("dynkin-verify", {"value_gap": "0"}),
        ("dynkin-verify", {"value_gap": True}),
        ("dynkin-verify", {"value_gap": 10**400}),
        ("drbsde", {"flat_off": 0.0, "mc_scale_fraction": math.nan}),
    ], ids=["nan", "negative", "inf", "string", "bool", "overflowing", "unread-key"])
    def test_bad_tolerance_values_exit_2(self, tmp_path, capsys, kind, tolerances):
        # NaN or a negative would fail every check (exit 1) and inf pass
        # every one; a key the kind does not read is checked all the same
        path = write_config(tmp_path, "tol.json", {**GAME_CONFIG, "kind": kind,
                                                   "tolerances": tolerances})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be a finite number >= 0" in err

    @pytest.mark.parametrize("config,message", [
        ({**GAME_CONFIG, "out": 5}, "out must be a string, got 5"),
        ({**GAME_CONFIG, "write_pair_table": "no"}, "write_pair_table must be true or false"),
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 4},
          "mc": {"M": 400}, "write_paths": 1}, "write_paths must be true or false"),
    ], ids=["out", "write_pair_table", "write_paths"])
    def test_output_fields_of_the_wrong_type_exit_2(self, tmp_path, capsys, monkeypatch,
                                                   config, message):
        monkeypatch.chdir(tmp_path)  # where a run without --out would write
        path = write_config(tmp_path, "outputs.json", config)
        out = tmp_path / "out"
        for argv in (["run", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outputs.json"]

    @pytest.mark.parametrize("config,override", [
        ({**GAME_CONFIG, "seed": -1}, []),
        ({"kind": "axioms", "lattice": {"T": 1.0, "N": 2, "mode": "full-tree"}, "cases": 2,
          "seed": -1}, []),
        ({"kind": "hypotheses", "samples": 20, "seed": -1}, []),
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "lattice": {"T": 1.0, "N": 4},
          "mc": {"M": 400}, "seed": -1}, []),
        (GAME_CONFIG, ["--seed", "-1"]),
    ], ids=["dynkin-verify", "axioms", "hypotheses", "mc-crosscheck", "cli-override"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, config, override):
        # numpy's generators reject a negative seed: a config error, not exit 4
        path = write_config(tmp_path, "seed.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), *override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("pair", [[1, -1], [math.nan, 1], [-1, math.inf], [-1e308, 1e308]],
                             ids=["reversed", "nan", "inf", "overflowing-span"])
    def test_bad_box_bounds_exit_2(self, tmp_path, capsys, pair):
        # numpy's uniform raises ValueError or OverflowError on these: a
        # config error, not exit 4
        config = {"kind": "hypotheses", "samples": 20, "box": [[0, 1], pair, [-1, 1], [-1, 1]]}
        path = write_config(tmp_path, "box.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "lo <= hi" in err

    @pytest.mark.parametrize("config,message", [
        ({"kind": "bsde", "lattice": {"T": True, "N": 4}, "terminal": "state"},
         "T must be a number, got True"),
        ({"kind": "bsde", "lattice": {"T": "2", "N": 4}, "terminal": "state"},
         "T must be a number, got '2'"),
        ({"kind": "bsde", "lattice": {"T": 10**400, "N": 4}, "terminal": "state"},
         "T must be a number within the float range"),
        *[({**GAME_CONFIG, "kind": "drbsde",
            "generator": {"name": "linear:-0.5,0.3", key: value}},
           f"{key} must be a number, got {value!r}")
          for key, value in (("kappa", True), ("kappa", "2"), ("lam", False), ("h", "0"))],
        ({**GAME_CONFIG, "kind": "pasting", "schedule": [True, "4", 16]},
         "penalty level must be a number, got True"),
        ({"kind": "penalization", "lattice": {"T": 1.0, "N": 4}, "terminal": "state",
          "lower": "state - 1", "schedule": [1, "4", 16]},
         "penalty level must be a number, got '4'"),
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 4}, "terminal": 5},
         "'terminal' must be an expression string, got 5"),
        ({**GAME_CONFIG, "kind": "drbsde", "lower": -5},
         "'lower' must be an expression string, got -5"),
        ({**GAME_CONFIG, "kind": "drbsde", "upper": ["state"]},
         "'upper' must be an expression string, got ['state']"),
        ({"kind": "hypotheses", "samples": 20, "box": [[True, 1], [-1, 1], [-1, 1], [-1, 1]]},
         "box bound must be a number, got True"),
        ({"kind": "hypotheses", "samples": 20, "box": [[0, 1], ["-3", 3], [-1, 1], [-1, 1]]},
         "box bound must be a number, got '-3'"),
    ], ids=["T-true", "T-string", "T-overflowing", "kappa-true", "kappa-string", "lam-false",
            "h-string", "schedule-true", "schedule-string", "terminal-number",
            "lower-number", "upper-list", "box-true", "box-string"])
    def test_numbers_and_expressions_of_the_wrong_kind_exit_2(self, tmp_path, capsys, config,
                                                              message):
        # float() would read true as 1 and "2" as 2, and str() would run the
        # terminal 5 as the constant expression 5
        path = write_config(tmp_path, "kind.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("box", [[], False, 0, None, [1, 2, 3, 4]],
                             ids=["empty", "false", "zero", "null", "flat"])
    def test_a_given_box_never_falls_back_to_the_default(self, tmp_path, capsys, box):
        config = {"kind": "hypotheses", "samples": 20, "box": box}
        path = write_config(tmp_path, "box.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"box must be a list of four (lo, hi) pairs, got {box!r}" in err

    @pytest.mark.parametrize("config,message", [
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "mc": 5}, "mc must be an object, got 5"),
        ({**GAME_CONFIG, "kind": "mc-crosscheck", "mc": []}, "mc must be an object, got []"),
        ({**GAME_CONFIG, "kind": "pasting", "schedule": "14"},
         "schedule must be a list of numbers, got '14'"),
        ({**GAME_CONFIG, "kind": "pasting", "schedule": {"a": 1}},
         "schedule must be a list of numbers, got {'a': 1}"),
        ({**GAME_CONFIG, "kind": "drbsde", "generator": {"name": 5}},
         "generator name must be a string, got 5"),
        ({**GAME_CONFIG, "lattice": [3]}, "lattice must be an object, got [3]"),
        ({**GAME_CONFIG, "tolerances": "x"}, "tolerances must be an object, got 'x'"),
    ], ids=["mc-number", "mc-list", "schedule-string", "schedule-object", "generator-name",
            "lattice-list", "tolerances-string"])
    def test_values_of_the_wrong_shape_name_the_shape_exit_2(self, tmp_path, capsys, config,
                                                            message):
        path = write_config(tmp_path, "shape.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "object is not" not in err and "has no attribute" not in err

    def test_unknown_top_level_key_exits_2(self, tmp_path, capsys):
        # "sheme" and "seeed" would run the explicit scheme with seed 0
        config = {**GAME_CONFIG, "kind": "drbsde", "sheme": "implicit", "seeed": 3}
        path = write_config(tmp_path, "typo.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown keys ['seeed', 'sheme']" in err
        assert not (tmp_path / "out").exists()
        (tmp_path / "configs").mkdir()
        path.rename(tmp_path / "configs" / "typo.json")
        assert main(["verify-all", str(tmp_path / "configs")]) == 2
        assert "CONFIG-ERROR" in capsys.readouterr().out

    def test_unknown_generator_key_exits_2(self, tmp_path, capsys):
        drbsde = {**GAME_CONFIG, "kind": "drbsde"}
        known = {"name": "linear:-0.5,0.3", "kappa": 0.5}
        path = write_config(tmp_path, "known.json", {**drbsde, "generator": known})
        assert main(["run", str(path), "--out", str(tmp_path / "known")]) == 0
        path = write_config(tmp_path, "typo.json",
                            {**drbsde, "generator": {"name": "linear:-0.5,0.3", "kapa": 9}})
        assert main(["run", str(path), "--out", str(tmp_path / "typo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "unknown keys ['kapa']" in err
        assert "['name', 'kappa', 'lam', 'alpha', 'h']" in err

    def test_integral_float_fields_run(self, tmp_path):
        config = {"kind": "bsde", "lattice": {"T": 1.0, "N": 4.0}, "terminal": "state"}
        path = write_config(tmp_path, "whole.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()
        assert len(rows) == 1 + 15

    def test_unknown_tolerance_key_exits_2_naming_the_known_keys(self, tmp_path, capsys):
        drbsde = {**GAME_CONFIG, "kind": "drbsde"}
        path = write_config(tmp_path, "known.json", {**drbsde, "tolerances": {"flat_off": 1e-12}})
        assert main(["run", str(path), "--out", str(tmp_path / "known")]) == 0
        path = write_config(tmp_path, "typo.json", {**drbsde, "tolerances": {"flat-off": -1}})
        assert main(["run", str(path), "--out", str(tmp_path / "typo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'flat-off'" in err
        tolerances = [path.partition(".")[2] for path in FIELDS
                      if path.startswith("tolerances.")]
        assert tolerances and all(repr(key) in err for key in tolerances)


class TestDynkinVerify:
    def test_one_solve_serves_the_oracle_and_the_saddle(self, tmp_path, monkeypatch):
        from drbsde_lab import cli, dynkin

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2] if len(args) > 2 else kwargs.get("scheme"))
            return solve(*args, **kwargs)

        solve = cli.solve_drbsde
        monkeypatch.setattr(cli, "solve_drbsde", counted)
        monkeypatch.setattr(dynkin, "solve_drbsde", counted)
        cfg = ExperimentConfig.from_dict(dict(GAME_CONFIG, scheme="implicit"))
        assert run_experiment(cfg, tmp_path) == 0
        assert calls == ["implicit"]

    def test_the_rule_table_is_built_once_per_run(self, tmp_path, monkeypatch):
        # the rules' stacked table is built once at N = 4, by the saddle check;
        # the recursion's own calls are at smaller depths
        from drbsde_lab import dynkin

        depths = []

        def counted(depth):
            depths.append(depth)
            return build(depth)

        build = dynkin._rule_flags
        monkeypatch.setattr(dynkin, "_rule_flags", counted)
        cfg = ExperimentConfig.from_dict(
            dict(GAME_CONFIG, lattice={"T": 1.0, "N": 4, "mode": "full-tree"}))
        assert run_experiment(cfg, tmp_path) == 0
        assert depths.count(4) == 1

    # the README game at N = 4 with one rail moved to 1e-9 of y0 at the root
    # alone: Y keeps every bit, so the rule stopping at the root where Y
    # misses the rail is no contact, and the saddle check must pass
    @pytest.mark.parametrize("rail", [
        {"lower": "max(max(state, -0.8) - 0.3 - 0.1*t, 0.18327367575781253 - 1000*t)"},
        {"upper": "min(max(state, -0.8) + 0.25 + 0.1*t, 0.18327367775781253 + 1000*t)"},
    ], ids=["lower", "upper"])
    def test_a_rail_just_off_y_at_the_root_is_no_contact(self, tmp_path, rail):
        config = dict(GAME_CONFIG, lattice={"T": 1.0, "N": 4, "mode": "full-tree"}, **rail)
        path = write_config(tmp_path, "near.json", config)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert checks["y0"] == checks["sup_inf"] == checks["inf_sup"] == 0.18327367675781253
        assert checks["saddle_violation"] == checks["saddle_equality_gap"] == 0.0

    def test_a_failed_saddle_check_fails_the_game_report_too(self, tmp_path, monkeypatch):
        import dataclasses

        from drbsde_lab import cli

        def violated(*args, **kwargs):
            return dataclasses.replace(saddle(*args, **kwargs), max_saddle_violation=1.0)

        saddle = cli.verify_saddle
        monkeypatch.setattr(cli, "verify_saddle", violated)
        assert run_experiment(ExperimentConfig.from_dict(GAME_CONFIG), tmp_path) == 1
        assert json.loads((tmp_path / "report.json").read_text())["passed"] is False
        assert (tmp_path / "game_report.txt").read_text().endswith("\npassed false\n")

    def test_pair_table_is_the_oracle_table(self, tmp_path, monkeypatch):
        from drbsde_lab import dynkin

        tables = []

        def counted(*args, **kwargs):
            tables.append(table(*args, **kwargs))
            return tables[-1]

        table = dynkin.pair_value_table
        monkeypatch.setattr(dynkin, "pair_value_table", counted)
        cfg = ExperimentConfig.from_dict(dict(GAME_CONFIG, write_pair_table=True))
        assert run_experiment(cfg, tmp_path) == 0
        assert len(tables) == 1
        rows = (tmp_path / "pair_table.csv").read_text().splitlines()
        assert len(rows) == 1 + tables[0].size == 1 + 26 * 26
        assert rows[27] == f"1,0,{tables[0][1, 0]:.17g}"


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

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        write_config(tmp_path, "a_game.json", GAME_CONFIG)
        (tmp_path / "b_bytes.json").write_bytes(b'{"kind": "\xff"}')
        assert main(["run", str(tmp_path / "b_bytes.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and "Traceback" not in err
        # verify-all reports it and still runs the others
        status = main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")])
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
        assert status == 2
        assert rows == {"a_game.json": "PASS", "b_bytes.json": "CONFIG-ERROR"}

    def test_config_nested_too_deep_is_a_config_error(self, tmp_path, capsys):
        write_config(tmp_path, "a_game.json", GAME_CONFIG)
        (tmp_path / "b_deep.json").write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(tmp_path / "b_deep.json"), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config") and "Traceback" not in err
        # verify-all reports it and still runs the others
        status = main(["verify-all", str(tmp_path), "--out", str(tmp_path / "res")])
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines()[1:])
        assert status == 2
        assert rows == {"a_game.json": "PASS", "b_deep.json": "CONFIG-ERROR"}

    def test_a_payoff_of_a_thousand_kinks_runs(self, tmp_path):
        kinks = " + ".join(f"0.001*max(state - {i / 1000:g}, 0)" for i in range(1000))
        path = write_config(tmp_path, "long.json", {
            "kind": "bsde", "lattice": {"N": 4}, "generator": "zero", "terminal": kinks})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        lat = build_lattice(1.0, 4, "recombining")
        s = lat.states(4)
        xi = sum(0.001 * np.maximum(s - i / 1000, 0) for i in range(1000))
        assert abs(report["y0"] - lat.terminal_weights() @ xi) <= 1e-12

    @pytest.mark.parametrize("terminal, message", [
        ("*".join(["state"] * 5000), "terminal payoff must be finite"),
        ("(" * 1001 + "state" + ")" * 1001, "over 1000 parentheses, calls and operators"),
        ("(" * 5000 + "state" + ")" * 5000, "over 1000 parentheses, calls and operators"),
        ("state + " * 2500 + "exp(state)", "unexpected 'exp'"),
    ], ids=["overflowing-product", "nested-1001", "nested-5000", "long-unknown-name"])
    def test_a_long_terminal_that_fails_exits_2_with_one_short_line(self, tmp_path, capsys,
                                                                      terminal, message):
        path = write_config(tmp_path, "bad.json", {
            "kind": "bsde", "lattice": {"N": 4}, "generator": "zero", "terminal": terminal})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and len(err) <= 200

    def test_output_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "configs").mkdir()
        path = write_config(tmp_path / "configs", "game.json", GAME_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(path), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert main(["verify-all", str(path.parent), "--out", str(taken)]) == 2
        assert capsys.readouterr().out.splitlines()[1].split() == ["game.json", "CONFIG-ERROR"]

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


KINDS = ["bsde", "rbsde", "drbsde", "dynkin-verify", "penalization", "pasting", "axioms",
         "hypotheses", "mc-crosscheck"]
DROP = object()
# per field, values that are absent, of the wrong type or out of range
SPOILERS = {
    "lattice": [DROP, "x", {"T": 0.0, "N": 2}, {"N": 0}, {"N": "x"}, {"N": [2]},
                {"N": 5, "mode": "full-tree"}, {"N": 2, "mode": "walk"}, {"T": None},
                {"N": 2.5}, {"N": True}, {"T": True, "N": 2}, {"T": "2", "N": 2},
                {"T": 1.0, "n": 3}],
    "scheme": ["Implicit", 1, None],
    "generator": ["cubic:1", "linear:1", "linear:-50,0", "driver-file:absent.npz", 5,
                  {"name": "zero"}, {"name": "linear:0.5,0.3", "kappa": -1.0},
                  {"name": "zero", "lam": "x"}, {}, {"name": "linear:0.5,0.3", "kappa": True},
                  {"name": "linear:0.5,0.3", "kappa": "2"},
                  {"name": "linear:-0.5,0.3", "kapa": 9}, {"name": 5}],
    "terminal": [DROP, "min(state", "exp(state)", 7, 5, "abs(state) * 1e300 * 1e300", "state"],
    "lower": [DROP, "state + 1", "state", "x", -5],
    "upper": [DROP, "state - 1", "state", "1e300 * 1e300", 5],
    "side": ["both", None],
    "schedule": [[], [4, 1], ["a"], 5, [0.5], [1, 4, math.inf], [-150, 4], [math.nan],
                 [True, "4", 16], "14", {"a": 1}],
    "cases": ["x", -1, None, 2.5, True],
    "samples": [0, -1, "x", True],
    "box": [[[0, 1]], [[0, 1, 2], [-1, 1], [-1, 1], [-1, 1]], "x",
            [[0, 1], [-1, 1], [-1, 1], [-1, 1]], [[1, 0], [-1, 1], [-1, 1], [-1, 1]],
            [[0, 1], [math.nan, 1], [-1, 1], [-1, 1]], [[0, 1], [-1, 1], [-1, math.inf], [-1, 1]],
            [[True, 1], [-1, 1], [-1, 1], [-1, 1]], [[0, 1], ["-3", 3], [-1, 1], [-1, 1]],
            [], False, 0, [1, 2, 3, 4]],
    "expected_failures": [5, ["H1"]],
    "mc": [{"M": 50}, {"degree": -1}, {"M": "x"}, [], {"M": 400, "degree": 0}, {"M": 400.5},
           {"m": 500, "degre": 1}, 5],
    "sheme": ["implicit"],
    "seed": ["x", None, 1.5, -1, True],
    "tolerances": [{"value_gap": "x"}, "x", {"value_gap": 0.0}],
}


@st.composite
def random_configs(draw):
    """A small valid config of a random kind, with up to two fields spoiled."""
    base = draw(st.sampled_from(["state", "max(state, -0.8)", "0.5", "abs(state) - 1"]))
    cfg = {
        "kind": draw(st.sampled_from(KINDS)),
        "lattice": {"T": 1.0, "N": draw(st.integers(1, 4)),
                    "mode": draw(st.sampled_from(["recombining", "full-tree"]))},
        "scheme": draw(st.sampled_from(["explicit", "implicit"])),
        "generator": draw(st.sampled_from(["zero", "constant:0.2", "linear:0.5,0.3",
                                           "linear:-0.5,0.3"])),
        "terminal": base, "lower": f"{base} - 0.3 - 0.1*t", "upper": f"{base} + 0.3 + 0.1*t",
        "side": draw(st.sampled_from(["lower", "upper"])),
        "schedule": [1, 4, 16], "cases": 2, "samples": 20, "mc": {"M": 200, "degree": 2},
        "seed": draw(st.integers(0, 9)),
    }
    for key in draw(st.lists(st.sampled_from(sorted(SPOILERS)), max_size=2, unique=True)):
        value = draw(st.sampled_from(SPOILERS[key]))
        if value is DROP:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=random_configs())
@np.errstate(all="ignore")
def test_random_configs_end_in_a_documented_status(tmp_path, capsys, config):
    # any config, however malformed, is a pass, a failed check, a config
    # error or a solver failure; an internal error (exit 4) would be a bug
    path = write_config(tmp_path, "random.json", config)
    out = tmp_path / "out"
    status = main(["run", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert status in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if status in (0, 1, 3):
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is (status == 0)
