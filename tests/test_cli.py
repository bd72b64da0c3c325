import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    ], ids=["implicit-stall", "singular-regression", "implicit-nan"])
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
        ({**GAME_CONFIG, "lattice": {"T": 1.0, "N": 5, "mode": "full-tree"}},
         "enumeration size guard"),
        ({**GAME_CONFIG, "kind": "pasting", "lattice": {"T": 1.0, "N": 3}},
         "full-tree lattice"),
        ({"kind": "bsde", "lattice": {"T": 1.0, "N": 3}, "terminal": "state",
          "scheme": "Implicit"}, "scheme must be one of"),
    ], ids=["terminal-order", "schedule", "oracle-cap", "full-tree-only", "scheme"])
    def test_config_reachable_solver_checks_exit_2(self, tmp_path, capsys, config, message):
        assert run_experiment(ExperimentConfig.from_dict(config), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

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
                {"N": 5, "mode": "full-tree"}, {"N": 2, "mode": "walk"}, {"T": None}],
    "scheme": ["Implicit", 1, None],
    "generator": ["cubic:1", "linear:1", "linear:-50,0", "driver-file:absent.npz", 5,
                  {"name": "zero"}, {"name": "linear:0.5,0.3", "kappa": -1.0},
                  {"name": "zero", "lam": "x"}, {}],
    "terminal": [DROP, "min(state", "exp(state)", 7, "abs(state) * 1e300 * 1e300", "state"],
    "lower": [DROP, "state + 1", "state", "x"],
    "upper": [DROP, "state - 1", "state", "1e300 * 1e300"],
    "side": ["both", None],
    "schedule": [[], [4, 1], ["a"], 5, [0.5]],
    "cases": ["x", -1, None],
    "samples": [0, -1, "x"],
    "box": [[[0, 1]], [[0, 1, 2], [-1, 1], [-1, 1], [-1, 1]], "x",
            [[0, 1], [-1, 1], [-1, 1], [-1, 1]]],
    "expected_failures": [5, ["H1"]],
    "mc": [{"M": 50}, {"degree": -1}, {"M": "x"}, [], {"M": 400, "degree": 0}],
    "seed": ["x", None],
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
