import json
import subprocess
import sys

import numpy as np
import pytest

from tensorsim import cases, cli, study
from tensorsim import power_model as pm
from tensorsim import taylor
from tensorsim.tensor_ops import cp_decompose


FAST = ["--levels", "1.0", "--ranks", "6,6", "--dt", "0.01"]

COMMON_OPTIONS = {"system", "config", "out", "seed", "dt", "t_end",
                  "norm_threshold", "reference_gen"}
MODELS = {"levels", "ranks", "models"}
SCENARIO = {"fault_bus", "t_on", "t_clear", "load_level"}
COMMAND_OPTIONS = {
    "build": {"levels", "ranks", "angle_threshold", "fault_bus", "t_clear",
              "rank_tol", "max_rank"},
    "simulate": MODELS | SCENARIO | {"angle_threshold", "mode"},
    "cct": MODELS | {"angle_threshold", "fault_bus", "load_level", "mode"},
    "rank-search": SCENARIO | {"angle_threshold", "mode", "start_rank", "rank_tol", "max_rank"},
    "threshold-search": MODELS | SCENARIO | {"max_threshold", "max_error", "metric"},
    "sweep": MODELS | {"angle_threshold", "fault_bus", "sweep_levels"},
    "compare": MODELS | SCENARIO | {"angle_threshold", "modes", "repetitions"},
}
# flags every command lost; each is also an unknown config key
REMOVED_EVERYWHERE = ("--horizon", "--load-swap")
# flags the handlers never read
REMOVED_FLAGS = {
    "cct": ("--t-on", "--t-clear"),
    "rank-search": ("--levels", "--ranks"),
    "threshold-search": ("--angle-threshold", "--mode"),
    "sweep": ("--t-on", "--t-clear", "--load-level", "--mode"),
    "compare": ("--mode",),  # ambiguous: --models or --modes
}


def run_cli(args):
    return cli.main([str(a) for a in args])


class TestParsing:
    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0

    def test_subcommand_help(self):
        assert run_cli(["simulate", "--help"]) == 0

    def test_bad_usage_exit_two(self):
        assert run_cli(["simulate"]) == 2  # missing --system

    def test_unknown_mode_exit_two(self, tmp_path):
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7",
             "--t-clear", "0.1", "--mode", "bogus", "--out", tmp_path]
        )
        assert code == 2

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_command_options(self, command):
        # each command takes only the flags its handler reads
        _, commands = cli._parser()
        dests = {a.dest for a in commands[command]._actions if a.dest != "help"}
        assert dests == COMMON_OPTIONS | COMMAND_OPTIONS[command]

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(COMMAND_OPTIONS)
        for flag in [*REMOVED_EVERYWHERE, *REMOVED_FLAGS.get(command, ())]
    ])
    def test_removed_flag_exit_two(self, tmp_path, capsys, command, flag):
        code = run_cli([command, "--system", "wscc9", flag, "1", "--out", tmp_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err  # argparse's usage error
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", [["--t-e", "0.5"], ["--t-e=0.5"]],
                             ids=["prefix", "prefix_equals"])
    def test_abbreviated_flag_rejected(self, tmp_path, capsys, flag):
        # a flag matches only its full name: a prefix of a flag would
        # silently read a removed flag as another one
        code = run_cli(["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
                        *flag, "--out", tmp_path])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestErrors:
    def test_missing_system_file(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--system", str(tmp_path / "gone.json"), "--fault-bus", "7",
             "--t-clear", "0.1", "--out", tmp_path / "o"]
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert "gone.json" in err["message"]

    def test_schema_violation_exit_two(self, tmp_path):
        raw = cases.wscc9()
        raw["buses"].append({"id": 1, "type": "PQ"})
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(raw))
        code = run_cli(
            ["simulate", "--system", p, "--fault-bus", "7", "--t-clear", "0.1",
             "--mode", "force_full", "--out", tmp_path / "o"]
        )
        assert code == 2

    def test_infeasible_load_exit_three(self, tmp_path):
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "1.0", "--load-level", "25.0", "--mode", "force_full",
             "--out", tmp_path / "o"]
        )
        assert code == 3

    def test_sweep_without_fault_bus_exit_two(self, tmp_path):
        code = run_cli(["sweep", "--system", "wscc9", *FAST, "--out", tmp_path / "o"])
        assert code == 2

    @pytest.mark.parametrize("command,dt", [("simulate", "0"), ("simulate", "-0.01"),
                                            ("cct", "0"), ("cct", "-0.01")])
    def test_nonpositive_dt_exit_two(self, tmp_path, capsys, command, dt):
        clear = ["--t-clear", "0.1"] if command == "simulate" else []
        code = run_cli([command, "--system", "wscc9", "--fault-bus", "7", *clear,
                        "--mode", "force_full", "--dt", dt, "--out", tmp_path])
        assert code == 2
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == f"dt must be > 0 and finite, got {float(dt)}"

    @pytest.mark.parametrize("flag, value, message", [
        ("--t-end", "inf", "t_end=inf is not a finite time"),
        ("--load-level", "nan", "load level must be finite, got nan"),
        ("--angle-threshold", "nan", "angle threshold must be > 0"),
        ("--norm-threshold", "nan", "norm threshold must be > 0"),
        ("--dt", "inf", "dt must be > 0 and finite, got inf"),
        ("--dt", "nan", "dt must be > 0 and finite, got nan"),
    ], ids=["t_end", "load_level", "angle_threshold", "norm_threshold", "dt_inf", "dt_nan"])
    def test_non_finite_input_exit_two(self, tmp_path, capsys, flag, value, message):
        # these ended in a traceback (exit 1) or ran to the end (exit 0)
        code = run_cli(["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
                        "--t-end", "0.3", "--mode", "force_full", flag, value, "--out", tmp_path])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError", "message": message, "exit": 2}
        assert not any(tmp_path.iterdir())

    def test_network_error_exit_three(self, tmp_path, capsys, monkeypatch):
        def singular(*args):
            raise pm.NetworkError("singular elimination block")

        monkeypatch.setattr(pm, "build_system", singular)
        code = run_cli(["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
                        "--mode", "force_full", "--out", tmp_path])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {
            "error": "NetworkError", "message": "singular elimination block", "exit": 3}

    @pytest.mark.parametrize("argv", [
        ["rank-search", "--fault-bus", "7", "--t-clear", "0.1", "--start-rank", "3",
         "--max-rank", "2"],
        ["build", "--ranks", "auto", "--levels", "1.0", "--t-clear", "0.1", "--max-rank", "0"],
    ], ids=["rank_search", "build_auto"])
    def test_empty_rank_range_exit_two(self, tmp_path, capsys, argv):
        code = run_cli([*argv, "--system", "wscc9", "--out", tmp_path])
        assert code == 2
        assert "> max rank" in json.loads(capsys.readouterr().err)["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep", "--sweep-levels", "0.8:1.2:0"],
        ["sweep", "--sweep-levels", "1.2:0.8:0.05"],
        ["threshold-search", "--t-clear", "0.1", "--max-threshold", "0.5", *FAST],
    ], ids=["sweep_zero_step", "sweep_descending", "threshold_below_start"])
    def test_empty_study_range_exit_two(self, tmp_path, argv):
        # rejected before any run, so no report is written
        code = run_cli([*argv, "--system", "wscc9", "--fault-bus", "7", "--out", tmp_path])
        assert code == 2
        assert not any(tmp_path.iterdir())

    def test_unknown_reference_gen_exit_two(self, tmp_path, capsys):
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "0.5", "--mode", "force_full", "--reference-gen", "G99",
             "--out", tmp_path]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "'G99'" in err["message"]

    def test_npz_not_a_model_set_exit_two(self, tmp_path, capsys):
        p = tmp_path / "other.npz"
        np.savez(p, a=np.ones(2))
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "0.5", "--models", p, "--out", tmp_path / "o"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{p}: not a tensorsim model set (missing 'levels')"

    def test_npy_not_a_model_set_exit_two(self, tmp_path, capsys):
        p = tmp_path / "x.npy"
        np.save(p, np.ones(2))
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "0.5", "--models", p, "--out", tmp_path / "o"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{p}: not a tensorsim model set (not an .npz archive)"

    @pytest.mark.parametrize("damage", ["truncated", "no_levels", "nan_weight", "level_mismatch",
                                        "negative_weight"])
    def test_malformed_model_set_exit_two(self, tmp_path, capsys, wscc_sys, wscc_terms, damage):
        model = taylor.compress_taylor_terms(wscc_sys, wscc_terms, (2, 2),
                                             cp_options=dict(max_iters=2))
        p = tmp_path / "models.npz"
        taylor.save_model_set(taylor.ModelSet(levels=(1.0,), models={1.0: model}), p)
        if damage == "truncated":
            p.write_bytes(p.read_bytes()[:-100])
        else:
            with np.load(p) as z:
                arrays = dict(z)
            if damage == "no_levels":
                arrays["levels"] = np.zeros(0)
            elif damage == "nan_weight":
                arrays["m0_a2_w"] = np.full(2, np.nan)
            elif damage == "level_mismatch":
                # the level-1.0 model saved under level 1.7
                arrays["m0_info"][0] = 1.7
            else:
                arrays["m0_a2_w"][0] = -1.0
            np.savez(p, **arrays)
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "0.5", "--models", p, "--out", tmp_path / "o"]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{p}: not a tensorsim model set (")

    @pytest.mark.parametrize(
        "cfg",
        [{"no_such_flag": 1}, {"dt": "fast"}, {"command": "build"}, {"fault_bus": 7.5},
         {"horizon": 16.0}, {"dt": None}, {"t_end": "soon"}],
        ids=["unknown_key", "bad_type", "command", "fractional_bus",
             "removed_flag", "null_default", "bad_type_overridden"],
    )
    def test_bad_config_key(self, tmp_path, capsys, cfg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fault_bus": 7, **cfg}))
        code = run_cli(
            ["simulate", "--system", "wscc9", "--t-clear", "0.1", "--t-end", "0.2",
             "--mode", "force_full", "--config", cfgp, "--out", tmp_path / "o"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("flag", REMOVED_EVERYWHERE)
    def test_removed_flag_config_key(self, tmp_path, capsys, flag):
        key = flag[2:].replace("-", "_")
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fault_bus": 7, key: 1}))
        code = run_cli(["simulate", "--system", "wscc9", "--t-clear", "0.1", "--mode",
                        "force_full", "--config", cfgp, "--out", tmp_path / "o"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{cfgp}: unknown config key '{key}'"

    def test_config_value_parsed_like_flag(self, tmp_path):
        # a JSON string goes through the flag's type, as on the command
        # line, and null leaves a flag that defaults to None unset
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"fault_bus": "7", "reference_gen": None}))
        args = ["simulate", "--system", "wscc9", "--t-clear", "0.1", "--t-end", "0.3",
                "--mode", "force_full"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--config", cfgp, "--out", a]) == 0
        assert run_cli(args + ["--fault-bus", "7", "--out", b]) == 0
        for name in ("trajectory.csv", "switch_log.jsonl", "simulate_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestSimulate:
    def test_end_to_end_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "2.0", "--out", out, *FAST]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "switch_log.jsonl").exists()
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["completed"] is True
        assert report["config_hash"]
        head = (out / "trajectory.csv").read_text().splitlines()[0]
        assert report["config_hash"] in head

    def test_config_file_with_flag_override(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "fault_bus": 7, "t_clear": 0.1, "t_end": 1.0,
            "levels": "1.0", "ranks": "6,6", "mode": "force_full",
        }))
        out = tmp_path / "o"
        code = run_cli(["simulate", "--system", "wscc9", "--config", cfgp,
                        "--t-end", "0.5", "--out", out])
        assert code == 0
        rep = json.loads((out / "simulate_report.json").read_text())
        assert rep["scenario"]["t_end"] == 0.5  # flag wins over config file

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--system", "wscc9", "--fault-bus", "7",
                "--t-clear", "0.1", "--t-end", "1.0", "--seed", "3", *FAST]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        for name in ("trajectory.csv", "switch_log.jsonl", "simulate_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestBuildAndConsumers:
    def test_build_then_simulate_with_models(self, tmp_path):
        out = tmp_path / "m"
        code = run_cli(["build", "--system", "wscc9", "--out", out, *FAST])
        assert code == 0
        report = json.loads((out / "build_report.json").read_text())
        assert report["ranks"] == [6, 6]
        ms = taylor.load_model_set(out / "models.npz")
        assert ms.levels == (1.0,)
        # ALS convergence per level and order, in both artifacts; the CLI
        # build runs cp_decompose at its default iteration cap
        cap = cp_decompose.__kwdefaults__["max_iters"]
        for meta in (report, ms.meta):
            assert meta["fits"]["1.0"] == report["fits"]["1.0"]
            converged, iters = meta["converged"]["1.0"], meta["iterations"]["1.0"]
            assert len(converged) == len(iters) == 2
            assert all(isinstance(c, bool) for c in converged)
            assert all(isinstance(i, int) and 1 <= i <= cap for i in iters)
        # measured timings of each (level, order) job, in a file of their own
        metrics = json.loads(next(out.glob("metrics_*.json")).read_text())
        assert metrics["config_hash"] == report["config_hash"]
        jobs = metrics["jobs"]["1.0"]
        assert [jobs[f"order{o}"]["als_iterations"] for o in (2, 3)] == report["iterations"]["1.0"]
        for job in jobs.values():
            assert set(job) == {"stencil_s", "als_s", "als_iterations"}
        run = tmp_path / "r"
        code = run_cli(
            ["simulate", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.1",
             "--t-end", "1.0", "--models", out / "models.npz", "--out", run, *FAST]
        )
        assert code == 0

    def test_models_of_another_system_rejected(self, tmp_path, capsys, wscc_sys):
        ms = taylor.build_model_set(wscc_sys, levels=(1.0,), ranks=(2, 2),
                                    cp_options=dict(max_iters=2, restarts=1))
        taylor.save_model_set(ms, tmp_path / "models.npz")
        code = run_cli(["simulate", "--system", "ring:5", "--fault-bus", "2", "--t-clear", "0.1",
                        "--t-end", "0.2", "--levels", "1.0", "--models", tmp_path / "models.npz",
                        "--out", tmp_path / "r"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "27 states" in err["message"] and "45" in err["message"]

    def test_build_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["build", "--system", "wscc9", "--seed", "11",
                            "--out", out, *FAST]) == 0
        assert (a / "models.npz").read_bytes() == (b / "models.npz").read_bytes()
        assert (a / "build_report.json").read_bytes() == (b / "build_report.json").read_bytes()

    def test_build_auto_ranks(self, tmp_path):
        out = tmp_path / "auto"
        code = run_cli(
            ["build", "--system", "wscc9", "--ranks", "auto", "--levels", "1.0",
             "--t-end", "3.0", "--max-rank", "4", "--out", out]
        )
        assert code == 0
        rep = json.loads((out / "build_report.json").read_text())
        assert rep["rank_search"]["stopped"] in ("improvement_below_tol", "max_rank")
        assert rep["ranks"][0] >= 1
        assert len(rep["rank_search"]["curve"]) >= 1

    def test_build_auto_ranks_above_dense_limit(self, tmp_path):
        # ring:7 has 63 states: the rank search scores structured sparse terms
        out = tmp_path / "auto"
        code = run_cli(
            ["build", "--system", "ring:7", "--ranks", "auto", "--levels", "1.0",
             "--t-end", "2.0", "--max-rank", "3", "--out", out]
        )
        assert code == 0
        rep = json.loads((out / "build_report.json").read_text())
        curve = rep["rank_search"]["curve"]
        assert {"r2": rep["ranks"][0], "r3": rep["ranks"][1]} in [
            {"r2": c["r2"], "r3": c["r3"]} for c in curve]
        assert all(np.isfinite(c["max_rms_deg"]) for c in curve)
        assert taylor.load_model_set(out / "models.npz").models[1.0].n == 63

    def test_build_auto_ranks_solves_levels_first(self, tmp_path, capsys, monkeypatch):
        # ring:7 has no equilibrium at the default levels 0.8 and 1.2: the
        # build fails on them before any rank search
        def no_search(*args, **kwargs):
            raise AssertionError("the rank search ran before every level was solved")

        monkeypatch.setattr(study, "rank_search", no_search)
        code = run_cli(["build", "--system", "ring:7", "--ranks", "auto", "--out", tmp_path / "o"])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ModelBuildError"
        assert "level 0.8:" in err["message"] and "level 1.2:" in err["message"]

    @pytest.mark.parametrize("argv, message", [
        (["build", "--levels", "1.0,1.0", "--ranks", "2,2"], "load levels must be distinct"),
        (["build", "--ranks", "0,2"], "ranks must be >= 1"),
        (["build", "--ranks", "auto", "--levels", "1.0,1.0", "--t-clear", "0.1"],
         "load levels must be distinct"),
        (["simulate", "--fault-bus", "7", "--t-clear", "0.1", "--ranks", "2,0"],
         "ranks must be >= 1"),
    ], ids=["repeated_levels", "rank_zero", "auto_repeated_levels", "simulate_rank_zero"])
    def test_bad_levels_or_ranks_exit_two_before_any_term(self, tmp_path, capsys, monkeypatch,
                                                          argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a derivative term or a rank search ran")

        monkeypatch.setattr(taylor, "_build_models", no_work)
        monkeypatch.setattr(study, "rank_search", no_work)
        code = run_cli([*argv, "--system", "wscc9", "--out", tmp_path])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert not any(tmp_path.iterdir())

    def test_cct_command(self, tmp_path):
        out = tmp_path / "c"
        code = run_cli(
            ["cct", "--system", "wscc9", "--fault-bus", "7", "--mode", "force_full",
             "--t-end", "6.0", "--out", out, *FAST]
        )
        assert code == 0
        rep = json.loads(next(out.glob("cct_report_*.json")).read_text())
        assert rep["cct_s"] > 0
        assert rep["runs"][0] == {"duration_s": 0.0, "stable": True}

    def test_compare_command(self, tmp_path):
        out = tmp_path / "t"
        code = run_cli(
            ["compare", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.05",
             "--t-end", "0.5", "--repetitions", "5", "--out", out, *FAST]
        )
        assert code == 0
        flops = json.loads(next(out.glob("compare_flops_*.json")).read_text())
        assert flops["per_eval"]["force_taylor"] < 0.5 * flops["unfolded_taylor"]
        times = json.loads(next(out.glob("compare_times_*.json")).read_text())
        assert next(out.glob("compare_times_*.csv")).exists()
        assert {r["mode"] for r in times["rows"]} == {"force_full", "force_taylor"}

    @pytest.mark.parametrize("threshold", ["1.0", "3.0"])
    def test_compare_counts_the_hybrid_that_runs(self, tmp_path, threshold):
        # G1's norm is about 1.98 pu: at 1.0 the mask keeps every row full,
        # so only the full model runs; at 3.0 both parents run
        out = tmp_path / "h"
        code = run_cli(
            ["compare", "--system", "wscc9", "--fault-bus", "7", "--t-clear", "0.05",
             "--t-end", "0.2", "--repetitions", "5", "--modes", "force_hybrid",
             "--norm-threshold", threshold, "--out", out, *FAST]
        )
        assert code == 0
        flops = json.loads(next(out.glob("compare_flops_*.json")).read_text())
        full, n = flops["full"], flops["n_states"]
        expected = full if threshold == "1.0" else full + study.count_flops_reduced(n, 6, 6) + n
        assert flops["per_eval"]["force_hybrid"] == expected

    def test_threshold_search_command(self, tmp_path):
        out = tmp_path / "th"
        code = run_cli(
            ["threshold-search", "--system", "wscc9", "--fault-bus", "7",
             "--t-clear", "0.1", "--t-end", "1.0", "--max-threshold", "11",
             "--max-error", "1e9", "--out", out, *FAST]
        )
        assert code == 0
        rep = json.loads(next(out.glob("threshold_report_*.json")).read_text())
        assert rep["threshold_deg"] == 11.0
        assert next(out.glob("threshold_curve_*.csv")).exists()

    def test_console_script_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tensorsim.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "tensorsim" in proc.stdout
