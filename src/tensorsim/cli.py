"""Command-line front end.

Each command takes only the flags its handler reads (``--help`` lists
them).  It resolves one flat configuration (defaults < config file <
explicit flags): the config file's keys, which must name flags of that
command, become the command's defaults, so argparse itself lets a flag
given on the command line win.  The configuration is hashed, and the
hash and tool version go into every artifact the command writes, so any
output can be regenerated from its config and seed.  Exit codes: 0
success, 2 configuration error, 3 numerical failure, 4 I/O error;
failures also emit one machine-readable JSON line on stderr.

``--system`` takes a JSON file path or one of the bundled case names
``wscc9`` (3-machine 9-bus fixture) and ``ring:<machines>[:<seed>]``
(synthetic ring for scaling studies).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, cases
from . import power_model as pm
from . import simulate as sim
from . import study as st
from . import taylor as ty

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


_CONFIG_ERRORS = (ConfigError, pm.SystemDataError, ValueError)
_NUMERICAL_ERRORS = (
    pm.PowerFlowError,
    pm.EquilibriumError,
    pm.NetworkError,
    ty.ModelBuildError,
    ty.NumericalError,
    st.CctError,
    st.GridMismatchError,
)


# the flags that several commands share; each command lists the ones its
# handler reads
_FLAGS = {
    "--system": dict(required=True,
                     help="system JSON file, or 'wscc9' / 'ring:<m>[:<seed>]'"),
    "--config": dict(default=None,
                     help="JSON config file of this command's flags; explicit flags override it"),
    "--out": dict(default="out", help="output directory"),
    "--seed": dict(type=int, default=0),
    "--dt": dict(type=float, default=0.01),
    "--t-end": dict(type=float, default=16.0, help="simulation length, seconds"),
    "--norm-threshold": dict(type=float, default=1.0),
    "--reference-gen": dict(default=None),
    "--angle-threshold": dict(type=float, default=26.0),
    "--levels": dict(default="0.8,1.0,1.2",
                     help="representative model load levels (comma separated)"),
    "--ranks": dict(default="30,36",
                    help="'r2,r3', 'full' (exact factors), or 'auto' (rank search)"),
    "--models": dict(default=None, help="prebuilt model-set .npz (else one is built)"),
    "--fault-bus": dict(type=int, default=None, help="required (here or in the config file)"),
    "--t-on": dict(type=float, default=0.0),
    "--t-clear": dict(type=float, default=None),
    "--load-level": dict(type=float, default=1.0),
    "--mode": dict(default="adaptive", choices=sim.MODES),
}
_COMMON = ("--system", "--config", "--out", "--seed", "--dt", "--t-end",
           "--norm-threshold", "--reference-gen")
_MODELS = ("--levels", "--ranks", "--models")
_SCENARIO = ("--fault-bus", "--t-on", "--t-clear", "--load-level")


def _parser():
    """The argument parser, and its subcommand parsers by name."""
    p = argparse.ArgumentParser(
        prog="tensorsim",
        description="Adaptive reduced-order power system transient simulation",
    )
    p.add_argument("--version", action="version", version=f"tensorsim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag in _COMMON + flags:
            sp.add_argument(flag, **_FLAGS[flag])
        return sp

    bd = command("build", "build and persist the per-level Taylor models",
                 "--levels", "--ranks", "--angle-threshold")
    bd.add_argument("--fault-bus", type=int, default=None,
                    help="scoring scenario for --ranks auto (default: first "
                         "study machine's terminal bus)")
    bd.add_argument("--t-clear", type=float, default=None,
                    help="scoring fault duration for --ranks auto "
                         "(default: 0.9x the full-model CCT)")
    bd.add_argument("--rank-tol", type=float, default=0.1)
    bd.add_argument("--max-rank", type=int, default=64)
    command("simulate", "run one contingency",
            *_MODELS, "--angle-threshold", *_SCENARIO, "--mode")
    # the search starts the fault at t = 0 and bisects on its duration
    command("cct", "critical clearing time by bisection",
            *_MODELS, "--angle-threshold", "--fault-bus", "--load-level", "--mode")
    # scored models have one level, at the ranks swept
    rs = command("rank-search", "smallest ranks meeting the accuracy stop rule",
                 "--angle-threshold", *_SCENARIO, "--mode")
    rs.add_argument("--start-rank", type=int, default=1)
    rs.add_argument("--rank-tol", type=float, default=0.1,
                    help="stop when max-RMS improvement drops below this, degrees")
    rs.add_argument("--max-rank", type=int, default=None)
    # the search sweeps the threshold of the adaptive mode
    ts = command("threshold-search", "largest switching threshold within the error band",
                 *_MODELS, *_SCENARIO)
    ts.add_argument("--max-threshold", type=float, default=60.0)
    ts.add_argument("--max-error", type=float, default=5.0)
    ts.add_argument("--metric", default="rms", choices=("rms", "max"))
    # each swept level is cleared at its CCT and run in force_full and adaptive
    sw = command("sweep", "load-level sweep with CCT faults",
                 *_MODELS, "--angle-threshold", "--fault-bus")
    sw.add_argument("--sweep-levels", default="0.80:1.20:0.05",
                    help="start:stop:step for the swept load levels")
    cp = command("compare", "wall-clock timing comparison",
                 *_MODELS, "--angle-threshold", *_SCENARIO)
    cp.add_argument("--modes", default="force_full,force_taylor")
    cp.add_argument("--repetitions", type=int, default=5)
    return p, sub.choices


def _config_defaults(path, command_parser) -> dict:
    """The JSON config file's values, checked as the command's flags
    check theirs: ``str(value)`` goes through the flag's type, then its
    choices apply; untyped flags (``levels``, ...) take the JSON value as
    it is, and ``null`` is allowed only where the flag's default is None."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: bad config JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    flags = {a.dest: a for a in command_parser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, val in raw.items():
        attr = key.replace("-", "_")
        action = flags.get(attr)
        if action is None:
            raise ConfigError(f"{path}: unknown config key '{key}'")
        if val is None:
            if action.default is not None:
                raise ConfigError(f"{path}: config key '{key}' cannot be null")
        else:
            if action.type is not None:
                try:
                    val = action.type(str(val))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}: bad value {val!r} for config key '{key}'") from exc
            if action.choices is not None and val not in action.choices:
                raise ConfigError(
                    f"{path}: config key '{key}' must be one of {list(action.choices)}")
        values[attr] = val
    return values


def _parse(argv):
    """Parse the command line.  A config file's values become the
    command's defaults, and the command line is parsed again, so a flag
    given there wins."""
    parser, commands = _parser()
    args = parser.parse_args(argv)
    if args.config:
        command_parser = commands[args.command]
        command_parser.set_defaults(**_config_defaults(args.config, command_parser))
        args = parser.parse_args(argv)
    return args


def _resolved_config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("out", "config")}


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_spec(name: str) -> pm.SystemSpec:
    if name == "wscc9":
        return cases.wscc9_spec()
    if name.startswith("ring:"):
        parts = name.split(":")
        m = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 7
        return cases.synthetic_ring_spec(m, seed=seed)
    return pm.load_system(name)


def _parse_levels(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError as exc:
        raise ConfigError(f"bad levels '{text}'") from exc


def _parse_ranks(text):
    if text in ("full", "auto"):
        return text
    try:
        r2, r3 = (int(tok) for tok in str(text).split(","))
        return (r2, r3)
    except ValueError as exc:
        raise ConfigError(f"bad ranks '{text}' (want 'r2,r3', 'full', or 'auto')") from exc


_POLICY_FIELDS = {
    "angle_threshold": "angle_threshold_deg",
    "reference_gen": "reference_generator",
    "mode": "mode",
    "norm_threshold": "norm_threshold_pu",
}


def _policy(args) -> sim.SwitchPolicy:
    """The switching policy from the command's flags; a field the command
    has no flag for keeps its ``SwitchPolicy`` default."""
    return sim.SwitchPolicy(**{field: getattr(args, dest) for dest, field in _POLICY_FIELDS.items()
                               if hasattr(args, dest)})


def _scenario(args) -> sim.Scenario:
    if args.fault_bus is None:
        raise ConfigError("--fault-bus is required for this command")
    if args.t_clear is None:
        raise ConfigError("--t-clear is required for this command")
    return sim.Scenario(
        fault_bus=args.fault_bus,
        t_fault_on=args.t_on,
        t_clear=args.t_clear,
        t_end=args.t_end,
        load_level=args.load_level,
    )


def _model_set(args, sys):
    """Load a prebuilt model set or build one."""
    if getattr(args, "models", None):
        ms = ty.load_model_set(args.models)
        n = ms.models[ms.levels[0]].n
        if n != sys.n_states:
            raise ConfigError(f"{args.models}: the model set has {n} states, "
                              f"system {args.system} has {sys.n_states}")
        return ms
    ranks = _parse_ranks(args.ranks)
    if ranks == "auto":
        raise ConfigError("--ranks auto is only available in the build command")
    levels = _parse_levels(args.levels)
    return ty.build_model_set(sys, levels=levels, ranks=ranks, seed=args.seed)


def _meta(cfg_hash: str, seed: int) -> dict:
    return {"version": __version__, "config_hash": cfg_hash, "seed": seed}


def _cmd_build(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    sys_m = pm.build_system(spec, 1.0)
    ranks = _parse_ranks(args.ranks)
    levels = _parse_levels(args.levels)
    extras = {}
    if ranks == "auto":
        # a level that cannot be solved fails the build: find it before the search
        ty.solve_levels(sys_m, levels)
        policy = _policy(args)
        bus = args.fault_bus
        if bus is None:
            bus = sys_m.machines[sys_m.machine_pos(sys_m.study[0])].bus
        t_clear = args.t_clear
        if t_clear is None:
            cct = st.cct_search(sys_m, None, replace(policy, mode="force_full"),
                                bus, dt=args.dt, t_end=args.t_end)
            t_clear = round(int(0.9 * cct.stable_steps) * args.dt, 12)
        scn = sim.Scenario(fault_bus=bus, t_clear=t_clear, t_end=args.t_end)
        found = st.rank_search(
            sys_m, scn, policy, improvement_tol_deg=args.rank_tol,
            max_rank=args.max_rank, dt=args.dt, seed=args.seed,
        )
        ranks = (found.r2, found.r3)
        extras = {
            "rank_search": {
                "fault_bus": bus, "t_clear": t_clear,
                "max_rms_deg": found.max_rms_deg, "stopped": found.stopped,
                "curve": [{"r2": c["r2"], "r3": c["r3"],
                           "max_rms_deg": c["max_rms_deg"]} for c in found.curve],
            }
        }
    ms = ty.build_model_set(sys_m, levels=levels, ranks=ranks, seed=args.seed)
    model_path = outdir / "models.npz"
    ty.save_model_set(ms, model_path, extra_meta=_meta(cfg_hash, args.seed))
    report = dict(_meta(cfg_hash, args.seed))
    report.update(ms.meta, command="build", models_file=model_path.name, **extras)
    st.write_json(outdir / "build_report.json", report)
    # measured wall times, outside the byte-identity guarantee
    st.write_json(outdir / f"metrics_{cfg_hash}.json",
                  dict(_meta(cfg_hash, args.seed), command="build", jobs=ms.timings))
    return EXIT_OK


def _cmd_simulate(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    scn = _scenario(args)
    policy = _policy(args)
    marks = [time.perf_counter()]  # after each phase: system, models, stepping, export
    sys_m = pm.build_system(spec, scn.load_level)
    marks.append(time.perf_counter())
    ms = None
    if policy.mode != "force_full":
        ms = _model_set(args, sys_m)
    marks.append(time.perf_counter())
    traj = sim.run_adaptive(sys_m, ms, scn, policy, args.dt)
    marks.append(time.perf_counter())
    meta = _meta(cfg_hash, args.seed)
    sim.export_trajectory_csv(traj, sys_m, outdir / "trajectory.csv", meta)
    sim.export_switch_log(traj, outdir / "switch_log.jsonl", meta)
    marks.append(time.perf_counter())
    report = dict(meta)
    report.update(
        command="simulate",
        completed=traj.completed,
        blowup_time=traj.blowup_time,
        steps=traj.n_steps,
        mode=policy.mode,
        scenario={"fault_bus": scn.fault_bus, "t_fault_on": scn.t_fault_on,
                  "t_clear": scn.t_clear, "t_end": scn.t_end,
                  "load_level": scn.load_level},
    )
    st.write_json(outdir / "simulate_report.json", report)
    # measured wall times, outside the byte-identity guarantee
    st.write_json(outdir / f"metrics_{cfg_hash}.json",
                  dict(meta, command="simulate", steps=traj.n_steps,
                       phases=dict(zip(("system_s", "models_s", "stepping_s", "export_s"),
                                       np.diff(marks).tolist()))))
    return EXIT_OK


def _cmd_cct(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    if args.fault_bus is None:
        raise ConfigError("--fault-bus is required for this command")
    policy = _policy(args)
    sys_m = pm.build_system(spec, args.load_level)
    ms = None
    if policy.mode != "force_full":
        ms = _model_set(args, sys_m)
    res = st.cct_search(sys_m, ms, policy, args.fault_bus, dt=args.dt, t_end=args.t_end)
    report = dict(_meta(cfg_hash, args.seed))
    report.update(
        command="cct",
        fault_bus=res.bus,
        mode=res.mode,
        cct_s=res.cct,
        resolution_s=res.resolution,
        capped=res.capped,
        runs=[{"duration_s": d, "stable": s} for d, s in res.runs],
    )
    st.write_json(outdir / f"cct_report_{cfg_hash}.json", report)
    return EXIT_OK


def _cmd_rank_search(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    scn = _scenario(args)
    policy = _policy(args)
    sys_m = pm.build_system(spec, scn.load_level)
    res = st.rank_search(
        sys_m, scn, policy,
        start_rank=args.start_rank,
        improvement_tol_deg=args.rank_tol,
        max_rank=args.max_rank,
        dt=args.dt,
        seed=args.seed,
    )
    report = dict(_meta(cfg_hash, args.seed))
    report.update(command="rank-search", r2=res.r2, r3=res.r3,
                  max_rms_deg=res.max_rms_deg, stopped=res.stopped)
    st.write_json(outdir / f"rank_report_{cfg_hash}.json", report)
    st.StudyReport("rank_curve", {"config_hash": cfg_hash, "seed": args.seed},
                   [{"r2": c["r2"], "r3": c["r3"], "max_rms_deg": c["max_rms_deg"]}
                    for c in res.curve]).write_csv(outdir / f"rank_curve_{cfg_hash}.csv")
    return EXIT_OK


def _cmd_threshold_search(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    scn = _scenario(args)
    policy = _policy(args)
    sys_m = pm.build_system(spec, scn.load_level)
    ms = _model_set(args, sys_m)
    res = st.threshold_search(
        sys_m, ms, scn, policy,
        max_deg=args.max_threshold,
        max_error_deg=args.max_error,
        metric=args.metric,
        dt=args.dt,
    )
    report = dict(_meta(cfg_hash, args.seed))
    report.update(command="threshold-search", threshold_deg=res.threshold_deg,
                  satisfied=res.satisfied, metric=res.metric)
    st.write_json(outdir / f"threshold_report_{cfg_hash}.json", report)
    st.StudyReport("threshold_curve", {"config_hash": cfg_hash, "seed": args.seed},
                   res.curve).write_csv(outdir / f"threshold_curve_{cfg_hash}.csv")
    return EXIT_OK


def _cmd_sweep(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    if args.fault_bus is None:
        raise ConfigError("--fault-bus is required for this command")
    policy = _policy(args)
    try:
        lo, hi, step = (float(t) for t in args.sweep_levels.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad --sweep-levels '{args.sweep_levels}'") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"--sweep-levels '{args.sweep_levels}' must be finite numbers")
    if not (step > 0 and hi >= lo):
        raise ConfigError(f"--sweep-levels '{args.sweep_levels}' gives no level "
                          "(want start <= stop and step > 0)")
    levels = tuple(np.round(np.arange(lo, hi + step / 2, step), 10))
    sys_m = pm.build_system(spec, 1.0)
    ms = _model_set(args, sys_m)
    rep = st.load_sweep(sys_m, ms, policy, args.fault_bus, levels, dt=args.dt, t_end=args.t_end)
    rep.config.update(_meta(cfg_hash, args.seed))
    rep.write_json(outdir / f"sweep_report_{cfg_hash}.json")
    rep.write_csv(outdir / f"sweep_{cfg_hash}.csv")
    return EXIT_OK


def _cmd_compare(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    scn = _scenario(args)
    policy = _policy(args)
    modes = tuple(tok.strip() for tok in args.modes.split(","))
    for m in modes:
        if m not in sim.MODES:
            raise ConfigError(f"unknown mode '{m}' in --modes")
    if args.repetitions < 5:
        raise ConfigError("--repetitions must be >= 5 for a stable median")
    sys_m = pm.build_system(spec, scn.load_level)
    ms = _model_set(args, sys_m) if set(modes) != {"force_full"} else None
    rows = st.timing_compare(sys_m, ms, scn, policy, modes, repetitions=args.repetitions, dt=args.dt)
    n = sys_m.n_states
    flops = dict(_meta(cfg_hash, args.seed))
    flops.update(
        command="compare",
        n_states=n,
        per_eval={r.mode: r.flops_per_eval for r in rows},
        unfolded_taylor=st.count_flops_unfolded(n),
        full=st.count_flops_full(sys_m),
    )
    st.write_json(outdir / f"compare_flops_{cfg_hash}.json", flops)
    # measured wall times are a measurement, not a reproducible payload;
    # they live in their own file, excluded from byte-identity guarantees
    times = dict(_meta(cfg_hash, args.seed))
    times.update(
        command="compare",
        rows=[{"mode": r.mode, "median_s": r.median_s, "times_s": r.times_s,
               "steps": r.steps} for r in rows],
    )
    st.write_json(outdir / f"compare_times_{cfg_hash}.json", times)
    st.StudyReport(
        "timing", {"config_hash": cfg_hash, "seed": args.seed},
        [{"mode": r.mode, "median_s": r.median_s, "flops_per_eval": r.flops_per_eval}
         for r in rows],
    ).write_csv(outdir / f"compare_times_{cfg_hash}.csv")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "simulate": _cmd_simulate,
    "cct": _cmd_cct,
    "rank-search": _cmd_rank_search,
    "threshold-search": _cmd_threshold_search,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        cfg_hash = _config_hash(_resolved_config(args))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, outdir, cfg_hash)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help: pass through
        return int(exc.code or 0)
    except _NUMERICAL_ERRORS as exc:
        _fail(exc, EXIT_NUMERICAL)
        return EXIT_NUMERICAL
    except (FileNotFoundError, IsADirectoryError, PermissionError, OSError) as exc:
        _fail(exc, EXIT_IO)
        return EXIT_IO
    except _CONFIG_ERRORS as exc:
        _fail(exc, EXIT_CONFIG)
        return EXIT_CONFIG


def _fail(exc, code: int) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit": code}
    ) + "\n")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
