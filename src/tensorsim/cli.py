"""Command-line front end.

Every command resolves one flat configuration (defaults < config file <
explicit flags), hashes it, and embeds the hash and tool version in every
artifact it writes, so any output can be regenerated from its config and
seed.  Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error; failures also emit one machine-readable JSON line on stderr.

``--system`` takes a JSON file path or one of the bundled case names
``wscc9`` (3-machine 9-bus fixture) and ``ring:<machines>[:<seed>]``
(synthetic ring for scaling studies).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
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
    ty.ModelBuildError,
    ty.NumericalError,
    st.CctError,
    st.GridMismatchError,
)


def _parser():
    """The argument parser, and its subcommand parsers by name."""
    p = argparse.ArgumentParser(
        prog="tensorsim",
        description="Adaptive reduced-order power system transient simulation",
    )
    p.add_argument("--version", action="version", version=f"tensorsim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, scenario=False, models=False):
        sp.add_argument("--system", required=True,
                        help="system JSON file, or 'wscc9' / 'ring:<m>[:<seed>]'")
        sp.add_argument("--config", default=None,
                        help="JSON config file; explicit flags override it")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--levels", default="0.8,1.0,1.2",
                        help="representative model load levels (comma separated)")
        sp.add_argument("--ranks", default="30,36",
                        help="'r2,r3', 'full' (exact factors), or 'auto' (rank search)")
        sp.add_argument("--dt", type=float, default=0.01)
        sp.add_argument("--horizon", type=float, default=16.0,
                        help="default simulation length, seconds")
        sp.add_argument("--angle-threshold", type=float, default=26.0)
        sp.add_argument("--load-swap", type=float, default=0.10)
        sp.add_argument("--norm-threshold", type=float, default=1.0)
        sp.add_argument("--reference-gen", default=None)
        if scenario:
            sp.add_argument("--fault-bus", type=int, default=None,
                            help="required (here or in the config file)")
            sp.add_argument("--t-on", type=float, default=0.0)
            sp.add_argument("--t-clear", type=float, default=None)
            sp.add_argument("--t-end", type=float, default=None,
                            help="overrides --horizon for this scenario")
            sp.add_argument("--load-level", type=float, default=1.0)
            sp.add_argument("--mode", default="adaptive", choices=sim.MODES)
        if models:
            sp.add_argument("--models", default=None,
                            help="prebuilt model-set .npz (else built in process)")
        return sp

    bd = common(sub.add_parser("build", help="build and persist the per-level Taylor models"))
    bd.add_argument("--fault-bus", type=int, default=None,
                    help="scoring scenario for --ranks auto (default: first "
                         "study machine's terminal bus)")
    bd.add_argument("--t-clear", type=float, default=None,
                    help="scoring fault duration for --ranks auto "
                         "(default: 0.9x the full-model CCT)")
    bd.add_argument("--t-end", type=float, default=None)
    bd.add_argument("--rank-tol", type=float, default=0.1)
    bd.add_argument("--max-rank", type=int, default=64)
    common(sub.add_parser("simulate", help="run one contingency"), scenario=True, models=True)
    common(sub.add_parser("cct", help="critical clearing time by bisection"),
           scenario=True, models=True).set_defaults(t_clear=0.0)
    rs = common(sub.add_parser("rank-search", help="smallest ranks meeting the accuracy stop rule"),
                scenario=True)
    rs.add_argument("--start-rank", type=int, default=1)
    rs.add_argument("--rank-tol", type=float, default=0.1,
                    help="stop when max-RMS improvement drops below this, degrees")
    rs.add_argument("--max-rank", type=int, default=None)
    ts = common(sub.add_parser("threshold-search", help="largest switching threshold within the error band"),
                scenario=True, models=True)
    ts.add_argument("--max-threshold", type=float, default=60.0)
    ts.add_argument("--max-error", type=float, default=5.0)
    ts.add_argument("--metric", default="rms", choices=("rms", "max"))
    sw = common(sub.add_parser("sweep", help="load-level sweep with CCT faults"),
                scenario=True, models=True)
    sw.add_argument("--sweep-levels", default="0.80:1.20:0.05",
                    help="start:stop:step for the swept load levels")
    cp = common(sub.add_parser("compare", help="wall-clock timing comparison"),
                scenario=True, models=True)
    cp.add_argument("--modes", default="force_full,force_taylor")
    cp.add_argument("--repetitions", type=int, default=5)
    return p, sub.choices


def _apply_config_file(args, argv, command_parser):
    """Fill flags not given on the command line from the JSON config file.
    ``str(value)`` goes through the flag's type, then its choices apply;
    untyped flags (``levels``, ...) take the JSON value as it is, and
    ``null`` leaves a flag whose default is None unset."""
    if not getattr(args, "config", None):
        return args
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: bad config JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    flags = {a.dest: a for a in command_parser._actions if a.dest not in ("help", "config")}
    # a flag given on the command line, resolved by argparse's own rule: an
    # exact option string, else the one option string it abbreviates
    options = command_parser._option_string_actions
    explicit = set()
    for tok in argv:
        name = str(tok).split("=")[0]
        if name.startswith("--"):
            hits = [name] if name in options else [o for o in options if o.startswith(name)]
            if len(hits) == 1:
                explicit.add(options[hits[0]].dest)
    for key, val in raw.items():
        attr = key.replace("-", "_")
        action = flags.get(attr)
        if action is None:
            raise ConfigError(f"{path}: unknown config key '{key}'")
        if attr in explicit or (val is None and action.default is None):
            continue
        if action.type is not None:
            try:
                val = action.type(str(val))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: bad value {val!r} for config key '{key}'") from exc
        if action.choices is not None and val not in action.choices:
            raise ConfigError(f"{path}: config key '{key}' must be one of {list(action.choices)}")
        setattr(args, attr, val)
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


def _policy(args) -> sim.SwitchPolicy:
    return sim.SwitchPolicy(
        angle_threshold_deg=args.angle_threshold,
        load_change_fraction=args.load_swap,
        reference_generator=args.reference_gen,
        representative_levels=_parse_levels(args.levels),
        mode=getattr(args, "mode", "adaptive"),
        norm_threshold_pu=args.norm_threshold,
    )


def _scenario(args) -> sim.Scenario:
    t_end = args.t_end if args.t_end is not None else args.horizon
    if args.fault_bus is None:
        raise ConfigError("--fault-bus is required for this command")
    if args.t_clear is None:
        raise ConfigError("--t-clear is required for this command")
    return sim.Scenario(
        fault_bus=args.fault_bus,
        t_fault_on=args.t_on,
        t_clear=args.t_clear,
        t_end=t_end,
        load_level=args.load_level,
    )


def _model_set(args, sys):
    """Load a prebuilt model set or build one in process."""
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


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def _meta(cfg_hash: str, seed: int) -> dict:
    return {"version": __version__, "config_hash": cfg_hash, "seed": seed}


def _cmd_build(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    sys_m = pm.build_system(spec, 1.0)
    ranks = _parse_ranks(args.ranks)
    levels = _parse_levels(args.levels)
    extras = {}
    if ranks == "auto":
        policy = _policy(args)
        bus = args.fault_bus
        if bus is None:
            bus = sys_m.machines[sys_m.machine_pos(sys_m.study[0])].bus
        t_end = args.t_end if args.t_end is not None else args.horizon
        t_clear = args.t_clear
        if t_clear is None:
            cct = st.cct_search(sys_m, None, replace(policy, mode="force_full"),
                                bus, dt=args.dt, t_end=t_end)
            t_clear = round(int(0.9 * cct.stable_steps) * args.dt, 12)
        scn = sim.Scenario(fault_bus=bus, t_clear=t_clear, t_end=t_end)
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
    report.update(
        command="build",
        levels=list(levels),
        ranks=list(ms.models[levels[0]].ranks),
        fits=ms.meta["fits"],
        converged=ms.meta["converged"],
        iterations=ms.meta["iterations"],
        models_file=model_path.name,
        **extras,
    )
    _write_json(outdir / "build_report.json", report)
    return EXIT_OK


def _cmd_simulate(args, outdir, cfg_hash):
    spec = _load_spec(args.system)
    scn = _scenario(args)
    policy = _policy(args)
    sys_m = pm.build_system(spec, scn.load_level)
    ms = None
    if policy.mode != "force_full":
        ms = _model_set(args, sys_m)
    traj = sim.run_adaptive(sys_m, ms, scn, policy, args.dt)
    meta = _meta(cfg_hash, args.seed)
    sim.export_trajectory_csv(traj, sys_m, outdir / "trajectory.csv", meta)
    sim.export_switch_log(traj, outdir / "switch_log.jsonl", meta)
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
    _write_json(outdir / "simulate_report.json", report)
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
    t_end = args.t_end if args.t_end is not None else args.horizon
    res = st.cct_search(sys_m, ms, policy, args.fault_bus, dt=args.dt, t_end=t_end)
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
    _write_json(outdir / f"cct_report_{cfg_hash}.json", report)
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
    _write_json(outdir / f"rank_report_{cfg_hash}.json", report)
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
    _write_json(outdir / f"threshold_report_{cfg_hash}.json", report)
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
    levels = tuple(np.round(np.arange(lo, hi + step / 2, step), 10))
    sys_m = pm.build_system(spec, 1.0)
    ms = _model_set(args, sys_m)
    t_end = args.t_end if args.t_end is not None else args.horizon
    rep = st.load_sweep(sys_m, ms, policy, args.fault_bus, levels, dt=args.dt, t_end=t_end)
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
    _write_json(outdir / f"compare_flops_{cfg_hash}.json", flops)
    # measured wall times are a measurement, not a reproducible payload;
    # they live in their own file, excluded from byte-identity guarantees
    times = dict(_meta(cfg_hash, args.seed))
    times.update(
        command="compare",
        rows=[{"mode": r.mode, "median_s": r.median_s, "times_s": r.times_s,
               "steps": r.steps} for r in rows],
    )
    _write_json(outdir / f"compare_times_{cfg_hash}.json", times)
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
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help: pass through
        return int(exc.code or 0)
    try:
        args = _apply_config_file(args, argv, commands[args.command])
        cfg = _resolved_config(args)
        cfg_hash = _config_hash(cfg)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args, outdir, cfg_hash)
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
