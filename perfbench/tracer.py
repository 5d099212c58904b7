"""Span tracer that wraps tensorsim's layer functions from the outside.

``Tracer.install()`` replaces each traced function in every tensorsim
module that binds it (``simulate`` imports ``reduced_rhs`` by name, for
example), so calls through any route are seen; ``uninstall()`` puts the
originals back.  Spans are aggregated in memory per layer name: calls,
total time, self time (total minus the time of traced children) and the
layer's own counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

MODULES = ("tensor_ops", "power_model", "taylor", "simulate", "study", "cli")


def _order(tensor_or_dims) -> int:
    ndim = getattr(tensor_or_dims, "ndim", None)
    if ndim is None:
        ndim = len(tensor_or_dims)
    return ndim - 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# after-call hooks: (tracer, span name, args, kwargs, result) -> None

def _fit_stats(tr, name, args, kwargs, f):
    s = tr.stats[name]
    s["iters"] += len(f.fit_history) if f.fit_history is not None else 0
    s["fit_min"] = min(s.get("fit_min", 1.0), float(f.fit))
    s["converged"] += bool(f.converged)


def _rows(tr, name, args, kwargs, out):
    x = _arg(args, kwargs, 2, "x")
    rows = x.size // x.shape[-1]
    tr.stats[name]["rows"] += rows
    for frame in tr.stack:
        if frame[0].startswith("taylor.fd."):
            tr.stats[frame[0]]["rhs_rows"] += rows


def _nr_iters(tr, name, args, kwargs, pf):
    tr.stats[name]["nr_iters"] += pf.iterations


def _steps(tr, name, args, kwargs, traj):
    tr.stats[name]["steps"] += traj.n_steps
    for mode, k in Counter(traj.modes).items():
        tr.stats[f"simulate.steps.{mode}"]["calls"] += k


def _runs(tr, name, args, kwargs, res):
    tr.stats[name]["runs"] += len(res.runs)


def _bytes(tr, name, args, kwargs, out):
    tr.stats[name]["bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))


# (module, attribute, span name or name function, after hook)
LAYERS = (
    ("tensor_ops", "cp_decompose", lambda a, k: f"tensor_ops.cp_decompose.o{_order(_arg(a, k, 0, 't'))}", _fit_stats),
    ("taylor", "_cp_als_coo", lambda a, k: f"taylor.cp_als_coo.o{_order(_arg(a, k, 0, 'dims'))}", _fit_stats),
    ("taylor", "jacobian", "taylor.jacobian", None),
    ("taylor", "taylor_tensors", lambda a, k: f"taylor.fd.o{_arg(a, k, 1, 'order')}", None),
    ("taylor", "_structured_coo", lambda a, k: f"taylor.fd.o{_arg(a, k, 1, 'order')}", None),
    ("power_model", "solve_power_flow", "power_model.solve_power_flow", _nr_iters),
    ("power_model", "build_reduced_admittance", "power_model.build_reduced_admittance", None),
    ("power_model", "_rhs", "power_model.rhs", _rows),
    ("simulate", "run_adaptive", "simulate.run_adaptive", _steps),
    ("study", "cct_search", "study.cct_search", _runs),
    ("taylor", "reduced_rhs", "taylor.reduced_rhs", None),
    ("taylor", "linear_rhs", "taylor.linear_rhs", None),
    ("taylor", "hybrid_rhs", "taylor.hybrid_rhs", None),
    ("simulate", "export_trajectory_csv", "simulate.export_trajectory_csv", _bytes),
    ("taylor", "save_model_set", "taylor.save_model_set", None),
    ("taylor", "load_model_set", "taylor.load_model_set", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.stack = []  # open spans: [name, seconds spent in traced children]
        self._saved = []

    def reset(self):
        self.stats = defaultdict(lambda: defaultdict(float))

    def _wrap(self, fn, name, after):
        tracer = self
        fixed = name if isinstance(name, str) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = fixed or name(args, kwargs)
            frame = [label, 0.0]
            stack = tracer.stack
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = tracer.stats[label]
                s["calls"] += 1
                s["total_s"] += dt
                s["self_s"] += dt - frame[1]
            if after is not None:
                after(tracer, label, args, kwargs, result)
            return result

        return span

    def install(self):
        mods = {m: importlib.import_module(f"tensorsim.{m}") for m in MODULES}
        for mod_name, attr, name, after in LAYERS:
            fn = getattr(mods[mod_name], attr)
            wrapped = self._wrap(fn, name, after)
            for mod in mods.values():
                if getattr(mod, attr, None) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
