"""Source hygiene: no unused imports, every ``__all__`` entry resolves,
every function the benchmark's tracer wraps exists, every flag the
benchmark passes to a CLI command is an option of that command, every
optional parameter of the library is set by some caller, every field of
a library dataclass is read somewhere, only ``taylor`` reaches the
derivative enumerators, one call site outside ``power_model`` builds a
faulted network, two call the RK4 loop of one state, one creates a
process pool, on the spawn start method and with no initializer, and one
a thread pool, and no module reads ``/proc``, makes state that
processes share or rebinds a module global.

No linter is a dependency of the project, so this walks each module's
syntax tree instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tensorsim"
TRACER = ROOT / "perfbench" / "tracer.py"
BENCH_ARGV_FILES = [ROOT / "perfbench" / "bench.py", ROOT / "perfbench" / "tests" / "test_bench.py"]
CALLER_DIRS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
READER_DIRS = CALLER_DIRS + [ROOT / "tools"]
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
# taylor.taylor_terms picks among these by state count; nothing else may
ENUMERATORS = {"jacobian", "taylor_tensors", "_structured_coo"}
# dataclass fields that nothing reads, and why each stays
UNREAD_FIELDS = {
    "SwitchPolicy.representative_levels": "goes once perfbench/make_refs.py stops passing it",
    "SystemSpec.base_mva": "a validated input-schema field; the model works in per unit",
}


def _parse(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _assigned(tree, name):
    """The value node of a module-level ``name = ...``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    return None


def _declared_all(tree) -> list:
    node = _assigned(tree, "__all__")
    return [] if node is None else list(ast.literal_eval(node))


def _module(name):
    return importlib.import_module("tensorsim" if name == "__init__" else f"tensorsim.{name}")


def test_modules_found():
    assert {"__init__", "simulate", "taylor", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = _parse(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - used - set(_declared_all(tree)))
    assert not unused, f"{name}: imported but never used: {unused}"


def _taken_from_taylor(tree):
    """Names a module takes from ``taylor``: imported from it, or read as
    attributes of a name bound to the module."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("taylor", "tensorsim.taylor"):
                names.update(a.name for a in node.names)
            elif node.module in (None, "tensorsim"):
                aliases.update(a.asname or a.name for a in node.names if a.name == "taylor")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name == "tensorsim.taylor" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id in aliases) or (
                isinstance(base, ast.Attribute) and base.attr == "taylor"
            ):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("source, found", [
    ("from .taylor import jacobian", {"jacobian"}),
    ("from . import taylor as ty\nty.taylor_tensors(s)", {"taylor_tensors"}),
    ("import tensorsim.taylor\ntensorsim.taylor._structured_coo(s)", {"_structured_coo"}),
    ("jacobian = 1\nres.jacobian\nfrom .study import taylor_tensors", set()),
])
def test_taken_from_taylor(source, found):
    assert _taken_from_taylor(ast.parse(source)) & ENUMERATORS == found


@pytest.mark.parametrize("name", [m for m in MODULES if m != "taylor"])
def test_enumerators_only_in_taylor(name):
    # a second caller would make a second place that chooses the
    # enumerator by size, or one that fails beyond the dense limit
    found = sorted(_taken_from_taylor(_parse(name)) & ENUMERATORS)
    assert not found, f"{name} takes derivative enumerators from taylor: {found}"


def test_one_fault_call_site():
    # every run of a fault takes its faulted network from one place, which
    # a CCT search builds once however many durations it asks for
    sites = [f"{name}.py:{node.lineno}" for name in MODULES if name != "power_model"
             for node in ast.walk(_parse(name))
             if isinstance(node, ast.Call) and _callee(node) == "apply_fault"]
    assert len(sites) == 1, f"apply_fault called outside power_model at {sites}"


def _call_scopes(tree, callee):
    """The qualified name of the innermost function or class around each
    call of ``callee``; empty at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and _callee(child) == callee:
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_two_march_call_sites():
    # one RK4 loop of one state, reached from two places: a single
    # right-hand side's run, and each segment of a contingency's plan,
    # which every CCT probe that leaves the lanes steps on
    sites = sorted(s for name in MODULES for s in _call_scopes(_parse(name), "_march"))
    assert sites == ["_Contingency.step", "integrate"], f"_march called from {sites}"


def test_one_process_pool_site():
    # the (level, order) jobs of a model set build are the one work that
    # runs in worker processes, so one place owns the pool, its start
    # method and its worker count
    sites = sorted(f"{name}.{s}" for name in MODULES
                   for callee in ("ProcessPoolExecutor", "Pool", "Process", "fork")
                   for s in _call_scopes(_parse(name), callee))
    assert sites == ["taylor._build_models"], f"process pools created at {sites}"
    # its workers are spawned: a fork server keeps the environment of the
    # first pool it served, which may lack the workers' one-thread BLAS
    contexts = sorted(f"{name}.{s}" for name in MODULES
                      for s in _call_scopes(_parse(name), "get_context"))
    assert contexts == ["taylor._build_models"], f"start methods chosen at {contexts}"
    methods = [ast.literal_eval(node.args[0]) for node in ast.walk(_parse("taylor"))
               if isinstance(node, ast.Call) and _callee(node) == "get_context"]
    assert methods == ["spawn"]
    # each job is a function of its arguments alone: the pool runs no
    # initializer in its workers, and no module makes state that processes
    # share (positional arguments past the second are the initializer's)
    pools = [node for node in ast.walk(_parse("taylor"))
             if isinstance(node, ast.Call) and _callee(node) == "ProcessPoolExecutor"]
    assert pools and all(len(node.args) <= 2 and not {k.arg for k in node.keywords}
                         & {None, "initializer", "initargs"} for node in pools)
    shared = sorted(f"{name}.py:{node.lineno}" for name in MODULES
                    for node in ast.walk(_parse(name))
                    if isinstance(node, ast.Call)
                    and _callee(node) in {"Value", "Array", "RawValue", "RawArray", "Manager"})
    assert not shared, f"state shared between processes made at {shared}"
    # and no process state that no artifact records, such as its thread
    # count, decides how a model set is built
    reads = sorted(f"{name}.py:{node.lineno}" for name in MODULES
                   for node in ast.walk(_parse(name))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.startswith("/proc"))
    assert not reads, f"/proc read at {reads}"


def test_no_global_statement():
    # a function that rebinds a module global shares that state with every
    # caller in the process, and a build job would then depend on more than
    # its arguments
    found = sorted(f"{name}.py:{node.lineno}" for name in MODULES
                   for node in ast.walk(_parse(name)) if isinstance(node, ast.Global))
    assert not found, f"global statements at {found}"


def test_one_thread_pool_site():
    # the stencil chunks and the sparse ALS rank blocks share one helper,
    # which sizes the pool and joins its threads
    sites = sorted(f"{name}.{s}" for name in MODULES
                   for callee in ("ThreadPoolExecutor", "ThreadPool", "Thread", "start_new_thread")
                   for s in _call_scopes(_parse(name), callee))
    assert sites == ["taylor._thread_pool"], f"thread pools created at {sites}"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = _module(name)
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"{name}: __all__ names missing from the module: {missing}"


def test_tracer_layers_resolve():
    # a renamed or removed kernel would leave the tracer's wrapper unused and
    # its counters silently at zero; perfbench is read, not imported
    layers = _assigned(ast.parse(TRACER.read_text()), "LAYERS")
    assert isinstance(layers, ast.Tuple) and layers.elts
    pairs = [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in layers.elts]
    missing = [f"{m}.{a}" for m, a in pairs if not callable(getattr(_module(m), a, None))]
    assert not missing, f"perfbench/tracer.py wraps names tensorsim lacks: {missing}"


@pytest.mark.parametrize("path", BENCH_ARGV_FILES, ids=lambda p: p.name)
def test_bench_flags_resolve(path):
    # a flag removed from a command would fail every benchmark op that
    # passes it; a list literal that starts with a command name is read as
    # that command's argv
    _, commands = _module("cli")._parser()
    found, unknown = 0, []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.List) and node.elts and isinstance(node.elts[0], ast.Constant)
                and node.elts[0].value in commands):
            continue
        found += 1
        command = commands[node.elts[0].value]
        flags = [e.value for e in node.elts if isinstance(e, ast.Constant)
                 and isinstance(e.value, str) and e.value.startswith("--")]
        unknown += [f"{node.elts[0].value} {f}" for f in flags
                    if f not in command._option_string_actions]
    assert found, f"{path.name}: no CLI argv found"
    assert not unknown, f"{path.name} passes flags the CLI lacks: {unknown}"


def _optional_params(fn, method):
    """(name, positional index or None) of each keyword-only and each
    defaulted positional parameter; a method's index skips its receiver."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = 1 if method else 0
    first_defaulted = len(positional) - len(a.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(positional) if i >= first_defaulted]
    return out + [(p.arg, None) for p in a.kwonlyargs]


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_optional_params_are_set():
    # a default no caller overrides is a constant with a knob on it; a call
    # with ** or * may set anything, so it counts as setting every parameter
    calls = {}
    for path in sorted(p for d in CALLER_DIRS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)

    def sets(call, name, index):
        if any(k.arg in (None, name) for k in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return index is not None and (starred or len(call.args) > index)

    unset = []
    for name in MODULES:
        tree = _parse(name)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for param, index in _optional_params(fn, id(fn) in methods):
                if not any(sets(c, param, index) for c in calls.get(fn.name, [])):
                    unset.append(f"{fn.name}.{param}")
    assert not unset, f"optional parameters no caller sets: {sorted(unset)}"


def _dataclass_fields(tree):
    """``Class.field`` of each annotated field of the module's dataclasses."""
    def is_dataclass(dec):
        f = dec.func if isinstance(dec, ast.Call) else dec
        return getattr(f, "id", getattr(f, "attr", None)) == "dataclass"

    return [f"{c.name}.{a.target.id}" for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef) and any(is_dataclass(d) for d in c.decorator_list)
            for a in c.body if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]


def test_dataclass_fields_are_read():
    # a field nothing reads is a value carried for no one; an attribute read
    # or a getattr with a literal name counts, on any object
    read = set()
    for path in sorted(p for d in READER_DIRS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and _callee(node) == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    fields = [f for name in MODULES for f in _dataclass_fields(_parse(name))]
    assert set(UNREAD_FIELDS) <= set(fields), "an excepted field is gone: drop its exception"
    unread = sorted(f for f in fields if f.split(".")[1] not in read)
    assert unread == sorted(UNREAD_FIELDS), f"dataclass fields nothing reads: {unread}"
