"""Every function of the library that nothing reaches is public or listed.

The pinned CLI commands, the malformed-input fixtures, two commands that
reach one more branch each, one ``cli.main`` call, the five demos, the
module bodies (whose import-time calls the import before the trace made)
and the benchmark's ``bch_exp`` workload, the one that calls the library
directly, run under ``sys.setprofile``, which notes each code object of
``src/dgla`` that starts.  A function defined there that none of them
reaches must be public (named in ``dgla.__all__``, a method without a
leading underscore of a class named there, a dunder, or nested in one of
these) or on ``ALLOWED`` with the reason it stays.  A listed function that
the runs reach, or that no longer exists, fails too, so the list cannot go
stale.
"""

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import time
import types

import dgla
from dgla import cli

from test_acceptance import (
    CLI_CORPUS,
    EXP_REL_REPORT_SHA256,
    HOM_LINEAR_D_REPORT_SHA256,
    SUB_CLOSED_REPORT_SHA256,
    TWISTED_REPORT_SHA256,
)

SRC = os.path.dirname(os.path.abspath(dgla.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))

# function: why it stays although nothing reaches it
ALLOWED = {
    "derivations.FDerivation.__init__": "perfbench's tracer wraps FDerivation.eval_at; tests "
                                        "use f-derivations as the twisted-Leibniz reference",
    "derivations.FDerivation.eval_at": "perfbench's tracer wraps it",
    "derivations.FDerivation._extension": "FDerivation.eval_at's Leibniz extension",
    "linalg.pivot_columns": "perfbench's tracer wraps it",
    "linalg.solve": "perfbench's tracer wraps it",
    "linalg.Subspace.intersection": "perfbench's tracer wraps it",
    "freelie.unpack": "formats the word of a failed triangularity certificate",
}

# (command, fixtures, flags) past the pinned lists, each reaching code no
# pinned command does
EXTRA = [
    # each malformed input is refused at its pointer
    ("check", ["bad_d_degree_abc.json"], []),
    ("check", ["bad_d_degree_xy.json"], []),
    ("check", ["bad_dsquare.json"], []),
    ("check", ["bad_grammar.json"], []),
    ("check", ["bad_schema.json"], []),
    ("model", ["bad_pairing.json"], []),
    ("mc", ["mc_bad.json"], []),
    # the pushout renames a differential
    ("connected-sum", ["cp2.json", "cp2.json"], []),
    # a window below 0 builds Subspace.full
    ("block-g", ["w11.json"], ["--min", "-3", "--max", "-1"]),
]


def _argv(cmd, files, flags):
    """A command's argv from the repository root, as the pinned digests run it."""
    argv = [cmd] + [os.path.join("fixtures", f) for f in files]
    return argv + [os.path.join("fixtures", a[1:]) if a.startswith("@") else a for a in flags]


def _qualnames(tree):
    """The ``co_qualname`` of every function a module defines, nested ones included."""

    def find(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name
                yield from find(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from find(child, prefix + child.name + ".")
            else:
                yield from find(child, prefix)

    return find(tree, "")


def _modules():
    """(name, path) of every library module but the package's own."""
    return [(f[:-3], os.path.join(SRC, f)) for f in sorted(os.listdir(SRC))
            if f.endswith(".py") and f != "__init__.py"]


def _defined():
    """{"module.Qual.name"} of every function in the library."""
    names = set()
    for module, path in _modules():
        with open(path) as fh:
            names.update("%s.%s" % (module, q) for q in _qualnames(ast.parse(fh.read(), path)))
    return names


def _public(package):
    """{"module.Qual.name"} of the package's exports and of their classes' public methods."""
    names = set()
    for export in package.__all__:
        obj = getattr(package, export)
        module = obj.__module__.rpartition(".")[2]
        names.add("%s.%s" % (module, obj.__qualname__))
        if isinstance(obj, type):
            for attr, value in vars(obj).items():
                fn = getattr(value, "__func__", None) or getattr(value, "fget", None) or value
                if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                    names.add("%s.%s" % (module, fn.__qualname__))
    return names


def _exempt(name, public):
    """A public function, a dunder, or a function nested in one of these."""
    outer = name.partition(".<locals>.")[0]
    last = outer.rpartition(".")[2]
    return outer in public or (last.startswith("__") and last.endswith("__"))


def _findings(defined, reached, public, allowed):
    """(unreached functions neither exempt nor allowed, allowed ones reached or not defined)."""
    unreached = sorted(n for n in defined - reached if not _exempt(n, public) and n not in allowed)
    stale = sorted(n for n in allowed if n in reached or n not in defined)
    return unreached, stale


def _trace(run):
    """{"module.Qual.name"} of every library function that starts while ``run()`` runs."""
    codes = {}

    def hook(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    prefix = SRC + os.sep
    return {"%s.%s" % (os.path.basename(c.co_filename)[:-3], c.co_qualname)
            for c in codes.values() if c.co_filename.startswith(prefix)}


def _load(name, path):
    """A new module object of the file at ``path``, its body run, left out of sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_everything(out_dir):
    for name, path in _modules():
        _load("dgla." + name, path)
    rows = (CLI_CORPUS + TWISTED_REPORT_SHA256 + SUB_CLOSED_REPORT_SHA256
            + HOM_LINEAR_D_REPORT_SHA256 + EXP_REL_REPORT_SHA256 + EXTRA)
    for i, row in enumerate(rows):
        cli.run(_argv(*row[:3]) + ["--out", os.path.join(out_dir, "r%d.json" % i)])
    cli.main(_argv("check", ["s2.json"], []) + ["--out", os.path.join(out_dir, "main.json")])
    for name in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if name.endswith(".py"):
            runpy.run_path(os.path.join(ROOT, "demos", name), run_name="__main__")
    bench = _load("workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    bch = bench.WORKLOADS["bch_exp"]
    inputs = bch.setup("smoke", 99)
    outcomes, _ = bch.run(inputs, time.perf_counter)
    assert bch.check(inputs, outcomes) == []


def test_every_unreached_function_is_public_or_allowed(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        reached = _trace(lambda: _run_everything(str(tmp_path)))
    unreached, stale = _findings(_defined(), reached, _public(dgla), ALLOWED)
    assert unreached == []
    assert stale == []


_PLANTED = [
    "def shown(x):",
    "    return _helper(x)",
    "def _helper(x):",
    "    return x",
    "def _dead():",
    "    return 0",
    "class Shown:",
    "    def method(self):",
    "        def step():",
    "            return 1",
    "        return step",
    "    def _hidden(self):",
    "        return 2",
    "    def __repr__(self):",
    "        return 'Shown'",
    "def outer():",
    "    def inner():",
    "        return 3",
    "    return inner",
]


def _planted():
    """(defined names, the module) of the planted source, exporting shown and Shown."""
    source = "\n".join(_PLANTED)
    module = types.ModuleType("dgla.planted")
    exec(compile(source, "planted.py", "exec"), module.__dict__)
    module.__all__ = ["shown", "Shown"]
    return {"planted." + q for q in _qualnames(ast.parse(source))}, module


def test_the_scan_names_every_function_by_its_code_qualname():
    defined, module = _planted()
    inner = module.outer()
    step = module.Shown().method()
    for fn in (module.shown, module._helper, module.Shown._hidden, inner, step):
        assert "planted." + fn.__code__.co_qualname in defined
    assert len(defined) == 9


def test_the_scan_reports_each_unreached_private_function():
    defined, module = _planted()
    reached = {"planted.shown", "planted._helper"}
    unreached, stale = _findings(defined, reached, _public(module), {})
    assert unreached == [
        "planted.Shown._hidden", "planted._dead", "planted.outer", "planted.outer.<locals>.inner",
    ]
    assert stale == []


def test_the_scan_reports_a_stale_allowlist_entry():
    defined, module = _planted()
    reached = {"planted.shown", "planted._helper", "planted.outer"}
    allowed = {"planted._dead": "kept", "planted._helper": "reached", "planted.gone": "deleted",
               "planted.Shown._hidden": "kept", "planted.outer.<locals>.inner": "kept"}
    unreached, stale = _findings(defined, reached, _public(module), allowed)
    assert unreached == []
    assert stale == ["planted._helper", "planted.gone"]


def test_the_scan_exempts_public_names():
    defined, module = _planted()
    public = _public(module)
    assert public == {"planted.shown", "planted.Shown", "planted.Shown.method"}
    unreached, _ = _findings(defined, set(), public, {})
    # nothing reached: every function but the exports, their public methods
    # (with what they nest) and the dunder
    assert unreached == [
        "planted.Shown._hidden", "planted._dead", "planted._helper", "planted.outer",
        "planted.outer.<locals>.inner",
    ]
