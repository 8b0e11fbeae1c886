"""Package-wide rules: the package imports only the standard library, its
modules import one another at module level only and without a cycle,
importing the command line loads no multiprocessing, dataclasses or csv,
every function the benchmark tracer wraps and every package attribute the
benchmark reads still exists, every name a docstring quotes still
exists, and the sources keep to Python 3.10."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import conicnets

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    for path in sorted(Path(conicnets.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "__future__", (path.name, name)


def test_sources_parse_as_python_3_10_and_name_their_byte_order():
    """The package promises Python >= 3.10, so every module parses with
    3.10's grammar, and every ``int.from_bytes`` and ``int.to_bytes`` call
    names its byte order, which 3.10 requires (3.11 defaults it to "big")."""
    conversions = 0
    for path in sorted(Path(conicnets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("from_bytes", "to_bytes")):
                conversions += 1
                named = len(node.args) >= 2 or any(k.arg == "byteorder" for k in node.keywords)
                assert named, (path.name, node.lineno)
    assert conversions


def _package_imports():
    """(module, imported package module, names imported from it, inside a
    function) for each relative import of each package module."""
    for path in sorted(Path(conicnets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_function = {id(n) for f in ast.walk(tree)
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                       for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                inner = id(node) in in_function
                if node.module:
                    yield path.stem, node.module, [a.name for a in node.names], inner
                else:
                    for a in node.names:
                        yield path.stem, a.name, [], inner


def test_package_imports_sit_at_module_level_without_a_cycle():
    """A relative import inside a function hides a cycle between layers;
    the module-level graph orders the layers.  ``atlas`` asks ``action``
    for orbits and fibers and drives no walk: it imports no private name
    from it, nor ``closure`` or ``packed_action``."""
    edges = {}
    for module, name, imported, in_function in _package_imports():
        assert not in_function, (module, name)
        edges.setdefault(module, set()).add(name)
        if (module, name) == ("atlas", "action"):
            assert not [n for n in imported
                        if n.startswith("_") or n in ("closure", "packed_action")], imported
    done, active = set(), []

    def visit(module):
        assert module not in active, active[active.index(module):] + [module]
        if module not in done:
            active.append(module)
            for name in sorted(edges.get(module, ())):
                visit(name)
            active.pop()
            done.add(module)

    for module in sorted(edges):
        visit(module)


def test_benchmark_reads_only_existing_attributes():
    """Every ``action.``, ``atlas.``, ``gf.``, ``projgeom.`` and ``cli.``
    attribute that the benchmark driver and worker read resolves in the
    package.  The two files are parsed, not run."""
    read = set()
    for name in ("run.py", "worker.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))
        read.update((n.value.id, n.attr) for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in ("action", "atlas", "gf", "projgeom", "cli"))
    assert ("action", "mat3_det") in read
    missing = [(module, attr) for module, attr in sorted(read)
               if not hasattr(importlib.import_module("conicnets." + module), attr)]
    assert not missing


def test_tracer_targets_resolve_to_callables(monkeypatch):
    """Each ``perfbench/tracer.py`` target, ``Class.method`` included, is
    looked up the way ``Tracer.install`` looks it up; the tracer module is
    only loaded, never installed."""
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for t in tracer.TARGETS:
        obj = importlib.import_module(t.module)
        for part in t.attr.split("."):
            obj = vars(obj).get(part)
            assert obj is not None, t.name
        assert callable(obj), t.name


def test_cli_import_loads_no_multiprocessing():
    """Importing multiprocessing, dataclasses or csv costs every cold
    command-line call; only a sweep that starts a pool imports the first
    (atlas.get_context), nothing the second, and the atlas CSV writer the
    third (cli._atlas_csv)."""
    src = str(Path(conicnets.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, conicnets.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'dataclasses', 'csv')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"


def test_docstring_identifiers_name_something():
    """Every ``identifier`` quoted in double backticks in a package docstring
    names a module or a module attribute (dotted paths resolved), a class
    attribute, a parameter of a package function, or a ``self.X`` assigned
    in the same module.  Quoted expressions such as ``range(q)`` are not
    checked."""
    pkg = Path(conicnets.__file__).parent
    paths = sorted(pkg.glob("*.py"))
    modules = {"conicnets": conicnets}
    modules.update((p.stem, importlib.import_module("conicnets." + p.stem))
                   for p in paths if p.stem != "__init__")
    namespace = dict(modules)
    for mod in modules.values():
        namespace.update(vars(mod))
    names = set(namespace)
    for obj in list(namespace.values()):
        if isinstance(obj, type) and obj.__module__.startswith("conicnets"):
            names.update(vars(obj))
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names.update(x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                             + [a.vararg, a.kwarg] if x)

    def resolves(dotted):
        head, *rest = dotted.split(".")
        obj = namespace.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        return obj is not None

    ident = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
    stale = []
    for fname, tree in trees.items():
        assigned = {n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self"}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for quoted in re.findall(r"``([^`]+)``", ast.get_docstring(node) or ""):
                if not ident.fullmatch(quoted):
                    continue
                if "." in quoted:
                    ok = resolves(quoted)
                else:
                    ok = quoted in names or quoted in assigned
                if not ok:
                    stale.append((fname, getattr(node, "name", "<module>"), quoted))
    assert not stale


def test_module_level_caches_are_the_known_ones():
    """The package's process-wide caches and per-field values, pinned so
    that a new one is a decision: every ``functools.cache`` (a decorator or
    a call, and none inside another expression) in ``src/``, every
    module-level container that a function stores into by subscript, every
    attribute stored into by subscript (``x.attr[k] = v``, the instance
    caches), and every function read through the field's store
    (``gf.per_field``), found by parsing the modules."""
    cached, stored, per_field, uses = set(), set(), set(), 0
    attributes = set()
    kinds = {"functools.cache": cached, "per_field": per_field}
    for path in sorted(Path(conicnets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names = {t.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                        if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for d in node.decorator_list:
                    kinds.get(ast.unparse(d), set()).add(node.name)
                stored.update((path.stem, n.value.id) for n in ast.walk(node)
                              if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                              and isinstance(n.value, ast.Name) and n.value.id in module_names)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func) in kinds):
                kinds[ast.unparse(node.value.func)].update(t.id for t in node.targets)
            elif isinstance(node, ast.Attribute) and ast.unparse(node).startswith("functools."):
                uses += node.attr in ("cache", "lru_cache")
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)):
                attributes.add((path.stem, ast.unparse(node.value)))
    assert cached == {"_parser"} and uses == 1
    assert stored == {("gf", "_FIELDS")}
    assert attributes == {("action", "self._tables"), ("action", "self._cells"),
                          ("gf", "gf._store"), ("cli", "p.options")}
    assert per_field == {"_rep_data", "expected_signatures", "signature_table", "orbit_atlas",
                         "packed_action"}
