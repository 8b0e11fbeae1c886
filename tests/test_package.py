"""Package-wide rules: the package imports only the standard library, and
every function the benchmark tracer wraps still exists."""

import ast
import importlib
import importlib.util
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
