"""The benchmark's tracer patches package functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    # exec the source rather than import it: nothing is cached or registered
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_traced_name_resolves_to_a_callable():
    tracing = load_tracing()
    names = [(module, attr) for module, attr, _span, _hook in tracing.PATCHES]
    names.append(tracing.MEMBER_COUNTED[:2])
    for module, attr in names:
        owner = importlib.import_module(module)
        assert callable(getattr(owner, attr, None)), f"{module}.{attr}"


def test_every_benchmark_import_of_the_package_resolves():
    # read, never import: the benchmark's modules stay unloaded and unwritten
    checked = 0
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "sqrtnfa":
                        importlib.import_module(alias.name)
                        checked += 1
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").split(".")[0] != "sqrtnfa":
                    continue
                owner = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(owner, alias.name), f"{path.name}: {node.module}.{alias.name}"
                    checked += 1
    assert checked > 0
