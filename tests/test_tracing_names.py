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


SOURCES = TRACING.parent.parent / "src" / "sqrtnfa"
TRACER_ONLY = "# unused here, but perfbench/tracing.py::PATCHES looks them up in this module\n"


def tracer_only_imports(source: str) -> set[str]:
    """The names imported in the block under the tracer-only comment, up
    to the next blank line."""
    block = source.split(TRACER_ONLY, 1)[1].split("\n\n", 1)[0]
    return {alias.asname or alias.name for node in ast.parse(block).body for alias in node.names}


def test_tracer_only_imports_are_patched_rows_and_nothing_else():
    # each name there is a PATCHES row for its module, and no other code
    # of the module reads it: dropping the row drops the import with it
    rows = [(module, attr) for module, attr, _span, _hook in load_tracing().PATCHES]
    for name in ("cli", "cases"):
        source = (SOURCES / f"{name}.py").read_text(encoding="utf-8")
        imported = tracer_only_imports(source)
        assert imported, name
        assert imported <= {attr for module, attr in rows if module == f"sqrtnfa.{name}"}, name
        read = {
            node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in imported
        }
        assert read == set(), name


def test_no_package_code_calls_the_word_table_lane():
    # the four names stay only for the tracer to find; nothing in the
    # package may come to depend on them
    lane = {"accept_table", "square_accept_table", "dfa_accept_table", "dfa_to_nfa"}
    called = {
        (path.name, name)
        for path in sorted(SOURCES.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in lane
    }
    assert called == set()
