"""The benchmark's tracer patches package functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

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
