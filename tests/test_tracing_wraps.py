"""The benchmark's traced runs wrap kgs functions by (module, name); a name
that stops resolving would read 0 in its per-layer metric instead of
failing. perfbench/tracing.py is loaded by path and only read."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    wraps = load_tracing().WRAPS
    assert wraps
    missing = [f"{module}.{name}" for module, name, _ in wraps
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, missing
