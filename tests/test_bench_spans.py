"""The benchmark's per-layer tracer wraps dfsim functions by module attribute.

bench/spans.py names each one in WRAPPED; a rename in dfsim would only show
as a crash of a traced benchmark run, so the names are checked here.
"""

import builtins
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for module_name, attr, _, _ in wrapped:
        module = importlib.import_module(f"dfsim.{module_name}")
        if (module_name, attr) == ("cli", "print"):
            assert attr not in vars(module) and callable(getattr(builtins, attr))
        else:
            assert callable(vars(module).get(attr)), f"dfsim.{module_name}.{attr}"
