"""The benchmark tracer (perfbench/tracing.py) wraps lieflow functions by
module and attribute name; a refactor that renames one must fail here,
not in the benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    missing = [f"{mod}.{attr}" for _, mod, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    for _, mod, cls_name, attr in tracing.CLASS_TARGETS:
        cls = getattr(importlib.import_module(mod), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert not missing, f"traced names that no longer exist: {missing}"
