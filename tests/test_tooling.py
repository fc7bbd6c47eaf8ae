"""The traced benchmark run wraps library functions by name; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        target = importlib.import_module(f"bruhatpoly.{layer}")
        for name in names:
            obj = target
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []
