"""Every entry point the benchmark's tracer wraps must exist, so renaming a
traced function fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing.LAYERS
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced entry points not found: {missing}"
