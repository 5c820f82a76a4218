"""The traced benchmark run wraps rpemsim names by attribute; a rename or
deletion in the package must fail here, not only in the benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_patches_resolve_and_restore_exactly():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._patches
    finally:
        wrong = tracer.restore()
    assert wrong == []
