"""The benchmark's tracer wraps package functions by name; they must exist."""

import importlib
import importlib.util
import os

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py"
)


def test_tracer_targets_resolve():
    # a renamed or deleted function would otherwise break only --trace 1
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module), function, None)
        assert callable(target), "%s.%s" % (module, function)
