"""The benchmark runs on the package: its tracer wraps package functions by
name, and its workloads call the package's API; both must resolve."""

import importlib
import importlib.util
import json
import os
import sys

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


def test_workloads_run_against_the_package(tmp_path):
    # the workloads call the scalar API (FieldOrientation(b, theta, phi),
    # eigensystem(...).values, main_four_lines(eig), ...); a change to it
    # would otherwise break only the benchmark
    path = os.path.join(os.path.dirname(SPANS), "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        design = workloads.DesignWorkload(1, str(tmp_path))
        assert design.setup()["gate_ok"]
        ops = workloads.run_unit(design, 0)
        fit = workloads.FitWorkload(1, str(tmp_path))
        payload = fit.setup()
        assert payload["gate_ok"], payload["gate"]
        fit.load(json.loads(json.dumps(payload)))
        ops += workloads.run_unit(fit, 0)
    finally:
        del sys.modules[spec.name]
    assert len(ops) == 3
    assert all(op.ok for op in ops), [(op.name, op.detail) for op in ops]
