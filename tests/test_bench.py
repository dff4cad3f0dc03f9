"""The benchmark runs on the package: its tracer wraps package functions by
name, and its workloads call the package's API; both must resolve."""

import importlib
import importlib.util
import json
import os
import sys

import numpy as np

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py"
)


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_resolve():
    # a renamed or deleted function would otherwise break only --trace 1
    spans = _spans()
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


def test_tracer_counts_one_fit():
    # the per-layer fit metrics read _forward_model's second positional
    # argument as the vector, see its calls through the module global and
    # count its solves through np.linalg.eigh
    from nvbeat import estimation
    from nvbeat.spin_core import HyperfineTensor, SystemParams

    truth = estimation.FitParams(166.9, 122.9, 90.0, -90.3, 40.3)
    design = [(5.01, 0.0, "sq_frequency")]
    design += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 19)]
    ds = estimation.synthesize_dataset(
        SystemParams(tensor=HyperfineTensor(166.9, 122.9, 90.0, -90.3)), 40.3, design
    )
    start = estimation.FitParams(200.0, 100.0, 110.0, -75.0, 40.3)
    tracer = _spans().Tracer()
    result = tracer.traced("fit", lambda: estimation.fit_hyperfine(ds, start))
    assert result.converged and abs(result.params.a_xx - truth.a_xx) < 1e-6
    m = tracer.agg.layer_metrics()
    calls = m["estimation.forward_model.calls"]
    assert calls > 2
    assert m["estimation.forward_model.rows"] == calls
    assert m["linalg.eigh.calls"] == calls
    assert m["linalg.eigh.matrices"] == 20 * calls
    assert len(tracer.agg.fits) == 1


def test_tracer_counts_the_sta_search_and_one_sensitivity_solve():
    # a speed-up may not come from solving past the np.linalg.eigh the
    # tracer wraps: the STA search sends its 109 matrices (the phi = 0
    # plane pass, 46 + 3 x 21) in 4 calls, and the four components of one
    # sensitivity point share one solve
    from nvbeat import estimation
    from nvbeat.spin_core import FieldOrientation, HyperfineTensor, SystemParams

    spans = _spans()
    for module, _, _ in spans.TARGETS:  # the tracer wraps every target module
        importlib.import_module(module)
    params = SystemParams(tensor=HyperfineTensor(166.9, 122.9, 90.0, -90.3))
    tracer = spans.Tracer()
    theta, phi, _ = tracer.traced(
        "sta", lambda: estimation.find_single_transition_axis(params, 40.3)
    )
    m = tracer.agg.layer_metrics()
    assert (m["linalg.eigh.calls"], m["linalg.eigh.matrices"]) == (4, 109)

    field = FieldOrientation(40.3, theta, phi)
    estimation._tensor_slopes.cache_clear()
    tracer = spans.Tracer()
    tracer.traced("sensitivity", lambda: [
        estimation.sensitivity_c(params, field, which) for which in estimation.PARAM_IDS[:4]
    ])
    m = tracer.agg.layer_metrics()
    assert (m["linalg.eigh.calls"], m["linalg.eigh.matrices"]) == (1, 1)
