"""Span tracing from outside the program.

The tracer wraps module-level functions of ``nvbeat`` and
``numpy.linalg.eigh``/``eigvalsh`` while it is installed. Each wrapped call
records one span: run id, span id, parent span id, name, start and end
(``perf_counter_ns``). Spans stay in memory until ``write`` puts them in a
JSONL file. Aggregates are kept as the spans close: per name the call count
and the self time (duration minus the time covered by child spans), plus
counters that only a wrapper can see (matrices per eigensolve, rows per
forward-model call, fit iteration counts).

Modules of the package import functions by name (``from .spin_core import
eigensystem``), so installing a wrapper rebinds every ``nvbeat`` module
attribute that holds the original function, and uninstalling puts each one
back.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); the span name is also the metric prefix
TARGETS = (
    ("nvbeat.spin_core", "build_hamiltonian", "spin_core.build_hamiltonian"),
    ("nvbeat.spin_core", "eigensystem", "spin_core.eigensystem"),
    ("nvbeat.spin_core", "main_four_lines", "spin_core.main_four_lines"),
    ("nvbeat.spin_core", "lambda_transition_amplitudes",
     "spin_core.lambda_transition_amplitudes"),
    ("nvbeat.spin_core", "zero_quantum_splitting_exact",
     "spin_core.zero_quantum_splitting_exact"),
    ("nvbeat.analytic", "delta_perturbative", "analytic.delta_perturbative"),
    ("nvbeat.estimation", "find_single_transition_axis",
     "estimation.find_single_transition_axis"),
    ("nvbeat.estimation", "_forward_model", "estimation.forward_model"),
    ("nvbeat.estimation", "synthesize_dataset", "estimation.synthesize_dataset"),
    ("nvbeat.estimation", "sensitivity_c", "estimation.sensitivity_c"),
    ("nvbeat.estimation", "fit_hyperfine", "estimation.fit_hyperfine"),
    ("nvbeat.dynamics", "simulate_rabi", "dynamics.simulate_rabi"),
    ("nvbeat.dynamics", "simulate_zq_ramsey", "dynamics.simulate_zq_ramsey"),
    ("nvbeat.dynamics", "pi_pulse_from_rabi", "dynamics.pi_pulse_from_rabi"),
    ("nvbeat.dynamics", "spectrum_peaks", "dynamics.spectrum_peaks"),
)
LINALG = (("eigh", "linalg.eigh"), ("eigvalsh", "linalg.eigvalsh"))
STA = "estimation.find_single_transition_axis"
FORWARD = "estimation.forward_model"
# spans reported as plain <name>.calls and <name>.s
LAYER_SPANS = tuple(span for _, _, span in TARGETS if span != FORWARD)


class Aggregate:
    """Per-name call counts and self times plus wrapper-only counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counters = defaultdict(int)  # e.g. "linalg.eigh.matrices"
        self.fits = []  # (n_iterations, converged, max_iterations) per fit

    def merge(self, other: dict):
        """Add an aggregate exported by ``as_dict`` (from a child process)."""
        for key in ("calls", "self_ns", "counters"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] += value
        self.fits.extend(tuple(f) for f in other["fits"])

    def layer_metrics(self) -> dict:
        """Per-layer metrics by name; see README.md for their meaning."""
        m = {}
        for span in ("linalg.eigh", "linalg.eigvalsh") + LAYER_SPANS:
            m[span + ".calls"] = self.calls.get(span, 0)
            m[span + ".s"] = self.self_ns.get(span, 0) / 1e9
        for key in ("linalg.eigh.matrices", "linalg.eigvalsh.matrices",
                    "linalg.eigh.bytes_computed", "estimation.forward_model.rows",
                    "estimation.forward_model.raised"):
            m[key] = self.counters.get(key, 0)
        solves = m["linalg.eigh.calls"] + m["linalg.eigvalsh.calls"]
        mats = m["linalg.eigh.matrices"] + m["linalg.eigvalsh.matrices"]
        m["linalg.matrices_per_call"] = mats / solves if solves else 0.0
        searches = self.calls.get(STA, 0)
        m["estimation.sta.eigensystem_calls"] = (
            self.counters.get("estimation.sta.eigensystem_calls", 0) / searches
            if searches else 0.0
        )
        fm = FORWARD
        m[fm + ".calls"] = self.calls.get(fm, 0)
        m[fm + ".s"] = self.self_ns.get(fm, 0) / 1e9
        m[fm + ".jacobian_s"] = self.counters.get(fm + ".jacobian_ns", 0) / 1e9
        m[fm + ".eval_s"] = self.counters.get(fm + ".eval_ns", 0) / 1e9
        if self.fits:
            its = [it for it, _, _ in self.fits]
            total = sum(its)
            m["estimation.fit.iterations_p50"] = float(np.median(its))
            m["estimation.fit.iterations_total"] = total
            m["estimation.fit.max_iter_frac"] = sum(
                1 for it, conv, cap in self.fits if it >= cap and not conv) / len(its)
            m["estimation.fit.unconverged_frac"] = sum(
                1 for _, conv, _ in self.fits if not conv) / len(its)
            m["estimation.fit.forward_evals_per_iteration"] = (
                m[fm + ".calls"] / total if total else 0.0)
        return m

    def as_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counters": dict(self.counters),
            "fits": self.fits,
        }


class Tracer:
    """Records spans of wrapped calls while installed.

    Not thread-safe: the benchmark drives one closed loop in one thread.
    """

    def __init__(self):
        self.spans = []  # (run, id, parent, name, start_ns, end_ns)
        self.agg = Aggregate()
        self.run = "setup"
        self._stack = []  # [span id, child_ns]
        self._active = defaultdict(int)  # name -> open spans of that name
        self._next_id = 0
        self._saved = []  # (owner, attribute, original) to restore

    # -- span bookkeeping ---------------------------------------------------

    def _call(self, name, fn, args, kwargs, note=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0]
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter_ns()
        raised = True
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._active[name] -= 1
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.agg.calls[name] += 1
            self.agg.self_ns[name] += dur - frame[1]
            self.spans.append((self.run, sid, parent, name, start, end))
            if note is not None:
                note(args, kwargs, None if raised else result, raised, dur)

    def _wrap(self, name, fn, note=None):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, note)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- notes: counters only a wrapper can see ------------------------------

    def _note_linalg(self, name):
        counters = self.agg.counters

        def note(args, kwargs, result, raised, dur):
            a = np.asarray(args[0])
            mats = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
            counters[name + ".matrices"] += mats
            if name == "linalg.eigh" and not raised:
                w, v = result
                counters[name + ".bytes_computed"] += a.nbytes + w.nbytes + v.nbytes

        return note

    def _note_forward(self, args, kwargs, result, raised, dur):
        counters = self.agg.counters
        vec = args[1] if len(args) > 1 else kwargs["vec"]
        rows = 1 if np.ndim(vec) == 1 else int(np.shape(vec)[0])
        counters["estimation.forward_model.rows"] += rows
        counters["estimation.forward_model.raised"] += int(raised)
        key = "jacobian_ns" if rows > 1 else "eval_ns"
        counters["estimation.forward_model." + key] += dur

    def _note_eigensystem(self, args, kwargs, result, raised, dur):
        if self._active[STA]:
            self.agg.counters["estimation.sta.eigensystem_calls"] += 1

    def _note_fit(self, max_iterations):
        def note(args, kwargs, result, raised, dur):
            if not raised:
                cap = kwargs.get("max_iterations", max_iterations)
                self.agg.fits.append((result.n_iterations, bool(result.converged), cap))

        return note

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded nvbeat module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import inspect

        modules = [m for n, m in sys.modules.items() if n == "nvbeat" or n.startswith("nvbeat.")]
        for mod_name, fn_name, span in TARGETS:
            fn = getattr(sys.modules[mod_name], fn_name)
            note = None
            if span == FORWARD:
                note = self._note_forward
            elif span == "spin_core.eigensystem":
                note = self._note_eigensystem
            elif span == "estimation.fit_hyperfine":
                default = inspect.signature(fn).parameters["max_iterations"].default
                note = self._note_fit(default)
            wrapper = self._wrap(span, fn, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for attr, span in LINALG:
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap(span, fn, self._note_linalg(span)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def traced(self, run, fn, *args, **kwargs):
        """Call ``fn`` with tracing installed, its spans tagged ``run``."""
        self.run = run
        self.install()
        try:
            return fn(*args, **kwargs)
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def add_child(self, run, exported: dict):
        """Fold spans and aggregates recorded by a traced child process."""
        self.agg.merge(exported["agg"])
        base = self._next_id
        for _, sid, parent, name, start, end in exported["spans"]:
            self.spans.append(
                (run, base + sid, None if parent is None else base + parent, name, start, end)
            )
        self._next_id = base + exported["next_id"]

    def export(self) -> dict:
        return {"agg": self.agg.as_dict(), "spans": self.spans, "next_id": self._next_id}

    def write(self, path, header: dict):
        """Write the header line, then one JSON object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, type="header")) + "\n")
            for run, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"type": "span", "run": run, "id": sid, "parent": parent,
                         "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
