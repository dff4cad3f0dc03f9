"""nvbeat benchmark: one workload per run, one JSON result line at the end.

    python3 bench/run.py --workload fit_sta_phi --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/``. The harness and every process it starts run on one CPU.
``--trace 0`` measures the end-to-end metrics with no tracing: a fixed
number of units, ``int(seconds / UNIT_COST)``, so one seed always gives
the same ops and the same verdicts. Each set-up and each op also runs on the
yardstick, a frozen copy of the package (``yardstick/nvbeat_yardstick``),
back to back on the same CPU, and the program's CPU time is scaled by the
yardstick's nominal over measured time. ``--trace 1`` runs a fixed number
of units twice each, untraced then traced, records spans of every layer
(written to ``bench/out/trace-*.jsonl``) and reports the per-layer metrics
plus the tracing overhead. See README.md in
this directory for the workloads, the metric table and the trace format.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
YARDSTICK = os.path.join(BENCH, "yardstick")
YARDSTICK_PKG = "nvbeat_yardstick"
OUT = os.path.join(BENCH, "out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("fit_sta_phi", "design_sweep", "cli_session")

# name -> (unit, better); the JSON metrics of a --trace 0 run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_scaled_s": ("1/s", "higher"),
}

# human-readable summary names per workload (printed, not in the JSON line)
SUMMARY_NAMES = {
    "fit_sta_phi": ("fits_per_s", "fit_p50_s", "fit_tail_s", "fit_failed_frac"),
    "design_sweep": ("designs_per_s", "sta_search_p50_s", "design_failed_frac"),
    "cli_session": ("cli_session_s", "cli_startup_p50_s", "cli_failed_frac"),
}

IMPORTS = ("cli", "spin_core", "estimation", "dynamics")


def per_layer_spec():
    """name -> (unit, better) of every --trace 1 metric."""
    from spans import LAYER_SPANS
    from workloads import CLI_COMMANDS

    spec = {}
    for op in ("eigh", "eigvalsh"):
        spec["linalg.%s.calls" % op] = ("count", "lower")
        spec["linalg.%s.matrices" % op] = ("count", "lower")
        spec["linalg.%s.s" % op] = ("s", "lower")
    spec["linalg.eigh.bytes_computed"] = ("B", "lower")
    spec["linalg.matrices_per_call"] = ("count", "higher")
    for name in LAYER_SPANS:
        spec[name + ".calls"] = ("count", "lower")
        spec[name + ".s"] = ("s", "lower")
    spec["estimation.sta.eigensystem_calls"] = ("count", "lower")
    fm = "estimation.forward_model."
    spec[fm + "calls"] = ("count", "lower")
    spec[fm + "rows"] = ("count", "lower")
    spec[fm + "raised"] = ("count", "lower")
    spec[fm + "s"] = ("s", "lower")
    spec[fm + "jacobian_s"] = ("s", "lower")
    spec[fm + "eval_s"] = ("s", "lower")
    fit = "estimation.fit."
    spec[fit + "iterations_p50"] = ("count", "lower")
    spec[fit + "iterations_total"] = ("count", "lower")
    spec[fit + "max_iter_frac"] = ("frac", "lower")
    spec[fit + "unconverged_frac"] = ("frac", "lower")
    spec[fit + "forward_evals_per_iteration"] = ("count", "lower")
    for name, _ in CLI_COMMANDS:
        spec["cli.%s.s" % name] = ("s", "lower")
    for name in IMPORTS:
        spec["import.nvbeat.%s.s" % name] = ("s", "lower")
    spec["trace.overhead_frac"] = ("frac", "lower")
    return spec


# approximate wall seconds of one unit, on the program and on the yardstick,
# on a 2-core x86 box; a --trace 0 run does the whole units that fit in
# --seconds, max(1, int(seconds / cost)), stopping early only when the loop
# has taken WALL_CAP times --seconds
UNIT_COST = {
    "fit_sta_phi": 3.1,
    "design_sweep": 2.5,
    "cli_session": 13.6,
}
WALL_CAP = 3.0

# CPU seconds of one set-up and of one op on the yardstick, on a quiet
# stretch of a shared 2-core x86 VM (Xeon, 2.1 GHz); a scaled second is a
# program CPU second times nominal over measured yardstick time
NOMINAL = {
    "fit_sta_phi": (2.0, 0.77),
    "design_sweep": (0.8, 1.22),
    "cli_session": (0.85, 0.78),
}

# approximate seconds to run one unit twice (untraced, then traced) on a
# 2-core x86 box; a --trace 1 run repeats max(1, round(seconds / cost))
# units, so its counts repeat exactly for a given seed and --seconds
TRACE_UNIT_COST = {
    "fit_sta_phi": 3.5,
    "design_sweep": 3.5,
    "cli_session": 22.0,
}
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# helpers


def tail(values):
    """(percentile, value): the highest of p50/p75/p90/p95/p99 that leaves at
    least ten samples beyond it; p50 when fewer than twenty samples exist."""
    n = len(values)
    pct = 50
    for p in (75, 90, 95, 99):
        if n * (100 - p) / 100.0 >= 10:
            pct = p
    import numpy as np

    return pct, float(np.percentile(values, pct))


def environment():
    import numpy
    import scipy

    commit = "unknown"  # an exported checkout has no .git
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "blas_threads": os.environ[BLAS_VARS[0]],
        "machine": platform.machine(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def make_workload(name, seed, workdir, pkg="nvbeat"):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir, pkg)


def run_setup_child(name, seed, workdir, pkg):
    """Set up once in a fresh interpreter: (wall s, CPU s, payload)."""
    from workloads import cpu_seconds

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--package", pkg,
           "--workload", name, "--seed", str(seed), "--workdir", workdir]
    c0, t0 = cpu_seconds(), time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    seconds, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if proc.returncode != 0:
        raise RuntimeError("set-up failed:\n" + proc.stderr)
    return seconds, cpu, json.loads(proc.stdout.strip().splitlines()[-1])


def import_time(module):
    """Seconds to import one nvbeat module in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import nvbeat.%s; "
        "print(time.perf_counter() - t)" % module
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(proc.stdout)


def loop(wl, ys, units, cap):
    """Closed loop: start unit i+1 when unit i ends, for ``units`` units or
    until ``cap`` wall seconds have passed. Each op runs on the program
    (``wl``) and on the yardstick (``ys``) back to back, the order
    alternating; returns both lists of ops and the number of units run."""
    from workloads import run_op

    ops, ys_ops = [], []
    t0 = time.perf_counter()
    i = 0
    while i < units and (not ops or time.perf_counter() - t0 < cap):
        for (name, check), (_, ys_check) in zip(wl.ops(i), ys.ops(i)):
            if len(ops) % 2:
                ys_ops.append(run_op(name, ys_check))
                ops.append(run_op(name, check))
            else:
                ops.append(run_op(name, check))
                ys_ops.append(run_op(name, ys_check))
        i += 1
    return ops, ys_ops, i


# ---------------------------------------------------------------------------
# modes


def summary(name, ops):
    """The workload's own metrics: name -> (value, unit, note).

    Rates are ops over the wall seconds of the program's ops."""
    times = [op.seconds for op in ops]
    n = len(ops)
    elapsed = sum(times)
    failed = sum(not op.ok for op in ops)
    out = {"ops_per_s": (n / elapsed, "1/s", "wall clock, n=%d" % n)}
    if name == "fit_sta_phi":
        pct, value = tail(times)
        out["fits_per_s"] = (n / elapsed, "1/s", "n=%d" % n)
        out["fit_p50_s"] = (statistics.median(times), "s", "n=%d" % n)
        out["fit_tail_s"] = (value, "s", "p%d, n=%d" % (pct, n))
        out["fit_failed_frac"] = (failed / n, "frac", "%d of %d" % (failed, n))
        iters = [op.extra["iterations"] for op in ops if "iterations" in op.extra]
        out["fit_iterations_mean"] = (statistics.mean(iters) if iters else float("nan"), "count",
                                      "n=%d" % len(iters))
    elif name == "design_sweep":
        sta = [op.extra["sta_s"] for op in ops if "sta_s" in op.extra]
        out["designs_per_s"] = (n / elapsed, "1/s", "n=%d" % n)
        out["sta_search_p50_s"] = (statistics.median(sta) if sta else float("nan"), "s",
                                   "n=%d" % len(sta))
        out["design_failed_frac"] = (failed / n, "frac", "%d of %d" % (failed, n))
    else:
        k = len(set(op.name for op in ops))  # commands per session
        sessions = [sum(times[j:j + k]) for j in range(0, n, k)]
        startup = [op.seconds for op in ops if op.name == "principal"]
        out["cli_session_s"] = (statistics.median(sessions), "s", "n=%d" % len(sessions))
        out["cli_startup_p50_s"] = (statistics.median(startup), "s", "n=%d" % len(startup))
        out["cli_failed_frac"] = (failed / n, "frac", "%d of %d" % (failed, n))
    return out


def measure(args, workdir):
    """--trace 0: set-up timed in fresh interpreters, then the closed loop.

    Set-up and ops are timed in CPU seconds (this process and its children)
    and scaled by the yardstick's time on the same work, run back to back
    with it: on a shared VM the speed of a CPU swings by half from one
    minute to the next, for CPU time as much as for wall time, and the
    yardstick swings with it. Wall-clock figures are printed beside them.
    """
    ys_dir = os.path.join(workdir, "yardstick")
    os.makedirs(ys_dir)
    nominal_setup, nominal_op = NOMINAL[args.workload]
    setup_wall, setup_ratio, ys_setup = [], [], []
    for k in range(args.setup_repeats):
        cpu = {}
        for pkg in (("nvbeat", YARDSTICK_PKG) if k % 2 == 0 else (YARDSTICK_PKG, "nvbeat")):
            seconds, cpu[pkg], got = run_setup_child(
                args.workload, args.seed, ys_dir if pkg == YARDSTICK_PKG else workdir, pkg)
            if pkg == "nvbeat":
                payload = got
                setup_wall.append(seconds)
        setup_ratio.append(cpu["nvbeat"] / cpu[YARDSTICK_PKG])
        ys_setup.append(cpu[YARDSTICK_PKG])
    wl = make_workload(args.workload, args.seed, workdir)
    ys = make_workload(args.workload, args.seed, ys_dir, YARDSTICK_PKG)
    wl.load(payload)
    ys.load(payload)  # the same inputs as the program
    units = max(1, int(args.seconds / UNIT_COST[args.workload]))
    ops, ys_ops, done = loop(wl, ys, units, WALL_CAP * args.seconds)
    lines = summary(args.workload, ops)
    setup_s = statistics.median(setup_ratio) * nominal_setup
    ops_cpu = sum(op.cpu for op in ops)
    ys_cpu = sum(op.cpu for op in ys_ops)
    ops_per_scaled_s = ys_cpu / ops_cpu / nominal_op
    rss = peak_rss_mb()
    lines["setup_s"] = (setup_s, "s", "scaled, median of %d; wall median %.4g s; yardstick "
                        "median %.4g CPU s, nominal %g" % (
                            len(setup_ratio), statistics.median(setup_wall),
                            statistics.median(ys_setup), nominal_setup))
    lines["peak_rss_mb"] = (rss, "MB", "largest process")
    lines["ops_per_cpu_s"] = (len(ops) / ops_cpu, "1/s", "%d ops in %.4g CPU s, %d of %d units"
                              % (len(ops), ops_cpu, done, units))
    lines["yardstick_ops_per_cpu_s"] = (len(ys_ops) / ys_cpu, "1/s", "nominal %.4g"
                                        % (1.0 / nominal_op))
    lines["ops_per_scaled_s"] = (ops_per_scaled_s, "1/s", "yardstick/program CPU time %.4g"
                                 % (ys_cpu / ops_cpu))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ops_per_scaled_s": ops_per_scaled_s,
    }
    return payload, ops, lines, metrics


def trace_run(args, workdir, env):
    """--trace 1: per-layer metrics from spans, plus the tracing overhead."""
    from spans import Tracer
    from workloads import run_unit

    imports = {m: statistics.median(import_time(m) for _ in range(3)) for m in IMPORTS}
    import nvbeat.analytic  # noqa: F401  (the tracer wraps loaded modules)
    import nvbeat.dynamics  # noqa: F401
    import nvbeat.estimation  # noqa: F401

    tracer = Tracer()
    wl = make_workload(args.workload, args.seed, workdir)
    payload = tracer.traced("setup", wl.setup)
    wl.load(payload)
    units = max(1, round(args.seconds / TRACE_UNIT_COST[args.workload]))
    plain_s = traced_s = 0.0
    ops = []
    cli_times = collections.defaultdict(list)
    for i in range(units):
        if args.workload == "cli_session":
            run_traced = functools.partial(
                run_unit, wl, i, launcher=_traced_launcher(tracer, workdir, i))
        else:
            run_traced = functools.partial(tracer.traced, "op-%d" % i, run_unit, wl, i)
        # alternate which copy runs first so warm-up favours neither
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            unit = run_traced() if traced else run_unit(wl, i)
            seconds = time.perf_counter() - t0
            if traced:
                traced_s += seconds
            else:
                plain_s += seconds
                if args.workload == "cli_session":
                    for op in unit:
                        cli_times[op.name].append(op.seconds)
            ops.extend(unit)
    metrics = dict.fromkeys(per_layer_spec(), 0.0)
    metrics.update(tracer.agg.layer_metrics())
    for name, times in cli_times.items():
        metrics["cli.%s.s" % name] = statistics.median(times)
    for name, seconds in imports.items():
        metrics["import.nvbeat.%s.s" % name] = seconds
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    path = os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "units": units,
                        "env": env})
    lines = {
        "trace_file": (os.path.relpath(path, ROOT), "", "%d spans" % len(tracer.spans)),
        "trace.overhead_frac": (metrics["trace.overhead_frac"], "frac",
                                "traced %.3f s vs untraced %.3f s over %d units"
                                % (traced_s, plain_s, units)),
    }
    return payload, ops, lines, metrics


def _traced_launcher(tracer, workdir, i):
    """Launch a CLI subcommand under the tracer in a child interpreter."""
    span_file = os.path.join(workdir, "child-spans.json")
    script = os.path.join(BENCH, "traced_cli.py")

    def launch(argv):
        if os.path.exists(span_file):
            os.remove(span_file)
        proc = subprocess.run([sys.executable, script, span_file] + argv, capture_output=True)
        if os.path.exists(span_file):  # absent when the child died early
            with open(span_file) as fh:
                tracer.add_child("op-%d:%s" % (i, argv[2]), json.load(fh))
        return proc

    return launch


def result_line(correct, attempted, failed, metrics, spec):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": spec[k][0]} for k in spec},
    })


def self_test():
    """Every workload on a tiny load, both modes; check every metric is printed."""
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    problems = []
    if os.path.isfile(bench_json):
        with open(bench_json) as fh:
            declared = json.load(fh)
        if [w["name"] for w in declared["workloads"]] != list(WORKLOAD_NAMES):
            problems.append("BENCHMARK.json workloads differ from the harness")
        for key, spec in (("end_to_end", END_TO_END), ("per_layer", per_layer_spec())):
            have = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
            if have != spec:
                problems.append("BENCHMARK.json %s differs from the harness" % key)
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                   "--setup-repeats", "1"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            label = "%s --trace %d" % (name, trace)
            print("self-test: %-28s %.1f s exit %d" % (label, time.perf_counter() - t0,
                                                        proc.returncode))
            if proc.returncode != 0:
                problems.append("%s: exit %d\n%s" % (label, proc.returncode, proc.stderr))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            spec = per_layer_spec() if trace else END_TO_END
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if set(result["metrics"]) != set(spec):
                problems.append("%s: metrics %s" % (label, sorted(set(spec) ^ set(result["metrics"]))))
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s" % (
                    label, result["correct"], result["attempted"]))
            if not trace:
                printed = {ln.split(" = ")[0] for ln in lines if " = " in ln}
                missing = set(SUMMARY_NAMES[name]) | set(END_TO_END)
                missing -= printed
                if missing:
                    problems.append("%s: not printed: %s" % (label, sorted(missing)))
    for p in problems:
        print("self-test FAIL: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload on a tiny load and check the output")
    ap.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--package", default="nvbeat", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nvbeat", "__init__.py")):
        print("error: no nvbeat sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0 or args.setup_repeats < 1:
        print("error: need --seed >= 0, --seconds > 0, --setup-repeats >= 1", file=sys.stderr)
        return 2
    # one BLAS thread and one CPU for this process and every process it starts
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    paths = [SRC, YARDSTICK] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [SRC, YARDSTICK]

    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        payload = make_workload(args.workload, args.seed, args.workdir, args.package).setup()
        print(json.dumps(payload))
        return 0

    import compileall

    for path in (SRC, YARDSTICK):
        if not compileall.compile_dir(path, quiet=1):
            print("error: byte-compiling %s failed" % path, file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    print("# nvbeat benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# env: " + json.dumps(env, sort_keys=True))
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.trace:
            payload, ops, lines, metrics = trace_run(args, workdir, env)
            spec = per_layer_spec()
        else:
            payload, ops, lines, metrics = measure(args, workdir)
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# set-up gate: %s (%s)" % ("ok" if payload["gate_ok"] else "FAILED", payload["gate"]))
    for op in ops:
        if not op.ok:
            print("# failed %s: %s" % (op.name, op.detail))
    for name, (value, unit, note) in lines.items():
        print("%s = %s %s  (%s)" % (name, value, unit, note))
    for name in spec:
        if name not in lines:
            print("%s = %r %s" % (name, metrics[name], spec[name][0]))
    failed = sum(not op.ok for op in ops)
    print(result_line(payload["gate_ok"], len(ops), failed, metrics, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
