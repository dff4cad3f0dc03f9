"""Command-line interface.

Subcommands: spectrum | zq-scan | rabi | ramsey | fit | sensitivity |
principal | synth. Global flags: --config PATH, --seed N, --out PATH,
--threads N. Every CSV output starts with a comment line carrying the
toolkit version and the digest of the effective configuration; reruns with
the same configuration and seed are byte-identical.

Heavy modules are imported inside main() so --threads can cap the BLAS
thread pools before numpy initializes them.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser():
    # global flags live on a parent so they are accepted before or after the
    # subcommand; SUPPRESS keeps the subparser from clobbering a value given
    # up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", default=argparse.SUPPRESS, help="configuration file"
    )
    common.add_argument(
        "--seed",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="override the config seed",
    )
    common.add_argument(
        "--out", metavar="PATH", default=argparse.SUPPRESS, help="output file (default stdout)"
    )
    common.add_argument(
        "--threads",
        type=int,
        metavar="N",
        default=argparse.SUPPRESS,
        help="cap BLAS/OpenMP thread pools (set before numpy loads)",
    )
    ap = argparse.ArgumentParser(
        prog="nvbeat",
        description="NV-13C spin simulation and hyperfine-tensor estimation",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="single-quantum transition lines")
    p.add_argument(
        "--at-sta",
        action="store_true",
        help="evaluate at the single-transition axis instead of the config field",
    )

    p = sub.add_parser("zq-scan", parents=[common], help="zero-quantum splitting vs field angle")
    p.add_argument("--sweep", choices=("theta", "phi"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    p = sub.add_parser("rabi", parents=[common], help="driven ms0 population trace")
    p.add_argument("--at-sta", action="store_true")

    p = sub.add_parser("ramsey", parents=[common], help="zero-quantum Ramsey trace")
    p.add_argument("--at-sta", action="store_true")

    p = sub.add_parser("fit", parents=[common], help="fit the hyperfine tensor to a scan CSV")
    p.add_argument("dataset", help="scan CSV path")
    p.add_argument(
        "--fix",
        action="append",
        default=[],
        metavar="PARAM",
        help="hold a parameter at its initial value (repeatable)",
    )
    p.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="N",
        help="parametric bootstrap refits for empirical uncertainties",
    )

    p = sub.add_parser("sensitivity", parents=[common], help="line-shift slopes per tensor component")
    p.add_argument("--at-sta", action="store_true")
    p.add_argument("--step", type=float, default=0.5, help="difference step, MHz")

    sub.add_parser("principal", parents=[common], help="principal values and theta_P")

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic scan dataset")
    p.add_argument(
        "--design",
        choices=("sta-phi", "two-theta"),
        default="sta-phi",
        help="sta-phi: SQ lines at the single-transition axis plus a 19-point "
        "ZQ phi sweep at theta=40; two-theta: four SQ orientations plus ZQ "
        "phi sweeps at theta=40 and 65",
    )
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = getattr(args, "threads", None)
    if threads is not None:
        if threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _run(args) -> int:
    from .config import apply_overrides, parse, parse_file

    config_path = getattr(args, "config", None)
    if config_path:
        cfg = parse_file(config_path)
    else:
        cfg = parse("")
    seed = getattr(args, "seed", None)
    if seed is not None:
        cfg = apply_overrides(cfg, ["seed=%d" % seed])
    handler = {
        "spectrum": cmd_spectrum,
        "zq-scan": cmd_zq_scan,
        "rabi": cmd_rabi,
        "ramsey": cmd_ramsey,
        "fit": cmd_fit,
        "sensitivity": cmd_sensitivity,
        "principal": cmd_principal,
        "synth": cmd_synth,
    }[args.command]
    text = handler(cfg, args)
    _write(text, getattr(args, "out", None))
    return 0


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _comment(cfg) -> str:
    from . import __version__

    return "# nvbeat %s config=%s" % (__version__, cfg.digest())


def _resolved_field(cfg, at_sta: bool):
    if not at_sta:
        return cfg.field_nv()
    from .estimation import find_single_transition_axis
    from .spin_core import FieldOrientation

    theta, phi, _ = find_single_transition_axis(cfg.system(), cfg["field.b"])
    return FieldOrientation(b=cfg["field.b"], theta=theta, phi=phi)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg, args) -> str:
    from .spin_core import build_hamiltonian, eigensystem, single_quantum_transitions

    params = cfg.system()
    field = _resolved_field(cfg, args.at_sta)
    eig = eigensystem(build_hamiltonian(params, field))
    lines = single_quantum_transitions(eig)
    # merge degenerate lines (zero tensor collapses each branch to one line)
    merged = []
    for ln in lines:
        if merged and abs(ln.frequency - merged[-1][0]) < 1e-9:
            merged[-1][1] += ln.amplitude
            continue
        merged.append([ln.frequency, ln.amplitude, eig.manifold[ln.to_state]])
    rows = [
        _comment(cfg),
        "# field: b=%.6g G theta=%.6g phi=%.6g (NV frame)"
        % (field.b, field.theta, field.phi),
        "frequency_mhz,amplitude,branch",
    ]
    for freq, amp, branch in merged:
        rows.append("%.10g,%.10g,%s" % (freq, amp, branch))
    return "\n".join(rows) + "\n"


def cmd_zq_scan(cfg, args) -> str:
    import numpy as np

    from .analytic import delta_perturbative, zq_beat_amplitude
    from .spin_core import (
        FieldOrientation,
        build_hamiltonian,
        eigensystem,
        lambda_transition_amplitudes,
        zero_quantum_splitting_exact,
    )

    if args.step <= 0:
        raise ValueError("sweep step must be positive")
    angles = np.arange(args.start, args.stop + 1e-9 * args.step, args.step)
    if len(angles) == 0:
        raise ValueError("empty sweep range")
    # theta is a polar angle; phi wraps, so any azimuth is fine
    if args.sweep == "theta" and (angles.min() < 0.0 or angles.max() > 180.0):
        raise ValueError("theta sweep outside [0, 180]")
    params = cfg.system()
    base = cfg.field_nv()
    rows = [_comment(cfg), "angle_deg,delta_exact_mhz,delta_perturbative_mhz,beat_amplitude"]
    for ang in angles:
        if args.sweep == "theta":
            field = FieldOrientation(base.b, float(ang), base.phi)
        else:
            field = FieldOrientation(base.b, base.theta, float(ang))
        eig = eigensystem(build_hamiltonian(params, field))
        exact = zero_quantum_splitting_exact(eig)
        pert = delta_perturbative(params, field)
        try:
            op, om = lambda_transition_amplitudes(eig, params.tensor, field)
            beat = zq_beat_amplitude(op, om) / 2.0
        except ValueError:
            beat = float("nan")
        rows.append("%.10g,%.10g,%.10g,%.10g" % (ang, exact, pert, beat))
    return "\n".join(rows) + "\n"


def _trace_text(cfg, trace, peaks) -> str:
    rows = [_comment(cfg), "tau_us,signal"]
    for t, s in zip(trace.tau, trace.signal):
        rows.append("%.10g,%.10g" % (t, s))
    for k in range(len(peaks.frequency)):
        rows.append(
            "# peak %d: %.4f MHz (magnitude %.6g)"
            % (k + 1, peaks.frequency[k], peaks.magnitude[k])
        )
    if len(peaks.frequency) == 0:
        rows.append("# no peaks")
    return "\n".join(rows) + "\n"


def cmd_rabi(cfg, args) -> str:
    import numpy as np

    from .dynamics import PulseParams, simulate_rabi, spectrum_peaks

    params = cfg.system()
    field = _resolved_field(cfg, args.at_sta)
    amp = cfg["sequence.rabi_amplitude"]
    if amp <= 0:
        raise ValueError("sequence.rabi_amplitude must be positive")
    # four nominal Rabi periods; tau_max is the free-evolution scale, not this
    t_grid = np.linspace(0.0, 4.0 / amp, cfg["sequence.n_points"])
    pulse = PulseParams(rabi_amplitude=amp, carrier_detuning=cfg["sequence.detuning"])
    trace = simulate_rabi(params, field, pulse, t_grid)
    return _trace_text(cfg, trace, spectrum_peaks(trace))


def _pi_duration(cfg, params, field) -> float:
    import numpy as np

    from .dynamics import PulseParams, pi_pulse_from_rabi, simulate_rabi

    setting = cfg["sequence.pi_duration"]
    if setting != "auto":
        return float(setting)
    amp = cfg["sequence.rabi_amplitude"]
    if amp <= 0:
        raise ValueError("sequence.rabi_amplitude must be positive")
    t_grid = np.linspace(0.0, 2.0 / amp, 801)
    trace = simulate_rabi(params, field, PulseParams(rabi_amplitude=amp), t_grid)
    return pi_pulse_from_rabi(trace)


def cmd_ramsey(cfg, args) -> str:
    import numpy as np

    from .dynamics import apply_dephasing, simulate_zq_ramsey, spectrum_peaks

    params = cfg.system()
    field = _resolved_field(cfg, args.at_sta)
    pi_dur = _pi_duration(cfg, params, field)
    tau_grid = np.linspace(0.0, cfg["sequence.tau_max"], cfg["sequence.n_points"])
    trace = simulate_zq_ramsey(
        params,
        field,
        pi_dur,
        cfg["sequence.detuning"],
        tau_grid,
        rabi_amplitude=cfg["sequence.rabi_amplitude"],
    )
    if cfg["sequence.t2_star"] > 0:
        trace = apply_dephasing(trace, cfg["sequence.t2_star"], cfg["sequence.envelope"])
    return _trace_text(cfg, trace, spectrum_peaks(trace))


def cmd_fit(cfg, args) -> str:
    import numpy as np

    from .estimation import (
        CSV_HEADER,
        PARAM_IDS,
        FitParams,
        fit_hyperfine,
        read_dataset,
    )

    dataset = read_dataset(args.dataset)
    fixed = frozenset(args.fix)
    for name in fixed:
        if name not in PARAM_IDS:
            raise ValueError("unknown parameter id %r in --fix" % name)
    tensor = cfg.system().tensor
    initial = FitParams(
        a_xx=tensor.a_xx,
        a_yy=tensor.a_yy,
        a_zz=tensor.a_zz,
        a=tensor.a,
        b=cfg["field.b"],
        phi_offset=0.0,
    )
    result = fit_hyperfine(dataset, initial, fixed=fixed)
    rows = [_comment(cfg)]
    for name in PARAM_IDS:
        value = getattr(result.params, name)
        if name in fixed:
            rows.append("%s = %.10g (fixed)" % (name, value))
        else:
            rows.append("%s = %.10g +- %.4g" % (name, value, result.sigmas[name]))
    dof = len(dataset) - (6 - len(fixed))
    rows.append("chi2 = %.10g" % result.chi2)
    rows.append("dof = %d" % dof)
    rows.append("iterations = %d" % result.n_iterations)
    rows.append("converged = %s" % ("yes" if result.converged else "no"))
    if args.bootstrap > 0:
        sig = _bootstrap_sigmas(dataset, result, fixed, args.bootstrap, cfg["seed"])
        for name in PARAM_IDS:
            if name not in fixed:
                rows.append("bootstrap_sigma.%s = %.4g" % (name, sig[name]))
    rows.append("")
    rows.append(CSV_HEADER + ",model,residual")
    for p, res in zip(dataset.points, result.residuals):
        idx = "" if p.transition_index is None else str(p.transition_index)
        rows.append(
            "%.10g,%.10g,%.10g,%s,%.10g,%.10g,%s,%.10g,%.10g"
            % (p.theta, p.phi, p.b, p.kind, p.value, p.sigma, idx,
               p.value - res, res)
        )
    return "\n".join(rows) + "\n"


def _bootstrap_sigmas(dataset, result, fixed, n_draws, seed) -> dict:
    import dataclasses as _dc

    import numpy as np

    from .estimation import PARAM_IDS, ScanDataset, fit_hyperfine

    rng = np.random.default_rng(seed)
    model_values = np.array(
        [p.value for p in dataset.points]
    ) - result.residuals
    sigmas = np.array([p.sigma for p in dataset.points])
    draws = []
    for _ in range(n_draws):
        values = model_values + rng.normal(0.0, sigmas)
        points = tuple(
            _dc.replace(p, value=float(v))
            for p, v in zip(dataset.points, values)
        )
        try:
            r = fit_hyperfine(
                ScanDataset(points, frame=dataset.frame), result.params, fixed=fixed
            )
        except ValueError:
            continue
        draws.append(r.params.as_vector())
    if len(draws) < 2:
        raise ValueError(
            "bootstrap failed: %d of %d refits usable" % (len(draws), n_draws)
        )
    spread = np.std(np.array(draws), axis=0, ddof=1)
    return {name: float(spread[k]) for k, name in enumerate(PARAM_IDS)}


def cmd_sensitivity(cfg, args) -> str:
    from .estimation import sensitivity_c

    params = cfg.system()
    field = _resolved_field(cfg, args.at_sta)
    rows = [
        _comment(cfg),
        "# field: b=%.6g G theta=%.6g phi=%.6g (NV frame)"
        % (field.b, field.theta, field.phi),
        "parameter  c_value  slopes(line0..line3)",
    ]
    for name in ("a_xx", "a_yy", "a_zz", "a"):
        rep = sensitivity_c(params, field, name, step=args.step)
        rows.append(
            "%-9s  %.4f  %s"
            % (name, rep.c_value, " ".join("%+.4f" % s for s in rep.slopes))
        )
    return "\n".join(rows) + "\n"


def cmd_principal(cfg, args) -> str:
    from .tensor_geometry import magnitude_sorted, principal_axes

    axes = principal_axes(cfg.system().tensor)
    small, y_val, big = axes.values
    rows = [
        _comment(cfg),
        "principal_small = %.10g" % small,
        "principal_y = %.10g" % y_val,
        "principal_big = %.10g" % big,
        "magnitude_sorted = %s"
        % " ".join("%.10g" % v for v in magnitude_sorted(axes)),
        "theta_p = %.10g" % axes.theta_p,
        "theta_p_alt = %.10g" % axes.theta_p_alt,
    ]
    return "\n".join(rows) + "\n"


def _synth_design(cfg, which: str):
    import numpy as np

    from .estimation import find_single_transition_axis

    if which == "sta-phi":
        theta, phi, _ = find_single_transition_axis(cfg.system(), cfg["field.b"])
        design = [(theta, phi, "sq_frequency")]
        for p in np.linspace(-90.0, 90.0, 19):
            design.append((40.0, float(p), "zq_frequency"))
        return design
    design = [
        (10.0, 0.0, "sq_frequency"),
        (40.0, 50.0, "sq_frequency"),
        (70.0, 20.0, "sq_frequency"),
        (85.0, -35.0, "sq_frequency"),
    ]
    for p in np.linspace(-90.0, 90.0, 13):
        design.append((40.0, float(p), "zq_frequency"))
    for p in np.linspace(-80.0, 80.0, 9):
        design.append((65.0, float(p), "zq_frequency"))
    return design


def cmd_synth(cfg, args) -> str:
    from .estimation import CSV_HEADER, synthesize_dataset

    dataset = synthesize_dataset(
        cfg.system(),
        b=cfg["field.b"],
        design=_synth_design(cfg, args.design),
        noise_sigma=cfg.noise_sigma(),
        field_imperfection=cfg.imperfection(),
        seed=cfg["seed"],
    )
    rows = [_comment(cfg), "# design: %s" % args.design, CSV_HEADER]
    for p in dataset.points:
        idx = "" if p.transition_index is None else str(p.transition_index)
        rows.append(
            "%.10g,%.10g,%.10g,%s,%.10g,%.10g,%s"
            % (p.theta, p.phi, p.b, p.kind, p.value, p.sigma, idx)
        )
    return "\n".join(rows) + "\n"


if __name__ == "__main__":
    sys.exit(main())
