"""Command-line interface.

Subcommands: spectrum | zq-scan | rabi | ramsey | fit | sensitivity |
principal | synth. Global flags: --config PATH, --seed N, --out PATH.
Every CSV output starts with a comment line carrying the toolkit version and
the digest of the effective configuration; reruns with the same
configuration and seed are byte-identical.

Heavy modules are imported inside main() so it can cap the BLAS thread pools
at one thread before numpy starts them: every solve here is a batch of 6x6
matrices, too small for a second thread. A pool size set in the
environment wins.
"""

from __future__ import annotations

import argparse
import os
import sys


def _build_parser():
    # global flags live on a parent so they are accepted before or after the
    # subcommand; SUPPRESS keeps the subparser from clobbering a value given
    # up front
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", metavar="PATH", help="configuration file")
    common.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    common.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    at_sta = argparse.ArgumentParser(add_help=False)
    at_sta.add_argument(
        "--at-sta",
        action="store_true",
        help="evaluate at the single-transition axis instead of the config field",
    )
    ap = argparse.ArgumentParser(
        prog="nvbeat",
        description="NV-13C spin simulation and hyperfine-tensor estimation",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, handler, parents=(), **kw):
        p = sub.add_parser(name, parents=[common, *parents], **kw)
        p.set_defaults(handler=handler)
        return p

    add("spectrum", cmd_spectrum, [at_sta], help="single-quantum transition lines")

    p = add("zq-scan", cmd_zq_scan, help="zero-quantum splitting vs field angle")
    p.add_argument("--sweep", choices=("theta", "phi"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)

    add("rabi", cmd_rabi, [at_sta], help="driven ms0 population trace")
    add("ramsey", cmd_ramsey, [at_sta], help="zero-quantum Ramsey trace")

    p = add("fit", cmd_fit, help="fit the hyperfine tensor to a scan CSV")
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

    add("sensitivity", cmd_sensitivity, [at_sta],
        help="exact line-shift slopes per tensor component")
    add("principal", cmd_principal, help="principal values and theta_P")

    p = add("synth", cmd_synth, help="generate a synthetic scan dataset")
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
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def _run(args) -> int:
    from . import __version__
    from .config import RunConfig, _validate, parse, parse_file

    config_path = getattr(args, "config", None)
    if config_path:
        cfg = parse_file(config_path)
    else:
        cfg = parse("")
    seed = getattr(args, "seed", None)
    if seed is not None:
        values = {**cfg.values, "seed": seed}
        _validate(values, "--seed")
        cfg = RunConfig(values)
    rows = ["# nvbeat %s config=%s" % (__version__, cfg.digest())]
    rows += args.handler(cfg, cfg.system(), args)
    text = "\n".join(rows) + "\n"
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return 0


def _lambda_inputs(cfg, params, at_sta: bool):
    """Refuse by its config keys a run whose Lambda system is undefined."""
    if params.tensor.a_zz == 0.0 and params.tensor.a == 0.0:
        raise ValueError("tensor.a_zz = tensor.a = 0: the excited level has no quantization axis")
    if at_sta and cfg["field.b"] == 0.0:
        raise ValueError("field.b = 0: the single-transition axis needs a field")


def _resolved_field(cfg, params, at_sta: bool):
    if not at_sta:
        return cfg.field_nv()
    _lambda_inputs(cfg, params, True)
    from .estimation import find_single_transition_axis
    from .spin_core import FieldOrientation

    theta, phi, _ = find_single_transition_axis(params, cfg["field.b"])
    return FieldOrientation(b=cfg["field.b"], theta=theta, phi=phi)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg, params, args) -> list:
    from .config import csv_row
    from .spin_core import (MANIFOLD_LABELS, build_hamiltonian, eigensystem,
                            single_quantum_transitions)

    field = _resolved_field(cfg, params, args.at_sta)
    eig = eigensystem(build_hamiltonian(params, field))
    lines = single_quantum_transitions(eig)
    # merge degenerate lines within a branch (a zero tensor collapses each
    # branch to one line)
    merged = []
    for ln in lines:
        branch = MANIFOLD_LABELS[eig.labels[ln.to_state]]
        same = [m for m in merged if m[2] == branch and abs(ln.frequency - m[0]) < 1e-9]
        if same:
            same[-1][1] += ln.amplitude
        else:
            merged.append([ln.frequency, ln.amplitude, branch])
    rows = [
        "# field: b=%.6g G theta=%.6g phi=%.6g (NV frame)"
        % (field.b, field.theta, field.phi),
        "frequency_mhz,amplitude,branch",
    ]
    rows += [csv_row(*m) for m in merged]
    return rows


_MAX_SCAN_ANGLES = 65536  # the most angles one zq-scan solves: 0.003 deg steps over 180


def cmd_zq_scan(cfg, params, args) -> list:
    import numpy as np

    from .analytic import delta_perturbative
    from .config import csv_row
    from .estimation import MIN_SIGMA, ScanPoint, model_values
    from .spin_core import FieldOrientation

    if not np.isfinite([args.start, args.stop, args.step]).all():
        raise ValueError("sweep start, stop and step must be finite")
    if args.step <= 0:
        raise ValueError("sweep step must be positive")
    count = np.ceil((args.stop + 1e-9 * args.step - args.start) / args.step)  # arange's length
    if count > _MAX_SCAN_ANGLES:
        raise ValueError("a sweep of %.0f angles exceeds the cap of %d" % (count, _MAX_SCAN_ANGLES))
    angles = np.arange(args.start, args.stop + 1e-9 * args.step, args.step)
    if len(angles) == 0:
        raise ValueError("empty sweep range")
    # theta is a polar angle; phi wraps, so any azimuth is fine
    if args.sweep == "theta" and (angles.min() < 0.0 or angles.max() > 180.0):
        raise ValueError("theta sweep outside [0, 180]")
    base = cfg.field_nv()
    theta, phi = (angles, base.phi) if args.sweep == "theta" else (base.theta, angles)
    fields = [FieldOrientation(base.b, float(t), float(p)) for t, p in np.broadcast(theta, phi)]
    exact, beat = model_values(params, [
        ScanPoint(f.theta, f.phi, f.b, kind, 0.0, MIN_SIGMA)
        for kind in ("zq_frequency", "zq_amplitude")
        for f in fields
    ]).reshape(2, -1)
    rows = ["angle_deg,delta_exact_mhz,delta_perturbative_mhz,beat_amplitude"]
    for ang, field, ex, amp in zip(angles, fields, exact, beat):
        pert = delta_perturbative(params, field)
        rows.append(csv_row(ang, ex, pert, amp))
    return rows


def _trace_rows(trace, peaks) -> list:
    from .config import csv_row

    rows = ["tau_us,signal"]
    rows += [csv_row(t, s) for t, s in zip(trace.tau, trace.signal)]
    for k in range(len(peaks.frequency)):
        rows.append(
            "# peak %d: %.4f MHz (magnitude %.6g)"
            % (k + 1, peaks.frequency[k], peaks.magnitude[k])
        )
    if len(peaks.frequency) == 0:
        rows.append("# no peaks")
    return rows


def cmd_rabi(cfg, params, args) -> list:
    import numpy as np

    from .dynamics import PulseParams, simulate_rabi, spectrum_peaks

    _lambda_inputs(cfg, params, False)
    field = _resolved_field(cfg, params, args.at_sta)
    amp = cfg["sequence.rabi_amplitude"]
    # four nominal Rabi periods; tau_max is the free-evolution scale, not this
    t_grid = np.linspace(0.0, 4.0 / amp, cfg["sequence.n_points"])
    pulse = PulseParams(rabi_amplitude=amp, carrier_detuning=cfg["sequence.detuning"])
    trace = simulate_rabi(params, field, pulse, t_grid)
    return _trace_rows(trace, spectrum_peaks(trace))


def _pi_duration(cfg, params, field) -> float:
    import numpy as np

    from .dynamics import PulseParams, pi_pulse_from_rabi, simulate_rabi

    setting = cfg["sequence.pi_duration"]
    if setting != "auto":
        return float(setting)
    amp = cfg["sequence.rabi_amplitude"]
    t_grid = np.linspace(0.0, 2.0 / amp, 801)
    trace = simulate_rabi(params, field, PulseParams(rabi_amplitude=amp), t_grid)
    return pi_pulse_from_rabi(trace)


def cmd_ramsey(cfg, params, args) -> list:
    import numpy as np

    from .dynamics import apply_dephasing, simulate_zq_ramsey, spectrum_peaks
    from .spin_core import build_hamiltonian, eigensystem, zero_quantum_splitting_exact

    _lambda_inputs(cfg, params, False)
    if cfg["field.b"] == 0.0:
        raise ValueError("field.b = 0: the ms0 pair is degenerate, so there is no ZQ beat")
    field = _resolved_field(cfg, params, args.at_sta)
    nyquist = (cfg["sequence.n_points"] - 1) / (2 * cfg["sequence.tau_max"])
    zq = zero_quantum_splitting_exact(eigensystem(build_hamiltonian(params, field)))
    if not zq < nyquist:
        raise ValueError("sequence.tau_max = %g and sequence.n_points = %d resolve up to %.6g "
                         "MHz, not the ZQ splitting %.6g MHz: the beat would alias"
                         % (cfg["sequence.tau_max"], cfg["sequence.n_points"], nyquist, zq))
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
    return _trace_rows(trace, spectrum_peaks(trace))


def cmd_fit(cfg, params, args) -> list:
    from dataclasses import astuple

    from .config import csv_row
    from .estimation import CSV_HEADER, PARAM_IDS, FitParams, fit_hyperfine, read_dataset

    if args.bootstrap < 0:
        raise ValueError("--bootstrap must be >= 0")
    dataset = read_dataset(args.dataset)
    fixed = frozenset(args.fix)
    initial = FitParams(*astuple(params.tensor), b=cfg["field.b"])
    result = fit_hyperfine(dataset, initial, fixed=fixed, params=params)
    rows = []
    for name, value in zip(PARAM_IDS, astuple(result.params)):
        spread = "(fixed)" if name in fixed else "+- %.4g" % result.sigmas[name]
        rows.append("%s = %.10g %s" % (name, value, spread))
    dof = result.dof
    if dof > 0 and result.chi2 > dof + 10.0 * (2.0 * dof) ** 0.5:
        print("warning: chi2 = %.4g on %d dof: the model does not explain the data"
              % (result.chi2, dof), file=sys.stderr)
    rows.append("chi2 = %.10g" % result.chi2)
    rows.append("dof = %d" % dof)
    rows.append("iterations = %d" % result.n_iterations)
    rows.append("converged = %s" % ("yes" if result.converged else "no"))
    rows.append("stop_reason = %s" % result.stop_reason)
    if args.bootstrap > 0:
        sig = _bootstrap_sigmas(dataset, result, fixed, args.bootstrap, cfg["seed"], params)
        for name in PARAM_IDS:
            if name not in fixed:
                rows.append("bootstrap_sigma.%s = %.4g" % (name, sig[name]))
    rows.append("")
    rows.append(CSV_HEADER + ",model,residual")
    for p, res in zip(dataset.points, result.residuals):
        rows.append(csv_row(*astuple(p), p.value - res, res))
    return rows


def _bootstrap_sigmas(dataset, result, fixed, n_draws, seed, params) -> dict:
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
        draw = ScanDataset(_dc.replace(p, value=float(v)) for p, v in zip(dataset.points, values))
        try:
            r = fit_hyperfine(draw, result.params, fixed=fixed, params=params)
        except ValueError:
            continue
        if r.converged:  # a refit stopped at max_iterations is no draw
            draws.append(r.params.as_vector())
    if len(draws) < 2:
        raise ValueError(
            "bootstrap failed: %d of %d refits usable" % (len(draws), n_draws)
        )
    spread = np.std(np.array(draws), axis=0, ddof=1)
    return {name: float(spread[k]) for k, name in enumerate(PARAM_IDS)}


def cmd_sensitivity(cfg, params, args) -> list:
    from .estimation import sensitivity_c

    field = _resolved_field(cfg, params, args.at_sta)
    rows = [
        "# field: b=%.6g G theta=%.6g phi=%.6g (NV frame)"
        % (field.b, field.theta, field.phi),
        "parameter  c_value  slopes(line0..line3)",
    ]
    for name in ("a_xx", "a_yy", "a_zz", "a"):
        rep = sensitivity_c(params, field, name)
        rows.append(
            "%-9s  %.4f  %s"
            % (name, rep.c_value, " ".join("%+.4f" % s for s in rep.slopes))
        )
    return rows


def cmd_principal(cfg, params, args) -> list:
    from .tensor_geometry import principal_axes

    axes = principal_axes(params.tensor)
    small, y_val, big = axes.values
    rows = [
        "principal_small = %.10g" % small,
        "principal_y = %.10g" % y_val,
        "principal_big = %.10g" % big,
        "magnitude_sorted = %s"
        % " ".join("%.10g" % v for v in sorted(axes.values, key=abs, reverse=True)),
        "theta_p = %.10g" % axes.theta_p,
        "theta_p_alt = %.10g" % axes.theta_p_alt,
    ]
    return rows


def _synth_design(cfg, params, which: str):
    import numpy as np

    from .estimation import find_single_transition_axis

    if which == "sta-phi":
        _lambda_inputs(cfg, params, True)
        theta, phi, _ = find_single_transition_axis(params, cfg["field.b"])
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


def cmd_synth(cfg, params, args) -> list:
    from dataclasses import astuple

    from .config import csv_row
    from .estimation import CSV_HEADER, synthesize_dataset

    dataset = synthesize_dataset(
        params,
        b=cfg["field.b"],
        design=_synth_design(cfg, params, args.design),
        noise_sigma=cfg.noise_sigma(),
        field_imperfection=cfg.imperfection(),
        seed=cfg["seed"],
    )
    rows = ["# design: %s" % args.design, CSV_HEADER]
    rows += [csv_row(*astuple(p)) for p in dataset.points]
    return rows


if __name__ == "__main__":
    sys.exit(main())
