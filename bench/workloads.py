"""The benchmark workloads.

Each workload makes its inputs from the workload seed, does a set-up step
(``setup``, run in a fresh interpreter when set-up time is measured) and then
runs units of work one after another. ``ops(i)`` lists the ops of unit ``i``
as (name, check) pairs; ``run_op`` times one check and records its verdict.
A unit is two fits for ``fit_sta_phi``, one design for ``design_sweep`` and
one CLI session (eleven ops, one per subcommand process) for
``cli_session``. Every op is checked; a failed check or an exception counts
against that op only.

A workload runs against the package named by ``pkg``: ``nvbeat`` from
``src/``, or the yardstick copy the harness times beside it. Calls into the
package go through module attributes at call time (``est.fit_hyperfine``,
not a name bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

REF_TENSOR = (166.9, 122.9, 90.0, -90.3)  # MHz, the README's reference tensor
REF_B = 40.3  # G
TRUTH = dict(a_xx=166.9, a_yy=122.9, a_zz=90.0, a=-90.3, b=40.3, phi_offset=0.0)
NOISE_MHZ = 0.2  # Gaussian noise on every line and splitting
GATE_MHZ = 0.01  # noiseless round trip bound of acceptance 6
SIGMA_GATE = 6.0  # noisy fits: every free parameter within 6 reported sigma
RATIO_GATE = 0.05  # STA amplitude ratio bound
RABI_MHZ = 14.3
CLI_ENTRY = "import sys; from %s.cli import main; sys.exit(main())"


@dataclass
class Op:
    """One measured operation: wall and CPU seconds, verdict, workload extras.

    ``cpu`` is the CPU time (user + system) the op used in this process and
    in every child process it started and waited for.
    """

    name: str
    seconds: float
    ok: bool
    detail: str = ""
    extra: dict = field(default_factory=dict)
    cpu: float = 0.0


def cpu_seconds():
    """CPU seconds used so far by this process and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def _modules(pkg):
    """(spin_core, analytic, estimation, dynamics) of package ``pkg``."""
    return tuple(importlib.import_module("%s.%s" % (pkg, m))
                 for m in ("spin_core", "analytic", "estimation", "dynamics"))


def _ref_params(pkg, factors=(1.0, 1.0, 1.0, 1.0)):
    sc = importlib.import_module(pkg + ".spin_core")
    return sc.SystemParams(
        tensor=sc.HyperfineTensor(*(float(r * f) for r, f in zip(REF_TENSOR, factors)))
    )


def run_op(name, check):
    """Run check() -> (ok, detail, extra) as an op; an exception fails it."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        ok, detail, extra = check()
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        ok, detail, extra = False, "%s: %s" % (type(exc).__name__, exc), {}
    return Op(name, time.perf_counter() - t0, ok, detail, extra, cpu_seconds() - c0)


def run_unit(wl, i, **kw):
    """All ops of unit ``i``, one after another."""
    return [run_op(name, check) for name, check in wl.ops(i, **kw)]


# ---------------------------------------------------------------------------
# fits


def sta_phi_design(theta, phi):
    """Acceptance 6 / ``synth --design sta-phi``: SQ at the STA + ZQ phi sweep."""
    design = [(theta, phi, "sq_frequency")]
    design += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90.0, 90.0, 19)]
    return design


def _perturbed_start(est, rng):
    """Truth with each tensor component scaled by 1 +- 0.2 (acceptance 6)."""
    fac = 1.0 + 0.2 * rng.choice([-1.0, 1.0], size=4)
    t = TRUTH
    return est.FitParams(
        t["a_xx"] * fac[0], t["a_yy"] * fac[1], t["a_zz"] * fac[2], t["a"] * fac[3],
        t["b"], t["phi_offset"],
    )


class FitWorkload:
    """The acceptance-6 round trip: synthesize the STA + phi-sweep design,
    add seeded noise, fit from the truth."""

    def __init__(self, seed, workdir, pkg="nvbeat"):
        self.seed = seed
        self.pkg = pkg
        self.design = None
        self.n_points = 0

    def setup(self):
        """Build the design and run the noiseless round-trip gate."""
        _, _, est, _ = _modules(self.pkg)
        params = _ref_params(self.pkg)
        theta, phi, _ = est.find_single_transition_axis(params, REF_B)
        design = sta_phi_design(theta, phi)
        ds0 = est.synthesize_dataset(params, b=REF_B, design=design)
        start = _perturbed_start(est, np.random.default_rng(7))  # acceptance 6's first start
        fit = est.fit_hyperfine(ds0, start)
        err = max(abs(getattr(fit.params, n) - TRUTH[n]) for n in ("a_xx", "a_yy", "a_zz", "a"))
        return {
            "design": design,
            "gate_ok": bool(err < GATE_MHZ),
            "gate": "noiseless round trip worst error %.3g MHz (bound %g)" % (err, GATE_MHZ),
        }

    def load(self, payload):
        self.design = [tuple(d) for d in payload["design"]]
        # an SQ design point expands to the four main lines
        self.n_points = sum(4 if kind == "sq_frequency" else 1 for _, _, kind in self.design)

    def _fit(self, noise):
        _, _, est, _ = _modules(self.pkg)
        clean = est.synthesize_dataset(_ref_params(self.pkg), b=REF_B, design=self.design)
        ds = est.ScanDataset(tuple(
            dataclasses.replace(p, value=p.value + e, sigma=NOISE_MHZ)
            for p, e in zip(clean.points, noise)
        ))
        res = est.fit_hyperfine(ds, est.FitParams(**TRUTH))
        extra = {"iterations": res.n_iterations}
        values = res.params.as_vector()
        sig = np.array([res.sigmas[n] for n in TRUTH])
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(sig))):
            return False, "non-finite fit result", extra
        for (name, truth), v, s in zip(TRUTH.items(), values, sig):
            if abs(v - truth) > SIGMA_GATE * s:
                return False, "%s = %.6g is %.3g sigma from %.6g" % (
                    name, v, abs(v - truth) / s if s > 0 else float("inf"), truth), extra
        return True, "", extra

    def ops(self, i):
        """Two fits on antithetic datasets: truth + noise and truth - noise.

        Iteration counts of the two are anti-correlated on the soft
        sta-phi valley (-0.4 to -0.5), so pairs steady the per-run rate.
        """
        rng = np.random.default_rng([self.seed, 0, i])
        noise = rng.normal(0.0, NOISE_MHZ, size=self.n_points)
        return [("fit", functools.partial(self._fit, sign * noise)) for sign in (1.0, -1.0)]


# ---------------------------------------------------------------------------
# designs


class DesignWorkload:
    """STA search, ZQ scans, sensitivities and pulse dynamics for one tensor."""

    def __init__(self, seed, workdir, pkg="nvbeat"):
        self.seed = seed
        self.pkg = pkg

    def setup(self):
        """Import the modules the sweep uses; the inputs come from the seed."""
        _modules(self.pkg)
        return {"gate_ok": True, "gate": "none"}

    def load(self, payload):
        pass

    def _design(self, i):
        sc, an, est, dyn = _modules(self.pkg)
        rng = np.random.default_rng([self.seed, 0, i])
        params = _ref_params(self.pkg, rng.uniform(0.9, 1.1, size=4))
        b = float(rng.uniform(20.0, 60.0))
        t0 = time.perf_counter()
        theta, phi, ratio = est.find_single_transition_axis(params, b)
        extra = {"sta_s": time.perf_counter() - t0}
        if not ratio < RATIO_GATE:
            return False, "STA amplitude ratio %.4g" % ratio, extra
        trace_4d = 4.0 * params.d
        scan = [(float(a), phi) for a in np.arange(0.0, 90.0 + 1e-9, 2.0)]
        scan += [(40.0, float(a)) for a in np.arange(-90.0, 90.0 + 1e-9, 2.0)]
        for th, ph in scan:
            f = sc.FieldOrientation(b, th, ph)
            eig = sc.eigensystem(sc.build_hamiltonian(params, f))
            total = float(np.sum(eig.values))
            if abs(total - trace_4d) > 1e-9 * trace_4d:
                return False, "eigenvalue sum %.12g != 4D at theta=%g phi=%g" % (
                    total, th, ph), extra
            sc.zero_quantum_splitting_exact(eig)
            an.delta_perturbative(params, f)
            try:
                sc.lambda_transition_amplitudes(eig, params.tensor, f)
            except ValueError:
                pass  # no clean Lambda system here; zq-scan prints nan
            sc.main_four_lines(eig)
        sta = sc.FieldOrientation(b, theta, phi)
        for which in ("a_xx", "a_yy", "a_zz", "a"):
            est.sensitivity_c(params, sta, which)
        rabi = dyn.simulate_rabi(
            params, sta, dyn.PulseParams(RABI_MHZ), np.linspace(0.0, 2.0 / RABI_MHZ, 801)
        )
        t_pi = dyn.pi_pulse_from_rabi(rabi)
        ramsey = dyn.simulate_zq_ramsey(
            params, sta, t_pi, 0.0, np.linspace(0.0, 20.0, 1024), rabi_amplitude=RABI_MHZ
        )
        dyn.spectrum_peaks(ramsey)
        return True, "", extra

    def ops(self, i):
        return [("design", functools.partial(self._design, i))]


# ---------------------------------------------------------------------------
# CLI


CLI_COMMANDS = (
    ("principal", ["principal"]),
    ("spectrum", ["spectrum"]),
    ("spectrum_at_sta", ["spectrum", "--at-sta"]),
    ("zq_scan_theta", ["zq-scan", "--sweep", "theta", "--start", "0", "--stop", "90", "--step", "2"]),
    ("zq_scan_phi", ["zq-scan", "--sweep", "phi", "--start", "-90", "--stop", "90", "--step", "2"]),
    ("sensitivity", ["sensitivity"]),
    ("rabi", ["rabi"]),
    ("ramsey", ["ramsey"]),
    ("synth_sta_phi", ["synth", "--design", "sta-phi"]),
    ("synth_two_theta", ["synth", "--design", "two-theta"]),
    ("fit", ["fit", "{csv}"]),
)


def cli_config_text(seed):
    t = REF_TENSOR
    return (
        "# benchmark session config: reference tensor\n"
        "tensor.a_xx = %r\ntensor.a_yy = %r\ntensor.a_zz = %r\ntensor.a = %r\n"
        "field.b = %r\nfield.theta = 40.0\nfield.phi = 90.0\n"
        "noise.sigma.sq_frequency = %r\nnoise.sigma.zq_frequency = %r\n"
        "seed = %d\n"
        % (t[0], t[1], t[2], t[3], REF_B, NOISE_MHZ, NOISE_MHZ, seed)
    )


class CliWorkload:
    """Every subcommand once per session, each as a fresh process."""

    def __init__(self, seed, workdir, pkg="nvbeat"):
        self.seed = seed
        self.pkg = pkg
        self.cfg = os.path.join(workdir, "session.cfg")
        self.csv = os.path.join(workdir, "two_theta.csv")
        self.reference = {}  # command -> stdout digest of the first session
        self.header = None

    def _argv(self, args):
        return ["--config", self.cfg] + [a.format(csv=self.csv) for a in args]

    def setup(self):
        """Write the config and make the two-theta CSV with the CLI."""
        with open(self.cfg, "w") as fh:
            fh.write(cli_config_text(self.seed))
        proc = self.plain_launcher(
            self._argv(["synth", "--design", "two-theta", "--out", self.csv]))
        ok = proc.returncode == 0 and os.path.isfile(self.csv)
        return {"gate_ok": ok, "gate": "synth two-theta exit %d %s" % (
            proc.returncode, proc.stderr.decode(errors="replace").strip())}

    def load(self, payload):
        pkg = importlib.import_module(self.pkg)
        config = importlib.import_module(self.pkg + ".config")
        self.header = ("# nvbeat %s config=%s\n" % (
            pkg.__version__, config.parse_file(self.cfg).digest())).encode()

    def command(self, name, args, launcher):
        """Run one subcommand through ``launcher(argv)`` and check its output."""
        proc = launcher(self._argv(args))
        out = proc.stdout
        if proc.returncode != 0:
            detail = "exit %d: %s" % (proc.returncode, proc.stderr.decode(errors="replace").strip())
            return False, detail, {}
        if not out.startswith(self.header):
            return False, "missing header %r" % self.header, {}
        digest = hashlib.sha256(out).hexdigest()
        if digest != self.reference.setdefault(name, digest):
            return False, "output differs from the first session", {}
        return True, "", {}

    def plain_launcher(self, argv):
        return subprocess.run(
            [sys.executable, "-c", CLI_ENTRY % self.pkg] + argv, capture_output=True
        )

    def ops(self, i, launcher=None):
        launcher = launcher or self.plain_launcher
        return [(name, functools.partial(self.command, name, args, launcher))
                for name, args in CLI_COMMANDS]


WORKLOADS = {
    "fit_sta_phi": FitWorkload,
    "design_sweep": DesignWorkload,
    "cli_session": CliWorkload,
}
