"""Golden outputs: CLI text and fit results compared exactly.

The files under ``tests/golden/`` pin the program bit for bit: the output of
every subcommand on the benchmark session config, two more ``fit`` runs,
``float.hex`` records of eleven fits, and digests of the scalar ``spin_core``
outputs on about forty (tensor, field) cases and over the 137 scan points of
one benchmark design. A change that moves any printed digit or
any bit of a fit result fails here. When a change of output is intended,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``, which
prints each file it changed and each changed record of the two JSON files,
and say why in the change log.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from nvbeat.cli import main
from nvbeat.estimation import (
    PARAM_IDS,
    _amplitude_ratios,
    FitParams,
    find_single_transition_axis,
    fit_hyperfine,
    synthesize_dataset,
)
from nvbeat.spin_core import (
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    lambda_system,
    lambda_transition_amplitudes,
    main_four_lines,
    single_quantum_transitions,
    zero_quantum_splitting_exact,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# the benchmark's CLI session: reference tensor, 40.3 G, theta 40, phi 90
SESSION_CFG = """\
tensor.a_xx = 166.9
tensor.a_yy = 122.9
tensor.a_zz = 90.0
tensor.a = -90.3
field.b = 40.3
field.theta = 40.0
field.phi = 90.0
noise.sigma.sq_frequency = 0.2
noise.sigma.zq_frequency = 0.2
seed = 101
"""

# name -> subcommand arguments; {two_theta} and {sta_phi} are CSVs that
# ``synth`` writes on the session config
CLI_CASES = {
    "principal": ["principal"],
    "spectrum": ["spectrum"],
    "spectrum_at_sta": ["spectrum", "--at-sta"],
    "zq_scan_theta": ["zq-scan", "--sweep", "theta", "--start", "0", "--stop", "90",
                      "--step", "2"],
    "zq_scan_phi": ["zq-scan", "--sweep", "phi", "--start", "-90", "--stop", "90",
                    "--step", "2"],
    "sensitivity": ["sensitivity"],
    "rabi": ["rabi"],
    "ramsey": ["ramsey"],
    "synth_sta_phi": ["synth", "--design", "sta-phi"],
    "synth_two_theta": ["synth", "--design", "two-theta"],
    "fit": ["fit", "{two_theta}"],
    "fit_bootstrap": ["fit", "{two_theta}", "--bootstrap", "3"],
    "fit_sta_phi": ["fit", "{sta_phi}"],
}

SYS = SystemParams(tensor=HyperfineTensor(166.9, 122.9, 90.0, -90.3))
TRUTH = FitParams(a_xx=166.9, a_yy=122.9, a_zz=90.0, a=-90.3, b=40.3, phi_offset=0.0)
NOISE = {"sq_frequency": 0.2, "zq_frequency": 0.2}
TWO_THETA = [
    (10.0, 0.0, "sq_frequency"),
    (40.0, 50.0, "sq_frequency"),
    (70.0, 20.0, "sq_frequency"),
    (85.0, -35.0, "sq_frequency"),
]
TWO_THETA += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90, 90, 13)]
TWO_THETA += [(65.0, float(p), "zq_frequency") for p in np.linspace(-80, 80, 9)]
TWO_THETA_START = FitParams(170.2, 120.4, 91.8, -88.5, 40.3, 0.0)


def cli_outputs(workdir):
    """name -> output text of every case in CLI_CASES."""
    cfg = os.path.join(workdir, "session.cfg")
    with open(cfg, "w") as fh:
        fh.write(SESSION_CFG)
    csvs = {name: os.path.join(workdir, name + ".csv") for name in ("two_theta", "sta_phi")}
    for name, path in csvs.items():
        design = name.replace("_", "-")
        assert main(["--config", cfg, "--out", path, "synth", "--design", design]) == 0
    out = os.path.join(workdir, "out.txt")
    texts = {}
    for name, args in CLI_CASES.items():
        argv = [a.format(**csvs) for a in args]
        assert main(["--config", cfg, "--out", out] + argv) == 0, name
        with open(out) as fh:
            texts[name] = fh.read()
    return texts


def _record(result):
    """A FitResult as JSON-ready text; floats as float.hex."""
    return {
        "params": [float(x).hex() for x in result.params.as_vector()],
        "sigmas": [float(result.sigmas[n]).hex() for n in PARAM_IDS],
        "chi2": float(result.chi2).hex(),
        "n_iterations": result.n_iterations,
        "converged": bool(result.converged),
        "residuals": [float(x).hex() for x in result.residuals],
        "stop_reason": result.stop_reason,
        "n_rejected": result.n_rejected,
    }


def fit_records():
    """name -> ``_record`` of each pinned fit.

    Besides the noisy fits from near the truth, one fit for each branch of
    the iteration: the damping cap, the pass cap, the plain chart (a_zz and
    a fixed), a start at r = 0 that enters the valley chart mid-fit, the
    (r, psi) chart with a_xx fixed, and a walk that ends on the far (a,
    phi_offset) branch and reports the principal one.
    """
    theta, phi, _ = find_single_transition_axis(SYS, 40.3)
    sta_phi = [(theta, phi, "sq_frequency")]
    sta_phi += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90.0, 90.0, 19)]
    # acceptance 6's first start: the truth's tensor scaled by 1 +- 0.2
    fac = 1.0 + 0.2 * np.random.default_rng(7).choice([-1.0, 1.0], size=4)
    a6_start = FitParams(*(v * f for v, f in zip(TRUTH.as_vector()[:4], fac)), b=40.3)
    records = {}
    for seed in (100, 101):
        ds = synthesize_dataset(SYS, b=40.3, design=sta_phi, noise_sigma=NOISE, seed=seed)
        records["sta_phi_seed%d" % seed] = _record(fit_hyperfine(ds, TRUTH))
        if seed == 100:
            records["sta_phi_seed100_max5"] = _record(
                fit_hyperfine(ds, a6_start, max_iterations=5))
    ds = synthesize_dataset(SYS, b=40.3, design=sta_phi)
    records["sta_phi_noiseless"] = _record(fit_hyperfine(ds, a6_start))
    ds = synthesize_dataset(SYS, b=40.3, design=TWO_THETA, noise_sigma=NOISE, seed=5)
    for name, fixed in (
        ("two_theta_b_free", ()),
        ("two_theta_b_fixed", ("b",)),
        ("two_theta_b_phi_fixed", ("b", "phi_offset")),
    ):
        records[name] = _record(fit_hyperfine(ds, TWO_THETA_START, fixed=frozenset(fixed)))
    far = FitParams(170.2, 120.4, 91.8, -88.5, 40.3, 180.0)
    records["two_theta_far_branch"] = _record(fit_hyperfine(ds, far))
    ds = synthesize_dataset(SYS, b=40.3, design=TWO_THETA)
    records["two_theta_noiseless_r0"] = _record(
        fit_hyperfine(ds, FitParams(170.0, 120.0, 0.0, 0.0, 40.3), fixed={"b"}))
    records["two_theta_noiseless_a_xx_fixed"] = _record(fit_hyperfine(
        ds, FitParams(166.9, 122.9, 80.0, -80.0, 40.3), fixed={"a_xx"}))
    sweep = [(40.0, float(p), "zq_frequency") for p in np.linspace(0.0, 345.0, 24)]
    ds = synthesize_dataset(SYS, b=40.3, design=sweep, field_imperfection=(1.0, 120.0, 0.0))
    records["phi_sweep_a_zz_a_fixed"] = _record(
        fit_hyperfine(ds, TRUTH, fixed={"a_zz", "a", "b", "phi_offset"}))
    return records


def _digest(*outputs):
    """sha256 of the ``float.hex`` of every number in outputs (ints as text).

    Arrays count element by element, complex numbers as real then imaginary
    part, so a signed zero or a last bit anywhere changes the digest.
    """
    words = []
    for out in outputs:
        for x in np.ravel(np.asarray(out)):
            if isinstance(x, (np.integer, int)):
                words.append(str(int(x)))
            else:
                x = complex(x)
                words += [x.real.hex(), x.imag.hex()]
    return hashlib.sha256(" ".join(words).encode()).hexdigest()


def _turn(i, j, deg):
    """The 6x6 rotation by deg between basis states i and j."""
    u = np.eye(6)
    c, s = math.cos(math.radians(deg)), math.sin(math.radians(deg))
    u[[i, i, j, j], [i, j, i, j]] = [c, -s, s, c]
    return u


def scalar_cases():
    """name -> (params, field, matrix or None) for the scalar-layer records.

    A case with a matrix diagonalizes that matrix instead of the case's
    Hamiltonian (the Lambda calls still take the case's tensor and field).
    """
    ref = HyperfineTensor(166.9, 122.9, 90.0, -90.3)
    zero = HyperfineTensor(0.0, 0.0, 0.0, 0.0)
    flat = HyperfineTensor(150.0, 120.0, 0.0, 0.0)
    zz = HyperfineTensor(0.0, 0.0, 1.0, 0.0)
    cases = {
        "ref_theta0": (ref, (40.3, 0.0, 0.0)),
        "ref_theta0_phi90": (ref, (40.3, 0.0, 90.0)),
        "ref_theta40_phi90": (ref, (40.3, 40.0, 90.0)),
        "ref_theta90": (ref, (40.3, 90.0, 90.0)),  # LAMBDA_REASONS 1
        "ref_theta90_phi0": (ref, (40.3, 90.0, 0.0)),
        "ref_sta": (ref, (40.3, 5.008965663741781, 0.0)),
        "ref_phi_rounds_to_360": (ref, (37.5, 12.0, -3.2751579226442118e-15)),
        "ref_theta180": (ref, (40.3, 180.0, 45.0)),
        "ref_b0": (ref, (0.0, 0.0, 0.0)),
        "ref_1200G_theta2": (ref, (1200.0, 2.0, 30.0)),  # above the ms0/ms-1 crossing
        "ref_1098G_theta20": (ref, (1098.0, 20.0, 0.0)),  # no labelling
        "zero_b0": (zero, (0.0, 0.0, 0.0)),
        "zero_30G_theta0": (zero, (30.0, 0.0, 0.0)),  # LAMBDA_REASONS 2
        "zero_30G_theta60": (zero, (30.0, 60.0, 210.0)),
        "flat_theta40": (flat, (40.3, 40.0, 90.0)),  # LAMBDA_REASONS 2
        "a0_theta0": (HyperfineTensor(100.0, 80.0, 60.0, 0.0), (40.3, 0.0, 0.0)),
    }
    rng = np.random.default_rng(1300)
    for k in range(20):
        tensor = HyperfineTensor(*(float(x) for x in rng.uniform(-200, 200, size=4)))
        field = tuple(float(x) for x in rng.uniform([0, 0, -360], [80, 180, 360]))
        cases["random_%02d" % k] = (tensor, field)
    out = {
        name: (SystemParams(tensor=t), FieldOrientation(*f), None)
        for name, (t, f) in cases.items()
    }
    params = SystemParams(tensor=ref)
    field = FieldOrientation(40.3, 40.0, 90.0)
    skew = build_hamiltonian(params, field)
    skew[0, 1] += 1.0
    # the lowest state half ms_plus, half ms0
    half = _turn(0, 2, -45.0)
    # states 0, 2 and 3 each 2/3 ms0: the third takes a full manifold
    third = np.eye(6)
    third[np.ix_([2, 3, 0], [2, 3, 0])] = [
        np.array([1, -1, 0]) / math.sqrt(2),
        np.array([1, 1, -2]) / math.sqrt(6),
        np.array([1, 1, 1]) / math.sqrt(3),
    ]
    def turned(u):
        return u @ np.diag(np.arange(6.0)) @ u.T

    matrices = {
        "eigen_not_hermitian": (params, skew),  # EIGEN_REASONS 1
        "eigen_ambiguous": (params, turned(half)),  # EIGEN_REASONS 2
        "eigen_ground_unresolved": (params, turned(third)),  # EIGEN_REASONS 3
        # both ms_minus states overlap alpha_minus of zz within 5 %
        "lambda_ambiguous": (SystemParams(tensor=zz), turned(_turn(4, 5, 44.5))),
        # 0.587 pure ms_minus states: the first reason that holds wins
        "lambda_impure_first": (SystemParams(tensor=zz), turned(
            _turn(4, 5, 44.5) @ _turn(0, 4, 50.0) @ _turn(1, 5, 50.0))),
    }
    for name, (p, m) in matrices.items():
        out[name] = (p, field, m)
    return out


def _outcome(fn, *args):
    """(True, fn(*args)) or (False, the text of the ValueError it raises)."""
    try:
        return True, fn(*args)
    except ValueError as exc:
        return False, "error: %s" % exc


def scalar_layer_records():
    """name -> {output: digest or error text} for every ``scalar_cases`` case."""
    records = {}
    for name, (params, field, matrix) in scalar_cases().items():
        h = build_hamiltonian(params, field)
        rec = {"build_hamiltonian": _digest(h)}
        ok, eig = _outcome(eigensystem, h if matrix is None else matrix)
        if not ok:
            rec["eigensystem"] = eig
            records[name] = rec
            continue
        rec["eigensystem.values"] = _digest(eig.values)
        rec["eigensystem.vectors"] = _digest(eig.vectors)
        rec["eigensystem.labels"] = _digest(eig.labels)
        for fn in (single_quantum_transitions, main_four_lines):
            rec[fn.__name__] = _digest(*(
                (ln.frequency, ln.amplitude, ln.from_state, ln.to_state) for ln in fn(eig)
            ))
        rec["zero_quantum_splitting_exact"] = _digest(zero_quantum_splitting_exact(eig))
        for fn in (lambda_transition_amplitudes, lambda_system):
            ok, out = _outcome(fn, eig, params.tensor, field)
            rec[fn.__name__] = _digest(*out) if ok else out
        records[name] = rec
    return {**records, **sta_grid_records(), **design_scan_records()}


# the benchmark's design_sweep, seed 101 unit 0: its tensor (the reference
# times seeded factors), field and STA azimuth, as that design derives them
DESIGN_SCAN_TENSOR = HyperfineTensor(
    181.7051150372803, 119.44456899953587, 95.1264974154596, -91.94848402524318
)
DESIGN_SCAN_B, DESIGN_SCAN_PHI = 31.773142447877127, 0.0


def design_scan_records():
    """{"design_scan_seed101_unit0": {output: digest}} over that design's scan.

    The 137 points are theta 0..90 at the STA azimuth and phi -90..90 at
    theta 40, both in 2 degree steps, each through the scalar calls the
    design makes. A Lambda call that raises counts by its error text.
    """
    params = SystemParams(tensor=DESIGN_SCAN_TENSOR)
    scan = [(float(a), DESIGN_SCAN_PHI) for a in np.arange(0.0, 90.0 + 1e-9, 2.0)]
    scan += [(40.0, float(a)) for a in np.arange(-90.0, 90.0 + 1e-9, 2.0)]
    words = {}
    for th, ph in scan:
        field = FieldOrientation(DESIGN_SCAN_B, th, ph)
        h = build_hamiltonian(params, field)
        eig = eigensystem(h)
        point = {
            "build_hamiltonian": _digest(h),
            "eigensystem": _digest(eig.values, eig.vectors, eig.labels),
            "zero_quantum_splitting_exact": _digest(zero_quantum_splitting_exact(eig)),
            "main_four_lines": _digest(*(
                (ln.frequency, ln.amplitude, ln.from_state, ln.to_state)
                for ln in main_four_lines(eig)
            )),
        }
        for fn in (lambda_transition_amplitudes, lambda_system):
            ok, out = _outcome(fn, eig, params.tensor, field)
            point[fn.__name__] = _digest(*out) if ok else out
        for key, word in point.items():
            words.setdefault(key, []).append(word)
    return {"design_scan_seed101_unit0": {
        key: hashlib.sha256(" ".join(ws).encode()).hexdigest() for key, ws in words.items()
    }}


def sta_grid_records():
    """name -> {"_amplitude_ratios": digest} over the STA search's coarse grid.

    The grid is theta 0..90 by phi 0..90 at 2 degrees, the mirrored half the
    search solves, in its stacks of five theta rows; for the reference
    tensor at 40.3 G and two seeded tensors (reference +-10 %, 20-60 G).
    """
    rng = np.random.default_rng(2020)
    cases = {"sta_grid_ref": (SYS, 40.3)}
    for k in range(2):
        t = [r * f for r, f in zip((166.9, 122.9, 90.0, -90.3), rng.uniform(0.9, 1.1, 4))]
        cases["sta_grid_seeded_%d" % k] = (
            SystemParams(tensor=HyperfineTensor(*(float(x) for x in t))),
            float(rng.uniform(20.0, 60.0)),
        )
    thetas = phis = np.arange(0.0, 90.0 + 1e-9, 2.0)
    return {
        name: {"_amplitude_ratios": _digest(*(
            _amplitude_ratios(params, b, thetas[k : k + 5, None], phis)
            for k in range(0, len(thetas), 5)
        ))}
        for name, (params, b) in cases.items()
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return cli_outputs(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_golden(outputs, name):
    with open(os.path.join(GOLDEN, "cli_%s.txt" % name)) as fh:
        assert outputs[name] == fh.read()


def test_fit_results_are_golden():
    with open(os.path.join(GOLDEN, "fits.json")) as fh:
        want = json.load(fh)
    got = fit_records()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_scalar_layer_is_golden():
    with open(os.path.join(GOLDEN, "scalar_layer.json")) as fh:
        want = json.load(fh)
    got = scalar_layer_records()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def _rewrite(name, text):
    """Write one golden file; print its name when it changed. Returns the old text."""
    path = os.path.join(GOLDEN, name)
    old = open(path).read() if os.path.exists(path) else None
    if text != old:
        with open(path, "w") as fh:
            fh.write(text)
        print("rewrote %s" % name)
    return old


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cli_outputs(tmp).items():
            _rewrite("cli_%s.txt" % name, text)
    for name, records in (("fits.json", fit_records()),
                          ("scalar_layer.json", scalar_layer_records())):
        old = _rewrite(name, json.dumps(records, indent=1, sort_keys=True) + "\n")
        old = json.loads(old) if old else {}
        for key in sorted(set(old) | set(records)):
            if old.get(key) != records.get(key):
                print("  record %s" % key)
