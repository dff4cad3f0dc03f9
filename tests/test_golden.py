"""Golden outputs: CLI text and fit results compared exactly.

The files under ``tests/golden/`` pin the program bit for bit: the output of
every subcommand on the benchmark session config, two more ``fit`` runs, and
``float.hex`` records of five fits. A change that moves any printed digit or
any bit of a fit result fails here. When a change of output is intended,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and say
why in the change log.
"""

import json
import os

import numpy as np
import pytest

from nvbeat.cli import main
from nvbeat.estimation import (
    PARAM_IDS,
    FitParams,
    find_single_transition_axis,
    fit_hyperfine,
    synthesize_dataset,
)
from nvbeat.spin_core import HyperfineTensor, SystemParams

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
    }


def fit_records():
    """name -> ``_record`` of each pinned fit."""
    theta, phi, _ = find_single_transition_axis(SYS, 40.3)
    sta_phi = [(theta, phi, "sq_frequency")]
    sta_phi += [(40.0, float(p), "zq_frequency") for p in np.linspace(-90.0, 90.0, 19)]
    records = {}
    for seed in (100, 101):
        ds = synthesize_dataset(SYS, b=40.3, design=sta_phi, noise_sigma=NOISE, seed=seed)
        records["sta_phi_seed%d" % seed] = _record(fit_hyperfine(ds, TRUTH))
    ds = synthesize_dataset(SYS, b=40.3, design=TWO_THETA, noise_sigma=NOISE, seed=5)
    for name, fixed in (
        ("two_theta_b_free", ()),
        ("two_theta_b_fixed", ("b",)),
        ("two_theta_b_phi_fixed", ("b", "phi_offset")),
    ):
        records[name] = _record(fit_hyperfine(ds, TWO_THETA_START, fixed=frozenset(fixed)))
    return records


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


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cli_outputs(tmp).items():
            with open(os.path.join(GOLDEN, "cli_%s.txt" % name), "w") as fh:
                fh.write(text)
    with open(os.path.join(GOLDEN, "fits.json"), "w") as fh:
        json.dump(fit_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
