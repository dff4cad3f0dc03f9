"""Config parsing, frame conversion, and the command-line front end."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nvbeat import estimation
from nvbeat.cli import main
from nvbeat.config import ConfigError, csv_row, lab_to_nv, parse
from nvbeat.dynamics import apply_dephasing, simulate_zq_ramsey, spectrum_peaks
from nvbeat.spin_core import SystemParams

TABLE_CFG = """\
tensor.a_xx = 166.9
tensor.a_yy = 122.9
tensor.a_zz = 90.0
tensor.a = -90.3
field.b = 40.3
field.theta = 40
field.phi = 90
"""


def test_parse_defaults():
    cfg = parse("")
    assert cfg.system() == SystemParams()
    assert cfg["constants.d"] == 2870.0
    assert cfg["constants.gamma_e"] == 2.8025
    assert cfg["constants.gamma_n"] == 0.0010705
    assert cfg["field.b"] == 40.3
    assert cfg["sequence.pi_duration"] == "auto"


def test_digest_tracks_values():
    base = parse("")
    assert len(base.digest()) == 12
    assert parse("# just a comment\n").digest() == base.digest()
    assert parse("field.b = 40.3\n").digest() == base.digest()
    assert parse("field.b = 41.0\n").digest() != base.digest()
    assert parse("seed = 3\n").digest() != base.digest()


def test_parse_errors_carry_location():
    with pytest.raises(ConfigError, match=r"t\.cfg:2: expected 'key = value'"):
        parse("field.b = 40\nnot an assignment\n", name="t.cfg")
    with pytest.raises(ConfigError, match=r"t\.cfg:1: unknown key 'bogus\.key'"):
        parse("bogus.key = 1\n", name="t.cfg")
    with pytest.raises(ConfigError, match=r"t\.cfg:1: field\.b: expected a number"):
        parse("field.b = forty\n", name="t.cfg")
    with pytest.raises(ConfigError, match="expected one of NV/LAB"):
        parse("field.frame = XYZ\n")
    with pytest.raises(ConfigError, match=r"field\.theta out of range"):
        parse("field.theta = 200\n")
    with pytest.raises(ConfigError, match="tau_max must be positive"):
        parse("sequence.tau_max = 0\n")
    for n in (1, 15, 2**20 + 1, 10**15):
        with pytest.raises(ConfigError, match=re.escape(
                "t.cfg: sequence.n_points must be in [16, 2**20]: the peak finder needs 16 "
                "samples")):
            parse("sequence.n_points = %d\n" % n, name="t.cfg")
    for n in (16, 2**20):
        assert parse("sequence.n_points = %d\n" % n)["sequence.n_points"] == n
    with pytest.raises(ConfigError, match=r"field\.b must be >= 0"):
        parse("field.b = -1\n")
    for key in ("field.b", "field.phi", "tensor.a", "sequence.tau_max"):
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=re.escape(
                    "t.cfg:1: %s: expected a finite number" % key)):
                parse("%s = %s\n" % (key, text), name="t.cfg")


def test_parse_bounds_the_sequence_by_its_grids():
    # the rotating-wave drive stays at most D / 100; the free-evolution grid,
    # Nyquist (n_points - 1) / (2 tau_max), must resolve the 13C Larmor
    # frequency and the detuned carrier; each error names the file and key
    grid = "the free-evolution grid's Nyquist frequency (n_points - 1) / (2 tau_max) = "
    for text, message in (
        ("sequence.rabi_amplitude = 1e300", "sequence.rabi_amplitude must be at most "
         "constants.d / 100 = 28.7 MHz"),
        ("constants.d = 1000\nsequence.rabi_amplitude = 10.5", "sequence.rabi_amplitude "
         "must be at most constants.d / 100 = 10 MHz"),
        ("sequence.tau_max = 1e300", "sequence.tau_max must leave " + grid + "5.115e-298 MHz "
         "above the 13C Larmor frequency |gamma_n| b = 0.0431411 MHz"),
        ("sequence.n_points = 16\nsequence.tau_max = 174", "sequence.tau_max must leave "
         + grid + "0.0431034 MHz above"),
        ("sequence.detuning = 1e300", "|sequence.detuning| must be below " + grid + "25.575 MHz"),
        ("sequence.detuning = -25.575", "|sequence.detuning| must be below"),
        ("sequence.n_points = 256\nsequence.detuning = 7", "|sequence.detuning| must be "
         "below " + grid + "6.375 MHz"),
    ):
        with pytest.raises(ConfigError, match=re.escape("t.cfg: " + message)):
            parse(text + "\n", name="t.cfg")
    # the reference grid and the smoke test's coarser one pass, up to the bounds
    for text in ("sequence.rabi_amplitude = 28.7\nsequence.detuning = -25.5",
                 "sequence.n_points = 256\nsequence.detuning = 6.3",
                 "sequence.n_points = 16\nsequence.tau_max = 173"):
        parse(text + "\n", name="t.cfg")


def test_parse_rejects_out_of_range_values():
    for text in ("0", "-2.5"):
        with pytest.raises(ConfigError, match=re.escape(
                "t.cfg:1: sequence.pi_duration: pi_duration must be positive or 'auto'")):
            parse("sequence.pi_duration = %s\n" % text, name="t.cfg")
    with pytest.raises(ConfigError, match=re.escape(
            "t.cfg:1: seed: expected an integer, got '1.5'")):
        parse("seed = 1.5\n", name="t.cfg")
    with pytest.raises(ConfigError, match=re.escape("t.cfg: seed must be >= 0")):
        parse("seed = -5\n", name="t.cfg")
    with pytest.raises(ConfigError, match=re.escape("t.cfg:2: empty value for 'field.b'")):
        parse("seed = 1\nfield.b =   # nothing\n", name="t.cfg")
    for text in ("0", "-14.3"):
        with pytest.raises(ConfigError, match=re.escape(
                "t.cfg: sequence.rabi_amplitude must be positive")):
            parse("sequence.rabi_amplitude = %s\n" % text, name="t.cfg")
    with pytest.raises(ConfigError, match=re.escape(
            "t.cfg: sequence.t2_star must be >= 0 (0 disables dephasing)")):
        parse("sequence.t2_star = -1\n", name="t.cfg")
    with pytest.raises(ConfigError, match=re.escape(
            "t.cfg: noise.imperfection.period must be nonzero")):
        parse("noise.imperfection.amplitude = 0.5\nnoise.imperfection.period = 0\n",
              name="t.cfg")
    # a zero period is harmless while the imperfection is off
    assert parse("noise.imperfection.period = 0\n").imperfection() is None
    for kind in ("sq_frequency", "zq_frequency", "zq_amplitude"):
        with pytest.raises(ConfigError, match=re.escape(
                "t.cfg: noise.sigma.%s must be >= 0" % kind)):
            parse("noise.sigma.%s = -0.1\n" % kind, name="t.cfg")
    # 'auto' written out is the default, not a number
    cfg = parse("sequence.pi_duration = auto\n")
    assert cfg["sequence.pi_duration"] == "auto"
    assert cfg.digest() == parse("").digest()


def test_lab_to_nv_along_axis():
    # arccos near 1 keeps sqrt(eps)-level noise, so micro-degrees is the floor
    theta, _ = lab_to_nv(54.7, 30.0, 54.7, 30.0)
    assert theta < 1e-5


def test_lab_to_nv_perpendicular_axis():
    # NV axis in the lab xy plane; the lab z direction is then at NV
    # theta=90, and lies along -x of the NV frame (phi=180)
    theta, phi = lab_to_nv(0.0, 0.0, 90.0, 0.0)
    assert abs(theta - 90.0) < 1e-9
    assert abs(phi - 180.0) < 1e-9
    # a tiny negative azimuth wraps to 0, never to 360
    assert lab_to_nv(90.0, -1e-14, 0.0, 0.0) == (90.0, 0.0)


def test_lab_to_nv_preserves_angles():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ta, pa = rng.uniform(0, 180), rng.uniform(0, 360)
        t1, p1 = rng.uniform(0, 180), rng.uniform(0, 360)
        t2, p2 = rng.uniform(0, 180), rng.uniform(0, 360)

        def dot(th1, ph1, th2, ph2):
            th1, ph1, th2, ph2 = np.radians([th1, ph1, th2, ph2])
            return np.sin(th1) * np.sin(th2) * np.cos(ph1 - ph2) + np.cos(th1) * np.cos(th2)

        before = dot(t1, p1, t2, p2)
        n1 = lab_to_nv(t1, p1, ta, pa)
        n2 = lab_to_nv(t2, p2, ta, pa)
        assert abs(dot(*n1, *n2) - before) < 1e-9


def test_field_nv_lab_frame():
    cfg = parse(
        "field.frame = LAB\nnv_axis.theta = 54.7\nnv_axis.phi = 30\n"
        "field.theta = 54.7\nfield.phi = 30\n"
    )
    f = cfg.field_nv()
    assert f.theta < 1e-5


def test_noise_and_imperfection_accessors():
    cfg = parse("noise.sigma.zq_frequency = 0.2\n")
    assert cfg.noise_sigma() == {"zq_frequency": 0.2}
    assert cfg.imperfection() is None
    cfg2 = parse("noise.imperfection.amplitude = 1.0\nnoise.imperfection.period = 120\n")
    assert cfg2.imperfection() == (1.0, 120.0, 0.0)


# ---------------------------------------------------------------------------
# CLI, run in process


def fresh_python(*args, env=None):
    """``python *args`` in a new interpreter that imports nvbeat from src,
    with *env* (default: this process's environment)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ if env is None else env, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_seed_flag_sets_the_config_seed(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "--seed", "3", "principal"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.endswith("config=%s" % parse(TABLE_CFG + "seed = 3\n").digest())


def test_negative_seed_is_an_error_on_both_routes(tmp_path, capsys):
    # numpy's generator takes no negative seed: synth failed with its bare
    # message, and a command that draws nothing printed the bad config's digest
    bad = write_cfg(tmp_path, TABLE_CFG + "seed = -5\n", "bad.cfg")
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    for argv, where in (([bad], bad), ([cfgp, "--seed", "-1"], "--seed")):
        for command in (["principal"], ["synth", "--design", "two-theta"]):
            assert main(["--config", *argv, *command]) == 1
            assert capsys.readouterr() == ("", "error: %s: seed must be >= 0\n" % where)


def test_synth_byte_identical_and_flag_positions(tmp_path):
    cfgp = write_cfg(tmp_path, TABLE_CFG + "noise.sigma.zq_frequency = 0.2\n")
    out1, out2, out3 = (str(tmp_path / ("f%d.csv" % k)) for k in (1, 2, 3))
    assert main(["--config", cfgp, "--seed", "5", "--out", out1,
                 "synth", "--design", "two-theta"]) == 0
    assert main(["--config", cfgp, "--seed", "5", "--out", out2,
                 "synth", "--design", "two-theta"]) == 0
    assert main(["synth", "--design", "two-theta", "--config", cfgp,
                 "--seed", "5", "--out", out3]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    assert b1 == open(out3, "rb").read()
    text = b1.decode()
    assert text.startswith("# nvbeat ")
    assert "config=" in text.splitlines()[0]
    assert "theta_deg,phi_deg,b_gauss,kind,value,sigma,transition_index" in text

    out4 = str(tmp_path / "f4.csv")
    assert main(["--config", cfgp, "--seed", "6", "--out", out4,
                 "synth", "--design", "two-theta"]) == 0
    assert open(out4, "rb").read() != b1


def test_synth_row_count(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "synth", "--design", "two-theta"]) == 0
    rows = [
        ln for ln in capsys.readouterr().out.splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("theta_deg")
    ]
    assert len(rows) == 4 * 4 + 13 + 9


def test_principal_output(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "principal"]) == 0
    out = capsys.readouterr().out
    got = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            got[key.strip()] = val.split()[0]
    assert abs(float(got["principal_small"]) - 30.30473776) < 1e-6
    assert abs(float(got["principal_big"]) - 226.5952622) < 1e-6
    assert float(got["principal_y"]) == 122.9
    assert abs(float(got["theta_p"]) - 56.53222225) < 1e-6
    assert abs(float(got["theta_p_alt"]) - 123.4677777) < 1e-6


def test_zq_scan_values(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "zq-scan", "--sweep", "phi",
                 "--start", "-90", "--stop", "90", "--step", "30"]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("angle_deg"):
            continue
        parts = line.split(",")
        rows[float(parts[0])] = tuple(float(x) for x in parts[1:])
    assert set(rows) == {-90.0, -60.0, -30.0, 0.0, 30.0, 60.0, 90.0}
    for ang in (-90.0, 90.0):
        exact, pert, beat = rows[ang]
        assert abs(exact - 6.237610666) < 1e-6
        assert abs(pert - exact) < 0.05 * exact
        assert 0.0 <= beat <= 0.5


def test_spectrum_output(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "spectrum"]) == 0
    out = capsys.readouterr().out
    rows = [
        ln.split(",") for ln in out.splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("frequency_mhz")
    ]
    assert len(rows) == 8
    branches = {r[2] for r in rows}
    assert len(branches) == 2 and "ms0" not in branches
    freqs = [float(r[0]) for r in rows]
    assert all(f > 2000 for f in freqs)
    assert all(float(r[1]) > 0 for r in rows)


def test_spectrum_merges_degenerate_lines(tmp_path, capsys):
    # zero tensor: at b = 0 all eight lines sit at D and merge within each
    # branch, never across; at 30 G the two nuclear-conserving lines of each
    # branch coincide, the forbidden ones (amplitude 0) stay apart
    rows = {}
    for b in ("0", "30"):
        cfgp = write_cfg(tmp_path, "field.b = %s\n" % b)
        assert main(["--config", cfgp, "spectrum"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows[b] = out[out.index("frequency_mhz,amplitude,branch") + 1:]
    assert rows["0"] == ["2870,1,ms_plus", "2870,1,ms_minus"]
    assert rows["30"] == [
        "2785.892885,0,ms_minus",
        "2785.925,1,ms_minus",
        "2785.957115,0,ms_minus",
        "2954.042885,0,ms_plus",
        "2954.075,1,ms_plus",
        "2954.107115,0,ms_plus",
    ]


def test_ramsey_smoke(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG + "sequence.n_points = 256\n")
    assert main(["--config", cfgp, "ramsey"]) == 0
    out = capsys.readouterr().out
    peak_lines = [ln for ln in out.splitlines() if ln.startswith("# peak 1:")]
    assert len(peak_lines) == 1
    freq = float(peak_lines[0].split(":")[1].split()[0])
    assert abs(freq - 6.24) < 0.1


@pytest.mark.parametrize("at_sta", [False, True])
def test_ramsey_refuses_a_grid_that_aliases_the_beat(tmp_path, capsys, at_sta):
    # 1023 samples over 200 us reach 2.5575 MHz, below the 6.2376 MHz ZQ
    # splitting at the config field: the peak it printed (1.1229 MHz) was the
    # beat folded. At the single-transition axis the splitting is below the
    # Nyquist frequency, so the check reads the run's own field
    cfgp = write_cfg(tmp_path, TABLE_CFG + "sequence.tau_max = 200\n")
    code = main(["--config", cfgp, "ramsey"] + ["--at-sta"] * at_sta)
    out, err = capsys.readouterr()
    if at_sta:
        assert code == 0 and "# peak 1:" in out
        return
    assert code == 1 and out == ""
    assert err == ("error: sequence.tau_max = 200 and sequence.n_points = 1024 resolve up "
                   "to 2.5575 MHz, not the ZQ splitting 6.23761 MHz: the beat would alias\n")


@pytest.mark.parametrize("t2_star, envelope", [
    (None, None),
    (3.0, "exponential"),
    (3.0, "gaussian"),
    # damped to its mean after the first sample: the spectrum has no peak
    (1e-9, "exponential"),
    (1e-9, "gaussian"),
])
def test_ramsey_takes_a_set_pi_duration_and_dephasing(tmp_path, capsys, t2_star, envelope):
    # a numeric pi_duration skips the Rabi calibration; t2_star > 0 damps
    # the trace with the envelope the config names
    text = TABLE_CFG + "sequence.n_points = 256\nsequence.pi_duration = 0.035\n"
    if t2_star is not None:
        text += "sequence.t2_star = %r\n" % t2_star
    if envelope == "gaussian":  # exponential is the default
        text += "sequence.envelope = gaussian\n"
    assert main(["--config", write_cfg(tmp_path, text), "ramsey"]) == 0
    cfg = parse(text)
    tau = np.linspace(0.0, cfg["sequence.tau_max"], cfg["sequence.n_points"])
    bare = simulate_zq_ramsey(cfg.system(), cfg.field_nv(), 0.035, cfg["sequence.detuning"], tau,
                              rabi_amplitude=cfg["sequence.rabi_amplitude"])
    trace = bare if envelope is None else apply_dephasing(bare, t2_star, envelope)
    peaks = spectrum_peaks(trace)
    want = ["tau_us,signal"] + [csv_row(t, x) for t, x in zip(trace.tau, trace.signal)]
    want += ["# peak %d: %.4f MHz (magnitude %.6g)" % (k + 1, f, m)
             for k, (f, m) in enumerate(zip(peaks.frequency, peaks.magnitude))]
    want += ["# no peaks"] * (len(peaks.frequency) == 0)
    assert (t2_star == 1e-9) == (want[-1] == "# no peaks")
    assert capsys.readouterr().out.splitlines()[1:] == want
    assert (envelope is None) == np.array_equal(trace.signal, bare.signal)


ZERO_TENSOR_CFG = "tensor.a_xx = 166.9\ntensor.a_yy = 122.9\n"  # a_zz = a = 0
NO_AXIS = "error: tensor.a_zz = tensor.a = 0: the excited level has no quantization axis\n"
NO_FIELD = "error: field.b = 0: the single-transition axis needs a field\n"


@pytest.mark.parametrize("text, command, err", [
    (ZERO_TENSOR_CFG, ["rabi"], NO_AXIS),
    (ZERO_TENSOR_CFG, ["ramsey"], NO_AXIS),
    (ZERO_TENSOR_CFG, ["spectrum", "--at-sta"], NO_AXIS),
    (ZERO_TENSOR_CFG, ["sensitivity", "--at-sta"], NO_AXIS),
    (ZERO_TENSOR_CFG, ["synth"], NO_AXIS),
    (TABLE_CFG + "field.b = 0\n", ["rabi", "--at-sta"], NO_FIELD),
    (TABLE_CFG + "field.b = 0\n", ["spectrum", "--at-sta"], NO_FIELD),
    (TABLE_CFG + "field.b = 0\n", ["sensitivity", "--at-sta"], NO_FIELD),
    (TABLE_CFG + "field.b = 0\n", ["synth"], NO_FIELD),
])
def test_commands_that_need_the_lambda_system_name_its_config_keys(tmp_path, capsys, text,
                                                                   command, err):
    # rabi and ramsey read the excited level, and the single-transition axis
    # search both Lambda legs; the config itself must keep such a run, since
    # the commands that need no Lambda system run on it
    cfgp = write_cfg(tmp_path, text)
    assert main(["--config", cfgp, *command]) == 1
    assert capsys.readouterr() == ("", err)
    for other in (["spectrum"], ["sensitivity"], ["principal"], ["synth", "--design", "two-theta"]):
        assert main(["--config", cfgp, *other]) == 0
    capsys.readouterr()


def test_zq_scan_prints_nan_where_no_lambda_system_exists(tmp_path, capsys):
    # a_zz = a = 0: the ZQ splitting is defined, the beat amplitude is not
    cfgp = write_cfg(tmp_path, ZERO_TENSOR_CFG)
    assert main(["--config", cfgp, "zq-scan", "--sweep", "phi",
                 "--start", "0", "--stop", "10", "--step", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "angle_deg,delta_exact_mhz,delta_perturbative_mhz,beat_amplitude"
    cells = np.array([row.split(",") for row in out[2:]], dtype=float)
    assert cells.shape == (3, 4)
    assert np.isnan(cells[:, 3]).all() and np.isfinite(cells[:, 1]).all()


def test_fit_command(tmp_path, capsys):
    truth_cfg = write_cfg(tmp_path, TABLE_CFG, "truth.cfg")
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", truth_cfg, "--out", ds_path,
                 "synth", "--design", "two-theta"]) == 0
    start_cfg = write_cfg(
        tmp_path,
        "tensor.a_xx = 170.2\ntensor.a_yy = 120.4\ntensor.a_zz = 91.8\n"
        "tensor.a = -88.5\nfield.b = 40.3\n",
        "start.cfg",
    )
    assert main(["--config", start_cfg, "fit", ds_path]) == 0
    out = capsys.readouterr().out
    got = {}
    for line in out.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, val = line.partition("=")
        got[key.strip()] = val.strip()
    assert got["converged"] == "yes"
    assert got["dof"] == "32"
    for name, want in (("a_xx", 166.9), ("a_yy", 122.9), ("a_zz", 90.0), ("a", -90.3)):
        assert abs(float(got[name].split()[0]) - want) < 1e-3


def test_fit_fixed_parameters(tmp_path, capsys):
    truth_cfg = write_cfg(tmp_path, TABLE_CFG, "truth.cfg")
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", truth_cfg, "--out", ds_path,
                 "synth", "--design", "two-theta"]) == 0
    assert main(["--config", truth_cfg, "fit", ds_path,
                 "--fix", "b", "--fix", "phi_offset"]) == 0
    out = capsys.readouterr().out
    assert "b = 40.3 (fixed)" in out
    assert "phi_offset = 0 (fixed)" in out
    assert "\ndof = 34\n" in out  # 38 points, 4 free
    # the fit owns its dof: points less free parameters
    ds = estimation.read_dataset(ds_path)
    start = estimation.FitParams(166.9, 122.9, 90.0, -90.3, 40.3)
    for fixed in (frozenset(), frozenset({"b", "phi_offset"})):
        free = [n for n in estimation.PARAM_IDS if n not in fixed]
        assert estimation.fit_hyperfine(ds, start, fixed).dof == len(ds) - len(free)


def test_fit_holds_the_config_constants(tmp_path, monkeypatch, capsys):
    # a config's D is the fit's D: its own noiseless synth output fits back
    # to the tensor, and every bootstrap refit gets the same constants
    cfgp = write_cfg(tmp_path, TABLE_CFG + "constants.d = 2870.5\n")
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", cfgp, "--out", ds_path, "synth", "--design", "two-theta"]) == 0
    assert main(["--config", cfgp, "fit", ds_path]) == 0
    got = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
               if " = " in line)
    assert got["converged"] == "yes"
    for name, want in (("a_xx", 166.9), ("a_yy", 122.9), ("a_zz", 90.0), ("a", -90.3)):
        assert abs(float(got[name].split()[0]) - want) < 1e-3, name
    fit, seen = estimation.fit_hyperfine, []

    def record(*args, **kwargs):
        seen.append(kwargs.get("params"))
        return fit(*args, **kwargs)

    monkeypatch.setattr(estimation, "fit_hyperfine", record)
    assert main(["--config", cfgp, "fit", ds_path, "--bootstrap", "2"]) == 0
    assert len(seen) == 3
    assert all(isinstance(p, SystemParams) and p.d == 2870.5 for p in seen)


def test_fit_warns_when_chi2_is_far_above_its_dof(tmp_path, capsys):
    # data made at D = 2870.5 MHz and fitted at the default 2870.0 stop at a
    # stationary point whose chi2 the model cannot explain: one stderr line
    # says so, stdout and the exit code are those of any fit
    made = write_cfg(tmp_path, TABLE_CFG + "constants.d = 2870.5\n", "made.cfg")
    fitted = write_cfg(tmp_path, TABLE_CFG, "fitted.cfg")
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", made, "--out", ds_path, "synth", "--design", "two-theta"]) == 0
    assert main(["--config", fitted, "fit", ds_path]) == 0
    out, err = capsys.readouterr()
    got = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert got["converged"] == "yes" and got["dof"] == "32"
    assert err == ("warning: chi2 = %.4g on 32 dof: the model does not explain the data\n"
                   % float(got["chi2"]))
    assert float(got["chi2"]) > 1e11
    assert main(["--config", made, "fit", ds_path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unconverged", [1, 2])
@pytest.mark.parametrize("how", ["max_iterations", "raises"])
def test_bootstrap_drops_unconverged_refits(tmp_path, monkeypatch, capsys, unconverged, how):
    # a refit that stops at max_iterations is unusable, like one that raises:
    # with one of three unusable the spread is the other two's, with two
    # too few refits are left
    cfgp = write_cfg(tmp_path, TABLE_CFG + "noise.sigma.sq_frequency = 0.2\n"
                     "noise.sigma.zq_frequency = 0.2\nseed = 3\n")
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", cfgp, "--out", ds_path, "synth", "--design", "two-theta"]) == 0
    fit, refits = estimation.fit_hyperfine, []

    def refit(*args, **kwargs):
        r = fit(*args, **kwargs)
        refits.append(r)
        if 2 <= len(refits) <= 1 + unconverged:  # the first call is the fit itself
            if how == "raises":
                raise ValueError("degenerate parameter direction: a_zz")
            r = dataclasses.replace(r, converged=False, stop_reason="max_iterations")
        return r

    monkeypatch.setattr(estimation, "fit_hyperfine", refit)
    code = main(["--config", cfgp, "fit", ds_path, "--bootstrap", "3"])
    out, err = capsys.readouterr()
    assert len(refits) == 4 and all(r.converged for r in refits)
    if unconverged == 2:
        assert code == 1 and err == "error: bootstrap failed: 1 of 3 refits usable\n"
        return
    assert code == 0
    spread = np.std([r.params.as_vector() for r in refits[2:]], axis=0, ddof=1)
    for k, name in enumerate(("a_xx", "a_yy", "a_zz", "a", "b", "phi_offset")):
        assert "bootstrap_sigma.%s = %.4g\n" % (name, spread[k]) in out


def test_fit_rejects_a_negative_bootstrap(tmp_path, capsys):
    # --bootstrap -3 printed the fit with no bootstrap rows and exited 0
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", cfgp, "--out", ds_path, "synth", "--design", "two-theta"]) == 0
    assert main(["--config", cfgp, "fit", ds_path, "--bootstrap", "-3"]) == 1
    assert capsys.readouterr() == ("", "error: --bootstrap must be >= 0\n")


def test_fit_rejects_unknown_fixed_parameter(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    ds_path = str(tmp_path / "scan.csv")
    assert main(["--config", cfgp, "--out", ds_path, "synth", "--design", "two-theta"]) == 0
    assert main(["--config", cfgp, "fit", ds_path, "--fix", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'bogus'" in captured.err


@pytest.mark.parametrize("command", ["spectrum", "rabi", "ramsey", "sensitivity"])
def test_at_sta_is_documented(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--at-sta evaluate at the single-transition axis" in help_text


def test_fit_rejects_bad_csv_rows(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    ds_path = tmp_path / "scan.csv"
    assert main(["--config", cfgp, "--out", str(ds_path),
                 "synth", "--design", "two-theta"]) == 0
    lines = ds_path.read_text().splitlines()
    lineno = len(lines)  # last row, a zq_frequency point
    for column, text in ((4, "nan"), (4, "inf"), (0, "400"), (2, "-5"), (5, "1e-300")):
        row = lines[-1].split(",")
        row[column] = text
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
        assert main(["--config", cfgp, "fit", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: %s:%d: " % (bad, lineno)), err


@pytest.mark.parametrize("rows, value, sigma", [
    (1, "1e300", "0.2"),  # one square overflows
    (2, "1e148", "1e-6"),  # finite squares whose sum overflows
])
def test_fit_overflow_prints_only_the_error(tmp_path, rows, value, sigma):
    # a fresh interpreter with the default warning filters, as a user runs it
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    ds_path = tmp_path / "scan.csv"
    assert main(["--config", cfgp, "--out", str(ds_path),
                 "synth", "--design", "two-theta"]) == 0
    lines = ds_path.read_text().splitlines()
    for k in range(1, rows + 1):
        row = lines[-k].split(",")
        row[4], row[5] = value, sigma
        lines[-k] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    proc = fresh_python("-c", "import sys; from nvbeat.cli import main; sys.exit(main())",
                        "--config", cfgp, "fit", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: chi^2 not finite at the initial guess; check the data values\n"
    )


def test_default_commands_do_not_import_scipy(tmp_path):
    # a fresh interpreter: pytest and the other tests have loaded scipy here
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    data = str(tmp_path / "data.csv")
    commands = [
        ["principal"],
        ["spectrum"],
        ["spectrum", "--at-sta"],
        ["zq-scan", "--sweep", "phi", "--start", "-90", "--stop", "90", "--step", "10"],
        ["sensitivity"],
        ["rabi"],
        ["ramsey"],
        ["synth", "--design", "sta-phi", "--out", data],
        ["fit", data],
        ["fit", data, "--bootstrap", "2"],
    ]
    script = (
        "import sys\n"
        "from nvbeat.cli import main\n"
        "for args in %r:\n"
        "    assert main(['--config', %r, '--out', %r] + args) == 0, args\n"
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "    assert not loaded, (args, loaded[:5])\n"
        % (commands, cfgp, str(tmp_path / "out.txt"))
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_table_commands_do_not_import_the_fit_module(tmp_path):
    # spectrum, rabi and ramsey format their rows with config's csv_row
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    script = (
        "import sys\n"
        "from nvbeat.cli import main\n"
        "for args in (['spectrum'], ['rabi'], ['ramsey']):\n"
        "    assert main(['--config', %r, '--out', %r] + args) == 0, args\n"
        "    assert 'nvbeat.estimation' not in sys.modules, args\n"
        % (cfgp, str(tmp_path / "out.txt"))
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_submodule():
    # main() caps the BLAS thread pools before numpy loads, so neither
    # `import nvbeat` nor `import nvbeat.cli` may load numpy
    script = (
        "import sys\n"
        "import nvbeat\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith('nvbeat.') or m.split('.')[0] == 'numpy']\n"
        "assert not loaded, loaded\n"
        "import nvbeat.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "from nvbeat import estimation\n"
        "assert estimation.fit_hyperfine\n"
    )
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_the_cli_runs_as_a_module(tmp_path):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    proc = fresh_python("-m", "nvbeat.cli", "--config", cfgp, "principal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# nvbeat 0.1.0 config=%s\n" % parse(TABLE_CFG).digest())


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=("unset", "preset"))
def test_the_cli_runs_blas_on_one_thread_unless_the_environment_says(tmp_path, preset):
    # OpenBLAS starts a thread per CPU when numpy loads; main() sets each
    # pool size the environment leaves unset to 1 before that
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    script = (
        "import os, sys\n"
        "from nvbeat.cli import main\n"
        "assert 'numpy' not in sys.modules\n"
        "assert main(['--config', %r, '--out', %r, 'principal']) == 0\n"
        "print(len(os.listdir('/proc/self/task')), *(os.environ.get(v) for v in %r))\n"
        % (cfgp, str(tmp_path / "out.txt"), BLAS_VARS)
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    proc = fresh_python("-c", script, env={**env, **preset})
    assert proc.returncode == 0, proc.stderr
    tasks, *values = proc.stdout.split()
    assert values == [preset.get(v, "1") for v in BLAS_VARS]
    if not preset:
        assert tasks == "1"


def test_cli_error_exits(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg"), "principal"]) == 1
    assert "error:" in capsys.readouterr().err

    bad = write_cfg(tmp_path, "bogus.key = 1\n", "bad.cfg")
    assert main(["--config", bad, "principal"]) == 1
    assert "unknown key 'bogus.key'" in capsys.readouterr().err

    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "zq-scan", "--sweep", "theta",
                 "--start", "0", "--stop", "40", "--step", "-1"]) == 1
    assert "step must be positive" in capsys.readouterr().err

    assert main(["--config", cfgp, "zq-scan", "--sweep", "theta",
                 "--start", "170", "--stop", "190", "--step", "5"]) == 1
    assert "theta sweep outside" in capsys.readouterr().err

    assert main(["--config", cfgp, "fit", str(tmp_path / "no_scan.csv")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("start, stop, step", [
    ("nan", "40", "1"), ("0", "nan", "1"), ("0", "40", "nan"),
    ("0", "inf", "1"), ("-inf", "40", "1"), ("0", "40", "inf"),
])
def test_zq_scan_rejects_non_finite_bounds(tmp_path, capsys, start, stop, step):
    # numpy's arange would fail on these with its own message, or try to allocate
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    assert main(["--config", cfgp, "zq-scan", "--sweep", "phi", "--start=" + start,
                 "--stop=" + stop, "--step=" + step]) == 1
    assert capsys.readouterr().err == "error: sweep start, stop and step must be finite\n"


def test_zq_scan_refuses_a_sweep_it_cannot_hold(tmp_path, capsys):
    # the angles are counted before np.arange allocates them: 3.6e12 angles
    # would take 26.2 TiB, and one past the cap of 65 536 is refused too
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    for stop, step, count in (("360", "1e-10", "3600000000000"), ("65536", "1", "65537")):
        assert main(["--config", cfgp, "zq-scan", "--sweep", "phi", "--start", "0",
                     "--stop", stop, "--step", step]) == 1
        assert capsys.readouterr() == (
            "", "error: a sweep of %s angles exceeds the cap of 65536\n" % count)


@pytest.mark.parametrize("text, message", [
    ("constants.d = -5", "constants.d must be finite and positive"),
    ("constants.d = 0", "constants.d must be finite and positive"),
    ("constants.gamma_e = -2.8", "constants.gamma_e must be finite and positive"),
    ("constants.gamma_n = 0.5", "constants.gamma_n out of range (|gamma_n| must be << gamma_e)"),
    ("constants.gamma_n = 1.0", "constants.gamma_n out of range (|gamma_n| must be << gamma_e)"),
])
def test_constants_errors_name_their_key(tmp_path, capsys, text, message):
    # SystemParams' own rule, checked before any bound that reads a constant:
    # d <= 0 once blamed sequence.rabi_amplitude, gamma_n = 1 sequence.tau_max,
    # and the gamma errors named neither the file nor the key
    cfgp = write_cfg(tmp_path, TABLE_CFG + text + "\n")
    assert main(["--config", cfgp, "principal"]) == 1
    assert capsys.readouterr() == ("", "error: %s: %s\n" % (cfgp, message))


def test_a_field_ripple_must_keep_the_field_positive(tmp_path, capsys):
    # B(phi) = b + amplitude cos(...) reaches b - |amplitude|: zero at
    # |amplitude| = b, negative beyond; the config refuses both by its key
    for amplitude in ("50", "40.3", "-40.3"):
        cfgp = write_cfg(tmp_path, TABLE_CFG + "noise.imperfection.amplitude = %s\n" % amplitude)
        assert main(["--config", cfgp, "synth"]) == 1
        assert capsys.readouterr() == ("", "error: %s: |noise.imperfection.amplitude| must be "
                                       "below field.b = 40.3 G: the rippled field must stay "
                                       "positive\n" % cfgp)
    cfgp = write_cfg(tmp_path, TABLE_CFG + "noise.imperfection.amplitude = 40\n")
    assert main(["--config", cfgp, "synth"]) == 0
    # the library's own check names the point's field as a plain float
    with pytest.raises(ValueError, match=r"^b must be >= 0, got -3\.001270189221941$"):
        estimation.synthesize_dataset(parse(TABLE_CFG).system(), 40.3,
                                      [(40.0, 50.0, "zq_frequency")],
                                      field_imperfection=(50.0, 120.0, 0.0))
