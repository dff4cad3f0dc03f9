"""Config parsing, frame conversion, and the command-line front end."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from nvbeat.cli import main
from nvbeat.config import (
    ConfigError,
    apply_overrides,
    emit,
    lab_to_nv,
    normalize,
    parse,
)

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
    assert cfg["constants.d"] == 2870.0
    assert cfg["constants.gamma_e"] == 2.8025
    assert cfg["constants.gamma_n"] == 0.0010705
    assert cfg["field.b"] == 40.3
    assert cfg["sequence.pi_duration"] == "auto"
    assert cfg.explicit == ()
    assert emit(cfg) == ""


def test_emit_normalize_idempotent():
    text = "field.phi = 90\ntensor.a_xx = 166.9  # comment\n\nseed = 7\n"
    once = normalize(text)
    assert normalize(once) == once
    # registry order, not source order
    assert once.index("tensor.a_xx") < once.index("field.phi") < once.index("seed")
    assert "# comment" not in once


def test_digest_tracks_values():
    base = parse("")
    assert len(base.digest()) == 12
    assert parse("# just a comment\n").digest() == base.digest()
    assert parse("field.b = 40.3\n").digest() == base.digest()
    assert parse("field.b = 41.0\n").digest() != base.digest()
    assert apply_overrides(base, ["seed=3"]).digest() != base.digest()


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
    for n in (1, 2**20 + 1, 10**15):
        with pytest.raises(ConfigError, match=re.escape(
                "t.cfg: sequence.n_points must be in [2, 2**20]")):
            parse("sequence.n_points = %d\n" % n, name="t.cfg")
    assert parse("sequence.n_points = %d\n" % 2**20)["sequence.n_points"] == 2**20
    with pytest.raises(ConfigError, match=r"field\.b must be >= 0"):
        parse("field.b = -1\n")
    for key in ("field.b", "field.phi", "tensor.a", "sequence.tau_max"):
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=re.escape(
                    "t.cfg:1: %s: expected a finite number" % key)):
                parse("%s = %s\n" % (key, text), name="t.cfg")


def test_apply_overrides():
    cfg = parse("field.b = 40.3\n")
    cfg2 = apply_overrides(cfg, ["field.theta=30", "seed=9"])
    assert cfg2["field.theta"] == 30.0 and cfg2["seed"] == 9
    assert "field.theta" in cfg2.explicit
    with pytest.raises(ConfigError, match="not key=value"):
        apply_overrides(cfg, ["field.theta"])
    with pytest.raises(ConfigError, match="unknown key 'nope'"):
        apply_overrides(cfg, ["nope=1"])


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
    assert f.frame == "NV"


def test_noise_and_imperfection_accessors():
    cfg = parse("noise.sigma.zq_frequency = 0.2\n")
    assert cfg.noise_sigma() == {"zq_frequency": 0.2}
    assert cfg.imperfection() is None
    cfg2 = parse("noise.imperfection.amplitude = 1.0\nnoise.imperfection.period = 120\n")
    assert cfg2.imperfection() == (1.0, 120.0, 0.0)


# ---------------------------------------------------------------------------
# CLI, run in process


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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


def test_ramsey_smoke(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG + "sequence.n_points = 256\n")
    assert main(["--config", cfgp, "ramsey"]) == 0
    out = capsys.readouterr().out
    peak_lines = [ln for ln in out.splitlines() if ln.startswith("# peak 1:")]
    assert len(peak_lines) == 1
    freq = float(peak_lines[0].split(":")[1].split()[0])
    assert abs(freq - 6.24) < 0.1


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from nvbeat.cli import main; sys.exit(main())",
         "--config", cfgp, "fit", str(bad)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: chi^2 not finite at the initial guess; check the data values\n"
    )


def test_default_commands_do_not_import_scipy(tmp_path):
    # a fresh interpreter: pytest and the other tests have loaded scipy here
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    commands = [
        ["spectrum", "--at-sta"],
        ["sensitivity"],
        ["rabi"],
        ["ramsey"],
        ["synth", "--design", "sta-phi"],
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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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

    assert main(["--threads", "0", "principal"]) == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_threads_flag_sets_env(tmp_path, capsys):
    cfgp = write_cfg(tmp_path, TABLE_CFG)
    old = os.environ.get("OMP_NUM_THREADS")
    try:
        assert main(["--threads", "1", "--config", cfgp, "principal"]) == 0
        assert os.environ["OMP_NUM_THREADS"] == "1"
    finally:
        if old is None:
            os.environ.pop("OMP_NUM_THREADS", None)
        else:
            os.environ["OMP_NUM_THREADS"] = old
    capsys.readouterr()
