"""Each entry check raises its own message.

A bare ``pytest.raises(ValueError)`` passes on any ValueError, also one
raised for another reason before the check it means to test; here each
call is matched with the whole text of its message. The checks whose
module tests already call them (``spectrum_peaks``, ``propagate``'s
Hermiticity, the STA search at b = 0) are matched there. A CLI check is
matched by the error line it prints.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from nvbeat.analytic import RamseyModelParams, zq_beat_amplitude
from nvbeat.cli import main
from nvbeat.dynamics import (
    PulseParams,
    RamseyTrace,
    _ideal_pi_unitary,
    _rabi_lab_frame,
    apply_dephasing,
    propagate,
)
from nvbeat.estimation import (FitParams, ScanDataset, ScanPoint, find_single_transition_axis,
                               fit_hyperfine)
from nvbeat.spin_core import FieldOrientation, HyperfineTensor, SystemParams, eigensystem
from nvbeat.tensor_geometry import principal_sigmas

REF = HyperfineTensor(166.9, 122.9, 90.0, -90.3)
SYS = SystemParams(tensor=REF)
F40 = FieldOrientation(40.3, 40.0, 90.0)
TAU = np.linspace(0.0, 1.0, 32)
TRACE = RamseyTrace(tau=TAU, signal=np.cos(2 * np.pi * 3.0 * TAU))
# three ZQ values whose squared residuals are finite and sum past float64
HUGE = ScanDataset(ScanPoint(40.0, p, 40.3, "zq_frequency", 1e148, 1e-6) for p in (0.0, 30.0, 60.0))


def cli(*argv):
    """Run the CLI in process; raise its printed error as a ValueError."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code:
        raise ValueError(err.getvalue().rstrip("\n"))


CHECKS = {
    "propagate_negative_duration": (
        lambda: propagate([(np.eye(6), -0.1)], np.eye(6)[0]),
        "segment duration must be >= 0"),
    "dephasing_shape": (
        lambda: apply_dephasing(TRACE, 1.0, "lorentzian"),
        "unknown envelope shape 'lorentzian'"),
    "dephasing_t2_star": (
        lambda: apply_dephasing(TRACE, 0.0),
        "t2_star must be positive"),
    "rabi_lab_frame_grid": (
        lambda: _rabi_lab_frame(SYS, F40, PulseParams(14.3), [0.0, 0.2, 0.1]),
        "t_grid must be non-decreasing"),
    "ramsey_model_n_spins": (
        lambda: RamseyModelParams(1.0, 1.0, 0.5, n_spins=0),
        "n_spins must be >= 1"),
    "ramsey_model_amplitudes": (
        lambda: RamseyModelParams(-1.0, 1.0, 0.5),
        "drive amplitudes must be >= 0"),
    "principal_sigmas_shape": (
        lambda: principal_sigmas(REF, np.eye(3)),
        "covariance must be 4x4 over (a_xx, a_yy, a_zz, a)"),
    "principal_sigmas_frame": (
        lambda: principal_sigmas(HyperfineTensor(100.0, 50.0, 100.0, 0.0), np.eye(4)),
        "principal frame undefined: a_xx == a_zz and a == 0"),
    "sta_search_nan_field": (
        lambda: find_single_transition_axis(SYS, float("nan")),
        "b must be finite and > 0"),
    "ideal_pi_no_legs": (
        lambda: _ideal_pi_unitary(0.0, 0.0, 4, 2, 3),
        "both Lambda amplitudes vanish; no pulse defined"),
    "tensor_non_finite": (
        lambda: HyperfineTensor(float("nan"), 0.0, 0.0, 0.0),
        "non-finite tensor component a_xx"),
    "eigensystem_shape": (
        lambda: eigensystem(np.eye(5)),
        "expected a 6x6 matrix"),
    "ramsey_model_no_drive": (
        lambda: RamseyModelParams(0.0, 0.0, 1.0),
        "at least one drive amplitude must be nonzero"),
    "zq_beat_no_drive": (
        lambda: zq_beat_amplitude(0.0, 0.0),
        "at least one drive amplitude must be nonzero"),
    "zq_scan_empty_range": (
        lambda: cli("zq-scan", "--sweep", "theta", "--start", "10", "--stop", "0", "--step", "1"),
        "error: empty sweep range"),
    "fit_chi2_overflow": (
        lambda: fit_hyperfine(HUGE, FitParams(166.9, 122.9, 90.0, -90.3, 40.3),
                              fixed={"a_xx", "a_yy", "b"}),
        "chi^2 not finite at the initial guess; check the data values"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_entry_check_raises_its_message(name):
    call, message = CHECKS[name]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


@pytest.mark.parametrize("at_sta", [[], ["--at-sta"]])
def test_ramsey_refuses_zero_field_by_its_key(tmp_path, at_sta):
    # the ms0 pair is degenerate at b = 0, so a ramsey trace would show no
    # beat; rabi reads the excited level alone and runs there
    cfgp = tmp_path / "b0.cfg"
    cfgp.write_text("tensor.a_xx = 166.9\ntensor.a_yy = 122.9\ntensor.a_zz = 90\n"
                    "tensor.a = -90.3\nfield.b = 0\n")
    message = "error: field.b = 0: the ms0 pair is degenerate, so there is no ZQ beat"
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        cli("--config", str(cfgp), "ramsey", *at_sta)
    cli("--config", str(cfgp), "rabi")
