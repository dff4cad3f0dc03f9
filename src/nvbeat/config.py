"""Run configuration: flat dotted key-value files.

Format, one assignment per line::

    tensor.a_xx = 166.9     # MHz
    field.frame = LAB
    nv_axis.theta = 54.7

'#' starts a comment; blank lines are ignored. Unknown keys are rejected by
name. All angles are degrees. With ``field.frame = LAB`` the field direction
is interpreted in the lab frame and rotated into the NV frame using the
``nv_axis`` direction (the NV z axis in lab coordinates); the NV x axis is
taken along the lab meridian through nv_axis (the e_theta direction), which
fixes the azimuth convention.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    D_DEFAULT,
    GAMMA_E_DEFAULT,
    GAMMA_N_C13_DEFAULT,
    FieldOrientation,
    HyperfineTensor,
    SystemParams,
    unit_vectors,
)


def csv_row(*cells) -> str:
    """One CSV row without the newline: numbers as %.10g, None empty, text as is."""
    return ",".join("" if c is None else c if isinstance(c, str) else "%.10g" % c for c in cells)


class ConfigError(ValueError):
    """Raised for unparsable text, unknown keys, or out-of-range values."""


def _float(text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError("expected a number, got %r" % text) from None
    if not np.isfinite(value):
        raise ConfigError("expected a finite number, got %r" % text)
    return value


def _int(text):
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % text) from None


def _pi_duration(text):
    if text == "auto":
        return "auto"
    v = _float(text)
    if v <= 0:
        raise ConfigError("pi_duration must be positive or 'auto'")
    return v


def _choice(*allowed):
    def conv(text):
        if text not in allowed:
            raise ConfigError(
                "expected one of %s, got %r" % ("/".join(allowed), text)
            )
        return text

    return conv


# key -> (converter, default). Registry order is the digest's order.
_REGISTRY = {
    "constants.d": (_float, D_DEFAULT),
    "constants.gamma_e": (_float, GAMMA_E_DEFAULT),
    "constants.gamma_n": (_float, GAMMA_N_C13_DEFAULT),
    "tensor.a_xx": (_float, 0.0),
    "tensor.a_yy": (_float, 0.0),
    "tensor.a_zz": (_float, 0.0),
    "tensor.a": (_float, 0.0),
    "field.b": (_float, 40.3),
    "field.theta": (_float, 0.0),
    "field.phi": (_float, 0.0),
    "field.frame": (_choice("NV", "LAB"), "NV"),
    "nv_axis.theta": (_float, 0.0),
    "nv_axis.phi": (_float, 0.0),
    "sequence.pi_duration": (_pi_duration, "auto"),
    "sequence.rabi_amplitude": (_float, 14.3),
    "sequence.detuning": (_float, 0.0),
    "sequence.tau_max": (_float, 20.0),
    "sequence.n_points": (_int, 1024),
    "sequence.t2_star": (_float, 0.0),
    "sequence.envelope": (_choice("exponential", "gaussian"), "exponential"),
    "noise.sigma.sq_frequency": (_float, 0.0),
    "noise.sigma.zq_frequency": (_float, 0.0),
    "noise.sigma.zq_amplitude": (_float, 0.0),
    "noise.imperfection.amplitude": (_float, 0.0),
    "noise.imperfection.period": (_float, 120.0),
    "noise.imperfection.phase": (_float, 0.0),
    "seed": (_int, 0),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; ``values`` holds every key."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def system(self) -> SystemParams:
        v = self.values
        return SystemParams(
            d=v["constants.d"],
            gamma_e=v["constants.gamma_e"],
            gamma_n=v["constants.gamma_n"],
            tensor=HyperfineTensor(
                v["tensor.a_xx"], v["tensor.a_yy"], v["tensor.a_zz"], v["tensor.a"]
            ),
        )

    def field_nv(self) -> FieldOrientation:
        """The configured field, rotated into the NV frame when given in LAB."""
        v = self.values
        theta, phi = v["field.theta"], v["field.phi"]
        if v["field.frame"] == "LAB":
            theta, phi = lab_to_nv(
                theta, phi, v["nv_axis.theta"], v["nv_axis.phi"]
            )
        return FieldOrientation(b=v["field.b"], theta=theta, phi=phi)

    def noise_sigma(self) -> dict:
        v = self.values
        out = {
            "sq_frequency": v["noise.sigma.sq_frequency"],
            "zq_frequency": v["noise.sigma.zq_frequency"],
            "zq_amplitude": v["noise.sigma.zq_amplitude"],
        }
        return {k: s for k, s in out.items() if s > 0}

    def imperfection(self):
        """(amplitude_G, period_deg, phase_deg) or None when disabled."""
        v = self.values
        if v["noise.imperfection.amplitude"] == 0.0:
            return None
        return (
            v["noise.imperfection.amplitude"],
            v["noise.imperfection.period"],
            v["noise.imperfection.phase"],
        )

    def digest(self) -> str:
        """Short hash of the effective configuration (defaults included)."""
        text = "\n".join("%s = %s" % (k, self.values[k]) for k in _REGISTRY)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def parse(text: str, name: str = "<config>") -> RunConfig:
    """Parse config text; errors carry ``name:line``."""
    values = {k: d for k, (_, d) in _REGISTRY.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (name, lineno))
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _REGISTRY:
            raise ConfigError("%s:%d: unknown key %r" % (name, lineno, key))
        if not val:
            raise ConfigError("%s:%d: empty value for %r" % (name, lineno, key))
        conv = _REGISTRY[key][0]
        try:
            values[key] = conv(val)
        except ConfigError as exc:
            raise ConfigError("%s:%d: %s: %s" % (name, lineno, key, exc)) from None
    _validate(values, name)
    return RunConfig(values=values)


def _validate(values, name):
    def bad(msg):
        raise ConfigError("%s: %s" % (name, msg))

    if values["field.b"] < 0:
        bad("field.b must be >= 0")
    for key in ("field.theta", "nv_axis.theta"):
        if not (0.0 <= values[key] <= 180.0):
            bad("%s out of range [0, 180]" % key)
    for key in ("sequence.tau_max", "sequence.rabi_amplitude"):
        if values[key] <= 0:
            bad("%s must be positive" % key)
    if not 16 <= values["sequence.n_points"] <= 2**20:
        bad("sequence.n_points must be in [16, 2**20]: the peak finder needs 16 samples")
    if values["sequence.rabi_amplitude"] > values["constants.d"] / 100:
        bad("sequence.rabi_amplitude must be at most constants.d / 100 = %.6g MHz: the "
            "rotating-wave model drops the drive's part near 2 D" % (values["constants.d"] / 100))
    # the ramsey free-evolution grid resolves beats below its Nyquist frequency
    nyquist = (values["sequence.n_points"] - 1) / (2 * values["sequence.tau_max"])
    larmor = abs(values["constants.gamma_n"]) * values["field.b"]
    grid = "the free-evolution grid's Nyquist frequency (n_points - 1) / (2 tau_max) = %.6g MHz"
    if not nyquist > larmor:
        bad("sequence.tau_max must leave %s above the 13C Larmor frequency |gamma_n| b = "
            "%.6g MHz" % (grid % nyquist, larmor))
    if not abs(values["sequence.detuning"]) < nyquist:
        bad("|sequence.detuning| must be below " + grid % nyquist)
    if values["sequence.t2_star"] < 0:
        bad("sequence.t2_star must be >= 0 (0 disables dephasing)")
    for key in ("noise.sigma.sq_frequency", "noise.sigma.zq_frequency",
                "noise.sigma.zq_amplitude"):
        if values[key] < 0:
            bad("%s must be >= 0" % key)
    if values["noise.imperfection.amplitude"] != 0.0:
        if values["noise.imperfection.period"] == 0.0:
            bad("noise.imperfection.period must be nonzero")
        if not abs(values["noise.imperfection.amplitude"]) < values["field.b"]:
            bad("|noise.imperfection.amplitude| must be below field.b = %.6g G: the "
                "rippled field must stay positive" % values["field.b"])
    if values["seed"] < 0:
        bad("seed must be >= 0")


def parse_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse(fh.read(), name=path)


def lab_to_nv(theta_lab, phi_lab, axis_theta, axis_phi):
    """Rotate a lab-frame direction into the NV frame, degrees in and out.

    The NV z axis points along (axis_theta, axis_phi) in the lab; NV x is the
    lab e_theta direction at that orientation (the radial direction at
    axis_theta + 90), NV y the e_phi direction.
    """
    v = unit_vectors(theta_lab, phi_lab)
    ez = unit_vectors(axis_theta, axis_phi)
    ex = unit_vectors(axis_theta + 90.0, axis_phi)
    ey = np.cross(ez, ex)
    x, y, z = float(ex @ v), float(ey @ v), float(ez @ v)
    theta = np.degrees(np.arccos(np.clip(z, -1.0, 1.0)))
    phi = np.degrees(np.arctan2(y, x)) % 360.0
    return float(theta), float(phi)
