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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .spin_core import FieldOrientation, HyperfineTensor, SystemParams


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


# key -> (converter, default). Registry order is the canonical emit order.
_REGISTRY = {
    "constants.d": (_float, 2870.0),
    "constants.gamma_e": (_float, 2.8025),
    "constants.gamma_n": (_float, 0.0010705),
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


def _format_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean config values")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; ``values`` holds every key, ``explicit`` the
    keys actually present in the source (emit writes only those)."""

    values: dict
    explicit: tuple = ()

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
        return FieldOrientation(b=v["field.b"], theta=theta, phi=phi, frame="NV")

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
        text = "\n".join(
            "%s = %s" % (k, _format_value(self.values[k])) for k in _REGISTRY
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def parse(text: str, name: str = "<config>") -> RunConfig:
    """Parse config text; errors carry ``name:line``."""
    values = {k: d for k, (_, d) in _REGISTRY.items()}
    explicit = []
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
        if key not in explicit:
            explicit.append(key)
    _validate(values, name)
    return RunConfig(values=values, explicit=tuple(explicit))


def _validate(values, name):
    def bad(msg):
        raise ConfigError("%s: %s" % (name, msg))

    if values["field.b"] < 0:
        bad("field.b must be >= 0")
    for key in ("field.theta", "nv_axis.theta"):
        if not (0.0 <= values[key] <= 180.0):
            bad("%s out of range [0, 180]" % key)
    if values["sequence.tau_max"] <= 0:
        bad("sequence.tau_max must be positive")
    if not 2 <= values["sequence.n_points"] <= 2**20:
        bad("sequence.n_points must be in [2, 2**20]")
    if values["sequence.t2_star"] < 0:
        bad("sequence.t2_star must be >= 0 (0 disables dephasing)")
    for key in ("noise.sigma.sq_frequency", "noise.sigma.zq_frequency",
                "noise.sigma.zq_amplitude"):
        if values[key] < 0:
            bad("%s must be >= 0" % key)
    if values["noise.imperfection.amplitude"] != 0.0:
        if values["noise.imperfection.period"] == 0.0:
            bad("noise.imperfection.period must be nonzero")


def parse_file(path: str) -> RunConfig:
    with open(path) as fh:
        return parse(fh.read(), name=path)


def emit(cfg: RunConfig) -> str:
    """Canonical text for the explicitly set keys, in registry order."""
    keys = [k for k in _REGISTRY if k in cfg.explicit]
    return "".join(
        "%s = %s\n" % (k, _format_value(cfg.values[k])) for k in keys
    )


def normalize(text: str, name: str = "<config>") -> str:
    """Canonical form of config text: emit(parse(text))."""
    return emit(parse(text, name=name))


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """New config with ``key=value`` override strings applied."""
    values = dict(cfg.values)
    explicit = list(cfg.explicit)
    for item in pairs:
        key, sep, val = item.partition("=")
        key = key.strip()
        val = val.strip()
        if not sep:
            raise ConfigError("override %r is not key=value" % item)
        if key not in _REGISTRY:
            raise ConfigError("unknown key %r" % key)
        values[key] = _REGISTRY[key][0](val)
        if key not in explicit:
            explicit.append(key)
    _validate(values, "<override>")
    return RunConfig(values=values, explicit=tuple(explicit))


def lab_to_nv(theta_lab, phi_lab, axis_theta, axis_phi):
    """Rotate a lab-frame direction into the NV frame, degrees in and out.

    The NV z axis points along (axis_theta, axis_phi) in the lab; NV x is the
    lab e_theta direction at that orientation, NV y the e_phi direction.
    """
    tl, pl = np.radians(theta_lab), np.radians(phi_lab)
    ta, pa = np.radians(axis_theta), np.radians(axis_phi)
    v = np.array(
        [np.sin(tl) * np.cos(pl), np.sin(tl) * np.sin(pl), np.cos(tl)]
    )
    ez = np.array([np.sin(ta) * np.cos(pa), np.sin(ta) * np.sin(pa), np.cos(ta)])
    ex = np.array([np.cos(ta) * np.cos(pa), np.cos(ta) * np.sin(pa), -np.sin(ta)])
    ey = np.cross(ez, ex)
    x, y, z = float(ex @ v), float(ey @ v), float(ez @ v)
    theta = np.degrees(np.arccos(np.clip(z, -1.0, 1.0)))
    phi = np.degrees(np.arctan2(y, x)) % 360.0
    return float(theta), float(phi)
