"""Closed-form models for the zero-quantum splitting and Ramsey signals.

The ms0 nuclear doublet splitting Delta is dominated by second-order
hyperfine mixing through the ms_plus/ms_minus manifolds; the closed form
below lives in that regime (gamma_e B << D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_core import FieldOrientation, SystemParams


@dataclass(frozen=True)
class BrightDarkDecomposition:
    """Bright/dark combination of the two ms0 levels for a common excited state.

    Components are over the Lambda basis (|ground_plus>, |excited>,
    |ground_minus>); mixing_angle = atan2(omega_minus, omega_plus) in radians.
    """

    bright: np.ndarray
    dark: np.ndarray
    mixing_angle: float
    coupling: float


@dataclass(frozen=True)
class RamseyModelParams:
    """Inputs of the analytic zero-quantum Ramsey signal."""

    omega_plus: float
    omega_minus: float
    delta: float  # ms0 doublet splitting, MHz
    n_spins: int = 1

    def __post_init__(self):
        if self.omega_plus < 0 or self.omega_minus < 0:
            raise ValueError("drive amplitudes must be >= 0")
        if self.omega_plus == 0 and self.omega_minus == 0:
            raise ValueError("at least one drive amplitude must be nonzero")
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")


def delta_perturbative(params: SystemParams, field: FieldOrientation) -> float:
    """Closed-form ms0 doublet splitting, MHz.

    Second order in ms0 gives the enhanced nuclear field
    (2 gamma_e / D) (a_xx B_x, a_yy B_y, a B_x); Delta is its magnitude,

    Delta = (2 gamma_e B sin(theta) / D)
            * sqrt((a_xx^2 + a^2) cos^2(phi) + a_yy^2 sin^2(phi))

    The bare nuclear Zeeman term gamma_n B is dropped, so the zero tensor
    gives 0.
    """
    t = params.tensor
    th = np.radians(field.theta)
    ph = np.radians(field.phi)
    pref = 2.0 * params.gamma_e * field.b * np.sin(th) / params.d
    return float(
        pref * np.hypot(np.hypot(t.a_xx, t.a) * np.cos(ph), t.a_yy * np.sin(ph))
    )


def bright_dark(omega_plus: float, omega_minus: float) -> BrightDarkDecomposition:
    """Bright/dark decomposition of the ms0 doublet for given leg amplitudes.

    bright = (omega_plus |g+> + omega_minus |g->) / N,
    dark = (omega_minus |g+> - omega_plus |g->) / N, N^2 = op^2 + om^2.
    The transformed drive couples only |excited> <-> bright with strength N.
    """
    n2 = omega_plus**2 + omega_minus**2
    if n2 <= 0:
        raise ValueError("at least one drive amplitude must be nonzero")
    n = np.sqrt(n2)
    bright = np.array([omega_plus, 0.0, omega_minus]) / n
    dark = np.array([omega_minus, 0.0, -omega_plus]) / n
    return BrightDarkDecomposition(
        bright=bright,
        dark=dark,
        mixing_angle=float(np.arctan2(omega_minus, omega_plus)),
        coupling=float(n),
    )


def zq_ramsey_v(model: RamseyModelParams, tau: np.ndarray) -> np.ndarray:
    """Ground-doublet population after a V-type zero-quantum Ramsey sequence.

    p(tau) = (op^4 + om^4)/(op^2 + om^2)^2
             + 2 (op om / (op^2 + om^2))^2 cos(2 pi Delta tau)

    Detuning-free by construction; p(0) = 1.
    """
    tau = np.asarray(tau, dtype=float)
    op2 = model.omega_plus**2
    om2 = model.omega_minus**2
    offset = (op2**2 + om2**2) / (op2 + om2) ** 2
    amp = zq_beat_amplitude(model.omega_plus, model.omega_minus)
    return offset + amp * np.cos(2.0 * np.pi * model.delta * tau)


def zq_beat_amplitude(omega_plus: float, omega_minus: float) -> float:
    """Oscillation amplitude of the V-type signal, 2 (op om / (op^2+om^2))^2."""
    s = omega_plus**2 + omega_minus**2
    if s <= 0:
        raise ValueError("at least one drive amplitude must be nonzero")
    return float(2.0 * (omega_plus * omega_minus / s) ** 2)


def zq_ramsey_lambda(model: RamseyModelParams, tau: np.ndarray) -> np.ndarray:
    """Lambda-type (and N-nucleus) zero-quantum Ramsey signal.

    For one nucleus p = 1/2 + p_V/2; for n identical spectator nuclei the
    oscillating part carries the 2^-n initialization weight:
    p = (1 - 2^-n) + 2^-n p_V.
    """
    pv = zq_ramsey_v(model, tau)
    w = 0.5**model.n_spins
    return (1.0 - w) + w * pv
