"""Time-domain simulation of Rabi and zero-quantum Ramsey sequences.

The default path works in the eigenbasis of the static Hamiltonian, in the
frame rotating at the microwave carrier: free evolution is exactly diagonal
there, and the rotating wave approximation keeps only the drive matrix
elements between the ms0 manifold and the ms_plus/ms_minus manifolds (the
intra-manifold elements oscillate at the carrier frequency and average
out). The carrier sits at the mean of the two ms0 -> (ms_minus,
alpha_minus) transition frequencies plus an optional detuning, so the
detuning parameter measures symmetric offset from the Lambda doublet.
Propagation uses exp(-i 2 pi H t) with H in MHz, t in us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spin_core import (
    DRIVE_SX,
    Eigensystem,
    FieldOrientation,
    SystemParams,
    build_hamiltonian,
    eigensystem,
    lambda_excited_index,
    lambda_system,
)

# Drive operator normalized so rabi_amplitude equals the on-resonance Rabi
# frequency of an isolated two-level transition (|<e|sqrt(2) Sx|g>| = 1 for
# the bare electron states).
_DRIVE_NORM = np.sqrt(2.0) * DRIVE_SX


@dataclass(frozen=True)
class PulseParams:
    """Microwave drive strength (MHz) and carrier offset (MHz)."""

    rabi_amplitude: float
    carrier_detuning: float = 0.0

    def __post_init__(self):
        if self.rabi_amplitude < 0:
            raise ValueError("rabi_amplitude must be >= 0")


@dataclass(frozen=True)
class RamseyTrace:
    """Sampled population trace; envelope records any applied dephasing."""

    tau: np.ndarray
    signal: np.ndarray
    envelope: dict | None = None


@dataclass(frozen=True)
class SpectrumPeaks:
    """FFT peaks sorted by descending magnitude."""

    frequency: np.ndarray
    magnitude: np.ndarray


def rotating_frame_h(
    delta: float, splitting: float, omega_plus: float, omega_minus: float
) -> np.ndarray:
    """Three-level Lambda Hamiltonian in the rotating frame, basis (g+, e, g-).

    Diagonal (0, delta, -splitting); the drive enters at half amplitude per
    leg (rotating wave approximation).
    """
    return np.array(
        [
            [0.0, omega_plus / 2.0, 0.0],
            [omega_plus / 2.0, delta, omega_minus / 2.0],
            [0.0, omega_minus / 2.0, -splitting],
        ],
        dtype=complex,
    )


def propagate(segments, psi0: np.ndarray) -> np.ndarray:
    """Apply exp(-i 2 pi H_k t_k) for each (hamiltonian, duration) segment in order."""
    psi = np.asarray(psi0, dtype=complex)
    for h, t in segments:
        if t < 0:
            raise ValueError("segment duration must be >= 0")
        psi = scipy.linalg.expm(-2j * np.pi * np.asarray(h, dtype=complex) * t) @ psi
    return psi


def _unitary(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-2j * np.pi * w * t)) @ v.conj().T


def _carrier_frequency(eig: Eigensystem, params: SystemParams, detuning: float) -> float:
    exc = lambda_excited_index(eig, params.tensor)
    g = eig.indices("ms0")
    center = float(eig.values[exc] - 0.5 * (eig.values[g[0]] + eig.values[g[1]]))
    return center + detuning


def _p_ms0(psi_rows: np.ndarray) -> np.ndarray:
    return np.abs(psi_rows[..., 2]) ** 2 + np.abs(psi_rows[..., 3]) ** 2


def _rotating_frame(eig: Eigensystem, omega_c: float, rabi_amplitude: float):
    """Rotating-frame Hamiltonian in the eigenbasis of the static problem.

    Diagonal: eigenvalues, shifted down by omega_c on the ms_plus/ms_minus
    states. Drive: the carrier-resonant matrix elements only, i.e. the
    blocks connecting ms0 to the excited manifolds at half amplitude.
    """
    p_e = np.array([lab != "ms0" for lab in eig.manifold], dtype=float)
    x = eig.vectors.conj().T @ _DRIVE_NORM @ eig.vectors
    x = np.where(p_e[:, None] != p_e[None, :], x, 0.0)
    return np.diag(eig.values - omega_c * p_e) + 0.5 * rabi_amplitude * x, p_e


def simulate_rabi(
    params: SystemParams,
    field: FieldOrientation,
    pulse: PulseParams,
    t_grid: np.ndarray,
    lab_frame: bool = False,
) -> RamseyTrace:
    """Driven ms0 population for drive durations t_grid (us).

    Starts from an equal classical mixture of the two ms0 eigenstates.
    ``lab_frame=True`` propagates the explicitly time-dependent Hamiltonian
    (no rotating wave approximation) on a 100x finer time mesh, for
    validating the default rotating-frame path.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    h0 = build_hamiltonian(params, field)
    eig = eigensystem(h0)
    omega_c = _carrier_frequency(eig, params, pulse.carrier_detuning)
    g_idx = eig.indices("ms0")
    if len(g_idx) != 2:
        raise ValueError("ground manifold not resolved")
    if lab_frame:
        inits = [eig.vectors[:, i] for i in g_idx]
        sig = _rabi_lab_frame(h0, omega_c, pulse.rabi_amplitude, inits, t_grid)
        return RamseyTrace(tau=t_grid, signal=sig)
    h_rot, _ = _rotating_frame(eig, omega_c, pulse.rabi_amplitude)
    w, v = np.linalg.eigh(h_rot)
    sig = np.zeros_like(t_grid)
    phases = np.exp(-2j * np.pi * np.outer(t_grid, w))
    for i in g_idx:
        coef = v[i, :].conj()  # eigenbasis initial state is the unit vector e_i
        psi_t = (phases * coef) @ v.T  # rows: time points, eigenbasis
        sig += _p_ms0(psi_t @ eig.vectors.T)
    return RamseyTrace(tau=t_grid, signal=sig / len(g_idx))


def _rabi_lab_frame(h0, omega_c, amplitude, inits, t_grid):
    """Piecewise-constant integration of H(t) = H0 + amp cos(2 pi w t) sqrt2 Sx."""
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("t_grid must be non-decreasing")
    dt = 1.0 / (100.0 * omega_c)  # 100 steps per carrier period
    sig = np.zeros_like(t_grid)
    for k, psi0 in enumerate(inits):
        psi = psi0.astype(complex)
        t_now = 0.0
        for n, t_target in enumerate(t_grid):
            while t_now < t_target - 1e-15:
                step = min(dt, t_target - t_now)
                t_mid = t_now + 0.5 * step
                h = h0 + amplitude * np.cos(2 * np.pi * omega_c * t_mid) * _DRIVE_NORM
                psi = _unitary(h, step) @ psi
                t_now += step
            sig[n] += _p_ms0(psi[np.newaxis, :])[0]
    return sig / len(inits)


def pi_pulse_from_rabi(trace: RamseyTrace) -> float:
    """Pulse duration at the first local minimum of a Rabi trace (us).

    Refines the grid minimum with a three-point parabola. A trace with no
    interior local minimum raises.
    """
    s = np.asarray(trace.signal, dtype=float)
    t = np.asarray(trace.tau, dtype=float)
    if len(s) < 3:
        raise ValueError("no Rabi minimum found (trace too short)")
    for k in range(1, len(s) - 1):
        if s[k] <= s[k - 1] and s[k] <= s[k + 1] and (s[k] < s[k - 1] or s[k] < s[k + 1]):
            denom = s[k - 1] - 2 * s[k] + s[k + 1]
            if denom <= 0:
                return float(t[k])
            shift = 0.5 * (s[k - 1] - s[k + 1]) / denom
            shift = np.clip(shift, -1.0, 1.0)
            return float(t[k] + shift * (t[min(k + 1, len(t) - 1)] - t[k]))
    raise ValueError("no Rabi minimum found")


def _ideal_pi_unitary(eig: Eigensystem, params: SystemParams, field: FieldOrientation):
    """Instantaneous population swap between the excited level and the bright state."""
    op, om, exc, gp, gm = lambda_system(eig, params.tensor, field)
    n = np.hypot(op, om)
    if n == 0:
        raise ValueError("both Lambda amplitudes vanish; no pulse defined")
    bright = (op * eig.vectors[:, gp] + om * eig.vectors[:, gm]) / n
    ve = eig.vectors[:, exc]
    u = np.eye(6, dtype=complex)
    u -= np.outer(bright, bright.conj()) + np.outer(ve, ve.conj())
    u += np.outer(bright, ve.conj()) + np.outer(ve, bright.conj())
    return u


def simulate_zq_ramsey(
    params: SystemParams,
    field: FieldOrientation,
    pi_duration: float,
    detuning: float,
    tau_grid: np.ndarray,
    rabi_amplitude: float | None = None,
    ideal_pulses: bool = False,
) -> RamseyTrace:
    """ms0 population after pulse - free evolution tau - pulse.

    The initial state is an equal classical mixture of the two ms0
    eigenstates (two propagations averaged). The drive amplitude defaults to
    1/(2 pi_duration), i.e. the strength for which pi_duration is a resonant
    pi pulse. ``ideal_pulses=True`` replaces the physical pulses with the
    instantaneous excited/bright population swap (pi_duration ignored).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    h0 = build_hamiltonian(params, field)
    eig = eigensystem(h0)
    omega_c = _carrier_frequency(eig, params, detuning)
    g_idx = eig.indices("ms0")
    if len(g_idx) != 2:
        raise ValueError("ground manifold not resolved")
    if ideal_pulses:
        u_bare = _ideal_pi_unitary(eig, params, field)
        u_pulse = eig.vectors.conj().T @ u_bare @ eig.vectors
        p_e = np.array([lab != "ms0" for lab in eig.manifold], dtype=float)
    else:
        if not (pi_duration > 0):
            raise ValueError("pi_duration must be positive")
        if rabi_amplitude is None:
            rabi_amplitude = 1.0 / (2.0 * pi_duration)
        h_rot, p_e = _rotating_frame(eig, omega_c, rabi_amplitude)
        u_pulse = _unitary(h_rot, pi_duration)
    # free evolution is diagonal in the eigenbasis rotating frame
    w_free = eig.values - omega_c * p_e
    sig = np.zeros_like(tau_grid)
    phases = np.exp(-2j * np.pi * np.outer(tau_grid, w_free))
    for i in g_idx:
        coef = u_pulse[:, i]  # pulse applied to the eigenbasis unit vector e_i
        psi_free = phases * coef
        psi_out = psi_free @ u_pulse.T
        sig += _p_ms0(psi_out @ eig.vectors.T)
    return RamseyTrace(tau=tau_grid, signal=sig / len(g_idx))


def spectrum_peaks(trace: RamseyTrace, n_peaks: int = 4) -> SpectrumPeaks:
    """Dominant frequencies of a uniformly sampled trace, MHz.

    Mean-subtracted, Hann-windowed FFT magnitude; local maxima are refined by
    three-point parabolic interpolation and returned sorted by descending
    magnitude. A constant trace yields no peaks.
    """
    t = np.asarray(trace.tau, dtype=float)
    s = np.asarray(trace.signal, dtype=float)
    if len(t) < 16:
        raise ValueError("need at least 16 samples")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt.mean())) > 1e-9 * max(dt.mean(), 1e-30):
        raise ValueError("non-uniform sample grid")
    step = dt.mean()
    x = (s - s.mean()) * np.hanning(len(s))
    mag = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(s), step)
    floor = 1e-12 * max(np.max(mag), 1e-300)
    pk_f, pk_m = [], []
    for i in range(1, len(mag) - 1):
        if mag[i] > mag[i - 1] and mag[i] >= mag[i + 1] and mag[i] > floor:
            denom = mag[i - 1] - 2 * mag[i] + mag[i + 1]
            shift = 0.0 if denom >= 0 else 0.5 * (mag[i - 1] - mag[i + 1]) / denom
            pk_f.append((i + shift) * freqs[1])
            pk_m.append(mag[i] - 0.25 * (mag[i - 1] - mag[i + 1]) * shift)
    order = np.argsort(pk_m)[::-1][:n_peaks]
    return SpectrumPeaks(
        frequency=np.array([pk_f[i] for i in order]),
        magnitude=np.array([pk_m[i] for i in order]),
    )


def apply_dephasing(
    trace: RamseyTrace, t2_star: float, shape: str = "exponential"
) -> RamseyTrace:
    """Damp the oscillating part of a trace toward its mean.

    shape 'exponential' applies exp(-tau/T2*), 'gaussian' exp(-(tau/T2*)^2).
    """
    if not (t2_star > 0):
        raise ValueError("t2_star must be positive")
    tau = np.asarray(trace.tau, dtype=float)
    if shape == "exponential":
        env = np.exp(-tau / t2_star)
    elif shape == "gaussian":
        env = np.exp(-((tau / t2_star) ** 2))
    else:
        raise ValueError("unknown envelope shape %r" % (shape,))
    mean = trace.signal.mean()
    return RamseyTrace(
        tau=tau,
        signal=mean + (trace.signal - mean) * env,
        envelope={"t2_star": float(t2_star), "shape": shape},
    )
